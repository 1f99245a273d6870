"""ADAM with bias correction.

Shared by control-field training and initial-condition fitting. The update is
the textbook one, at ADAM's standard moments (BETA1, BETA2, EPS; no run sets
them):
    m_t = b1 m_{t-1} + (1-b1) g,     v_t = b2 v_{t-1} + (1-b2) g^2,
    x  -= lr * (m_t / (1-b1^t)) / (sqrt(v_t / (1-b2^t)) + eps).
The update is elementwise, so a step runs it over slices of _SLICE entries
of the last axis in turn, with two slice-sized scratch arrays made once: a
step updates x and the moments in place, each ufunc the textbook
expression's operation in its order, so it allocates nothing and its result
is the textbook one bit for bit, while one slice's operands stay in cache
across the dozen passes. A size of (K, m) steps K parameter vectors in
lockstep, each exactly as on its own.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# entries of the last axis per slice: a slice's six operands (x, g, m, v and
# the scratch) take 768 KiB, which stays in a core's L2 cache over the
# dozen passes; 4,096 was slower on a 136k-parameter step
_SLICE = 16384


class Adam:
    def __init__(self, size: int | tuple[int, int], lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty((2,) + self.m.shape[:-1] + (min(self.m.shape[-1], _SLICE),))

    def keep(self, rows: np.ndarray) -> None:
        """Keeps only the rows `rows` of a stack of parameter vectors run in
        lockstep (size (K, m)): the moments of the other rows are dropped,
        and the kept rows step on as they would have."""
        self.m, self.v = self.m[rows], self.v[rows]
        self._scratch = self._scratch[:, : self.m.shape[0]]

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One update of params, in place; returns params."""
        self.t += 1
        c1, c2 = 1.0 - BETA1**self.t, 1.0 - BETA2**self.t
        for lo in range(0, params.shape[-1], _SLICE):
            part = (..., slice(lo, lo + _SLICE))
            x, g, m, v = params[part], grad[part], self.m[part], self.v[part]
            a, b = self._scratch[..., : x.shape[-1]]
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, c1, out=a)  # m_hat
            a *= self.lr
            np.divide(v, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += EPS
            x -= np.divide(a, b, out=a)
        return params
