"""ADAM with bias correction.

Shared by control-field training and initial-condition fitting. The update is
the textbook one, at ADAM's standard moments (BETA1, BETA2, EPS; no run sets
them):
    m_t = b1 m_{t-1} + (1-b1) g,     v_t = b2 v_{t-1} + (1-b2) g^2,
    x  -= lr * (m_t / (1-b1^t)) / (sqrt(v_t / (1-b2^t)) + eps).
A step updates x, the moments and two scratch vectors in place, each ufunc
the textbook expression's operation in its order, so a step allocates
nothing and its result is the textbook one bit for bit. A size of (K, m)
steps K parameter vectors in lockstep, each exactly as on its own.
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, size: int | tuple[int, int], lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty(size), np.empty(size)

    def keep(self, rows: np.ndarray) -> None:
        """Keeps only the rows `rows` of a stack of parameter vectors run in
        lockstep (size (K, m)): the moments of the other rows are dropped,
        and the kept rows step on as they would have."""
        self.m, self.v = self.m[rows], self.v[rows]
        self._scratch = np.empty_like(self.m), np.empty_like(self.m)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """One update of params, in place; returns params."""
        self.t += 1
        a, b = self._scratch
        self.m *= BETA1
        self.m += np.multiply(grad, 1.0 - BETA1, out=a)
        self.v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=a)
        self.v += np.multiply(a, grad, out=a)
        np.divide(self.m, 1.0 - BETA1**self.t, out=a)  # m_hat
        a *= self.lr
        np.divide(self.v, 1.0 - BETA2**self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += EPS
        params -= np.divide(a, b, out=a)
        return params
