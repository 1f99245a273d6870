"""ADAM with bias correction, plus the loss-plateau stopping rule.

Shared by control-field training and initial-condition fitting. The update is
the textbook one, at ADAM's standard moments (BETA1, BETA2, EPS; no run sets
them):
    m_t = b1 m_{t-1} + (1-b1) g,     v_t = b2 v_{t-1} + (1-b2) g^2,
    x  -= lr * (m_t / (1-b1^t)) / (sqrt(v_t / (1-b2^t)) + eps).
"""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# steps the plateau rule of control-field training averages over
PLATEAU_WINDOW = 100


class Adam:
    def __init__(self, size: int, lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grad
        self.v = BETA2 * self.v + (1.0 - BETA2) * grad * grad
        m_hat = self.m / (1.0 - BETA1**self.t)
        v_hat = self.v / (1.0 - BETA2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def plateau_triggered(losses, window: int, pct_threshold: float) -> bool:
    """True once the mean per-step percent decrease over the last `window`
    steps falls below pct_threshold. Needs window+1 recorded losses."""
    if len(losses) < window + 1:
        return False
    tail = losses[-(window + 1):]
    decs = []
    for a, b in zip(tail[:-1], tail[1:]):
        decs.append(100.0 * (a - b) / abs(a) if a != 0 else 0.0)
    return float(np.mean(decs)) < pct_threshold
