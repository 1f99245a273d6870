"""ADAM with bias correction.

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

