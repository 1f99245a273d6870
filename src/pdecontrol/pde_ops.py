"""The three evolution operators of the presets (constant transport, heat,
Allen-Cahn) and the forward-Euler time-step bound that `verify` reports for
each stored solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Transport:
    """F[u] = -velocity . grad u (constant advection)."""

    velocity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))


@dataclass(frozen=True)
class Heat:
    """F[u] = laplacian(u)."""


@dataclass(frozen=True)
class AllenCahn:
    """F[u] = epsilon * laplacian(u) + 1.5 (u - u^3)."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


PdeOperator = Transport | Heat | AllenCahn


def required_flags(op: PdeOperator) -> dict:
    """Minimal BatchEval fields the operator consumes."""
    if isinstance(op, Transport):
        return {"value": False, "grad_x": True, "laplacian": False}
    if isinstance(op, Heat):
        return {"value": False, "grad_x": False, "laplacian": True}
    return {"value": True, "grad_x": False, "laplacian": True}


def apply_operator_arrays(op: PdeOperator, value, grad_x, laplacian) -> np.ndarray:
    """F[u] over a batch of points from the rom.eval_batch fields."""
    if isinstance(op, Transport):
        return -(grad_x @ op.velocity)
    if isinstance(op, Heat):
        return np.asarray(laplacian, dtype=np.float64)
    return op.epsilon * laplacian + 1.5 * (value - value**3)


def euler_bound(l_v: float, m_v: float, vol_omega: float, h: float, t: float) -> float:
    """Euler time-discretization contribution (L_V M_V |Omega| h / 2)(e^{L_V t} - 1)."""
    if min(l_v, m_v, vol_omega, h, t) < 0:
        raise ValueError("all arguments must be nonnegative")
    try:
        growth = math.expm1(l_v * t)
    except OverflowError:
        growth = math.inf
    return 0.5 * l_v * m_v * vol_omega * h * growth
