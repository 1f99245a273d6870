"""The three evolution operators of the presets (constant transport, heat,
Allen-Cahn), the problem box they act on, and the closed-form error bounds:
the Gronwall bound of the continuous error and the Euler time-step term that
`verify` reports for each stored solve.

Each operator declares the Lipschitz/ellipticity metadata consumed by the
Gronwall bound (never by the dynamics).
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

    lipschitz_f: float = 0.0
    ellipticity: float = 0.0
    div_b_bound: float = 0.0

    @property
    def tag(self) -> str:
        comps = ",".join(repr(float(v)) for v in self.velocity)
        return f"transport[v=({comps})]"


@dataclass(frozen=True)
class Heat:
    """F[u] = laplacian(u)."""

    lipschitz_f: float = 0.0
    ellipticity: float = 1.0
    div_b_bound: float = 0.0

    @property
    def tag(self) -> str:
        return "heat"


# Local Lipschitz constant of 1.5(u - u^3) on |u| <= 1.5; reporting only.
_AC_UMAX = 1.5


@dataclass(frozen=True)
class AllenCahn:
    """F[u] = epsilon * laplacian(u) + 1.5 (u - u^3)."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def lipschitz_f(self) -> float:
        return 1.5 * (3.0 * _AC_UMAX**2 - 1.0)

    @property
    def ellipticity(self) -> float:
        return self.epsilon

    div_b_bound: float = 0.0

    @property
    def tag(self) -> str:
        return f"allen_cahn[eps={self.epsilon!r}]"


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


@dataclass(frozen=True)
class Problem:
    """An operator on an axis-aligned box with a horizon. The boundary
    condition is not stored here: the rom_arch kind enforces it."""

    operator: PdeOperator
    lo: np.ndarray
    hi: np.ndarray
    horizon: float

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("domain requires lo < hi per coordinate")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))


def theory_bound(op: PdeOperator, c_poincare: float, eps0: float, eps: float, t: float) -> float:
    """Gronwall bound on e(t) for e' <= r e + eps, e(0) = eps0, with rate
    r = L_f + B/2 - lambda/C_p: the exact solution e^{rt} eps0 + eps (e^{rt} - 1)/r
    (eps0 + eps t when r = 0). It holds for every sign of r."""
    if c_poincare <= 0:
        raise ValueError("c_poincare must be positive")
    if eps0 < 0 or eps < 0 or t < 0:
        raise ValueError("eps0, eps, t must be nonnegative")
    rate = op.lipschitz_f + 0.5 * op.div_b_bound - op.ellipticity / c_poincare
    if rate == 0.0:
        return eps0 + eps * t
    return math.exp(rate * t) * eps0 + eps * math.expm1(rate * t) / rate


def euler_bound(l_v: float, m_v: float, vol_omega: float, h: float, t: float) -> float:
    """Euler time-discretization contribution (L_V M_V |Omega| h / 2)(e^{L_V t} - 1)."""
    if min(l_v, m_v, vol_omega, h, t) < 0:
        raise ValueError("all arguments must be nonnegative")
    try:
        growth = math.expm1(l_v * t)
    except OverflowError:
        growth = math.inf
    return 0.5 * l_v * m_v * vol_omega * h * growth
