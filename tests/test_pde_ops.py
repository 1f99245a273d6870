import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdecontrol import pde_ops


# Local Lipschitz constant of 1.5(u - u^3) on |u| <= 1.5
_AC_UMAX = 1.5


def operator_metadata(op) -> tuple[float, float, float]:
    """(lipschitz_f, ellipticity, div_b_bound) of an operator: the Lipschitz
    constant L_f of its reaction term, its ellipticity lambda and the bound
    B on the divergence of its advection, which theory_bound reads."""
    if isinstance(op, pde_ops.Transport):
        return 0.0, 0.0, 0.0
    if isinstance(op, pde_ops.Heat):
        return 0.0, 1.0, 0.0
    return 1.5 * (3.0 * _AC_UMAX**2 - 1.0), op.epsilon, 0.0


def theory_bound(op, c_poincare: float, eps0: float, eps: float, t: float) -> float:
    """Gronwall bound on e(t) for e' <= r e + eps, e(0) = eps0, with rate
    r = L_f + B/2 - lambda/C_p: the exact solution e^{rt} eps0 + eps (e^{rt} - 1)/r
    (eps0 + eps t when r = 0). It holds for every sign of r."""
    if c_poincare <= 0:
        raise ValueError("c_poincare must be positive")
    if eps0 < 0 or eps < 0 or t < 0:
        raise ValueError("eps0, eps, t must be nonnegative")
    lipschitz_f, ellipticity, div_b_bound = operator_metadata(op)
    rate = lipschitz_f + 0.5 * div_b_bound - ellipticity / c_poincare
    if rate == 0.0:
        return eps0 + eps * t
    return math.exp(rate * t) * eps0 + eps * math.expm1(rate * t) / rate


def apply_at_point(op, value=0.0, grad=None, lap=0.0):
    """F[u] at one point from its value, gradient and Laplacian."""
    grad = np.zeros(1) if grad is None else np.asarray(grad, dtype=float)
    return float(pde_ops.apply_operator_arrays(op, np.array([value]), grad[None, :], np.array([lap]))[0])


def test_heat_passthrough():
    assert apply_at_point(pde_ops.Heat(), lap=-np.pi**2 * np.sqrt(2.0)) == pytest.approx(-np.pi**2 * np.sqrt(2.0))


def test_transport_dot_product():
    d = 4
    c = 0.37
    op = pde_ops.Transport(velocity=np.ones(d))
    assert apply_at_point(op, grad=np.full(d, c)) == pytest.approx(-d * c)


def test_allen_cahn_fixed_points():
    op = pde_ops.AllenCahn(epsilon=1e-4)
    for u in (-1.0, 0.0, 1.0):
        assert apply_at_point(op, value=u, lap=0.0) == pytest.approx(0.0)


def test_theory_bound_examples():
    assert theory_bound(pde_ops.AllenCahn(epsilon=1e-4), 1.0, 0.25, 0.0, 0.0) == pytest.approx(0.25)
    got = theory_bound(pde_ops.Heat(), 1.0 / np.pi**2, 0.0, 0.1, 1.0)
    assert got == pytest.approx(0.1 * (1.0 - np.exp(-np.pi**2)) / np.pi**2, rel=1e-12)
    # zero net rate keeps the bound constant in t
    op = pde_ops.Transport(velocity=[1.0])
    for t in (0.0, 1.0, 7.0):
        assert theory_bound(op, 1.0, 0.01, 0.0, t) == pytest.approx(0.01)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_theory_bound_monotone_when_rate_nonneg(t1, t2):
    op = pde_ops.AllenCahn(epsilon=1e-4)  # rate = L_f - eps / C_p > 0
    lo, hi = min(t1, t2), max(t1, t2)
    assert theory_bound(op, 1.0, 0.1, 0.2, hi) >= theory_bound(op, 1.0, 0.1, 0.2, lo) - 1e-15


def test_theory_bound_covers_decaying_error():
    # e' = -pi^2 e + 0.1, e(0) = 0 (rate -pi^2 for heat with C_p = 1/pi^2):
    # the bound must not fall below the true error at any t
    for t in (0.01, 0.1, 0.5, 1.0):
        true = 0.1 * (1.0 - np.exp(-np.pi**2 * t)) / np.pi**2
        assert theory_bound(pde_ops.Heat(), 1.0 / np.pi**2, 0.0, 0.1, t) >= true * (1 - 1e-12)


def test_euler_bound_examples():
    assert pde_ops.euler_bound(1.0, 2.0, 1.0, 0.0, 1.0) == 0.0
    assert pde_ops.euler_bound(1.0, 2.0, 1.0, 0.1, 0.0) == 0.0
    assert pde_ops.euler_bound(1.0, 2.0, 1.0, 0.1, 1.0) == pytest.approx(0.1 * (np.e - 1.0), rel=1e-12)
    assert pde_ops.euler_bound(1000.0, 2.0, 1.0, 0.1, 1.0) == np.inf  # e^{L_V t} overflows


def test_operator_metadata():
    assert operator_metadata(pde_ops.Heat()) == (0.0, 1.0, 0.0)
    assert operator_metadata(pde_ops.Transport(velocity=np.ones(3))) == (0.0, 0.0, 0.0)
    lipschitz_f, ellipticity, _ = operator_metadata(pde_ops.AllenCahn(epsilon=1e-4))
    assert ellipticity == 1e-4
    assert lipschitz_f == pytest.approx(1.5 * (3 * 1.5**2 - 1))
