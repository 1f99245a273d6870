import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdecontrol import pde_ops


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
    assert pde_ops.theory_bound(pde_ops.AllenCahn(epsilon=1e-4), 1.0, 0.25, 0.0, 0.0) == pytest.approx(0.25)
    got = pde_ops.theory_bound(pde_ops.Heat(), 1.0 / np.pi**2, 0.0, 0.1, 1.0)
    assert got == pytest.approx(0.1 * (1.0 - np.exp(-np.pi**2)) / np.pi**2, rel=1e-12)
    # zero net rate keeps the bound constant in t
    op = pde_ops.Transport(velocity=[1.0])
    for t in (0.0, 1.0, 7.0):
        assert pde_ops.theory_bound(op, 1.0, 0.01, 0.0, t) == pytest.approx(0.01)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_theory_bound_monotone_when_rate_nonneg(t1, t2):
    op = pde_ops.AllenCahn(epsilon=1e-4)  # rate = L_f - eps / C_p > 0
    lo, hi = min(t1, t2), max(t1, t2)
    assert pde_ops.theory_bound(op, 1.0, 0.1, 0.2, hi) >= pde_ops.theory_bound(op, 1.0, 0.1, 0.2, lo) - 1e-15


def test_theory_bound_covers_decaying_error():
    # e' = -pi^2 e + 0.1, e(0) = 0 (rate -pi^2 for heat with C_p = 1/pi^2):
    # the bound must not fall below the true error at any t
    for t in (0.01, 0.1, 0.5, 1.0):
        true = 0.1 * (1.0 - np.exp(-np.pi**2 * t)) / np.pi**2
        assert pde_ops.theory_bound(pde_ops.Heat(), 1.0 / np.pi**2, 0.0, 0.1, t) >= true * (1 - 1e-12)


def test_euler_bound_examples():
    assert pde_ops.euler_bound(1.0, 2.0, 1.0, 0.0, 1.0) == 0.0
    assert pde_ops.euler_bound(1.0, 2.0, 1.0, 0.1, 0.0) == 0.0
    assert pde_ops.euler_bound(1.0, 2.0, 1.0, 0.1, 1.0) == pytest.approx(0.1 * (np.e - 1.0), rel=1e-12)
    assert pde_ops.euler_bound(1000.0, 2.0, 1.0, 0.1, 1.0) == np.inf  # e^{L_V t} overflows


def test_operator_metadata():
    heat = pde_ops.Heat()
    assert (heat.lipschitz_f, heat.ellipticity, heat.div_b_bound) == (0.0, 1.0, 0.0)
    tr = pde_ops.Transport(velocity=np.ones(3))
    assert (tr.lipschitz_f, tr.ellipticity, tr.div_b_bound) == (0.0, 0.0, 0.0)
    ac = pde_ops.AllenCahn(epsilon=1e-4)
    assert ac.ellipticity == 1e-4
    assert ac.lipschitz_f == pytest.approx(1.5 * (3 * 1.5**2 - 1))
