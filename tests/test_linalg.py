import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdecontrol import linalg
from pdecontrol.errors import FactorizationFailure, NonFiniteError


def gaussian_elimination_solve(gram, rhs) -> np.ndarray:
    """Naive Gaussian elimination with partial pivoting.

    Independent oracle for ridge_solve (lambda=0) on small invertible systems;
    kept free of numpy.linalg on purpose.
    """
    G = np.asarray(gram, dtype=np.float64).copy()
    p = np.asarray(rhs, dtype=np.float64).copy()
    m = G.shape[0]
    for col in range(m):
        pivot = col + int(np.argmax(np.abs(G[col:, col])))
        if abs(G[pivot, col]) < 1e-14:
            raise FactorizationFailure("pivot vanished in elimination oracle")
        if pivot != col:
            G[[col, pivot]] = G[[pivot, col]]
            p[[col, pivot]] = p[[pivot, col]]
        for row in range(col + 1, m):
            factor = G[row, col] / G[col, col]
            G[row, col:] -= factor * G[col, col:]
            p[row] -= factor * p[col]
    v = np.zeros(m)
    for row in range(m - 1, -1, -1):
        v[row] = (p[row] - G[row, row + 1 :] @ v[row + 1 :]) / G[row, row]
    return v


def test_ridge_identity_system():
    v = linalg.ridge_solve(np.eye(2), np.array([1.0, 2.0]), 0.0)
    assert np.allclose(v, [1.0, 2.0], atol=1e-12)


def test_ridge_monomial_gram():
    # Gram of (x, x^2) on (0,1); p is its first column, so the solution is e1.
    G = np.array([[1 / 3, 1 / 4], [1 / 4, 1 / 5]])
    v = linalg.ridge_solve(G, np.array([1 / 3, 1 / 4]), 0.0)
    assert np.allclose(v, [1.0, 0.0], atol=1e-10)


def test_ridge_zero_matrix_with_unit_ridge():
    v = linalg.ridge_solve(np.zeros((2, 2)), np.array([1.0, 0.0]), 1.0)
    assert np.allclose(v, [1.0, 0.0], atol=1e-14)


def test_ridge_rejects_nonfinite():
    G = np.eye(2)
    with pytest.raises(NonFiniteError):
        linalg.ridge_solve(G, np.array([np.nan, 0.0]), 0.0)
    bad = G.copy()
    bad[0, 0] = np.inf
    with pytest.raises(NonFiniteError):
        linalg.ridge_solve(bad, np.array([1.0, 0.0]), 0.0)


def test_ridge_rejects_asymmetric():
    G = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        linalg.ridge_solve(G, np.array([1.0, 1.0]), 0.0)


def test_ridge_handles_singular_via_clipping():
    # rank-1 PSD with lambda=0 falls back to clipped eigensolve
    G = np.outer([1.0, 1.0], [1.0, 1.0])
    p = np.array([1.0, 1.0])
    v = linalg.ridge_solve(G, p, 0.0)
    assert np.all(np.isfinite(v))
    # the solve still reproduces p on the range of G
    assert np.allclose(G @ v, p, atol=1e-6)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_ridge_residual_property(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    G = A @ A.T + 0.1 * np.eye(m)
    p = rng.standard_normal(m)
    lam = float(rng.uniform(0.0, 0.5))
    v = linalg.ridge_solve(G, p, lam)
    shifted = G + lam * np.eye(m)
    assert np.linalg.norm(shifted @ v - p) <= 1e-8 * (np.linalg.norm(p) + 1.0)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_ridge_matches_elimination_oracle(m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    G = A @ A.T + 0.2 * np.eye(m)
    p = rng.standard_normal(m)
    v = linalg.ridge_solve(G, p, 0.0)
    v_oracle = gaussian_elimination_solve(G, p)
    assert np.allclose(v, v_oracle, rtol=1e-8, atol=1e-10)


def test_ridge_deterministic_bit_identical():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 5))
    G = A @ A.T
    p = rng.standard_normal(5)
    v1 = linalg.ridge_solve(G, p, 1e-6)
    v2 = linalg.ridge_solve(G.copy(), p.copy(), 1e-6)
    assert v1.tobytes() == v2.tobytes()


def test_default_ridge_lambda_scale():
    G = np.diag([1.0, 2.0, 3.0])
    assert linalg.default_ridge_lambda(G) == pytest.approx(1e-6 * 2.0)


def test_importing_the_pipeline_leaves_scipy_linalg_unimported():
    # ridge_solve runs on numpy alone; scipy.linalg costs about 6 MB of RSS
    # and 0.08 s per process
    code = "import sys, pdecontrol.pipeline; print('scipy.linalg' in sys.modules)"
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
