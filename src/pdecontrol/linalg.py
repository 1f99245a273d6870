"""Dense symmetric linear algebra: the ridge solve behind each Gram-march
step.

Vectors and matrices are plain float64 numpy arrays (1-D and row-major 2-D).
Everything here is pure and deterministic: identical inputs give bit-identical
outputs, so cached artifacts stay reproducible across runs and thread counts.
"""

from __future__ import annotations

import numpy as np

from .errors import FactorizationFailure, NonFiniteError

SYMMETRY_RTOL = 1e-10
EIG_CLIP = 1e-12


def default_ridge_lambda(gram: np.ndarray) -> float:
    """Scale-aware ridge weight: 1e-6 * trace(G)/m (0 for an all-zero matrix)."""
    m = gram.shape[0]
    if m == 0:
        return 0.0
    return 1e-6 * float(np.trace(gram)) / m


def ridge_solve(gram, rhs, lambda_reg: float = 0.0) -> np.ndarray:
    """Solve (G + lambda*I) v = p for symmetric PSD G.

    The solution minimizes v^T G v - 2 v^T p + lambda*|v|^2, not
    |Gv - p|^2 + lambda*|v|^2. Solved by Cholesky on the shifted matrix,
    its two triangular systems by numpy.linalg.solve (so the package never
    imports scipy.linalg), falling back to an eigendecomposition with
    eigenvalues clipped at 1e-12 when the factorization breaks down
    (rank-deficient G with lambda ~ 0).
    """
    G = np.ascontiguousarray(gram, dtype=np.float64)
    p = np.ascontiguousarray(rhs, dtype=np.float64)
    if G.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {G.shape}")
    if p.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {p.shape}")
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(p))):
        raise NonFiniteError("non-finite entry in input array")
    if G.shape[0] != G.shape[1]:
        raise ValueError("G must be square")
    if p.shape[0] != G.shape[0]:
        raise ValueError("p length must match G")
    if lambda_reg < 0:
        raise ValueError("lambda_reg must be nonnegative")
    scale = np.abs(G).max() if G.size else 0.0
    if np.abs(G - G.T).max() > SYMMETRY_RTOL * max(scale, 1.0):
        raise ValueError("matrix is not symmetric within tolerance")

    m = G.shape[0]
    shifted = G + lambda_reg * np.eye(m)
    try:
        chol = np.linalg.cholesky(shifted)
        v = np.linalg.solve(chol.T, np.linalg.solve(chol, p))
    except np.linalg.LinAlgError:
        try:
            eigvals, eigvecs = np.linalg.eigh(shifted)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite sym input
            raise FactorizationFailure("eigendecomposition failed") from exc
        clipped = np.maximum(eigvals, EIG_CLIP)
        v = eigvecs @ ((eigvecs.T @ p) / clipped)
    if not np.all(np.isfinite(v)):
        raise FactorizationFailure("solve produced non-finite values; lambda_reg too small")
    return v
