"""Fitting initial parameters: find theta0 so the reduced-order model matches
a prescribed initial function in empirical least squares.

The fitted initial-condition families, one per problem kind:
  * HeatCombo (heat): a weighted sum of the modes sin(k pi x), k = 1..4, on
    (0,1).
  * ChebCombo (allen_cahn): Chebyshev tensor products times the (-1,1)^2
    boundary factor.
eval_initial evaluates them. A transport initial is the model at a point of
the box theta_space, drawn by the pipeline; it has no spec and needs no fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binfile, rom
from .errors import ConfigError
from .optim import Adam
from .sampling import Purpose, sample_omega


@dataclass(frozen=True)
class HeatCombo:
    coeffs: np.ndarray  # 4 weights, |c_i| <= 1

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", c)
        if c.shape != (4,):
            raise ValueError("HeatCombo takes exactly 4 coefficients")
        if np.abs(c).max() > 1.0 + 1e-12:
            raise ValueError("HeatCombo coefficients must satisfy |c_i| <= 1")

    def describe(self) -> dict:
        return {"kind": "heat_combo", "coeffs": self.coeffs.tolist()}


@dataclass(frozen=True)
class ChebCombo:
    terms: tuple  # ((i, j, c), ...) with degrees <= 6, |c| <= 1, <= 36 terms

    def __post_init__(self):
        terms = tuple((int(i), int(j), float(c)) for i, j, c in self.terms)
        object.__setattr__(self, "terms", terms)
        if not 1 <= len(terms) <= 36:
            raise ValueError("ChebCombo takes 1..36 terms")
        for i, j, c in terms:
            if not (0 <= i <= 6 and 0 <= j <= 6):
                raise ValueError("Chebyshev degrees must be <= 6")
            if abs(c) > 1.0 + 1e-12:
                raise ValueError("|c| must be <= 1")

    def describe(self) -> dict:
        return {"kind": "cheb_combo", "terms": [list(t) for t in self.terms]}


InitialSpec = HeatCombo | ChebCombo


def spec_from_dict(doc: dict) -> InitialSpec:
    """Rebuild a spec from its describe() dict."""
    kind = doc.get("kind")
    if kind == "heat_combo":
        return HeatCombo(coeffs=np.array(doc["coeffs"]))
    if kind == "cheb_combo":
        return ChebCombo(terms=tuple(tuple(t) for t in doc["terms"]))
    raise ConfigError(f"cannot reconstruct initial spec of kind {kind!r}")


def eval_initial(spec: InitialSpec, X) -> np.ndarray:
    """Evaluate a fitted family's initial function at points X (n, d)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if isinstance(spec, HeatCombo):
        x = X[:, 0]
        return np.stack([np.sin(k * np.pi * x) for k in range(1, 5)], axis=1) @ spec.coeffs
    x1, x2 = X[:, 0], X[:, 1]
    alpha = (1.0 - x1 * x1) * (1.0 - x2 * x2)
    acc = np.zeros(X.shape[0])
    for i, j, c in spec.terms:
        ti = np.polynomial.chebyshev.chebval(x1, [0.0] * i + [1.0])
        tj = np.polynomial.chebyshev.chebval(x2, [0.0] * j + [1.0])
        acc += c * ti * tj
    return alpha * acc


@dataclass
class FitResult:
    theta: np.ndarray
    rmse: float  # held-out RMSE over the domain
    target_reached: bool
    steps: int


def fit_initial(
    arch: rom.RomArch,
    spec: InitialSpec,
    n_x: int,
    eps0_target: float,
    seed: int,
    *,
    lr: float,
    max_steps: int,
    theta_init: np.ndarray | None = None,
) -> FitResult:
    """theta0 minimising the empirical squared error
    (1/N) sum (u_theta(x_n) - g(x_n))^2 over points x_n of the arch's box.

    A linear basis, u_theta = Phi(x) theta, takes the exact minimiser: one
    least-squares solve on the basis table Phi(X) (steps 1; lr, max_steps
    and theta_init are unused). A net runs ADAM with the config's
    initials.fit block (lr, max_steps) until the training-sample RMSE
    reaches eps0_target or max_steps, and keeps the best parameters seen;
    theta_init, if given, replaces rom.init_params(arch, seed) as the start
    (the pipeline never passes it). target_reached says whether the
    training RMSE is within eps0_target; rmse is the held-out RMSE on a
    disjoint sample, drawn under the same seed for Purpose.FIT_HOLDOUT.
    """
    X = sample_omega(arch.domain, n_x, seed, Purpose.FIT_SAMPLE)
    g_train = eval_initial(spec, X)
    if arch.kind == rom.LINEAR_BASIS:
        zero = rom.RomModel(arch, np.zeros(rom.param_count(arch)))
        basis = rom.eval_batch(zero, X, rom.EvalFlags(value=False, grad_theta=True)).grad_theta
        best_theta = np.linalg.lstsq(basis, g_train, rcond=None)[0]
        res = basis @ best_theta - g_train
        best_mse, steps_done = float(np.mean(res * res)), 1
    else:
        theta = rom.init_params(arch, seed) if theta_init is None else np.array(theta_init, dtype=np.float64)
        best_theta, best_mse, steps_done = _adam_fit(arch, X, g_train, theta, eps0_target, lr, max_steps)

    holdout = sample_omega(arch.domain, n_x, seed, Purpose.FIT_HOLDOUT)
    model = rom.RomModel(arch, best_theta)
    res_h = rom.eval_batch(model, holdout, rom.EvalFlags(value=True)).value - eval_initial(spec, holdout)
    rmse_h = float(np.sqrt(np.mean(res_h * res_h)))
    return FitResult(
        theta=best_theta,
        rmse=rmse_h,
        target_reached=np.sqrt(best_mse) <= eps0_target,
        steps=steps_done,
    )


def _adam_fit(arch, X, g_train, theta, eps0_target, lr, max_steps) -> tuple[np.ndarray, float, int]:
    """(best theta, its training MSE, steps run) of ADAM from theta, which
    is left as it was. Each step's gradient is the ROM's pullback of the
    cotangent 2 (u - g) / n; a fit that runs to max_steps evaluates
    max_steps parameter vectors and so takes max_steps - 1 ADAM steps."""
    adam = Adam(theta.size, lr)
    at = rom.pullback_at(arch, X)

    theta = theta.copy()  # ADAM steps it in place
    best_theta = theta.copy()
    best_mse = np.inf
    n = X.shape[0]
    steps_done = 0
    for step in range(1, max_steps + 1):
        u, pullback = at(theta)
        res = u - g_train
        mse = float(np.mean(res * res))
        if mse < best_mse:
            best_mse = mse
            best_theta = theta.copy()
        steps_done = step
        if np.sqrt(mse) <= eps0_target or step == max_steps:
            break  # the last step's update would never be evaluated
        adam.step(theta, pullback(2.0 * res / n))
    return best_theta, best_mse, steps_done


# ---------------------------------------------------------------------------
# anchor store

ANCHOR_FORMAT_VERSION = 4


def save_anchors(path, header: dict, entries: list[tuple[InitialSpec | None, np.ndarray, float]]) -> None:
    """The anchor thetas as binfile rows of length header["m"]; the header
    gains the specs (null for a transport anchor, which has none) and the
    fit RMSEs."""
    header = {
        "format_version": ANCHOR_FORMAT_VERSION,
        "kind": "anchor_store",
        **header,
        "specs": [None if spec is None else spec.describe() for spec, _, _ in entries],
        "rmse": [rmse for _, _, rmse in entries],
    }
    binfile.save(path, header, np.reshape([theta for _, theta, _ in entries], (len(entries), header["m"])))


def load_anchors(path, header: dict) -> tuple[dict, np.ndarray]:
    """(header, thetas) of an anchor store; checks the expected header."""
    return binfile.load(path, "anchor_store", ANCHOR_FORMAT_VERSION, header, "rerun fit-initial")
