"""Fitting initial parameters: find theta0 so the reduced-order model matches
a prescribed initial function in empirical least squares.

Initial-condition families:
  * RandomTheta: the initial IS the model at a sampled parameter point.
  * HeatCombo: weighted product-sine bases on the unit box. In 1-D the family
    degenerates, so it is taken as the pure modes sin(k pi x), k = 1..4.
  * ChebCombo: Chebyshev tensor products times the (-1,1)^2 boundary factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binfile, rom
from .errors import ConfigError
from .optim import Adam
from .sampling import sample_omega, sample_theta

HOLDOUT_STREAM = 101
TRAIN_STREAM = 100


@dataclass(frozen=True)
class RandomTheta:
    seed: int

    def describe(self) -> dict:
        return {"kind": "random_theta", "seed": self.seed}


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


InitialSpec = RandomTheta | HeatCombo | ChebCombo


def spec_from_dict(doc: dict) -> InitialSpec:
    """Rebuild a spec from its describe() dict."""
    kind = doc.get("kind")
    if kind == "random_theta":
        return RandomTheta(seed=doc["seed"])
    if kind == "heat_combo":
        return HeatCombo(coeffs=np.array(doc["coeffs"]))
    if kind == "cheb_combo":
        return ChebCombo(terms=tuple(tuple(t) for t in doc["terms"]))
    raise ConfigError(f"cannot reconstruct initial spec of kind {kind!r}")


def _heat_basis_values(X: np.ndarray) -> np.ndarray:
    """The four base initial functions, columns of a (n, 4) matrix."""
    n, d = X.shape
    if d == 1:
        x = X[:, 0]
        return np.stack([np.sin(k * np.pi * x) for k in range(1, 5)], axis=1)
    sin_all = np.sin(np.pi * X)
    prod_all = sin_all.prod(axis=1)
    g1 = prod_all
    g2 = np.sin(2 * np.pi * X[:, 0]) * prod_all
    g3 = np.sin(2 * np.pi * X[:, 1]) * prod_all / sin_all[:, 1]
    g4 = np.sin(2 * np.pi * X[:, 0]) * np.sin(2 * np.pi * X[:, 1]) * prod_all / (
        sin_all[:, 0] * sin_all[:, 1]
    )
    return np.stack([g1, g2, g3, g4], axis=1)


def eval_initial(spec: InitialSpec, X, model: rom.RomModel | None = None) -> np.ndarray:
    """Evaluate the initial function at points X (n, d).

    RandomTheta requires the resolved model (the sampled parameter point).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if isinstance(spec, RandomTheta):
        if model is None:
            raise ValueError("RandomTheta evaluation needs the resolved RomModel")
        return rom.eval_batch(model, X, rom.EvalFlags(value=True)).value
    if isinstance(spec, HeatCombo):
        return _heat_basis_values(X) @ spec.coeffs
    # ChebCombo, the remaining family
    x1, x2 = X[:, 0], X[:, 1]
    alpha = (1.0 - x1 * x1) * (1.0 - x2 * x2)
    acc = np.zeros(X.shape[0])
    for i, j, c in spec.terms:
        ti = np.polynomial.chebyshev.chebval(x1, [0.0] * i + [1.0])
        tj = np.polynomial.chebyshev.chebval(x2, [0.0] * j + [1.0])
        acc += c * ti * tj
    return alpha * acc


def resolve_random_theta(spec: RandomTheta, arch: rom.RomArch, theta_space) -> rom.RomModel:
    """Materialize the model whose parameters define a RandomTheta initial."""
    return rom.RomModel(arch, sample_theta(theta_space, 1, spec.seed, stream=7)[0])


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
    """ADAM on the empirical squared error (1/N) sum (u_theta(x_n) - g(x_n))^2
    over points x_n of the arch's box; lr and max_steps are the config's
    initials.fit block.

    Stops when the training-sample RMSE reaches eps0_target or at
    max_steps; returns the best parameters seen with a held-out RMSE
    computed on a disjoint sample (stream-split from the same seed).
    theta_init, if given, replaces rom.init_params(arch, seed) as the start;
    the pipeline never passes it.
    """
    X = sample_omega(arch.domain, n_x, seed, stream=TRAIN_STREAM)
    g_train = eval_initial(spec, X)

    theta = rom.init_params(arch, seed) if theta_init is None else np.array(theta_init, dtype=np.float64)
    adam = Adam(theta.size, lr)
    need = rom.EvalFlags(value=True, grad_theta=True)

    best_theta = theta.copy()
    best_mse = np.inf
    n = X.shape[0]
    steps_done = 0
    for step in range(1, max_steps + 1):
        ev = rom.eval_batch(rom.RomModel(arch, theta), X, need)
        res = ev.value - g_train
        mse = float(np.mean(res * res))
        if mse < best_mse:
            best_mse = mse
            best_theta = theta.copy()
        steps_done = step
        if np.sqrt(mse) <= eps0_target:
            break
        grad = 2.0 * (ev.grad_theta.T @ res) / n
        theta = adam.step(theta, grad)

    holdout = sample_omega(arch.domain, n_x, seed, stream=HOLDOUT_STREAM)
    model = rom.RomModel(arch, best_theta)
    res_h = rom.eval_batch(model, holdout, rom.EvalFlags(value=True)).value - eval_initial(spec, holdout)
    rmse_h = float(np.sqrt(np.mean(res_h * res_h)))
    return FitResult(
        theta=best_theta,
        rmse=rmse_h,
        target_reached=np.sqrt(best_mse) <= eps0_target,
        steps=steps_done,
    )


# ---------------------------------------------------------------------------
# anchor store

ANCHOR_FORMAT_VERSION = 2


def save_anchors(path, header: dict, entries: list[tuple[InitialSpec, np.ndarray, float]]) -> None:
    """The anchor thetas as binfile rows of length header["m"]; the header
    gains the specs and the fit RMSEs."""
    header = {
        "format_version": ANCHOR_FORMAT_VERSION,
        "kind": "anchor_store",
        **header,
        "specs": [spec.describe() for spec, _, _ in entries],
        "rmse": [rmse for _, _, rmse in entries],
    }
    binfile.save(path, header, np.reshape([theta for _, theta, _ in entries], (len(entries), header["m"])))


def load_anchors(path, header: dict | None = None) -> tuple[dict, np.ndarray]:
    """(header, thetas) of an anchor store; checks the expected header."""
    return binfile.load(path, "anchor_store", ANCHOR_FORMAT_VERSION, header, "rerun fit-initial")
