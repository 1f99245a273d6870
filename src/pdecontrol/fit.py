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


# the bytes of one (K, width, n_x) layer state of a stack of net fits, which
# bounds K: at allen_cahn's (6, 1024) stacks of 8 to 20 fits cost the same
# per fit step, and one stack of 40 (1.9 MiB per state and 11 MiB of
# buffers, past a core's 2 MiB L2 cache) cost 12% more than stacks of 8
_STACK_BYTES = 512 * 1024


@dataclass
class FitResult:
    theta: np.ndarray
    rmse: float  # held-out RMSE over the domain
    target_reached: bool
    steps: int


def fit_initials(
    arch: rom.RomArch,
    specs: list[InitialSpec],
    n_x: int,
    eps0_target: float,
    seeds: list[int],
    *,
    lr: float,
    max_steps: int,
) -> list[FitResult]:
    """theta0 for each initial specs[k], fitted under seeds[k], minimising
    the empirical squared error (1/N) sum (u_theta(x_n) - g(x_n))^2 over
    points x_n of the arch's box drawn under that seed.

    A linear basis, u_theta = Phi(x) theta, takes the exact minimiser: one
    least-squares solve on the basis table Phi(X) (steps 1; lr and
    max_steps are unused). A net runs ADAM from rom.init_params(arch,
    seeds[k]) with the config's initials.fit block (lr, max_steps) until
    the training-sample RMSE reaches eps0_target or max_steps, and keeps
    the best parameters seen; the nets' fits run as stacked loops
    (_adam_fits) of as many fits as _STACK_BYTES allows, and each comes out
    as it would alone, bit for bit. target_reached says whether the
    training RMSE is within eps0_target; rmse is the held-out RMSE on a
    disjoint sample, drawn under the same seed for Purpose.FIT_HOLDOUT.
    """
    if not specs:
        return []
    Xs = [sample_omega(arch.domain, n_x, seed, Purpose.FIT_SAMPLE) for seed in seeds]
    gs = [eval_initial(spec, X) for spec, X in zip(specs, Xs)]
    if arch.kind == rom.LINEAR_BASIS:
        fits = [_least_squares_fit(arch, X, g) for X, g in zip(Xs, gs)]
    else:
        X, G, starts = np.stack(Xs), np.stack(gs), np.stack([rom.init_params(arch, seed) for seed in seeds])
        rows = max(1, _STACK_BYTES // (8 * arch.width * n_x))
        fits = [fit for i in range(0, len(specs), rows)
                for fit in _adam_fits(arch, X[i : i + rows], G[i : i + rows], starts[i : i + rows], eps0_target, lr,
                                      max_steps)]

    results = []
    for spec, seed, (best_theta, best_mse, steps_done) in zip(specs, seeds, fits):
        holdout = sample_omega(arch.domain, n_x, seed, Purpose.FIT_HOLDOUT)
        model = rom.RomModel(arch, best_theta)
        res_h = rom.eval_batch(model, holdout, rom.EvalFlags(value=True)).value - eval_initial(spec, holdout)
        results.append(FitResult(
            theta=best_theta,
            rmse=float(np.sqrt(np.mean(res_h * res_h))),
            target_reached=np.sqrt(best_mse) <= eps0_target,
            steps=steps_done,
        ))
    return results


def _least_squares_fit(arch, X, g) -> tuple[np.ndarray, float, int]:
    """(theta, its training MSE, 1) of a linear basis: the least-squares
    solve on the basis table at X."""
    zero = rom.RomModel(arch, np.zeros(rom.param_count(arch)))
    basis = rom.eval_batch(zero, X, rom.EvalFlags(value=False, grad_theta=True)).grad_theta
    theta = np.linalg.lstsq(basis, g, rcond=None)[0]
    res = basis @ theta - g
    return theta, float(np.mean(res * res)), 1


def _adam_fits(arch, X, G, thetas, eps0_target, lr, max_steps) -> list[tuple[np.ndarray, float, int]]:
    """[(best theta, its training MSE, steps run)] of ADAM from each row of
    thetas, (K, m), which is left as it was, on sample X[k], (K, n, d),
    against targets G[k], (K, n).

    The K fits run in lockstep on one stacked rom.pullback_at closure and
    one stacked Adam. Each step evaluates every running row; a row's
    gradient is the pullback of its cotangent 2 (u - g) / n. A row stops
    once its training RMSE reaches eps0_target or at max_steps; it is then
    compacted out of the stack (no gradient and no ADAM update), so a fit
    that runs to max_steps evaluates max_steps parameter vectors and takes
    max_steps - 1 ADAM steps. The rows share no arithmetic, and the ADAM
    steps of the rows still running are the same t-th steps, so each row
    comes out as its fit alone, bit for bit."""
    K, n = G.shape
    live = np.arange(K)  # the original rows still running, in stack order
    theta, g = thetas.copy(), G  # the running rows; ADAM steps theta in place
    best_theta = thetas.copy()
    best_mse = np.full(K, np.inf)
    steps_done = np.zeros(K, dtype=int)
    adam = Adam(theta.shape, lr)
    at = rom.pullback_at(arch, X)
    for step in range(1, max_steps + 1):
        u, pullback = at(theta)
        res = u - g
        mse = np.mean(res * res, axis=1)
        better = mse < best_mse[live]
        best_mse[live[better]] = mse[better]
        best_theta[live[better]] = theta[better]
        done = (np.sqrt(mse) <= eps0_target) | (step == max_steps)
        steps_done[live[done]] = step
        if done.all():
            break  # the last step's update would never be evaluated
        if done.any():
            rows = np.flatnonzero(~done)
            grad = pullback(2.0 * res[rows] / n, rows)
            live, theta, g = live[rows], theta[rows], g[rows]
            adam.keep(rows)
            at = rom.pullback_at(arch, X[live])
        else:
            grad = pullback(2.0 * res / n)
        adam.step(theta, grad)
    return [(best_theta[k], float(best_mse[k]), int(steps_done[k])) for k in range(K)]


# ---------------------------------------------------------------------------
# anchor store


def save_anchors(path, header: dict, entries: list[tuple[InitialSpec | None, np.ndarray, float]]) -> None:
    """The anchor thetas as binfile rows of length header["m"] under header
    (the pipeline's, of what shaped them, with m), which gains the specs
    (null for a transport anchor, which has none) and the fit RMSEs."""
    header = {
        **header,
        "specs": [None if spec is None else spec.describe() for spec, _, _ in entries],
        "rmse": [rmse for _, _, rmse in entries],
    }
    binfile.save(path, header, np.reshape([theta for _, theta, _ in entries], (len(entries), header["m"])))
