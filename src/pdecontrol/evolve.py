"""Parameter-space dynamics: Gram-march trajectory generation for training
data, explicit ODE solvers for deployment, and field statistics for the
discrete error bounds.

Trajectories carry a blow-up guard: integration aborts (retaining the prefix)
when a state goes non-finite or leaves a configurable norm ball, and records
the first step at which the state left the training region, so escapes are
reported instead of crashing downstream consumers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import assembly, control_net as cn, linalg, pde_ops, rom
from .errors import CacheMismatch, NonFiniteError
from .sampling import SampleBatch, ThetaSpace, rng_for

TRAJ_FORMAT_VERSION = 1
GUARD_DIAMETER_FACTOR = 10.0


@dataclass
class ParamTrajectory:
    times: np.ndarray  # (k,)
    thetas: np.ndarray  # (k, m)
    velocities: np.ndarray | None  # (k, m) for Gram marches
    source: str  # "gram_march" | "control_field"
    step: float
    blowup_step: int | None = None  # first aborted step, if any
    escape_step: int | None = None  # first grid index outside the training region

    @property
    def escaped(self) -> bool:
        return self.escape_step is not None


def _first_escape(thetas: np.ndarray, space: ThetaSpace | None) -> int | None:
    if space is None:
        return None
    for j in range(thetas.shape[0]):
        if not space.contains(thetas[j]):
            return j
    return None


def gen_trajectory(
    arch: rom.RomArch,
    theta0: np.ndarray,
    op: pde_ops.PdeOperator,
    domain,
    n_t: int,
    h: float,
    n_x: int,
    seed: int,
    lambda_reg: float | None = None,
    quadrature: str = "mc",
    theta_space: ThetaSpace | None = None,
    stream_base: int = 0,
) -> ParamTrajectory:
    """Euler march theta_{j+1} = theta_j + h v_j with v_j solved from the
    Monte-Carlo projection system at theta_j.

    Velocities are stored at every grid point (the final state included) so
    the pairs feed the trajectory loss directly. lambda_reg=None uses the
    scale-aware default ridge; pass 0.0 for exact-quadrature runs.
    """
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    if h <= 0:
        raise ValueError("h must be positive")
    theta = np.ascontiguousarray(theta0, dtype=np.float64).copy()
    m = theta.shape[0]
    thetas = np.empty((n_t + 1, m))
    vels = np.empty((n_t + 1, m))
    blowup = None
    count = 0
    for j in range(n_t + 1):
        try:
            rec = assembly.assemble_at(
                arch, theta, op, domain, n_x, seed, stream=stream_base + j, quadrature=quadrature
            )
            lam = linalg.default_ridge_lambda(rec.gram) if lambda_reg is None else lambda_reg
            v = linalg.ridge_solve(rec.gram, rec.rhs, lam)
        except NonFiniteError:
            blowup = j
            break
        thetas[j] = theta
        vels[j] = v
        count = j + 1
        if j < n_t:
            theta = theta + h * v
            if not np.all(np.isfinite(theta)):
                blowup = j + 1
                break
    times = h * np.arange(count)
    traj = ParamTrajectory(
        times=times,
        thetas=thetas[:count],
        velocities=vels[:count],
        source="gram_march",
        step=h,
        blowup_step=blowup,
    )
    traj.escape_step = _first_escape(traj.thetas, theta_space)
    return traj


def solve_ivp(
    V,
    theta0: np.ndarray,
    horizon: float,
    n_steps: int,
    scheme: str = "rk4",
    theta_space: ThetaSpace | None = None,
    max_norm: float | None = None,
) -> ParamTrajectory:
    """Integrate theta' = V(theta) with a classical explicit scheme; V is a
    ControlNet or any theta -> velocity callable.

    scheme is "euler" or "rk4". If theta_space is given, escapes from it are
    flagged (not fatal); max_norm (defaulting to 10x the space diameter when a
    space is given) aborts the run, returning the prefix with blowup_step set.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if scheme not in ("euler", "rk4"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if max_norm is None and theta_space is not None:
        max_norm = GUARD_DIAMETER_FACTOR * theta_space.diameter()

    h = horizon / n_steps
    theta = np.ascontiguousarray(theta0, dtype=np.float64).copy()
    m = theta.shape[0]
    thetas = np.empty((n_steps + 1, m))
    thetas[0] = theta
    blowup = None
    count = 1
    for j in range(n_steps):
        try:
            if scheme == "euler":
                theta = theta + h * V(theta)
            else:
                k1 = V(theta)
                k2 = V(theta + 0.5 * h * k1)
                k3 = V(theta + 0.5 * h * k2)
                k4 = V(theta + h * k3)
                theta = theta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except NonFiniteError:
            blowup = j + 1
            break
        if not np.all(np.isfinite(theta)) or (max_norm is not None and np.linalg.norm(theta) > max_norm):
            blowup = j + 1
            break
        thetas[count] = theta
        count += 1
    traj = ParamTrajectory(
        times=h * np.arange(count),
        thetas=thetas[:count],
        velocities=None,
        source="control_field",
        step=h,
        blowup_step=blowup,
    )
    traj.escape_step = _first_escape(traj.thetas, theta_space)
    return traj


def field_stats(net: cn.ControlNet, thetas: SampleBatch, n_probe_iters: int = 8) -> tuple[float, float]:
    """(M_V, L_V) estimates of a control net over a sample: the max field
    magnitude and the max Jacobian operator norm, the latter by randomized
    power iteration on the net's analytic forward/reverse directional
    products (jvp_theta, vjp_theta)."""
    pts = thetas.points
    if pts.shape[0] == 0:
        raise ValueError("empty sample batch")
    vals = cn.forward(net, pts)
    m_v = float(np.linalg.norm(vals, axis=1).max())
    rng = rng_for(thetas.seed, stream=3)
    v = rng.standard_normal(pts.shape)
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    sigma = np.zeros(pts.shape[0])
    for _ in range(n_probe_iters):
        w = cn.jvp_theta(net, pts, v)
        sigma = np.linalg.norm(w, axis=1)
        u = w / np.maximum(sigma[:, None], 1e-300)
        v = cn.vjp_theta(net, pts, u)
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    return m_v, float(sigma.max())


# ---------------------------------------------------------------------------
# trajectory cache


def traj_cache_header(arch: rom.RomArch, op: pde_ops.PdeOperator, h: float, n_x: int, seed: int) -> dict:
    return {
        "format_version": TRAJ_FORMAT_VERSION,
        "kind": "traj_cache",
        "arch_hash": rom.arch_hash(arch),
        "op_tag": op.tag,
        "m": rom.param_count(arch),
        "h": h,
        "n_x": n_x,
        "seed": seed,
    }


def write_traj_cache(path, header: dict, trajectories: list[ParamTrajectory]) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for tid, traj in enumerate(trajectories):
            for j in range(traj.thetas.shape[0]):
                fh.write(
                    json.dumps(
                        {
                            "traj_id": tid,
                            "j": j,
                            "t": float(traj.times[j]),
                            "theta": traj.thetas[j].tolist(),
                            "v": traj.velocities[j].tolist(),
                        }
                    )
                    + "\n"
                )


def read_traj_cache(path, expect_arch: rom.RomArch | None = None):
    """Returns (header, thetas, velocities) with rows stacked across trajectories."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "traj_cache":
            raise CacheMismatch(f"{path} is not a trajectory cache")
        if expect_arch is not None and header["arch_hash"] != rom.arch_hash(expect_arch):
            raise CacheMismatch("trajectory cache arch_hash mismatch")
        thetas, vels = [], []
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            thetas.append(doc["theta"])
            vels.append(doc["v"])
    if thetas:
        return header, np.array(thetas), np.array(vels)
    m = header["m"]
    return header, np.zeros((0, m)), np.zeros((0, m))
