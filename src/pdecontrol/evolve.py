"""Parameter-space dynamics: Gram-march trajectory generation for training
data and the RK4 solve of theta' = V(theta) for deployment.

Trajectories carry a blow-up guard: integration aborts (retaining the prefix)
when a state goes non-finite or, in a solve, when its norm exceeds
GUARD_DIAMETER_FACTOR times the diameter of the theta space. A solve also
records the first step at which the state left the training region, so
escapes are reported instead of crashing downstream consumers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import assembly, binfile, linalg, pde_ops, rom
from .errors import NonFiniteError
from .sampling import ThetaSpace

TRAJ_FORMAT_VERSION = 5
GUARD_DIAMETER_FACTOR = 10.0


@dataclass
class ParamTrajectory:
    times: np.ndarray  # (k,)
    thetas: np.ndarray  # (k, m)
    velocities: np.ndarray | None  # (k, m) for Gram marches
    step: float
    blowup_step: int | None = None  # first aborted step, if any
    escape_step: int | None = None  # first grid index outside the training region


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
    n_t: int,
    h: float,
    n_x: int,
    seed: int,
    stream_base: int = 0,
) -> ParamTrajectory:
    """Euler march theta_{j+1} = theta_j + h v_j with v_j the ridge solve
    (scale-aware default ridge) of the projection system assembled at
    theta_j over the arch's box.

    Velocities are stored at every grid point (the final state included) so
    the pairs feed the trajectory loss directly.
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
            rec = assembly.assemble_at(arch, theta, op, n_x, seed, stream=stream_base + j)
            v = linalg.ridge_solve(rec.gram, rec.rhs, linalg.default_ridge_lambda(rec.gram))
        except NonFiniteError:
            blowup = j
            break
        thetas[j] = theta
        vels[j] = v
        count = j + 1
        if j < n_t:
            with np.errstate(over="ignore", invalid="ignore"):  # a step past float64 is a blow-up
                theta = theta + h * v
            if not np.all(np.isfinite(theta)):
                blowup = j + 1
                break
    return ParamTrajectory(
        times=h * np.arange(count),
        thetas=thetas[:count],
        velocities=vels[:count],
        step=h,
        blowup_step=blowup,
    )


def solve_ivp(
    V,
    theta0: np.ndarray,
    horizon: float,
    n_steps: int,
    theta_space: ThetaSpace | None = None,
) -> ParamTrajectory:
    """Integrate theta' = V(theta) with classical RK4; V is a ControlNet or
    any theta -> velocity callable.

    If theta_space is given, escapes from it are flagged (not fatal), and a
    state whose norm exceeds GUARD_DIAMETER_FACTOR times the space diameter
    aborts the run, returning the prefix with blowup_step set.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    max_norm = None if theta_space is None else GUARD_DIAMETER_FACTOR * theta_space.diameter()

    h = horizon / n_steps
    theta = np.ascontiguousarray(theta0, dtype=np.float64).copy()
    m = theta.shape[0]
    thetas = np.empty((n_steps + 1, m))
    thetas[0] = theta
    blowup = None
    count = 1
    for j in range(n_steps):
        try:
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
    return ParamTrajectory(
        times=h * np.arange(count),
        thetas=thetas[:count],
        velocities=None,
        step=h,
        blowup_step=blowup,
        escape_step=_first_escape(thetas[:count], theta_space),
    )


# ---------------------------------------------------------------------------
# trajectory cache


def traj_cache_header(gram_header: dict, h: float, n_t: int, starts: np.ndarray) -> dict:
    """Every input that shapes the cached marches: those of a Gram record
    (assembly.cache_header) plus the step, the step count and the start
    thetas (drawn from the theta space or the anchor store) as a sha256."""
    starts = np.ascontiguousarray(starts, dtype=np.float64)
    return {
        **gram_header,
        "format_version": TRAJ_FORMAT_VERSION,
        "kind": "traj_cache",
        "h": h,
        "n_t": n_t,
        "n_traj": starts.shape[0],
        "starts_sha256": hashlib.sha256(starts.tobytes()).hexdigest(),
    }


def write_traj_cache(path, header: dict, trajectories: list[ParamTrajectory]) -> None:
    """One binfile row [theta | v] per grid point, trajectories stacked."""
    rows = [np.hstack([traj.thetas, traj.velocities]) for traj in trajectories]
    binfile.save(path, header, np.vstack([np.zeros((0, 2 * header["m"]))] + rows))


def read_traj_cache(path, header: dict | None = None):
    """(header, thetas, velocities), rows stacked across trajectories; checks
    the expected header. CacheMismatch names gen-trajectories."""
    existing, rows = binfile.load(path, "traj_cache", TRAJ_FORMAT_VERSION, header, "rerun gen-trajectories")
    thetas, vels = np.hsplit(rows, 2)
    return existing, np.ascontiguousarray(thetas), np.ascontiguousarray(vels)
