"""Parameter-space dynamics: Gram-march trajectory generation for training
data and the RK4 solve of theta' = V(theta) for deployment.

Trajectories carry a blow-up guard: integration aborts (retaining the prefix)
when a state goes non-finite or, in a solve, when its norm exceeds
GUARD_DIAMETER_FACTOR times the diameter of the theta space. A solve also
records the first step at which the state left the training region, so
escapes are reported instead of crashing downstream consumers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly, binfile, linalg, pde_ops, rom
from .errors import NonFiniteError
from .sampling import Purpose, ThetaSpace

GUARD_DIAMETER_FACTOR = 10.0


@dataclass
class ParamTrajectory:
    times: np.ndarray  # (k,)
    thetas: np.ndarray  # (k, m)
    velocities: np.ndarray | None  # (k, m) for Gram marches
    step: float
    blowup_step: int | None = None  # first aborted step, if any
    escape_step: int | None = None  # first grid index outside the training region


def _first_escape(thetas: np.ndarray, space: ThetaSpace) -> int | None:
    """The first row of thetas outside space, by one test of all rows."""
    outside = ~space.inside(thetas)
    return int(outside.argmax()) if outside.any() else None


def gen_trajectory(
    arch: rom.RomArch,
    theta0: np.ndarray,
    op: pde_ops.PdeOperator,
    n_t: int,
    h: float,
    n_x: int,
    seed: int,
    index: int = 0,
) -> ParamTrajectory:
    """Euler march theta_{j+1} = theta_j + h v_j with v_j the ridge solve
    (scale-aware default ridge) of the projection system assembled at
    theta_j over the arch's box, at points drawn for (Purpose.MARCH_POINTS,
    index (n_t + 1) + j), index the trajectory's place in its plan.

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
            rec = assembly.assemble_at(arch, theta, op, n_x, seed, Purpose.MARCH_POINTS, index * (n_t + 1) + j)
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
    theta_space: ThetaSpace,
) -> ParamTrajectory:
    """Integrate theta' = V(theta) with classical RK4; V is a ControlNet or
    any theta -> velocity callable. The stage arguments and each step's
    combination are computed in buffers made once per solve and each state
    straight into its row of the result, by the textbook expression's
    operations in its order, so the states are the textbook's bit for bit.

    A step aborts the run, returning the prefix with blowup_step set, when V
    raises NonFiniteError or the new state is not finite; a ControlNet does
    not check its values, and a non-finite stage makes the state non-finite.
    Escapes from theta_space, the training region, are flagged (not fatal),
    and a state whose norm exceeds GUARD_DIAMETER_FACTOR times its diameter
    aborts the run too. Both tests read one dot product per step, which
    gives np.linalg.norm's bits and is finite exactly when the state is
    finite and its squares do not overflow; only when it is not finite are
    the entries tested. No overflow or invalid-value warning leaves the
    solve, since a step past float64 is a blow-up.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    max_norm = GUARD_DIAMETER_FACTOR * theta_space.diameter()

    h = horizon / n_steps
    theta0 = np.ascontiguousarray(theta0, dtype=np.float64)
    m = theta0.shape[0]
    thetas = np.empty((n_steps + 1, m))
    thetas[0] = theta0
    # each stage argument has its own buffer, so a velocity that is a view
    # of V's input outlives the next stage
    arg2, arg3, arg4, acc, tmp = np.empty((5, m))
    # the step's factors as 0-d arrays, which a ufunc need not convert on
    # every call, as it does a Python float
    half_h, full_h, sixth_h, two = (np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))
    blowup = None
    count = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            theta, new = thetas[j], thetas[j + 1]
            try:
                k1 = V(theta)
                k2 = V(np.add(theta, np.multiply(k1, half_h, arg2), arg2))
                k3 = V(np.add(theta, np.multiply(k2, half_h, arg3), arg3))
                k4 = V(np.add(theta, np.multiply(k3, full_h, arg4), arg4))
                # theta + (h / 6)(k1 + 2 k2 + 2 k3 + k4), in the textbook order
                np.add(k1, np.multiply(k2, two, acc), acc)
                acc += np.multiply(k3, two, tmp)
                acc += k4
                acc *= sixth_h
                np.add(theta, acc, new)
            except NonFiniteError:
                blowup = j + 1
                break
            norm = math.sqrt(new.dot(new))
            if norm > max_norm or (not math.isfinite(norm) and not np.isfinite(new).all()):
                blowup = j + 1
                break
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


def write_traj_cache(path, header: dict, trajectories: list[ParamTrajectory]) -> None:
    """One binfile row [theta | v] per grid point, trajectories stacked,
    under header (the pipeline's, of what shaped the marches, with the
    parameter count m and the step h)."""
    rows = [np.hstack([traj.thetas, traj.velocities]) for traj in trajectories]
    binfile.save(path, header, np.vstack([np.zeros((0, 2 * header["m"]))] + rows))


def read_traj_cache(path, header: dict):
    """(header, thetas, velocities), rows stacked across trajectories; checks
    the expected header."""
    existing, rows = binfile.load(path, header)
    thetas, vels = np.hsplit(rows, 2)
    return existing, np.ascontiguousarray(thetas), np.ascontiguousarray(vels)
