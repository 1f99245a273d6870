"""Ground-truth solutions and error metrics.

Closed forms: shifted initial data for constant transport (periodic box) and
separated sine series for the heat equation on the unit box with zero
Dirichlet data. The 2-D Allen-Cahn reference is computed by an
implicit-explicit scheme (diffusion implicit via a prefactorized 5-point
Laplacian, reaction explicit) and exposed through space-bilinear,
time-linear interpolation of strided snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import binfile, fit, rom
from .errors import PdeControlError
from .evolve import ParamTrajectory
from .sampling import sample_omega


class OutOfDomain(PdeControlError):
    """Requested point/time lies outside the reference's domain."""


@dataclass(frozen=True)
class TransportShift:
    """u(x, t) = g(x - velocity * t), with x wrapped periodically into the box."""

    initial: fit.InitialSpec
    velocity: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    model: rom.RomModel | None = None  # resolved model for RandomTheta initials

    def __post_init__(self):
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))


@dataclass(frozen=True)
class HeatSeries:
    """u(x, t) = sum over k = 1, 2, ... of c_k exp(-(k pi)^2 t) sin(k pi x),
    the heat solution on the unit interval with zero Dirichlet data."""

    coeffs: np.ndarray


@dataclass
class GridSolution:
    """Snapshots of a field on a regular square grid (boundary nodes included)."""

    times: np.ndarray  # (k,) snapshot times
    snapshots: np.ndarray  # (k, nx+2, nx+2)
    lo: np.ndarray
    hi: np.ndarray

    @property
    def xs(self) -> np.ndarray:
        """The grid nodes per axis (the same on both axes)."""
        return _grid_nodes(self.lo, self.hi, self.snapshots.shape[1])


def _grid_nodes(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    return lo[0] + (hi[0] - lo[0]) / (n - 1) * np.arange(n)


ReferenceSolution = TransportShift | HeatSeries | GridSolution


def eval_reference(ref: ReferenceSolution, X, t: float) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if isinstance(ref, TransportShift):
        shifted = X - ref.velocity * t
        span = ref.hi - ref.lo
        wrapped = ref.lo + np.mod(shifted - ref.lo, span)
        return fit.eval_initial(ref.initial, wrapped, model=ref.model)
    if isinstance(ref, HeatSeries):
        out = np.zeros(X.shape[0])
        for k, c in enumerate(ref.coeffs, start=1):
            if c != 0.0:
                out += c * np.exp(-((k * np.pi) ** 2) * t) * np.sin(k * np.pi * X[:, 0])
        return out
    return _eval_grid(ref, X, t)


def _eval_grid(ref: GridSolution, X: np.ndarray, t: float) -> np.ndarray:
    if t < ref.times[0] - 1e-12 or t > ref.times[-1] + 1e-12:
        raise OutOfDomain(f"t={t} outside stored snapshot range")
    if np.any(X < ref.lo - 1e-12) or np.any(X > ref.hi + 1e-12):
        raise OutOfDomain("point outside the reference grid")
    # solve_allen_cahn_imex stores t = 0 and t = T with increasing times between
    k = int(np.searchsorted(ref.times, t, side="right")) - 1
    k = min(max(k, 0), len(ref.times) - 2)
    t0, t1 = ref.times[k], ref.times[k + 1]
    w1 = (t - t0) / (t1 - t0)
    frames = [ref.snapshots[k], ref.snapshots[k + 1]]
    weights = [1.0 - w1, w1]

    xs = ref.xs
    hx = xs[1] - xs[0]
    i = np.clip(((X[:, 0] - xs[0]) / hx).astype(int), 0, len(xs) - 2)
    j = np.clip(((X[:, 1] - xs[0]) / hx).astype(int), 0, len(xs) - 2)
    fx = (X[:, 0] - xs[i]) / hx
    fy = (X[:, 1] - xs[j]) / hx
    out = np.zeros(X.shape[0])
    for frame, wt in zip(frames, weights):
        v00 = frame[i, j]
        v10 = frame[i + 1, j]
        v01 = frame[i, j + 1]
        v11 = frame[i + 1, j + 1]
        out += wt * (
            v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) + v01 * (1 - fx) * fy + v11 * fx * fy
        )
    return out


def solve_allen_cahn_imex(
    initial: fit.InitialSpec,
    epsilon: float,
    nx: int,
    nt: int,
    horizon: float,
    lo=(-1.0, -1.0),
    hi=(1.0, 1.0),
    max_snapshots: int = 64,
) -> GridSolution:
    """IMEX integration of u_t = eps*lap(u) + 1.5(u - u^3) on a square with
    zero Dirichlet data:
        (I - dt*eps*L_h) u^{n+1} = u^n + dt*1.5*(u^n - (u^n)^3)
    with the 5-point Laplacian on an nx-by-nx interior grid, prefactorized
    once. Snapshots are strided to at most max_snapshots frames.
    """
    if nx < 16 or nt < 16:
        raise ValueError("nx and nt must be >= 16")
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    hx = (hi[0] - lo[0]) / (nx + 1)
    inner = _grid_nodes(lo, hi, nx + 2)[1:-1]
    XX, YY = np.meshgrid(inner, inner, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    u = fit.eval_initial(initial, pts).reshape(nx, nx)

    dt = horizon / nt
    lap1 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nx, nx)) / hx**2
    eye = sp.identity(nx)
    lap2 = sp.kron(lap1, eye) + sp.kron(eye, lap1)
    system = (sp.identity(nx * nx) - dt * epsilon * lap2).tocsc()
    solver = spla.splu(system)

    stride = max(1, int(np.ceil(nt / (max_snapshots - 1))))
    snap_times = [0.0]
    snaps = [_embed(u, nx)]
    for n in range(1, nt + 1):
        rhs = u + dt * 1.5 * (u - u**3)
        u = solver.solve(rhs.ravel()).reshape(nx, nx)
        if n % stride == 0 or n == nt:
            snap_times.append(n * dt)
            snaps.append(_embed(u, nx))
    return GridSolution(times=np.array(snap_times), snapshots=np.stack(snaps), lo=lo, hi=hi)


def _embed(u_inner: np.ndarray, nx: int) -> np.ndarray:
    full = np.zeros((nx + 2, nx + 2))
    full[1:-1, 1:-1] = u_inner
    return full


# ---------------------------------------------------------------------------
# error curves


@dataclass
class ErrorCurve:
    times: np.ndarray
    abs_err: np.ndarray  # L2-norm estimates of the difference
    rel_err: np.ndarray  # abs / ||u*||, NaN where the norm is degenerate


REL_NORM_FLOOR = 1e-12


def error_curve(
    arch: rom.RomArch,
    traj: ParamTrajectory,
    ref: ReferenceSolution,
    n_x: int,
    seed: int,
    max_times: int = 0,
) -> ErrorCurve:
    """Monte-Carlo L2 error of u_{theta_t} against the reference along a
    trajectory, over the arch's box. One spatial sample is shared across
    times."""
    lo, hi = arch.domain
    vol = float(np.prod(hi - lo))
    X = sample_omega(arch.domain, n_x, seed, stream=11)

    idx = np.arange(traj.times.shape[0])
    if max_times and idx.size > max_times:
        idx = np.unique(np.linspace(0, idx.size - 1, max_times).astype(int))

    times = traj.times[idx]
    abs_err = np.empty(idx.size)
    rel = np.full(idx.size, np.nan)
    for out_i, j in enumerate(idx):
        model = rom.RomModel(arch, traj.thetas[j])
        u_rom = rom.eval_batch(model, X, rom.EvalFlags(value=True)).value
        u_ref = eval_reference(ref, X, float(traj.times[j]))
        diff = u_rom - u_ref
        a = float(np.sqrt(vol * np.mean(diff * diff)))
        nrm = float(np.sqrt(vol * np.mean(u_ref * u_ref)))
        abs_err[out_i] = a
        if nrm > REL_NORM_FLOOR:
            rel[out_i] = a / nrm
    return ErrorCurve(times=times, abs_err=abs_err, rel_err=rel)


def export_slice(
    arch: rom.RomArch,
    theta: np.ndarray,
    ref: ReferenceSolution,
    t: float,
    path,
    grid_n: int = 40,
) -> None:
    """Pointwise comparison slice on a regular grid over the arch's 2-D box
    (pipeline.cmd_export_slice checks the dimension): CSV columns x1, x2,
    u_ref, u_rom, abs_diff."""
    lo, hi = arch.domain
    g1 = np.linspace(lo[0], hi[0], grid_n)
    g2 = np.linspace(lo[1], hi[1], grid_n)
    XX, YY = np.meshgrid(g1, g2, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    u_rom = rom.eval_batch(rom.RomModel(arch, theta), pts, rom.EvalFlags(value=True)).value
    u_ref = eval_reference(ref, pts, t)
    with binfile.atomic_write(path) as fh:
        fh.write("x1,x2,u_ref,u_rom,abs_diff\n")
        for row, ur, um in zip(pts, u_ref, u_rom):
            fh.write(f"{row[0]!r},{row[1]!r},{ur!r},{um!r},{abs(ur - um)!r}\n")


GRID_FORMAT_VERSION = 1


def save_grid_solution(ref: GridSolution, path, header: dict) -> None:
    """A binfile of the snapshots; its header holds header (the inputs that
    shaped them), the snapshot times and the box."""
    binfile.save(path, {**header, "format_version": GRID_FORMAT_VERSION, "kind": "imex_reference",
                        "times": ref.times.tolist(), "lo": ref.lo.tolist(), "hi": ref.hi.tolist()}, ref.snapshots)


def load_grid_solution(path, expected: dict | None = None) -> GridSolution:
    """The stored reference; CacheMismatch names the reference command for a
    file that does not read back or whose header differs from expected."""
    header, snapshots = binfile.load(path, "imex_reference", GRID_FORMAT_VERSION, expected, "rerun reference")
    return GridSolution(times=np.array(header["times"]), snapshots=snapshots, lo=np.array(header["lo"]),
                        hi=np.array(header["hi"]))
