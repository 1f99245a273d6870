"""Ground-truth solutions and error metrics.

Closed forms: for constant transport the anchor's model with its periodic
shift advanced along the velocity (a transport initial is the model at its
anchor's theta0, so its exact transport is a change of theta, evaluated by
the ROM's own value kernel) and the separated sine series for the heat
equation on (0,1) with zero Dirichlet data. The 2-D Allen-Cahn reference is
computed by an implicit-explicit scheme (diffusion implicit, reaction
explicit; the implicit step of the 5-point Laplacian is diagonal in the sine
basis, so it is solved by products with the orthonormal DST-I matrix, built
once per solve) and exposed through space-bilinear, time-linear
interpolation of at most MAX_SNAPSHOTS strided snapshots.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import binfile, fit, rom
from .errors import PdeControlError
from .evolve import ParamTrajectory
from .sampling import Purpose, sample_omega


class OutOfDomain(PdeControlError):
    """Requested point/time lies outside the reference's domain."""


@dataclass(frozen=True)
class TransportShift:
    """u(x, t) = u_theta0(x - velocity * t): model is the anchor, a periodic
    net whose u_theta0 is the initial. Its features read x - shift, so u at t
    is the model with its shift advanced by velocity * t; the features have
    period 1 and the box is the unit cube (config fixes it), so no point
    needs wrapping into the box. ValueError for a model without a periodic
    shift."""

    model: rom.RomModel
    velocity: np.ndarray

    def __post_init__(self):
        if self.model.arch.kind != rom.RESNET_PERIODIC:
            raise ValueError(f"the transport shift needs a {rom.RESNET_PERIODIC!r} model, "
                             f"not {self.model.arch.kind!r}")
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))


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


def reference_at(ref: ReferenceSolution, X) -> Callable[[float], np.ndarray]:
    """t -> the reference at the points X. What does not depend on t (the
    ROM's feature table for a transport shift, the sine columns of a heat
    series, the bilinear stencil of a grid) is built once, so a curve over
    many times pays for it once."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if isinstance(ref, TransportShift):
        u_at = rom.value_at(ref.model.arch, X)

        def shifted(t: float) -> np.ndarray:
            theta = ref.model.theta.copy()
            shift = rom._unpack(ref.model.arch, theta)[-1]
            shift += ref.velocity * t
            return u_at(theta)

        return shifted
    if isinstance(ref, HeatSeries):
        modes = [(k, c, np.sin(k * np.pi * X[:, 0])) for k, c in enumerate(ref.coeffs, start=1) if c != 0.0]

        def series(t: float) -> np.ndarray:
            out = np.zeros(X.shape[0])
            for k, c, s_k in modes:
                out += c * np.exp(-((k * np.pi) ** 2) * t) * s_k
            return out

        return series
    return _grid_at(ref, X)


def _grid_at(ref: GridSolution, X: np.ndarray) -> Callable[[float], np.ndarray]:
    if np.any(X < ref.lo - 1e-12) or np.any(X > ref.hi + 1e-12):
        raise OutOfDomain("point outside the reference grid")
    xs = ref.xs
    n = len(xs)
    hx = xs[1] - xs[0]
    i = np.clip(((X[:, 0] - xs[0]) / hx).astype(int), 0, n - 2)
    j = np.clip(((X[:, 1] - xs[0]) / hx).astype(int), 0, n - 2)
    fx = (X[:, 0] - xs[i]) / hx
    fy = (X[:, 1] - xs[j]) / hx
    gx, gy = 1 - fx, 1 - fy
    # the flat offsets of the corners (i, j), (i+1, j), (i, j+1), (i+1, j+1),
    # each in two consecutive frames, so one gather reads all eight values
    corners = np.stack([i * n + j, (i + 1) * n + j, i * n + j + 1, (i + 1) * n + j + 1])
    stencil = np.stack([corners, corners + n * n], axis=1)

    def bilinear(t: float) -> np.ndarray:
        if t < ref.times[0] - 1e-12 or t > ref.times[-1] + 1e-12:
            raise OutOfDomain(f"t={t} outside stored snapshot range")
        # solve_allen_cahn_imex stores t = 0 and t = T with increasing times between
        k = int(np.searchsorted(ref.times, t, side="right")) - 1
        k = min(max(k, 0), len(ref.times) - 2)
        t0, t1 = ref.times[k], ref.times[k + 1]
        w1 = (t - t0) / (t1 - t0)
        v00, v10, v01, v11 = np.take(ref.snapshots[k : k + 2], stencil)
        frames = v00 * gx * gy + v10 * fx * gy + v01 * gx * fy + v11 * fx * fy
        return (1.0 - w1) * frames[0] + w1 * frames[1]

    return bilinear


# the most snapshots an IMEX reference stores, t = 0 and t = T among them
MAX_SNAPSHOTS = 64


def solve_allen_cahn_imex(
    initial: fit.ChebCombo,
    epsilon: float,
    nx: int,
    nt: int,
    horizon: float,
    lo=(-1.0, -1.0),
    hi=(1.0, 1.0),
) -> GridSolution:
    """IMEX integration of u_t = eps*lap(u) + 1.5(u - u^3) on a square with
    zero Dirichlet data:
        (I - dt*eps*L_h) u^{n+1} = u^n + dt*1.5*(u^n - (u^n)^3)
    with L_h the 5-point Laplacian on an nx-by-nx interior grid. The
    orthonormal DST-I matrix S, S_pq = sqrt(2/(nx+1)) sin(p q pi/(nx+1)),
    diagonalises L_h, with eigenvalues lam_p + lam_q,
    lam_p = -(4/h^2) sin^2(p pi / (2(nx+1))). S is symmetric and S S = I,
    so each implicit step is S ((S rhs S) / system) S: four nx-by-nx matrix
    products with the one S built per solve. Snapshots are strided to at
    most MAX_SNAPSHOTS frames.
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
    lam = -(4.0 / hx**2) * np.sin(np.arange(1, nx + 1) * np.pi / (2 * (nx + 1))) ** 2
    system = 1.0 - dt * epsilon * (lam[:, None] + lam[None, :])
    S = _sine_matrix(nx)

    stride = max(1, int(np.ceil(nt / (MAX_SNAPSHOTS - 1))))
    snap_times = [0.0]
    snaps = [_embed(u, nx)]
    for n in range(1, nt + 1):
        rhs = u + dt * 1.5 * (u - u * u * u)
        u = S @ ((S @ rhs @ S) / system) @ S
        if n % stride == 0 or n == nt:
            snap_times.append(n * dt)
            snaps.append(_embed(u, nx))
    return GridSolution(times=np.array(snap_times), snapshots=np.stack(snaps), lo=lo, hi=hi)


def _sine_matrix(n: int) -> np.ndarray:
    """The orthonormal DST-I matrix of size n, sqrt(2/(n+1)) sin(p q pi/(n+1))
    for p, q = 1..n. p q is reduced modulo 2(n+1), the sine's period, so
    each sine is evaluated at an argument below 2 pi."""
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin((np.outer(k, k) % (2 * (n + 1))) * np.pi / (n + 1))


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
    max_times: int,
) -> ErrorCurve:
    """Monte-Carlo L2 error of u_{theta_t} against the reference along a
    trajectory, over the arch's box, at max_times of its times, evenly
    spaced (every time of a shorter trajectory). One spatial sample is
    shared across times, and both sides build what does not change with
    time once (rom.value_at, reference_at): the ROM side, and a transport
    reference, run the value kernel on feature tables built once per
    curve."""
    lo, hi = arch.domain
    vol = float(np.prod(hi - lo))
    X = sample_omega(arch.domain, n_x, seed, Purpose.EVAL_POINTS)

    idx = np.arange(traj.times.shape[0])
    if idx.size > max_times:
        idx = np.unique(np.linspace(0, idx.size - 1, max_times).astype(int))

    times = traj.times[idx]
    abs_err = np.empty(idx.size)
    rel = np.full(idx.size, np.nan)
    u_rom_at = rom.value_at(arch, X)
    u_ref_at = reference_at(ref, X)
    for out_i, j in enumerate(idx):
        u_rom = u_rom_at(traj.thetas[j])
        u_ref = u_ref_at(float(traj.times[j]))
        diff = u_rom - u_ref
        a = float(np.sqrt(vol * np.mean(diff * diff)))
        nrm = float(np.sqrt(vol * np.mean(u_ref * u_ref)))
        abs_err[out_i] = a
        if nrm > REL_NORM_FLOOR:
            rel[out_i] = a / nrm
    return ErrorCurve(times=times, abs_err=abs_err, rel_err=rel)


# the points per axis of export_slice's grid
SLICE_GRID_N = 40


def export_slice(
    arch: rom.RomArch,
    theta: np.ndarray,
    ref: ReferenceSolution,
    t: float,
    path,
) -> None:
    """Pointwise comparison slice on a regular SLICE_GRID_N x SLICE_GRID_N
    grid over the arch's 2-D box (pipeline.cmd_export_slice checks the
    dimension): CSV columns x1, x2, u_ref, u_rom, abs_diff, each cell the
    repr of a Python float."""
    lo, hi = arch.domain
    g1 = np.linspace(lo[0], hi[0], SLICE_GRID_N)
    g2 = np.linspace(lo[1], hi[1], SLICE_GRID_N)
    XX, YY = np.meshgrid(g1, g2, indexing="ij")
    pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
    u_rom = rom.value_at(arch, pts)(theta)
    u_ref = reference_at(ref, pts)(t)
    table = np.column_stack([pts, u_ref, u_rom, np.abs(u_ref - u_rom)])
    with binfile.atomic_write(path) as fh:
        fh.write("x1,x2,u_ref,u_rom,abs_diff\n")
        for row in table.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def save_grid_solution(ref: GridSolution, path, header: dict) -> None:
    """A binfile of the snapshots; its header holds header (the pipeline's,
    of what shaped them), the snapshot times and the box."""
    binfile.save(path, {**header, "times": ref.times.tolist(), "lo": ref.lo.tolist(), "hi": ref.hi.tolist()},
                 ref.snapshots)


def load_grid_solution(path, expected: dict) -> GridSolution:
    """The stored reference; CacheMismatch for a file that does not read
    back or whose header differs from the expected one."""
    header, snapshots = binfile.load(path, expected)
    return GridSolution(times=np.array(header["times"]), snapshots=snapshots, lo=np.array(header["lo"]),
                        hi=np.array(header["hi"]))
