import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from pdecontrol import evolve, fit, reference, rom
from pdecontrol.errors import CacheMismatch, NonFiniteError
from pdecontrol.reference import OutOfDomain
from pdecontrol.sampling import Purpose, sample_omega

from conftest import artifact_header, fourier_sine_arch


def _sine_net() -> rom.RomModel:
    """sin(2 pi x) on (0,1) as a periodic ReLU net: W0 = [[0, 1], [0, -1]]
    takes the sin feature to (sin, -sin), the block is zero, and
    w_L = (1, -1) gives relu(sin) - relu(-sin) = sin exactly."""
    arch = rom.RomArch(rom.RESNET_PERIODIC, 1, 2, 2, "relu")
    W0, b0, W1, b1, w_out, shift = [0.0, 1.0, 0.0, -1.0], [0.0] * 2, [0.0] * 4, [0.0] * 2, [1.0, -1.0], [0.0]
    return rom.RomModel(arch, np.concatenate([W0, b0, W1, b1, w_out, shift]))


def _sine_2pi_shift() -> reference.TransportShift:
    """The unit-speed shift of sin(2 pi x) on (0,1)."""
    return reference.TransportShift(model=_sine_net(), velocity=np.array([1.0]))


def test_transport_shift_sine(rng):
    ref = _sine_2pi_shift()
    X = rng.uniform(0, 1, (10, 1))
    for t in (0.0, 0.3, 0.77):
        got = reference.reference_at(ref, X)(t)
        assert np.allclose(got, np.sin(2 * np.pi * (X[:, 0] - t)), atol=1e-12)


def test_transport_shift_of_theta_matches_the_wrapped_shift(rng):
    # the reference moves the shift inside theta; on a box of whole-number
    # sides that is the model at x - vt wrapped into the box
    arch = rom.RomArch(rom.RESNET_PERIODIC, 2, 5, 3, "tanh", lo=(0.0, 0.0), hi=(2.0, 1.0))
    theta = rom.init_params(arch, 8) + 0.4 * rng.standard_normal(rom.param_count(arch))
    theta[-2:] = (0.3, -1.7)
    ref = reference.TransportShift(rom.RomModel(arch, theta), np.array([1.0, -0.5]))
    lo, hi = arch.domain
    X = rng.uniform(lo, hi, (400, 2))
    u_at = reference.reference_at(ref, X)
    for t in np.linspace(0.0, 3.0, 13):
        wrapped = lo + np.mod(X - ref.velocity * t - lo, hi - lo)
        want = rom.eval_batch(ref.model, wrapped, rom.EvalFlags(value=True)).value
        assert np.abs(u_at(t) - want).max() <= 1e-12


def test_transport_shift_rejects_a_model_without_a_periodic_shift():
    with pytest.raises(ValueError, match="resnet_periodic"):
        reference.TransportShift(rom.RomModel(fourier_sine_arch(2), np.ones(2)), np.array([1.0]))


def test_heat_series_single_mode(rng):
    ref = reference.HeatSeries(np.array([1.0]))
    X = rng.uniform(0, 1, (6, 1))
    t = 0.01
    got = reference.reference_at(ref, X)(t)
    assert np.allclose(got, np.exp(-np.pi**2 * t) * np.sin(np.pi * X[:, 0]), rtol=1e-14)


def test_heat_series_satisfies_pde(rng):
    ref = reference.HeatSeries(np.array([0.8, -0.3]))
    h = 1e-4
    for _ in range(10):
        x = rng.uniform(0.1, 0.9)
        t = rng.uniform(0.01, 0.05)
        X = np.array([[x]])
        dt = (reference.reference_at(ref, X)(t + h) - reference.reference_at(ref, X)(t - h)) / (2 * h)
        lap = (
            reference.reference_at(ref, X + h)(t)
            - 2 * reference.reference_at(ref, X)(t)
            + reference.reference_at(ref, X - h)(t)
        ) / h**2
        assert abs(dt[0] - lap[0]) < 1e-4


def test_transport_shift_satisfies_pde(rng):
    ref = _sine_2pi_shift()
    h = 1e-4
    for _ in range(10):
        x = rng.uniform(0.1, 0.9)
        t = rng.uniform(0.0, 0.4)
        X = np.array([[x]])
        dt = (reference.reference_at(ref, X)(t + h) - reference.reference_at(ref, X)(t - h)) / (2 * h)
        dx = (reference.reference_at(ref, X + h)(t) - reference.reference_at(ref, X - h)(t)) / (2 * h)
        assert abs(dt[0] + dx[0]) < 1e-4


def test_grid_solution_node_exactness():
    grid = reference.solve_allen_cahn_imex(
        fit.ChebCombo(terms=((1, 1, 0.5),)), 1e-4, 24, 32, 0.1
    )
    # values at stored nodes/times are reproduced exactly
    i, j, k = 5, 7, 2
    X = np.array([[grid.xs[i], grid.xs[j]]])
    got = reference.reference_at(grid, X)(float(grid.times[k]))
    assert got[0] == pytest.approx(grid.snapshots[k, i, j], abs=1e-15)


def test_imex_zero_initial_stays_zero():
    spec = fit.ChebCombo(terms=((0, 0, 0.0),))
    grid = reference.solve_allen_cahn_imex(spec, 1e-4, 20, 32, 0.2)
    assert np.abs(grid.snapshots).max() == 0.0


def test_imex_constant_core_stays_near_one(monkeypatch):
    # u0 = 1 is in no initial family: the solver reads it through eval_initial
    monkeypatch.setattr(fit, "eval_initial", lambda spec, X: np.ones(X.shape[0]))
    grid = reference.solve_allen_cahn_imex(fit.ChebCombo(terms=((0, 0, 1.0),)), 1e-4, 48, 64, 0.3)
    # away from the boundary layer, u=1 is a reaction fixed point
    center = grid.snapshots[-1, 20:29, 20:29]
    assert np.abs(center - 1.0).max() < 0.02


def test_imex_invariant_region():
    spec = fit.ChebCombo(terms=((2, 1, 0.8), (0, 3, -0.6)))
    probe = np.random.default_rng(0).uniform(-0.99, 0.99, (400, 2))
    g_max = np.abs(fit.eval_initial(spec, probe)).max()
    assert g_max <= 1.0 + 1e-9
    grid = reference.solve_allen_cahn_imex(spec, 1e-4, 48, 100, 0.3)
    assert np.abs(grid.snapshots).max() <= max(1.0, g_max) + 0.05


def test_imex_self_convergence():
    spec = fit.ChebCombo(terms=((1, 2, 0.5), (0, 0, 0.3)))
    probes = np.random.default_rng(3).uniform(-0.9, 0.9, (300, 2))
    t_final = 0.1
    sols = []
    for nx, nt in ((25, 50), (51, 100), (103, 200)):
        grid = reference.solve_allen_cahn_imex(spec, 1e-3, nx, nt, t_final)
        sols.append(reference.reference_at(grid, probes)(t_final))
    d1 = np.sqrt(np.mean((sols[1] - sols[0]) ** 2))
    d2 = np.sqrt(np.mean((sols[2] - sols[1]) ** 2))
    assert d2 < d1 / 1.7  # at least ~1st order overall refinement


def test_out_of_domain_errors():
    spec = fit.ChebCombo(terms=((0, 0, 0.0),))
    grid = reference.solve_allen_cahn_imex(spec, 1e-4, 20, 32, 0.1)
    with pytest.raises(OutOfDomain):
        reference.reference_at(grid, np.array([[0.0, 0.0]]))(0.5)
    with pytest.raises(OutOfDomain):
        reference.reference_at(grid, np.array([[2.0, 0.0]]))(0.05)


def test_error_curve_self_comparison_zero():
    model = _sine_net()
    arch, theta0 = model.arch, model.theta
    # reference IS the model snapshot: the anchor model at theta0, unshifted
    ref = reference.TransportShift(model=model, velocity=np.array([0.0]))
    traj = evolve.ParamTrajectory(
        times=np.array([0.0, 0.1]), thetas=np.stack([theta0, theta0]), velocities=None, step=0.1,
    )
    curve = reference.error_curve(arch, traj, ref, 512, seed=0, max_times=traj.times.size)
    assert np.abs(curve.abs_err).max() < 1e-13
    assert np.all(np.isfinite(curve.rel_err))


def test_error_curve_t0_matches_fit_rmse():
    # mode 3 lies outside the 2-mode basis, so the fit RMSE is well above 0
    arch = fourier_sine_arch(2)
    spec = fit.HeatCombo(np.array([0.8, 0.4, 0.3, 0.0]))
    res = fit.fit_initials(arch, [spec], 512, 5e-4, [21], lr=1e-2, max_steps=800)[0]
    assert res.rmse > 0.1
    ref = reference.HeatSeries(spec.coeffs)
    traj = evolve.ParamTrajectory(
        times=np.array([0.0]), thetas=res.theta[None, :], velocities=None, step=0.0
    )
    curve = reference.error_curve(arch, traj, ref, 8192, seed=5, max_times=traj.times.size)
    # |Omega| = 1: the L2 error at t=0 is the fit RMSE, within 2x
    assert curve.abs_err[0] <= 2.0 * res.rmse + 1e-12
    assert curve.abs_err[0] >= res.rmse / 2.0 - 1e-12


def test_error_curve_mc_scaling():
    arch = fourier_sine_arch(2)
    theta = np.array([0.5, 0.2])
    ref = reference.HeatSeries(np.array([0.9]))  # deliberate mismatch
    traj = evolve.ParamTrajectory(
        times=np.array([0.0]), thetas=theta[None, :], velocities=None, step=0.0
    )
    def spread(n_x):
        vals = [
            reference.error_curve(arch, traj, ref, n_x, seed=s, max_times=traj.times.size).abs_err[0]
            for s in range(24)
        ]
        return np.std(vals)

    s1, s2 = spread(256), spread(1024)
    assert s2 < s1 / np.sqrt(2.0) * 1.5  # ~sqrt(n) reduction with slack


def test_error_curve_undefined_relative():
    arch = fourier_sine_arch(2)
    ref = reference.HeatSeries(np.array([0.0]))  # identically zero reference
    traj = evolve.ParamTrajectory(
        times=np.array([0.0]), thetas=np.array([[0.1, 0.0]]), velocities=None, step=0.0
    )
    curve = reference.error_curve(arch, traj, ref, 128, seed=0, max_times=traj.times.size)
    assert np.isnan(curve.rel_err[0])


def test_error_curve_is_deterministic():
    arch = fourier_sine_arch(2)
    ref = reference.HeatSeries(np.array([0.9]))
    traj = evolve.ParamTrajectory(
        times=np.array([0.0, 0.1]), thetas=np.array([[0.5, 0.1], [0.4, 0.05]]), velocities=None, step=0.1,
    )
    curve = reference.error_curve(arch, traj, ref, 128, seed=1, max_times=traj.times.size)
    assert curve.times.shape == curve.abs_err.shape == curve.rel_err.shape == (2,)
    # the same seed gives byte-identical rows
    again = reference.error_curve(arch, traj, ref, 128, seed=1, max_times=traj.times.size)
    for name in ("times", "abs_err", "rel_err"):
        assert getattr(again, name).tobytes() == getattr(curve, name).tobytes()


def test_export_slice(tmp_path, monkeypatch):
    spec = fit.ChebCombo(terms=((0, 0, 0.0),))
    grid = reference.solve_allen_cahn_imex(spec, 1e-4, 20, 32, 0.1)
    arch = rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    theta = rom.init_params(arch, 0)
    path = tmp_path / "slice.csv"
    monkeypatch.setattr(reference, "SLICE_GRID_N", 10)
    reference.export_slice(arch, theta, grid, 0.05, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,u_ref,u_rom,abs_diff"
    assert len(lines) == 101


def test_export_slice_writes_each_cell_as_a_plain_decimal(tmp_path):
    # under numpy 2 the repr of a numpy scalar is np.float64(...), which no
    # CSV reader parses; every cell must read back as the float written
    grid = reference.solve_allen_cahn_imex(fit.ChebCombo(terms=((1, 1, 0.5), (0, 2, -0.3))), 1e-3, 20, 32, 0.1)
    arch = rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    theta = rom.init_params(arch, 0)
    path = tmp_path / "slice.csv"
    reference.export_slice(arch, theta, grid, 0.05, path)
    x1, x2, u_ref, u_rom, abs_diff = np.loadtxt(path, delimiter=",", skiprows=1).T
    n = reference.SLICE_GRID_N
    assert x1.shape == (n * n,)
    axis = np.linspace(-1.0, 1.0, n)
    assert np.array_equal(x1, np.repeat(axis, n)) and np.array_equal(x2, np.tile(axis, n))
    pts = np.stack([x1, x2], axis=1)
    assert u_rom.tobytes() == rom.value_at(arch, pts)(theta).tobytes()
    assert u_ref.tobytes() == reference.reference_at(grid, pts)(0.05).tobytes()
    assert np.abs(u_ref).max() > 0.1
    assert abs_diff.tobytes() == np.abs(u_ref - u_rom).tobytes()


def test_grid_and_slice_writes_replace_whole_files(tmp_path, monkeypatch):
    spec = fit.ChebCombo(terms=((1, 1, 0.5),))
    monkeypatch.setattr(reference, "MAX_SNAPSHOTS", 4)  # 16 steps strided 6: t = 0 and 3 more
    grid = reference.solve_allen_cahn_imex(spec, 1e-4, 16, 16, 0.1)
    assert grid.times.size == 4
    ref = tmp_path / "ref_000.bin"
    reference.save_grid_solution(grid, ref, artifact_header("reference", {"problem.epsilon": 1e-4}))
    back = reference.load_grid_solution(ref, artifact_header("reference", {"problem.epsilon": 1e-4}))
    for name in ("xs", "times", "snapshots", "lo", "hi"):
        assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()
    with pytest.raises(CacheMismatch, match="'problem.epsilon' .* rerun reference"):
        reference.load_grid_solution(ref, artifact_header("reference", {"problem.epsilon": 0.5}))

    # a write cut before its rename leaves the previous file in place
    arch = rom.RomArch("resnet_zero_boundary", 2, 4, 2, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    csv = tmp_path / "slice.csv"
    writes = {
        ref: lambda: reference.save_grid_solution(grid, ref, artifact_header("reference")),
        csv: lambda: reference.export_slice(arch, rom.init_params(arch, 0), grid, 0.05, csv),
    }

    def cut(src, dst):
        raise OSError("cut before the rename")

    monkeypatch.setattr(os, "replace", cut)
    for path, write in writes.items():
        path.write_bytes(b"previous")
        with pytest.raises(OSError, match="cut"):
            write()
        assert path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ref_000.bin", "slice.csv"]


# ---------------------------------------------------------------------------
# oracles: the per-time error-curve loop, the sparse-LU IMEX step and the
# fast-sine-transform IMEX step that reference.error_curve and
# reference.solve_allen_cahn_imex replace


def _loop_eval_reference(ref, X, t):
    """The reference at (X, t), every table rebuilt at each call."""
    if isinstance(ref, reference.TransportShift):
        # the model with the shift, the last input_dim entries of theta, advanced by vt
        theta = ref.model.theta.copy()
        theta[-ref.model.arch.input_dim:] += ref.velocity * t
        return rom.eval_batch(rom.RomModel(ref.model.arch, theta), X, rom.EvalFlags(value=True)).value
    if isinstance(ref, reference.HeatSeries):
        out = np.zeros(X.shape[0])
        for k, c in enumerate(ref.coeffs, start=1):
            if c != 0.0:
                out += c * np.exp(-((k * np.pi) ** 2) * t) * np.sin(k * np.pi * X[:, 0])
        return out
    k = int(np.searchsorted(ref.times, t, side="right")) - 1
    k = min(max(k, 0), len(ref.times) - 2)
    t0, t1 = ref.times[k], ref.times[k + 1]
    w1 = (t - t0) / (t1 - t0)
    xs = ref.xs
    hx = xs[1] - xs[0]
    i = np.clip(((X[:, 0] - xs[0]) / hx).astype(int), 0, len(xs) - 2)
    j = np.clip(((X[:, 1] - xs[0]) / hx).astype(int), 0, len(xs) - 2)
    fx = (X[:, 0] - xs[i]) / hx
    fy = (X[:, 1] - xs[j]) / hx
    out = np.zeros(X.shape[0])
    for frame, wt in zip([ref.snapshots[k], ref.snapshots[k + 1]], [1.0 - w1, w1]):
        v00 = frame[i, j]
        v10 = frame[i + 1, j]
        v01 = frame[i, j + 1]
        v11 = frame[i + 1, j + 1]
        out += wt * (
            v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) + v01 * (1 - fx) * fy + v11 * fx * fy
        )
    return out


def _loop_error_curve(arch, traj, ref, n_x, seed, max_times):
    lo, hi = arch.domain
    vol = float(np.prod(hi - lo))
    X = sample_omega(arch.domain, n_x, seed, Purpose.EVAL_POINTS)
    idx = np.arange(traj.times.shape[0])
    if idx.size > max_times:
        idx = np.unique(np.linspace(0, idx.size - 1, max_times).astype(int))
    abs_err = np.empty(idx.size)
    rel = np.full(idx.size, np.nan)
    for out_i, j in enumerate(idx):
        u_rom = rom.eval_batch(rom.RomModel(arch, traj.thetas[j]), X, rom.EvalFlags(value=True)).value
        u_ref = _loop_eval_reference(ref, X, float(traj.times[j]))
        diff = u_rom - u_ref
        a = float(np.sqrt(vol * np.mean(diff * diff)))
        nrm = float(np.sqrt(vol * np.mean(u_ref * u_ref)))
        abs_err[out_i] = a
        if nrm > reference.REL_NORM_FLOOR:
            rel[out_i] = a / nrm
    return reference.ErrorCurve(times=traj.times[idx], abs_err=abs_err, rel_err=rel)


def _splu_imex(initial, epsilon, nx, nt, horizon, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    """Every step's field of the IMEX scheme, each implicit step solved by a
    sparse LU factorization of I - dt*eps*L_h."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    hx = (hi[0] - lo[0]) / (nx + 1)
    inner = lo[0] + hx * np.arange(1, nx + 1)
    XX, YY = np.meshgrid(inner, inner, indexing="ij")
    u = fit.eval_initial(initial, np.stack([XX.ravel(), YY.ravel()], axis=1)).reshape(nx, nx)
    dt = horizon / nt
    lap1 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(nx, nx)) / hx**2
    eye = sp.identity(nx)
    solver = spla.splu((sp.identity(nx * nx) - dt * epsilon * (sp.kron(lap1, eye) + sp.kron(eye, lap1))).tocsc())
    fields = [u]
    for _ in range(nt):
        u = solver.solve((u + dt * 1.5 * (u - u**3)).ravel()).reshape(nx, nx)
        fields.append(u)
    return np.stack(fields)


def _dst_imex(initial, epsilon, nx, nt, horizon, max_snapshots=64):
    """The snapshots of the IMEX scheme on (-1,1)^2, each implicit step one
    scipy.fft DST-I of the right-hand side, a division and one inverse
    DST-I, strided as solve_allen_cahn_imex strides them."""
    hx = 2.0 / (nx + 1)
    inner = -1.0 + hx * np.arange(1, nx + 1)
    XX, YY = np.meshgrid(inner, inner, indexing="ij")
    u = fit.eval_initial(initial, np.stack([XX.ravel(), YY.ravel()], axis=1)).reshape(nx, nx)
    dt = horizon / nt
    lam = -(4.0 / hx**2) * np.sin(np.arange(1, nx + 1) * np.pi / (2 * (nx + 1))) ** 2
    system = 1.0 - dt * epsilon * (lam[:, None] + lam[None, :])
    stride = max(1, int(np.ceil(nt / (max_snapshots - 1))))
    snaps = [u]
    for n in range(1, nt + 1):
        rhs = u + dt * 1.5 * (u - u * u * u)
        u = idstn(dstn(rhs, type=1, norm="ortho") / system, type=1, norm="ortho")
        if n % stride == 0 or n == nt:
            snaps.append(u)
    return np.stack(snaps)


def _trajectory(arch, seed, n=9, step=0.02, scale=0.3):
    theta = rom.init_params(arch, seed)
    thetas = theta + scale * np.random.default_rng(seed).standard_normal((n, theta.size))
    return evolve.ParamTrajectory(times=step * np.arange(n), thetas=thetas, velocities=None, step=step)


def _curve_cases():
    """(arch, trajectory, reference) per case; the grid reference is strided
    at reference.MAX_SNAPSHOTS."""
    heat_arch = fourier_sine_arch(4)
    heat = (heat_arch, _trajectory(heat_arch, 1), reference.HeatSeries(np.array([0.7, 0.0, -0.4, 0.2, 0.1])))
    periodic = rom.RomArch(rom.RESNET_PERIODIC, 1, 5, 3, "tanh")
    transport = (periodic, _trajectory(periodic, 2),
                 reference.TransportShift(rom.RomModel(periodic, rom.init_params(periodic, 5)), np.array([1.0])))
    boundary = rom.RomArch(rom.RESNET_ZERO_BOUNDARY, 2, 4, 2, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0))
    grid = reference.solve_allen_cahn_imex(fit.ChebCombo(terms=((1, 1, 0.5), (0, 2, -0.3))), 1e-3, 20, 40, 0.16)
    return {"heat": heat, "transport": transport, "grid": (boundary, _trajectory(boundary, 3), grid)}


@pytest.mark.parametrize("case", ["heat", "transport", "grid"])
def test_error_curve_is_bit_exact_against_the_per_time_loop(case, monkeypatch):
    monkeypatch.setattr(reference, "MAX_SNAPSHOTS", 6)  # 40 steps strided 8
    arch, traj, ref = _curve_cases()[case]
    # every time (as many as the trajectory has, or more) and 5 of its 9
    for max_times in (traj.times.size, 64, 5):
        got = reference.error_curve(arch, traj, ref, 777, seed=4, max_times=max_times)
        want = _loop_error_curve(arch, traj, ref, 777, seed=4, max_times=max_times)
        for name in ("times", "abs_err", "rel_err"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_error_curve_rejects_a_theta_row_that_is_not_finite():
    arch, traj, ref = _curve_cases()["heat"]
    traj.thetas[4, 1] = np.inf
    with pytest.raises(NonFiniteError):
        reference.error_curve(arch, traj, ref, 64, seed=0, max_times=traj.times.size)


@pytest.mark.parametrize("nx, nt", [(16, 24), (37, 60)])
@pytest.mark.parametrize("epsilon", [1e-4, 0.05])
def test_imex_sine_transform_solve_matches_sparse_lu(nx, nt, epsilon):
    spec = fit.ChebCombo(terms=((2, 1, 0.8), (0, 3, -0.6), (1, 0, 0.3)))
    grid = reference.solve_allen_cahn_imex(spec, epsilon, nx, nt, 0.3)
    fields = _splu_imex(spec, epsilon, nx, nt, 0.3)
    steps = np.rint(grid.times / (0.3 / nt)).astype(int)
    assert steps[0] == 0 and steps[-1] == nt
    assert np.abs(grid.snapshots[:, 1:-1, 1:-1] - fields[steps]).max() <= 1e-12


@pytest.mark.parametrize("n", [16, 64, 100])
def test_sine_matrix_is_orthonormal_and_involutory(n):
    S = reference._sine_matrix(n)
    assert np.array_equal(S, S.T)
    assert np.abs(S @ S - np.eye(n)).max() <= 1e-13
    # the orthonormal DST-I of the identity's columns
    assert np.abs(S - dstn(np.eye(n), type=1, norm="ortho", axes=[0])).max() <= 1e-13


@pytest.mark.parametrize("nx, nt", [(64, 500), (100, 200)])
def test_imex_sine_matrix_solve_matches_the_fast_sine_transform_step(nx, nt):
    # nx = 100 is the reference command's default grid; 200 steps check
    # the same per-step product as its default 2000, for which the oracle's
    # FFTs of length 202 = 2 * 101 took 4 s
    spec = fit.ChebCombo(terms=((2, 1, 0.8), (0, 3, -0.6), (1, 0, 0.3)))
    grid = reference.solve_allen_cahn_imex(spec, 1e-4, nx, nt, 1.0)
    want = _dst_imex(spec, 1e-4, nx, nt, 1.0)
    assert grid.snapshots.shape == (want.shape[0], nx + 2, nx + 2)
    assert np.abs(grid.snapshots[:, 1:-1, 1:-1] - want).max() <= 1e-11


def test_grid_reference_matches_the_two_frame_bilinear_formula(monkeypatch):
    monkeypatch.setattr(reference, "MAX_SNAPSHOTS", 7)  # 48 steps strided 8
    grid = reference.solve_allen_cahn_imex(fit.ChebCombo(terms=((1, 2, 0.6), (3, 0, -0.4))), 1e-3, 30, 48, 0.2)
    assert grid.times.size == 7
    rng = np.random.default_rng(8)
    # random points, the grid's nodes and the box's corners and edges
    X = np.vstack([rng.uniform(-1.0, 1.0, (500, 2)), np.stack(np.meshgrid(grid.xs, grid.xs), -1).reshape(-1, 2),
                   [[-1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, 0.3], [0.2, -1.0]]])
    times = np.concatenate([grid.times, rng.uniform(grid.times[0], grid.times[-1], 20)])
    u_at = reference.reference_at(grid, X)
    for t in times:
        assert np.abs(u_at(float(t)) - _loop_eval_reference(grid, X, float(t))).max() <= 1e-13
