from pathlib import Path

import numpy as np
import pytest

from pdecontrol import binfile, cli, config, fit, linalg, pipeline, rom
from pdecontrol.optim import Adam
from pdecontrol.errors import CacheMismatch
from pdecontrol.sampling import Purpose, sample_omega, sample_theta

from conftest import TextbookAdam, artifact_header, fourier_sine_arch

PRESETS = Path(__file__).resolve().parents[1] / "configs"


def test_heat_combo_center():
    spec = fit.HeatCombo(np.array([1.0, 0.0, 0.0, 0.0]))
    assert fit.eval_initial(spec, np.array([[0.5]]))[0] == pytest.approx(1.0)


def test_heat_combo_second_mode_node():
    spec = fit.HeatCombo(np.array([0.0, 1.0, 0.0, 0.0]))
    assert fit.eval_initial(spec, np.array([[0.5]]))[0] == pytest.approx(0.0, abs=1e-15)


def test_heat_combo_validation():
    with pytest.raises(ValueError):
        fit.HeatCombo(np.array([1.5, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        fit.HeatCombo(np.array([1.0, 0.0]))


def test_cheb_combo_constant_term_origin():
    spec = fit.ChebCombo(terms=((0, 0, 1.0),))
    assert fit.eval_initial(spec, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.0)


def test_cheb_combo_vanishes_on_boundary():
    spec = fit.ChebCombo(terms=((2, 3, 0.7), (1, 0, -0.4)))
    pts = np.array([[1.0, 0.3], [-1.0, 0.5], [0.2, 1.0], [0.4, -1.0]])
    assert np.allclose(fit.eval_initial(spec, pts), 0.0, atol=1e-15)


def test_cheb_combo_validation():
    with pytest.raises(ValueError):
        fit.ChebCombo(terms=((7, 0, 0.5),))
    with pytest.raises(ValueError):
        fit.ChebCombo(terms=((0, 0, 1.5),))


def test_fit_linear_basis_exact():
    arch = fourier_sine_arch(8)
    spec = fit.HeatCombo(np.array([1.0, 0.0, 0.0, 0.0]))  # g = sin(pi x) = phi_1/sqrt(2)
    res = fit.fit_initials(arch, [spec], 256, 1e-8, [3], lr=1e-2, max_steps=4000)[0]
    assert res.rmse < 1e-8
    assert res.target_reached
    expect = np.zeros(8)
    expect[0] = 1.0 / np.sqrt(2.0)
    assert np.abs(res.theta - expect).max() < 1e-6


def _normal_equations(arch, spec, n_x, seed):
    """The least-squares theta on fit_initials' training sample, by the normal equations."""
    X = sample_omega(arch.domain, n_x, seed, Purpose.FIT_SAMPLE)
    B = rom.eval_batch(rom.RomModel(arch, np.zeros(rom.param_count(arch))), X, rom.EvalFlags(grad_theta=True)).grad_theta
    theta = linalg.ridge_solve(B.T @ B / n_x, B.T @ fit.eval_initial(spec, X) / n_x, 0.0)
    res = B @ theta - fit.eval_initial(spec, X)
    return theta, float(np.sqrt(np.mean(res * res)))


def test_fit_matches_normal_equations():
    # the fit solves the same sampled objective as the normal equations
    arch = fourier_sine_arch(2)
    spec = fit.HeatCombo(np.array([0.5, 0.3, -0.2, 0.4]))  # modes 3 and 4 lie outside the basis
    res = fit.fit_initials(arch, [spec], 256, 1e-12, [11], lr=1e-2, max_steps=2500)[0]
    theta_ne, _ = _normal_equations(arch, spec, 256, 11)
    assert np.abs(res.theta - theta_ne).max() < 1e-12


@pytest.mark.parametrize("coeffs, in_span", [([0.8, -0.4, 0.0, 0.0], True), ([0.8, -0.4, 0.3, 0.0], False)],
                         ids=["in_span", "out_of_span"])
def test_fit_linear_basis_is_one_least_squares_solve(coeffs, in_span):
    # one solve, whatever the ADAM settings: the exact minimiser of the
    # training objective, and target_reached follows its training RMSE
    arch = fourier_sine_arch(2)
    spec = fit.HeatCombo(np.array(coeffs))
    theta_ne, train_rmse = _normal_equations(arch, spec, 128, 4)
    assert (train_rmse < 1e-14) == in_span
    for lr, max_steps in ((1e-2, 1), (1e-5, 5000)):
        res = fit.fit_initials(arch, [spec], 128, 1e-3, [4], lr=lr, max_steps=max_steps)[0]
        assert np.abs(res.theta - theta_ne).max() < 1e-12
        assert res.steps <= 1
        assert res.target_reached == in_span
        assert fit.fit_initials(arch, [spec], 128, 2.0 * train_rmse + 1e-15, [4], lr=lr,
                                max_steps=max_steps)[0].target_reached


def test_fit_zero_target_zero_head(unit_interval):
    arch = rom.RomArch("resnet_zero_boundary", 1, 4, 2, "tanh")
    theta = rom.init_params(arch, 0)
    # zero the output weights: value is identically 0 = g
    W0, b0, blocks, w_out, _ = rom._unpack(arch, theta)
    w_out[:] = 0.0
    X = sample_omega(unit_interval, 64, 0, Purpose.FIT_SAMPLE)
    vals = rom.eval_batch(rom.RomModel(arch, theta), X, rom.EvalFlags(value=True)).value
    assert np.all(vals == 0.0)
    spec = fit.HeatCombo(np.zeros(4))
    res = fit.fit_initials(arch, [spec], 64, 1e-9, [1], lr=1e-3, max_steps=1, theta_inits=[theta])[0]
    assert res.rmse == 0.0 and res.target_reached


def test_fit_resnet_heat_initial_regression(unit_interval):
    # width-8 tanh resnet fits sin(pi x) to ~1e-3 at desk scale (well under
    # the 20k-step budget via one warm-started refinement stage)
    arch = rom.RomArch("resnet_zero_boundary", 1, 8, 2, "tanh")
    spec = fit.HeatCombo(np.array([1.0, 0.0, 0.0, 0.0]))
    theta = None
    total_steps = 0
    for lr, steps in ((1e-2, 3000), (1e-3, 3000)):
        res = fit.fit_initials(arch, [spec], 512, 1e-3, [5], lr=lr, max_steps=steps, theta_inits=[theta])[0]
        theta = res.theta
        total_steps += res.steps
        if res.target_reached:
            break
    assert total_steps <= 20_000
    assert res.rmse < 1e-3
    # no gross overfit at desk scale
    X = sample_omega(unit_interval, 512, 5, Purpose.FIT_SAMPLE)
    u = rom.eval_batch(rom.RomModel(arch, res.theta), X, rom.EvalFlags(value=True)).value
    train_rmse = float(np.sqrt(np.mean((u - fit.eval_initial(spec, X)) ** 2)))
    assert res.rmse < 3.0 * max(train_rmse, 1e-12) + 1e-9


def _oracle_adam_fit(arch, X, g, theta, eps0_target, lr, max_steps):
    """(best theta, its training MSE, steps run) of one fit on its own: the
    single-fit ADAM loop that fit._adam_fits runs in lockstep, on a
    pullback closure of one sample."""
    adam = Adam(theta.size, lr)
    at = rom.pullback_at(arch, X[None])
    theta = theta.copy()
    best_theta, best_mse, steps_done = theta.copy(), np.inf, 0
    for step in range(1, max_steps + 1):
        u, pullback = at(theta[None])
        res = u[0] - g
        mse = float(np.mean(res * res))
        if mse < best_mse:
            best_mse, best_theta = mse, theta.copy()
        steps_done = step
        if np.sqrt(mse) <= eps0_target or step == max_steps:
            break
        adam.step(theta, pullback(2.0 * res[None] / X.shape[0])[0])
    return best_theta, best_mse, steps_done


def _oracle_fit_initial(arch, spec, n_x, eps0_target, seed, lr, max_steps, theta_init=None):
    """fit.fit_initials of one spec, with the single-fit loop for a net."""
    X = sample_omega(arch.domain, n_x, seed, Purpose.FIT_SAMPLE)
    g = fit.eval_initial(spec, X)
    if arch.kind == rom.LINEAR_BASIS:
        theta, mse, steps = fit._least_squares_fit(arch, X, g)
    else:
        start = rom.init_params(arch, seed) if theta_init is None else theta_init
        theta, mse, steps = _oracle_adam_fit(arch, X, g, start, eps0_target, lr, max_steps)
    holdout = sample_omega(arch.domain, n_x, seed, Purpose.FIT_HOLDOUT)
    res = rom.value_at(arch, holdout)(theta) - fit.eval_initial(spec, holdout)
    return fit.FitResult(theta, float(np.sqrt(np.mean(res * res))), np.sqrt(mse) <= eps0_target, steps), mse


def _fit_arch(case, depth):
    return [
        rom.RomArch("resnet_zero_boundary", 1, 5, depth, "tanh"),
        rom.RomArch("resnet_zero_boundary", 2, 4, depth, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        rom.RomArch("resnet_periodic", 1, 6, depth, "relu"),
        rom.RomArch("resnet_periodic", 2, 4, depth, "tanh"),
    ][case]


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("case", range(4))
def test_stacked_fits_equal_the_single_fit_oracle_bit_for_bit(case, depth):
    # five anchors, each with its own sample (seed), start and target: the
    # first starts on its target through theta_init and stops at step 1,
    # eps0_target is set so that the second stops mid-run, and one or more of
    # the rest run to max_steps; stacks of 1, 3 and 5 give each the oracle's fit
    arch = _fit_arch(case, depth)
    n_x, lr, max_steps = 32, 3e-2, 12
    seeds = [10 + k for k in range(5)]
    specs = [fit.HeatCombo(np.array(c, dtype=float)) for c in
             ([0, 0, 0, 0], [0.3, 0, 0, 0], [0.9, -0.5, 0.3, 0], [-0.7, 0.6, 0, 0.4], [0.5, 0.5, -0.5, 0.5])]
    zero_head = rom.init_params(arch, seeds[0])
    rom._unpack(arch, zero_head)[3][:] = 0.0
    starts = [zero_head] + [None] * 4
    mid = _oracle_fit_initial(arch, specs[1], n_x, 0.0, seeds[1], lr, max_steps // 2)[1]
    eps0 = float(np.sqrt(mid))
    want = [_oracle_fit_initial(arch, spec, n_x, eps0, seed, lr, max_steps, start)
            for spec, seed, start in zip(specs, seeds, starts)]
    steps = [w.steps for w, _ in want]
    assert steps[0] == 1 and 1 < steps[1] < max_steps and max_steps in steps

    Xs = np.stack([sample_omega(arch.domain, n_x, seed, Purpose.FIT_SAMPLE) for seed in seeds])
    G = np.stack([fit.eval_initial(spec, X) for spec, X in zip(specs, Xs)])
    thetas = np.stack([zero_head] + [rom.init_params(arch, seed) for seed in seeds[1:]])
    for k in (1, 3, 5):
        for i in range(0, 5, k):
            got = fit._adam_fits(arch, Xs[i : i + k], G[i : i + k], thetas[i : i + k], eps0, lr, max_steps)
            for (theta, mse, steps), (w, w_mse) in zip(got, want[i : i + k]):
                assert theta.tobytes() == w.theta.tobytes() and mse == w_mse and steps == w.steps
    # the public path: the starts, the stack and the held-out RMSE
    got = fit.fit_initials(arch, specs, n_x, eps0, seeds, lr=lr, max_steps=max_steps, theta_inits=starts)
    for res, (w, _) in zip(got, want):
        assert res.theta.tobytes() == w.theta.tobytes() and (res.rmse, res.steps) == (w.rmse, w.steps)
        assert res.target_reached == w.target_reached


def _jacobian_adam_fit(arch, X, g, theta, eps0_target, lr, max_steps):
    # the fit with each step's gradient formed from the (n, m) Jacobian
    adam = Adam(theta.size, lr)
    best_theta, best_mse, steps = theta.copy(), np.inf, 0
    need = rom.EvalFlags(value=True, grad_theta=True)
    for steps in range(1, max_steps + 1):
        ev = rom.eval_batch(rom.RomModel(arch, theta), X, need)
        res = ev.value - g
        mse = float(np.mean(res * res))
        if mse < best_mse:
            best_theta, best_mse = theta.copy(), mse
        if np.sqrt(mse) <= eps0_target:
            break
        theta = adam.step(theta, 2.0 * (ev.grad_theta.T @ res) / X.shape[0])
    return best_theta, best_mse, steps


@pytest.mark.parametrize("arch", [
    rom.RomArch("resnet_zero_boundary", 2, 6, 2, "tanh", lo=(-1.0, -1.0), hi=(1.0, 1.0)),
    rom.RomArch("resnet_periodic", 1, 6, 3, "tanh"),
])
def test_adam_fit_on_the_pullback_lands_on_the_jacobian_path_fit(arch):
    # a stack of one: the stacked oracle test above carries it to every row
    X = sample_omega(arch.domain, 512, 3, Purpose.FIT_SAMPLE)
    g = np.sin(np.pi * X).prod(axis=1)
    start = rom.init_params(arch, 3)
    [(theta, mse, steps)] = fit._adam_fits(arch, X[None], g[None], start[None], 0.0, 1e-2, 150)
    want_theta, want_mse, want_steps = _jacobian_adam_fit(arch, X, g, start, 0.0, 1e-2, 150)
    assert steps == want_steps == 150
    assert np.abs(theta - want_theta).max() <= 1e-12
    assert mse == pytest.approx(want_mse, rel=1e-10)


def test_adam_fit_leaves_theta_as_it_was_and_steps_as_the_textbook_adam(monkeypatch):
    arch = rom.RomArch("resnet_periodic", 1, 6, 3, "tanh")
    seeds = (3, 4, 5)
    X = np.stack([sample_omega(arch.domain, 256, seed, Purpose.FIT_SAMPLE) for seed in seeds])
    G = np.sin(2.0 * np.pi * X[..., 0])
    starts = np.stack([rom.init_params(arch, seed) for seed in seeds])
    thetas0 = starts.copy()
    calls = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, params, grad: calls.append(1) or step(self, params, grad))
    fits = fit._adam_fits(arch, X, G, starts, 0.0, 1e-2, 40)
    monkeypatch.undo()
    assert np.array_equal(starts, thetas0)
    # one stacked step per step, and the 40th parameter vector is the last
    # one evaluated: no step after it
    assert len(calls) == 39
    # each row against the fit loop with ADAM on new arrays
    for (best_theta, best_mse, steps), x, g, theta in zip(fits, X, G, thetas0):
        adam, at = TextbookAdam(theta.size, 1e-2), rom.pullback_at(arch, x[None])
        want_theta, want_mse = None, np.inf
        for _ in range(40):
            u, pullback = at(theta[None])
            res = u[0] - g
            mse = float(np.mean(res * res))
            if mse < want_mse:
                want_theta, want_mse = theta.copy(), mse
            theta = adam.step(theta, pullback(2.0 * res[None] / x.shape[0])[0])
        assert steps == 40 and best_mse == want_mse
        assert np.array_equal(best_theta, want_theta)


@pytest.mark.parametrize("preset, overrides, steps", [
    # fits that stop mid-run, at max_steps, mid-run and at step 1
    ("allen_cahn_2d.json", ["initials.count=4", "initials.fit_n_x=64", "initials.fit.max_steps=20",
                            "initials.eps0_target=0.18"], [19, 20, 13, 1]),
    ("heat_fourier_1d.json", ["initials.count=3", "initials.fit_n_x=64"], [1, 1, 1]),
], ids=["allen_cahn", "heat"])
def test_fit_initial_writes_the_store_of_the_single_fit_loop(tmp_path, preset, overrides, steps):
    cfg = config.load_config(PRESETS / preset, out_dir=str(tmp_path), overrides=overrides)
    pipeline.cmd_fit_initial(cfg)
    ini = cfg.raw["initials"]
    entries, oracle_steps = [], []
    for k, spec in enumerate(pipeline.sample_initial_specs(cfg)):
        res = _oracle_fit_initial(cfg.rom_arch, spec, ini["fit_n_x"], ini["eps0_target"], cfg.seed + 1000 + k,
                                  **ini["fit"])[0]
        entries.append((spec, res.theta, res.rmse))
        oracle_steps.append(res.steps)
    assert oracle_steps == steps
    fit.save_anchors(tmp_path / "oracle.bin", dict(cfg.header("anchors"), m=entries[0][1].size), entries)
    assert Path(cfg.path("anchors")).read_bytes() == (tmp_path / "oracle.bin").read_bytes()


def test_fit_initial_exits_on_a_fit_that_overflows_among_healthy_ones(tmp_path):
    # eps0_target lies between the anchors' starting RMSEs: the anchors at or
    # below it stop at step 1, the others take an ADAM step of lr 1e300 and
    # overflow; fit-initial exits with the numeric-failure code and writes no store
    overrides = ["initials.count=4", "initials.fit_n_x=64"]
    cfg = config.load_config(PRESETS / "allen_cahn_2d.json", out_dir=str(tmp_path), overrides=overrides)
    arch = cfg.rom_arch
    start_rmse = []
    for k, spec in enumerate(pipeline.sample_initial_specs(cfg)):
        X = sample_omega(arch.domain, 64, cfg.seed + 1000 + k, Purpose.FIT_SAMPLE)
        res = rom.value_at(arch, X)(rom.init_params(arch, cfg.seed + 1000 + k)) - fit.eval_initial(spec, X)
        start_rmse.append(float(np.sqrt(np.mean(res * res))))
    eps0 = 0.5 * (min(start_rmse) + max(start_rmse))
    assert min(start_rmse) <= eps0 < max(start_rmse)
    argv = ["fit-initial", "--config", str(PRESETS / "allen_cahn_2d.json"), "--out", str(tmp_path)]
    for override in [*overrides, f"initials.eps0_target={eps0!r}", "initials.fit.lr=1e300"]:
        argv += ["--set", override]
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(argv) == cli.EXIT_NUMERIC
    assert not Path(cfg.path("anchors")).exists()


def test_fit_holdout_disjoint_from_training(unit_interval):
    a = sample_omega(unit_interval, 128, 9, Purpose.FIT_SAMPLE)
    b = sample_omega(unit_interval, 128, 9, Purpose.FIT_HOLDOUT)
    assert not np.array_equal(a, b)


def test_fit_target_not_reached_flag():
    arch = fourier_sine_arch(2)
    spec = fit.HeatCombo(np.array([0.0, 0.0, 1.0, 0.0]))  # sin(3 pi x): not in the 2-mode span
    res = fit.fit_initials(arch, [spec], 128, 1e-10, [2], lr=1e-2, max_steps=200)[0]
    assert not res.target_reached
    assert np.all(np.isfinite(res.theta))


def test_transport_anchors_are_box_points_drawn_per_seed(tmp_path):
    # a transport anchor is drawn, not fitted, and the store records no spec for it:
    # the anchors are one box draw for Purpose.ANCHORS, so a larger count keeps the prefix
    def store(out, count, seed):
        cfg = config.load_config(PRESETS / "transport_1d.json", out_dir=str(tmp_path / out), seed=seed,
                                 overrides=[f"initials.count={count}", "theta_space.half_width=0.5"])
        assert [entry["rmse"] for entry in pipeline.cmd_fit_initial(cfg)] == [0.0] * count
        header, thetas = binfile.load(cfg.path("anchors"), cfg.header("anchors"))
        assert header["specs"] == [None] * count and header["rmse"] == [0.0] * count
        return cfg, thetas

    cfg, three = store("a", 3, 0)
    drawn = sample_theta(cfg.theta_space(), 3, 0, Purpose.ANCHORS)
    assert three.tobytes() == drawn.tobytes() == store("b", 3, 0)[1].tobytes()
    five = store("c", 5, 0)[1]
    assert five[:3].tobytes() == three.tobytes() and len({row.tobytes() for row in five}) == 5
    assert np.abs(five).max() <= 0.5
    assert not np.array_equal(store("d", 3, 1)[1], three)


def test_transport_fit_initial_with_no_initials_writes_an_empty_store(tmp_path):
    # sample_theta takes n >= 1, so a count of 0 must not reach it
    cfg = config.load_config(PRESETS / "transport_1d.json", out_dir=str(tmp_path), overrides=["initials.count=0"])
    assert cli.main(["fit-initial", "--config", str(PRESETS / "transport_1d.json"), "--out", str(tmp_path),
                     "--set", "initials.count=0"]) == 0
    header, thetas = binfile.load(cfg.path("anchors"), cfg.header("anchors"))
    assert thetas.shape == (0, rom.param_count(cfg.rom_arch)) and header["specs"] == [] and header["rmse"] == []


def test_anchor_store_roundtrip(tmp_path):
    # a transport anchor (the second) has no spec
    specs = [fit.HeatCombo(np.array([0.5, -0.5, 0.0, 0.0])), None]
    thetas = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    fit.save_anchors(tmp_path / "a.bin", dict(artifact_header("anchors"), m=2), list(zip(specs, thetas, [0.01, 0.0])))
    header, loaded = binfile.load(tmp_path / "a.bin", dict(artifact_header("anchors"), m=2))
    assert loaded.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert header["specs"][0]["kind"] == "heat_combo"
    assert header["specs"][1] is None
    assert header["rmse"] == [0.01, 0.0]
    with pytest.raises(CacheMismatch, match="'m' .* rerun fit-initial"):
        binfile.load(tmp_path / "a.bin", dict(artifact_header("anchors"), m=3))


def test_anchor_store_header_past_64_kb_reads_back(tmp_path):
    # the specs live in the header, which grows with the anchor count
    spec = fit.ChebCombo(terms=tuple((i, j, -0.123456789) for i in range(6) for j in range(6)))
    path = tmp_path / "a.bin"
    head = dict(artifact_header("anchors"), m=3)
    fit.save_anchors(path, head, [(spec, np.full(3, float(k)), 1e-3) for k in range(400)])
    assert path.stat().st_size > 1 << 16
    header, thetas = binfile.load(path, head)
    assert len(header["specs"]) == 400 and thetas.shape == (400, 3) and thetas[-1].tolist() == [399.0] * 3
