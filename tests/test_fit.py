from pathlib import Path

import numpy as np
import pytest

from pdecontrol import cli, config, fit, linalg, pipeline, rom
from pdecontrol.optim import Adam
from pdecontrol.errors import CacheMismatch
from pdecontrol.sampling import Purpose, sample_omega, sample_theta

from conftest import TextbookAdam, fourier_sine_arch

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
    res = fit.fit_initial(arch, spec, 256, 1e-8, seed=3, lr=1e-2, max_steps=4000)
    assert res.rmse < 1e-8
    assert res.target_reached
    expect = np.zeros(8)
    expect[0] = 1.0 / np.sqrt(2.0)
    assert np.abs(res.theta - expect).max() < 1e-6


def _normal_equations(arch, spec, n_x, seed):
    """The least-squares theta on fit_initial's training sample, by the normal equations."""
    X = sample_omega(arch.domain, n_x, seed, Purpose.FIT_SAMPLE)
    B = rom.eval_batch(rom.RomModel(arch, np.zeros(rom.param_count(arch))), X, rom.EvalFlags(grad_theta=True)).grad_theta
    theta = linalg.ridge_solve(B.T @ B / n_x, B.T @ fit.eval_initial(spec, X) / n_x, 0.0)
    res = B @ theta - fit.eval_initial(spec, X)
    return theta, float(np.sqrt(np.mean(res * res)))


def test_fit_matches_normal_equations():
    # the fit solves the same sampled objective as the normal equations
    arch = fourier_sine_arch(2)
    spec = fit.HeatCombo(np.array([0.5, 0.3, -0.2, 0.4]))  # modes 3 and 4 lie outside the basis
    res = fit.fit_initial(arch, spec, 256, 1e-12, seed=11, lr=1e-2, max_steps=2500)
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
        res = fit.fit_initial(arch, spec, 128, 1e-3, seed=4, lr=lr, max_steps=max_steps)
        assert np.abs(res.theta - theta_ne).max() < 1e-12
        assert res.steps <= 1
        assert res.target_reached == in_span
        assert fit.fit_initial(arch, spec, 128, 2.0 * train_rmse + 1e-15, seed=4, lr=lr,
                               max_steps=max_steps).target_reached


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
    res = fit.fit_initial(arch, spec, 64, 1e-9, seed=1, lr=1e-3, max_steps=1, theta_init=theta)
    assert res.rmse == 0.0 and res.target_reached


def test_fit_resnet_heat_initial_regression(unit_interval):
    # width-8 tanh resnet fits sin(pi x) to ~1e-3 at desk scale (well under
    # the 20k-step budget via one warm-started refinement stage)
    arch = rom.RomArch("resnet_zero_boundary", 1, 8, 2, "tanh")
    spec = fit.HeatCombo(np.array([1.0, 0.0, 0.0, 0.0]))
    theta = None
    total_steps = 0
    for lr, steps in ((1e-2, 3000), (1e-3, 3000)):
        res = fit.fit_initial(arch, spec, 512, 1e-3, seed=5, lr=lr, max_steps=steps, theta_init=theta)
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
    X = sample_omega(arch.domain, 512, 3, Purpose.FIT_SAMPLE)
    g = np.sin(np.pi * X).prod(axis=1)
    start = rom.init_params(arch, 3)
    theta, mse, steps = fit._adam_fit(arch, X, g, start, 0.0, 1e-2, 150)
    want_theta, want_mse, want_steps = _jacobian_adam_fit(arch, X, g, start, 0.0, 1e-2, 150)
    assert steps == want_steps == 150
    assert np.abs(theta - want_theta).max() <= 1e-12
    assert mse == pytest.approx(want_mse, rel=1e-10)


def test_adam_fit_leaves_theta_as_it_was_and_steps_as_the_textbook_adam(monkeypatch):
    arch = rom.RomArch("resnet_periodic", 1, 6, 3, "tanh")
    X = sample_omega(arch.domain, 256, 3, Purpose.FIT_SAMPLE)
    g = np.sin(2.0 * np.pi * X[:, 0])
    start = rom.init_params(arch, 3)
    theta0 = start.copy()
    calls = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, params, grad: calls.append(1) or step(self, params, grad))
    best_theta, best_mse, steps = fit._adam_fit(arch, X, g, start, 0.0, 1e-2, 40)
    monkeypatch.undo()
    assert np.array_equal(start, theta0)
    # the 40th parameter vector is the last one evaluated: no step after it
    assert len(calls) == 39
    # the fit loop with ADAM on new arrays
    adam, at = TextbookAdam(start.size, 1e-2), rom.pullback_at(arch, X)
    theta, want_theta, want_mse = theta0, None, np.inf
    for _ in range(40):
        u, pullback = at(theta)
        res = u - g
        mse = float(np.mean(res * res))
        if mse < want_mse:
            want_theta, want_mse = theta.copy(), mse
        theta = adam.step(theta, pullback(2.0 * res / X.shape[0]))
    assert steps == 40 and best_mse == want_mse
    assert np.array_equal(best_theta, want_theta)


def test_fit_holdout_disjoint_from_training(unit_interval):
    a = sample_omega(unit_interval, 128, 9, Purpose.FIT_SAMPLE)
    b = sample_omega(unit_interval, 128, 9, Purpose.FIT_HOLDOUT)
    assert not np.array_equal(a, b)


def test_fit_target_not_reached_flag():
    arch = fourier_sine_arch(2)
    spec = fit.HeatCombo(np.array([0.0, 0.0, 1.0, 0.0]))  # sin(3 pi x): not in the 2-mode span
    res = fit.fit_initial(arch, spec, 128, 1e-10, seed=2, lr=1e-2, max_steps=200)
    assert not res.target_reached
    assert np.all(np.isfinite(res.theta))


def test_transport_anchors_are_box_points_drawn_per_seed(tmp_path):
    # a transport anchor is drawn, not fitted, and the store records no spec for it:
    # the anchors are one box draw for Purpose.ANCHORS, so a larger count keeps the prefix
    def store(out, count, seed):
        cfg = config.load_config(PRESETS / "transport_1d.json", out_dir=str(tmp_path / out), seed=seed,
                                 overrides=[f"initials.count={count}", "theta_space.half_width=0.5"])
        assert [entry["rmse"] for entry in pipeline.cmd_fit_initial(cfg)] == [0.0] * count
        header, thetas = fit.load_anchors(cfg.path("anchors"), cfg.anchor_header())
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
    header, thetas = fit.load_anchors(cfg.path("anchors"), cfg.anchor_header())
    assert thetas.shape == (0, rom.param_count(cfg.rom_arch)) and header["specs"] == [] and header["rmse"] == []


def test_anchor_store_roundtrip(tmp_path):
    # a transport anchor (the second) has no spec
    specs = [fit.HeatCombo(np.array([0.5, -0.5, 0.0, 0.0])), None]
    thetas = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
    fit.save_anchors(tmp_path / "a.bin", {"m": 2}, list(zip(specs, thetas, [0.01, 0.0])))
    header, loaded = fit.load_anchors(tmp_path / "a.bin", {"m": 2})
    assert loaded.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert header["specs"][0]["kind"] == "heat_combo"
    assert header["specs"][1] is None
    assert header["rmse"] == [0.01, 0.0]
    with pytest.raises(CacheMismatch, match="'m' .* rerun fit-initial"):
        fit.load_anchors(tmp_path / "a.bin", {"m": 3})


def test_anchor_store_header_past_64_kb_reads_back(tmp_path):
    # the specs live in the header, which grows with the anchor count
    spec = fit.ChebCombo(terms=tuple((i, j, -0.123456789) for i in range(6) for j in range(6)))
    path = tmp_path / "a.bin"
    fit.save_anchors(path, {"m": 3}, [(spec, np.full(3, float(k)), 1e-3) for k in range(400)])
    assert path.stat().st_size > 1 << 16
    header, thetas = fit.load_anchors(path, {"m": 3})
    assert len(header["specs"]) == 400 and thetas.shape == (400, 3) and thetas[-1].tolist() == [399.0] * 3
