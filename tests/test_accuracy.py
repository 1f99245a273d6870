"""Exact-field oracles: presets whose control field is known in closed form.

With the exact field V*, the projection residual |G V* - p|^2 over a fresh
Gram cache is at round-off, and a solve with V* is as accurate as the fit of
the initial condition. The fields live here, not in the library.
"""

from pathlib import Path

import numpy as np

from pdecontrol import config, control_net as cn, evolve, pipeline, reference

from conftest import cache_parts

PRESETS = Path(__file__).resolve().parents[1] / "configs"


def projection_losses(cache, field: np.ndarray) -> tuple[float, float]:
    """The mean |G V - p|^2 over the cache for V = field (rows matching the
    cache thetas) and for the zero field."""
    _, rhs, gram, _ = cache_parts(cache)
    res = np.einsum("nij,nj->ni", gram, field) - rhs
    return float(np.mean(np.sum(res * res, axis=1))), float(np.mean(np.sum(rhs**2, axis=1)))


def test_transport_shift_field_is_exact(tmp_path):
    # u(x - b) solves u_t + c u_x = 0 when the shift b moves at the velocity c
    # and every other parameter stays fixed
    cfg = config.load_config(PRESETS / "transport_1d.json", out_dir=str(tmp_path),
                             overrides=["counts.n_theta=16", "counts.n_x=64"])
    pipeline.cmd_fit_initial(cfg)
    pipeline.cmd_sample_gram(cfg)
    cache = pipeline._read_gram_cache(cfg)
    theta, rhs, gram, _ = cache_parts(cache)
    m = theta.shape[1]
    v_star = np.zeros(m)
    v_star[-1] = cfg.operator.velocity[0]  # the shift is the last parameter
    field = np.tile(v_star, (theta.shape[0], 1))
    l1, l1_zero = projection_losses(cache, field)
    # per OK record, not a mean floor that the draw alone decides: p is
    # nonzero and V* leaves a residual at round-off of it
    res = np.einsum("nij,nj->ni", gram, field) - rhs
    p2 = np.sum(rhs**2, axis=1)[cache.rows]
    assert np.all(p2 > 0) and np.all(np.sum(res * res, axis=1)[cache.rows] <= 1e-24 * p2)
    assert l1 < 1e-24 * l1_zero

    # the constant field as a control net: zero weights, output bias V*,
    # checkpointed with the record train-control writes
    carch = cfg.control_arch
    xi = np.zeros(cn.control_param_count(carch))
    xi[-m:] = v_star
    cn.save_control_checkpoint(cn.ControlNet(carch, xi), cfg.path("checkpoint"), cfg.header("checkpoint"))
    for k in range(3):
        pipeline.cmd_solve(cfg, anchor_index=k)
        assert pipeline.cmd_eval(cfg, anchor_index=k, n_x=512)["abs_err_max"] < 1e-12


def test_heat_sine_field_is_exact(tmp_path):
    # on the orthonormal sine basis with exact quadrature, mode k decays at
    # rate (pi k)^2: V*(theta)_k = -(pi k)^2 theta_k
    cfg = config.load_config(PRESETS / "heat_fourier_1d.json", out_dir=str(tmp_path),
                             overrides=["initials.count=2"])
    rates = (np.pi * np.arange(1, 5)) ** 2
    pipeline.cmd_sample_gram(cfg)
    cache = pipeline._read_gram_cache(cfg)
    l1, l1_zero = projection_losses(cache, -rates * cache_parts(cache)[0])
    assert l1_zero > 1e3
    assert l1 < 1e-24 * l1_zero

    # the 4-mode initials lie in the basis span, so the least-squares fit of
    # theta0 is exact to round-off; solved with V*, the error is RK4's alone
    pipeline.cmd_fit_initial(cfg)
    horizon = cfg.raw["problem"]["horizon"]
    for k, (spec, _, theta0) in enumerate(pipeline._anchors(cfg)):
        traj = evolve.solve_ivp(lambda th: -rates * th, theta0, horizon, cfg.raw["solve"]["n_steps"])
        ref = pipeline.build_reference(cfg, k, spec, theta0)
        curve = reference.error_curve(cfg.rom_arch, traj, ref, 4096, seed=cfg.seed, max_times=64)
        assert curve.abs_err[0] <= 1e-14
        assert curve.abs_err.max() <= 1e-6
