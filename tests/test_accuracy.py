"""Exact-field oracles: presets whose control field is known in closed form.

With the exact field V*, the projection residual |G V* - p|^2 over a fresh
Gram cache is at round-off, and a solve with V* is as accurate as the fit of
the initial condition. The fields live here, not in the library.
"""

from pathlib import Path

import numpy as np

from pdecontrol import config, control_net as cn, evolve, fit, pipeline, reference

PRESETS = Path(__file__).resolve().parents[1] / "configs"


def projection_losses(cache, field: np.ndarray) -> tuple[float, float]:
    """The mean |G V - p|^2 over the cache for V = field (rows matching the
    cache thetas) and for the zero field."""
    res = np.einsum("nij,nj->ni", cache.gram, field) - cache.rhs
    return float(np.mean(np.sum(res * res, axis=1))), float(np.mean(np.sum(cache.rhs**2, axis=1)))


def test_transport_shift_field_is_exact(tmp_path):
    # u(x - b) solves u_t + c u_x = 0 when the shift b moves at the velocity c
    # and every other parameter stays fixed
    cfg = config.load_config(PRESETS / "transport_1d.json", out_dir=str(tmp_path),
                             overrides=["counts.n_theta=16", "counts.n_x=64"])
    pipeline.cmd_fit_initial(cfg)
    pipeline.cmd_sample_gram(cfg)
    cache = pipeline._read_gram_cache(cfg)
    m = cache.theta.shape[1]
    v_star = np.zeros(m)
    v_star[-1] = cfg.operator.velocity[0]  # the shift is the last parameter
    l1, l1_zero = projection_losses(cache, np.tile(v_star, (cache.theta.shape[0], 1)))
    assert l1_zero > 1e3
    assert l1 < 1e-24 * l1_zero

    # the constant field as a control net: zero weights, output bias V*
    carch = cfg.control_arch
    xi = np.zeros(cn.control_param_count(carch))
    xi[-m:] = v_star
    cn.save_control_checkpoint(cn.ControlNet(carch, xi), pipeline.control_checkpoint_path(cfg))
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
    l1, l1_zero = projection_losses(cache, -rates * cache.theta)
    assert l1_zero > 1e3
    assert l1 < 1e-24 * l1_zero

    # solved with V*, the error is the fit error of theta0, which decays
    pipeline.cmd_fit_initial(cfg)
    horizon = cfg.raw["problem"]["horizon"]
    header, thetas = fit.load_anchors(cfg.path("anchors"), cfg.anchor_header())
    for k, spec in enumerate(header["specs"]):
        traj = evolve.solve_ivp(lambda th: -rates * th, thetas[k], horizon, cfg.raw["solve"]["n_steps"])
        ref = pipeline.build_reference(cfg, k, spec)
        curve = reference.error_curve(cfg.rom_arch, traj, ref, 4096, seed=cfg.seed, max_times=64)
        assert curve.abs_err.max() <= curve.abs_err[0]
