"""Command bodies shared by the CLI: each function reads/writes only its
declared artifacts at their RunConfig.path. Each artifact's header is
RunConfig.header, its kind, format version, writer and the record of what
shaped it (the config leaves that config's _ARTIFACTS table lists for it
and for every artifact upstream), plus data-format fields and data digests.
Every reader checks that header, comparing the record whole with the
config's, so a stale artifact fails fast (exit 4) naming the first
differing leaf and the command to rerun. The anchor store is the one record
of each initial (its spec, fit RMSE and theta0): a solution is tied to its
anchor's theta0 and an IMEX reference to its anchor's spec, not to a copy
of the store's record.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import assembly, binfile, control_net as cn, evolve, fit, pde_ops, reference, rom
from .config import RunConfig, check_stage
from .errors import CacheMismatch, ConfigError, MissingArtifact, NonFiniteError
from .sampling import AnchorBalls, Purpose, rng_for, sample_theta

# the default grid sizes of reference (IMEX cells and steps) and of eval (Monte-Carlo points)
REFERENCE_NX = 100
REFERENCE_NT = 2000
EVAL_N_X = 4096

# cheb_combo initials: up to CHEB_MAX_TERMS terms T_i(x) T_j(y) with i, j <=
# CHEB_DEGREE_MAX, scaled down to a peak of CHEB_AMPLITUDE where they exceed it
CHEB_DEGREE_MAX = 3
CHEB_MAX_TERMS = 6
CHEB_AMPLITUDE = 0.9


def sample_initial_specs(cfg: RunConfig) -> list[fit.InitialSpec]:
    """Draw initial-condition specs from the fitted problem kind's family:
    heat heat_combo, allen_cahn cheb_combo."""
    n = cfg.raw["initials"]["count"]
    rng = rng_for(cfg.seed, Purpose.INITIAL_SPECS)
    specs: list[fit.InitialSpec] = []
    if cfg.raw["problem"]["kind"] == "heat":
        for _ in range(n):
            specs.append(fit.HeatCombo(coeffs=rng.uniform(-1.0, 1.0, 4)))
    else:
        # the amplitude probe covers (-1,1)^2, allen_cahn's box
        grid = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, 41)
        G1, G2 = np.meshgrid(grid, grid, indexing="ij")
        probe = np.stack([G1.ravel(), G2.ravel()], axis=1)
        for _ in range(n):
            n_terms = int(rng.integers(1, CHEB_MAX_TERMS + 1))
            seen = set()
            terms = []
            while len(terms) < n_terms:
                i, j = int(rng.integers(0, CHEB_DEGREE_MAX + 1)), int(rng.integers(0, CHEB_DEGREE_MAX + 1))
                if (i, j) in seen:
                    continue
                seen.add((i, j))
                terms.append((i, j, float(rng.uniform(-1.0, 1.0))))
            spec = fit.ChebCombo(terms=tuple(terms))
            peak = np.abs(fit.eval_initial(spec, probe)).max()
            if peak > CHEB_AMPLITUDE:
                scale = CHEB_AMPLITUDE / peak
                spec = fit.ChebCombo(terms=tuple((i, j, c * scale) for i, j, c in spec.terms))
            specs.append(spec)
    return specs


def cmd_fit_initial(cfg: RunConfig) -> list[dict]:
    """Write the anchor store. The transport anchors are points of the box
    theta_space (config allows no other), one sample_theta draw for
    Purpose.ANCHORS, so a larger initials.count keeps the first rows (a
    count of 0 writes an empty store); an anchor's initial is the model
    there, so it has no spec and a fit RMSE of 0. The other kinds fit
    theta0 to each initial spec, anchor k under seed + 1000 + k, all in
    one fit.fit_initials call, whose net fits run as one stacked loop."""
    cfg.ensure_layout()
    ini = cfg.raw["initials"]
    if cfg.raw["problem"]["kind"] == "transport":
        thetas = sample_theta(cfg.theta_space(), ini["count"], cfg.seed, Purpose.ANCHORS) if ini["count"] else []
        entries = [(None, theta, 0.0) for theta in thetas]
    else:
        specs = sample_initial_specs(cfg)
        seeds = [cfg.seed + 1000 + k for k in range(len(specs))]
        fits = fit.fit_initials(cfg.rom_arch, specs, ini["fit_n_x"], ini["eps0_target"], seeds, **ini["fit"])
        entries = [(spec, res.theta, res.rmse) for spec, res in zip(specs, fits)]
    fit.save_anchors(cfg.path("anchors"), {**cfg.header("anchors"), "m": rom.param_count(cfg.rom_arch)}, entries)
    return [{"rmse": rmse, "theta_norm": float(np.linalg.norm(theta))} for _, theta, rmse in entries]


def _gram_thetas(cfg: RunConfig) -> np.ndarray:
    return sample_theta(cfg.theta_space(), cfg.raw["counts"]["n_theta"], cfg.seed, Purpose.GRAM_THETA)


def _read_gram_cache(cfg: RunConfig) -> assembly.GramCache:
    """The first counts.n_theta records of the run's Gram cache, checked as
    sample-gram checks them before it resumes."""
    return assembly.read_cache(cfg.path("gram_cache"), cfg.header("gram_cache"), _gram_thetas(cfg))


def cmd_sample_gram(cfg: RunConfig) -> dict:
    cfg.ensure_layout()
    return assembly.assemble_batch(cfg.rom_arch, _gram_thetas(cfg), cfg.operator, cfg.raw["counts"]["n_x"],
                                   cfg.seed, cfg.path("gram_cache"), cfg.header("gram_cache"))


def _traj_starts(cfg: RunConfig) -> np.ndarray:
    """The start thetas of the marches the config implies: the anchors in
    turn on anchor balls, else draws from the box."""
    n_traj = cfg.raw["counts"]["n_traj"]
    if not n_traj:
        return np.zeros((0, rom.param_count(cfg.rom_arch)))
    space = cfg.theta_space()
    if isinstance(space, AnchorBalls):
        return space.anchors[np.arange(n_traj) % len(space.anchors)]
    return sample_theta(space, n_traj, cfg.seed, Purpose.TRAJ_STARTS)


def cmd_gen_trajectories(cfg: RunConfig) -> dict:
    cfg.ensure_layout()
    counts = cfg.raw["counts"]
    starts = _traj_starts(cfg)
    h = cfg.raw["problem"]["horizon"] / counts["n_t"]
    trajs = []
    blowups = 0
    for i in range(starts.shape[0]):
        traj = evolve.gen_trajectory(cfg.rom_arch, starts[i], cfg.operator, counts["n_t"], h, counts["n_x"],
                                     cfg.seed, index=i)
        blowups += int(traj.blowup_step is not None)
        trajs.append(traj)
    evolve.write_traj_cache(cfg.path("traj_cache"),
                            {**cfg.header("traj_cache"), "m": rom.param_count(cfg.rom_arch), "h": h}, trajs)
    pairs = sum(t.thetas.shape[0] for t in trajs)
    return {"trajectories": len(trajs), "pairs": pairs, "blowups": blowups}


def _load_control(cfg: RunConfig) -> cn.ControlNet:
    """The trained control net of the config's control_arch, checked
    against the config's record of what shaped it."""
    return cn.load_control_checkpoint(cfg.path("checkpoint"), cfg.control_arch, cfg.header("checkpoint"))


def cmd_train_control(
    cfg: RunConfig,
    resume: bool = False,
    train_overrides: dict | None = None,
    pairs_only: bool = False,
) -> dict:
    """Train the control field through the stages of train.schedule in
    order, the net kept in memory between them. Each stage starts a fresh
    ADAM and batch stream; a pairs_only stage skips the projection loss and
    fits the trajectory pairs alone (curriculum warmup for stiff
    selections). The checkpoint and the loss history are written after each
    stage, so a cut run leaves its last finished stage on disk. resume
    warm-starts from the checkpoint and appends to the history.
    train_overrides, with pairs_only, is one stage run in place of the
    schedule (benchmark runs call stage by stage). The caches are read once:
    the Gram cache when a stage uses it, the trajectory cache when the
    config asks for trajectories (counts.n_traj > 0)."""
    train = cfg.raw["train"]
    stages = train["schedule"]
    if train_overrides is not None or pairs_only:
        stage = dict(train_overrides or {}, pairs_only=pairs_only)
        check_stage(stage)
        stages = [stage]
    cfg.ensure_layout()
    gram = rows = pairs = None
    if not all(stage.get("pairs_only") for stage in stages):
        cache = _read_gram_cache(cfg)
        if not cache.rows.size:
            raise NonFiniteError(
                f"every record of {cfg.path('gram_cache')} was skipped: assembly went non-finite at each theta; "
                f"shrink theta_space and {binfile.remedy(cache.header)}"
            )
        gram, rows = cache.records, cache.rows
    if cfg.raw["counts"]["n_traj"]:
        pairs = evolve.read_traj_cache(cfg.path("traj_cache"), cfg.header("traj_cache"))[1:]
    n_pairs = 0 if pairs is None else int(pairs[0].shape[0])
    if not n_pairs and any(stage.get("pairs_only") for stage in stages):
        raise MissingArtifact("pairs-only training needs a nonempty trajectory cache")
    if resume:
        net = _load_control(cfg)
    else:
        net = cn.ControlNet(cfg.control_arch, cn.init_control_params(cfg.control_arch, cfg.seed))
    checkpoint_header, history_header = cfg.header("checkpoint"), cfg.header("loss_history")
    # a resumed run checks the rows it continues before it trains
    history_path = cfg.path("loss_history")
    kept = binfile.load(history_path, history_header)[1] if resume and os.path.exists(history_path) else None
    done = []
    for stage in stages:
        only = stage.get("pairs_only", False)
        net, history = cn.train(net, None if only else gram, pairs, seed=cfg.seed, rows=rows, lr=stage["lr"],
                                max_steps=stage["max_steps"], batch_size=stage.get("batch_size", train["batch_size"]),
                                zeta=1.0 if only and train["zeta"] == 0 else train["zeta"],
                                stop_loss=train["stop_loss"])
        cn.save_control_checkpoint(net, cfg.path("checkpoint"), checkpoint_header)
        kept = cn.save_loss_history(history, history_path, history_header, kept)
        done.append({"lr": stage["lr"], "steps": len(history), "final_loss": history[-1][3]})
    records = 0 if rows is None else int(rows.shape[0])
    return {"steps": sum(s["steps"] for s in done), "final_loss": done[-1]["final_loss"], "records": records,
            "pairs": n_pairs, "stages": done}


def _anchors(cfg: RunConfig) -> list[tuple[fit.InitialSpec | None, float, np.ndarray]]:
    """(spec, fit RMSE, theta0) of every row of the anchor store, the one
    record of each initial; a transport anchor has no spec."""
    header, thetas = binfile.load(cfg.path("anchors"), cfg.header("anchors"))
    specs = [None if doc is None else fit.spec_from_dict(doc) for doc in header["specs"]]
    return list(zip(specs, header["rmse"], thetas))


def _anchor(cfg: RunConfig, index: int) -> tuple[fit.InitialSpec | None, float, np.ndarray]:
    """Row index of _anchors, once it is known to be in the store; solve,
    reference, eval and export-slice take their --anchor here."""
    anchors = _anchors(cfg)
    if not 0 <= index < len(anchors):
        raise MissingArtifact(f"anchor {index} not in store of size {len(anchors)}")
    return anchors[index]


def cmd_solve(cfg: RunConfig, anchor_index: int = 0) -> dict:
    cfg.ensure_layout()
    net = _load_control(cfg)
    theta0 = _anchor(cfg, anchor_index)[2]
    traj = evolve.solve_ivp(net, theta0, cfg.raw["problem"]["horizon"], cfg.raw["solve"]["n_steps"],
                            theta_space=cfg.theta_space())
    header = {
        **cfg.header("solution"),
        "control_sha256": net.sha256,
        "step": traj.step,
        "blowup_step": traj.blowup_step,
        "escape_step": traj.escape_step,
    }
    path = cfg.path("solution", anchor_index)
    binfile.save(path, header, traj.thetas)
    return {
        "path": path,
        "steps": traj.thetas.shape[0] - 1,
        "blowup_step": traj.blowup_step,
        "escape_step": traj.escape_step,
    }


def _read_solution(cfg: RunConfig, index: int, theta0: np.ndarray) -> tuple[dict, evolve.ParamTrajectory]:
    """The solution's header and trajectory, times rebuilt as step * j. It
    must record the config's record of what shaped it, and start at theta0,
    bit for bit, which ties it to its anchor."""
    path, expected = cfg.path("solution", index), cfg.header("solution")
    header, thetas = binfile.load(path, expected)
    if thetas[:1].tobytes() != theta0.tobytes():
        raise CacheMismatch(f"{path} does not start at anchor {index} of {cfg.path('anchors')}; "
                            f"{binfile.remedy(expected)}")
    return header, evolve.ParamTrajectory(
        times=header["step"] * np.arange(thetas.shape[0]),
        thetas=thetas,
        velocities=None,
        step=header["step"],
        blowup_step=header["blowup_step"],
        escape_step=header["escape_step"],
    )


def _check_control(cfg: RunConfig, index: int, header: dict, control_sha256: str | None = None) -> None:
    """CacheMismatch, naming solve, unless the solution was solved with the
    run's control field: control_sha256, the digest of a checkpoint the
    caller has loaded, or else the xi_sha256 of the checkpoint's header,
    which is read alone (the net is neither read nor hashed) and checked
    against the config."""
    if control_sha256 is None:
        control_sha256 = cn.checkpoint_sha256(cfg.path("checkpoint"), cfg.header("checkpoint"))
    binfile.check_header(cfg.path("solution", index), header,
                         {**cfg.header("solution"), "control_sha256": control_sha256})


def load_solution(cfg: RunConfig, index: int, theta0: np.ndarray,
                  control_sha256: str | None = None) -> evolve.ParamTrajectory:
    """The solution of anchor index, checked by _read_solution and
    _check_control."""
    header, traj = _read_solution(cfg, index, theta0)
    _check_control(cfg, index, header, control_sha256)
    return traj


def cmd_reference(cfg: RunConfig, anchor_index: int = 0, nx: int = REFERENCE_NX, nt: int = REFERENCE_NT) -> dict:
    """Materialize the reference solution where one must be computed
    (Allen-Cahn IMEX); closed-form references need no artifact. The anchor
    index is checked against the store for every problem kind."""
    cfg.ensure_layout()
    p = cfg.raw["problem"]
    spec = _anchor(cfg, anchor_index)[0]
    if p["kind"] != "allen_cahn":
        return {"note": f"{p['kind']} uses a closed-form reference; nothing to compute"}
    grid = reference.solve_allen_cahn_imex(spec, p["epsilon"], nx, nt, p["horizon"],
                                           lo=cfg.rom_arch.lo, hi=cfg.rom_arch.hi)
    path = cfg.path("reference", anchor_index)
    reference.save_grid_solution(grid, path, _reference_header(cfg, spec))
    return {"path": path, "snapshots": len(grid.times)}


def _reference_header(cfg: RunConfig, spec: fit.InitialSpec) -> dict:
    """The IMEX reference's header, which holds the spec of its anchor."""
    return {**cfg.header("reference"), "spec": spec.describe()}


def build_reference(cfg: RunConfig, index: int, spec: fit.InitialSpec | None, theta0: np.ndarray):
    """Reference solution of anchor index from its store row: the shift of
    the model at theta0 for transport, the sine series of the spec for heat,
    the IMEX reference cmd_reference wrote for allen_cahn, whose header
    must hold the spec."""
    kind = cfg.raw["problem"]["kind"]
    if kind == "transport":
        return reference.TransportShift(model=rom.RomModel(cfg.rom_arch, theta0), velocity=cfg.operator.velocity)
    if kind == "heat":
        return reference.HeatSeries(spec.coeffs)
    return reference.load_grid_solution(cfg.path("reference", index), _reference_header(cfg, spec))


def _solution_and_reference(cfg: RunConfig, index: int):
    """The solution of anchor index and its reference, for eval and
    export-slice. The solution is checked against the config and its anchor,
    the reference is read, and then the solution's control field against the
    checkpoint's header: each input the two commands read is checked before
    the field upstream of them."""
    spec, _, theta0 = _anchor(cfg, index)
    header, traj = _read_solution(cfg, index, theta0)
    ref = build_reference(cfg, index, spec, theta0)
    _check_control(cfg, index, header)
    return traj, ref


def cmd_eval(cfg: RunConfig, anchor_index: int = 0, n_x: int = EVAL_N_X, max_times: int = 64) -> dict:
    cfg.ensure_layout()
    traj, ref = _solution_and_reference(cfg, anchor_index)
    curve = reference.error_curve(cfg.rom_arch, traj, ref, n_x, seed=cfg.seed, max_times=max_times)
    path = cfg.path("errors", anchor_index)
    # rows (t, abs_err, rel_err), rel_err NaN where undefined
    binfile.save(path, {**cfg.header("errors"), "solution_sha256": binfile.digest(traj.thetas)},
                 np.stack([curve.times, curve.abs_err, curve.rel_err], axis=1))
    finite = curve.rel_err[np.isfinite(curve.rel_err)]
    return {
        "path": path,
        "abs_err_max": float(curve.abs_err.max()),
        "rel_err_max": float(finite.max()) if finite.size else None,
        "rel_err_mean": float(finite.mean()) if finite.size else None,
    }


def cmd_export_slice(cfg: RunConfig, anchor_index: int, t: float, grid_n: int = 40) -> dict:
    cfg.ensure_layout()
    if cfg.rom_arch.input_dim != 2:
        raise ConfigError("export-slice needs a 2-D problem")
    traj, ref = _solution_and_reference(cfg, anchor_index)
    j = int(np.argmin(np.abs(traj.times - t)))
    path = cfg.path("slice", (anchor_index, traj.times[j]))
    reference.export_slice(cfg.rom_arch, traj.thetas[j], ref, float(traj.times[j]), path, grid_n=grid_n)
    return {"path": path, "time": float(traj.times[j])}


def cmd_verify(cfg: RunConfig) -> dict:
    """Report on this run's artifacts and write report.json: the
    projection residual |G V(theta) - p| of the control field over the Gram
    cache, and for each anchor of the store that has a solution the field
    statistics M_V, L_V along its states, the forward-Euler bound they give
    at the solve's step, and the measured error curve."""
    cfg.ensure_layout()
    volume = float(np.prod(np.subtract(cfg.rom_arch.hi, cfg.rom_arch.lo)))
    net = _load_control(cfg)
    cache = _read_gram_cache(cfg)
    store = _anchors(cfg)
    solved = [k for k in range(len(store)) if os.path.exists(cfg.path("solution", k))]
    if not solved:
        raise MissingArtifact(f"no solution for any of the {len(store)} anchors in {cfg.path('anchors')}; "
                              f"{binfile.remedy(cfg.header('solution'))}")

    res = cn.residual_scan(net, cache.records, cache.rows)
    q = np.quantile(res, [0.5, 0.9, 1.0]).tolist() if res.size else [math.nan] * 3
    anchors = []
    for k in solved:
        _, fit_rmse, theta0 = store[k]
        traj = load_solution(cfg, k, theta0, net.sha256)
        m_v, l_v = cn.field_stats(net, traj.thetas, cfg.seed)
        entry = {
            "anchor": k,
            "fit_rmse": fit_rmse,
            "steps": traj.thetas.shape[0] - 1,
            "blowup_step": traj.blowup_step,
            "escape_step": traj.escape_step,
            "m_v": m_v,
            "l_v": l_v,
            "euler_bound": pde_ops.euler_bound(l_v, m_v, volume, traj.step, cfg.raw["problem"]["horizon"]),
        }
        curve = cfg.path("errors", k)
        if os.path.exists(curve):
            _, rows = binfile.load(curve, {**cfg.header("errors"), "solution_sha256": binfile.digest(traj.thetas)})
            rel = rows[:, 2]
            entry["abs_err_max"] = float(rows[:, 1].max())
            entry["rel_err_max"] = None if np.isnan(rel).all() else float(np.nanmax(rel))
        anchors.append(entry)

    # the float fields; counts and step indices are ints
    numbers = q + [v for a in anchors for v in a.values() if isinstance(v, float)]
    blowups = sum(a["blowup_step"] is not None for a in anchors)
    report = {
        "cache": {"records": int(res.size), "residual": dict(zip(("p50", "p90", "max"), q))},
        "anchors": anchors,
        "totals": {
            "blowups": blowups,
            "escapes": sum(a["escape_step"] is not None for a in anchors),
            "passed": blowups == 0 and all(math.isfinite(v) for v in numbers),
        },
    }
    path = cfg.path("report")
    with binfile.atomic_write(path) as fh:
        json.dump(report, fh, indent=2)
    return dict(report, path=path)
