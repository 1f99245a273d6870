"""Command bodies shared by the CLI: each function reads/writes only its
declared artifacts under the run's out_dir and embeds {format_version,
arch_hash, seed} so downstream consumers can fail fast on mismatches.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from . import assembly, control_net as cn, evolve, fit, pde_ops, reference, rom
from .config import RunConfig
from .errors import ChecksumMismatch, ConfigError, MissingArtifact
from .sampling import AnchorBalls, Box, SampleBatch, rng_for, sample_theta

SOLUTION_FORMAT_VERSION = 1
# Gram records per residual_scan call in verify: holds chunk * m^2 floats of G
_VERIFY_CHUNK = 256


def sample_initial_specs(cfg: RunConfig, count: int | None = None, stream_offset: int = 0):
    """Draw initial-condition specs from the configured family."""
    ini = cfg.raw["initials"]
    family = ini["family"]
    n = ini["count"] if count is None else count
    rng = rng_for(cfg.seed, stream=60 + stream_offset)
    specs: list[fit.InitialSpec] = []
    if family == "random_theta":
        for i in range(n):
            specs.append(fit.RandomTheta(seed=int(rng.integers(0, 2**31 - 1))))
    elif family == "heat_combo":
        for _ in range(n):
            specs.append(fit.HeatCombo(coeffs=rng.uniform(-1.0, 1.0, 4)))
    else:
        problem = cfg.problem()
        deg = ini["degree_max"]
        max_terms = ini["max_terms"]
        amplitude = ini["amplitude"]
        grid = np.linspace(problem.lo[0] + 1e-3, problem.hi[0] - 1e-3, 41)
        G1, G2 = np.meshgrid(grid, grid, indexing="ij")
        probe = np.stack([G1.ravel(), G2.ravel()], axis=1)
        for _ in range(n):
            n_terms = int(rng.integers(1, max_terms + 1))
            seen = set()
            terms = []
            while len(terms) < n_terms:
                i, j = int(rng.integers(0, deg + 1)), int(rng.integers(0, deg + 1))
                if (i, j) in seen:
                    continue
                seen.add((i, j))
                terms.append((i, j, float(rng.uniform(-1.0, 1.0))))
            spec = fit.ChebCombo(terms=tuple(terms))
            peak = np.abs(fit.eval_initial(spec, probe)).max()
            if peak > amplitude:
                scale = amplitude / peak
                spec = fit.ChebCombo(terms=tuple((i, j, c * scale) for i, j, c in spec.terms))
            specs.append(spec)
    return specs


def cmd_fit_initial(cfg: RunConfig, specs=None) -> list[dict]:
    """Fit (or directly sample) anchor parameters for each initial spec and
    write the anchor store."""
    cfg.ensure_layout()
    arch = cfg.rom_arch()
    problem = cfg.problem()
    ini = cfg.raw["initials"]
    if specs is None:
        specs = sample_initial_specs(cfg)
    entries = []
    fitcfg = cfg.fit_config()
    for k, spec in enumerate(specs):
        if isinstance(spec, fit.RandomTheta):
            space = cfg.theta_space()
            if not isinstance(space, Box):
                raise ConfigError("random_theta initials require a box parameter space")
            model = fit.resolve_random_theta(spec, arch, space)
            entries.append((spec, model.theta, 0.0))
        else:
            res = fit.fit_initial(
                arch,
                spec,
                problem.domain,
                ini["fit_n_x"],
                ini["eps0_target"],
                fitcfg,
                seed=cfg.seed + 1000 + k,
            )
            entries.append((spec, res.theta, res.rmse))
    fit.save_anchors(cfg.path("anchors"), entries)
    return [
        {"spec": spec.describe(), "rmse": rmse, "theta_norm": float(np.linalg.norm(theta))}
        for spec, theta, rmse in entries
    ]


def _gram_thetas(cfg: RunConfig) -> SampleBatch:
    return sample_theta(cfg.theta_space(), cfg.raw["counts"]["n_theta"], cfg.seed, stream=40)


def _read_gram_cache(cfg: RunConfig) -> assembly.GramCache:
    """The first counts.n_theta records of the run's Gram cache, checked as
    sample-gram checks them before it resumes."""
    path = cfg.path("gram_cache")
    if not os.path.exists(path):
        raise MissingArtifact(f"gram cache {path} not found; run sample-gram first")
    header = assembly.cache_header(
        cfg.rom_arch(), cfg.problem().operator, cfg.raw["counts"]["n_x"], cfg.seed, cfg.raw["quadrature"]
    )
    return assembly.read_cache(path, header, _gram_thetas(cfg).points)


def cmd_sample_gram(cfg: RunConfig) -> dict:
    cfg.ensure_layout()
    problem = cfg.problem()
    return assembly.assemble_batch(
        cfg.rom_arch(),
        _gram_thetas(cfg),
        problem.operator,
        cfg.raw["counts"]["n_x"],
        cfg.seed,
        cfg.path("gram_cache"),
        problem.domain,
        quadrature=cfg.raw["quadrature"],
    )


def _traj_plan(cfg: RunConfig) -> tuple[dict, np.ndarray]:
    """The trajectory cache header and the start thetas the config implies."""
    arch = cfg.rom_arch()
    problem = cfg.problem()
    counts = cfg.raw["counts"]
    n_traj = counts["n_traj"]
    starts = np.zeros((0, rom.param_count(arch)))
    if n_traj:
        space = cfg.theta_space()
        if isinstance(space, AnchorBalls):
            starts = space.anchors[np.arange(n_traj) % len(space.anchors)]
        else:
            starts = sample_theta(space, n_traj, cfg.seed, stream=41).points
    header = evolve.traj_cache_header(arch, problem.operator, problem.domain, problem.horizon / counts["n_t"],
                                      counts["n_t"], counts["n_x"], cfg.seed, cfg.raw["quadrature"], starts)
    return header, starts


def cmd_gen_trajectories(cfg: RunConfig) -> dict:
    cfg.ensure_layout()
    arch = cfg.rom_arch()
    problem = cfg.problem()
    counts = cfg.raw["counts"]
    header, starts = _traj_plan(cfg)
    trajs = []
    blowups = 0
    for i in range(starts.shape[0]):
        traj = evolve.gen_trajectory(
            arch,
            starts[i],
            problem.operator,
            problem.domain,
            counts["n_t"],
            header["h"],
            counts["n_x"],
            cfg.seed,
            quadrature=cfg.raw["quadrature"],
            stream_base=100_000 * (i + 1),
        )
        blowups += int(traj.blowup_step is not None)
        trajs.append(traj)
    evolve.write_traj_cache(cfg.path("traj_cache"), header, trajs)
    pairs = sum(t.thetas.shape[0] for t in trajs)
    return {"trajectories": len(trajs), "pairs": pairs, "blowups": blowups}


def control_checkpoint_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.path("checkpoints"), "control.bin")


def cmd_train_control(
    cfg: RunConfig,
    resume: bool = False,
    train_overrides: dict | None = None,
    pairs_only: bool = False,
) -> dict:
    """Train the control field. pairs_only skips the projection loss and fits
    the trajectory pairs alone (curriculum warmup for stiff selections)."""
    cfg.ensure_layout()
    cache = None if pairs_only else _read_gram_cache(cfg)
    pairs = None
    traj_path = cfg.path("traj_cache")
    if os.path.exists(traj_path):
        _, th2, v2 = evolve.read_traj_cache(traj_path, header=_traj_plan(cfg)[0])
        if th2.shape[0]:
            pairs = (th2, v2)
    if pairs_only and pairs is None:
        raise MissingArtifact("pairs-only training needs a nonempty trajectory cache")
    carch = cfg.control_arch()
    ckpt = control_checkpoint_path(cfg)
    if resume:
        if not os.path.exists(ckpt):
            raise MissingArtifact(f"cannot resume: {ckpt} not found")
        net = cn.load_control_checkpoint(ckpt)
        if net.arch != carch:
            raise ChecksumMismatch("checkpoint control architecture differs from config")
    else:
        net = cn.ControlNet(carch, cn.init_control_params(carch, cfg.seed))
    tcfg = cfg.train_config(**(train_overrides or {}))
    if pairs_only and tcfg.zeta == 0:
        tcfg.zeta = 1.0
    if cache is None:
        net, history = cn.train(net, None, pairs, tcfg)
    else:
        net, history = cn.train(net, (cache.theta, cache.gram, cache.rhs), pairs, tcfg, rows=cache.rows)
    cn.save_control_checkpoint(net, ckpt)
    cn.save_loss_history(history, os.path.join(cfg.out_dir, "curves", "loss_history.csv"), resume=resume)
    final = history[-1][3] if history else float("nan")
    records = 0 if cache is None else int(cache.rows.shape[0])
    return {"steps": len(history), "final_loss": final, "records": records,
            "pairs": 0 if pairs is None else int(pairs[0].shape[0])}


def solution_path(cfg: RunConfig, index: int) -> str:
    return os.path.join(cfg.out_dir, "solutions", f"solution_{index:03d}.json")


def cmd_solve(cfg: RunConfig, anchor_index: int = 0) -> dict:
    cfg.ensure_layout()
    arch = cfg.rom_arch()
    problem = cfg.problem()
    thetas, docs = fit.load_anchors(cfg.path("anchors"))
    if anchor_index >= len(thetas):
        raise MissingArtifact(f"anchor {anchor_index} not in store of size {len(thetas)}")
    ckpt = control_checkpoint_path(cfg)
    if not os.path.exists(ckpt):
        raise MissingArtifact(f"control checkpoint {ckpt} not found; run train-control first")
    net = cn.load_control_checkpoint(ckpt)
    if net.arch.input_dim != rom.param_count(arch):
        raise ChecksumMismatch("control net dimension does not match the model architecture")
    space = cfg.theta_space()
    solve_cfg = cfg.raw["solve"]
    traj = evolve.solve_ivp(
        net,
        thetas[anchor_index],
        problem.horizon,
        solve_cfg["n_steps"],
        scheme=solve_cfg["scheme"],
        theta_space=space,
    )
    doc = {
        "format_version": SOLUTION_FORMAT_VERSION,
        "arch_hash": rom.arch_hash(arch),
        "seed": cfg.seed,
        "anchor_index": anchor_index,
        "initial": docs[anchor_index]["spec"],
        "fit_rmse": docs[anchor_index]["rmse"],
        "times": traj.times.tolist(),
        "thetas": traj.thetas.tolist(),
        "blowup_step": traj.blowup_step,
        "escape_step": traj.escape_step,
    }
    path = solution_path(cfg, anchor_index)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
    return {
        "path": path,
        "steps": traj.thetas.shape[0] - 1,
        "blowup_step": traj.blowup_step,
        "escape_step": traj.escape_step,
    }


def load_solution(cfg: RunConfig, index: int) -> tuple[dict, evolve.ParamTrajectory]:
    path = solution_path(cfg, index)
    if not os.path.exists(path):
        raise MissingArtifact(f"solution {path} not found; run solve first")
    with open(path) as fh:
        doc = json.load(fh)
    if doc["arch_hash"] != rom.arch_hash(cfg.rom_arch()):
        raise ChecksumMismatch(f"solution {path} was produced with a different architecture")
    times = np.array(doc["times"])
    thetas = np.array(doc["thetas"])
    step = float(times[1] - times[0]) if len(times) > 1 else 0.0
    traj = evolve.ParamTrajectory(
        times=times,
        thetas=thetas,
        velocities=None,
        source="control_field",
        step=step,
        blowup_step=doc.get("blowup_step"),
        escape_step=doc.get("escape_step"),
    )
    return doc, traj


def reference_path(cfg: RunConfig, index: int) -> str:
    return os.path.join(cfg.out_dir, "reference", f"ref_{index:03d}.npz")


def cmd_reference(cfg: RunConfig, anchor_index: int = 0, nx: int = 100, nt: int = 2000) -> dict:
    """Materialize the reference solution where one must be computed
    (Allen-Cahn IMEX); closed-form references need no artifact."""
    cfg.ensure_layout()
    problem = cfg.problem()
    kind = cfg.raw["problem"]["kind"]
    if kind != "allen_cahn":
        return {"note": f"{kind} uses a closed-form reference; nothing to compute"}
    thetas, docs = fit.load_anchors(cfg.path("anchors"))
    if anchor_index >= len(docs):
        raise MissingArtifact(f"anchor {anchor_index} not in store")
    spec = fit.spec_from_dict(docs[anchor_index]["spec"])
    grid = reference.solve_allen_cahn_imex(
        spec,
        cfg.raw["problem"]["epsilon"],
        nx,
        nt,
        problem.horizon,
        lo=problem.lo,
        hi=problem.hi,
    )
    path = reference_path(cfg, anchor_index)
    reference.save_grid_solution(grid, path)
    return {"path": path, "snapshots": len(grid.times)}


def build_reference(cfg: RunConfig, solution_doc: dict):
    """Reference solution object matching a stored solution's initial."""
    problem = cfg.problem()
    kind = cfg.raw["problem"]["kind"]
    arch = cfg.rom_arch()
    spec = fit.spec_from_dict(solution_doc["initial"])
    if kind == "transport":
        model = None
        if isinstance(spec, fit.RandomTheta):
            # the anchor theta defines the initial function u_theta0
            thetas, _ = fit.load_anchors(cfg.path("anchors"))
            model = rom.RomModel(arch, thetas[solution_doc["anchor_index"]])
        op = problem.operator
        return reference.TransportShift(
            initial=spec, velocity=op.velocity, lo=problem.lo, hi=problem.hi, model=model
        )
    if kind == "heat":
        if problem.dim != 1 or not isinstance(spec, fit.HeatCombo):
            raise ConfigError("closed-form heat references cover 1-D combo initials")
        return reference.heat_series_from_combo(spec.coeffs, dim=1)
    if kind == "allen_cahn":
        path = reference_path(cfg, solution_doc["anchor_index"])
        if not os.path.exists(path):
            raise MissingArtifact(f"reference {path} not found; run the reference command first")
        return reference.load_grid_solution(path)
    raise ConfigError(f"no reference construction for problem kind {kind!r}")


def _curve_path(cfg: RunConfig, index: int) -> str:
    return os.path.join(cfg.out_dir, "curves", f"errors_{index:03d}.csv")


def cmd_eval(cfg: RunConfig, anchor_index: int = 0, n_x: int = 4096, max_times: int = 64) -> dict:
    cfg.ensure_layout()
    doc, traj = load_solution(cfg, anchor_index)
    ref = build_reference(cfg, doc)
    problem = cfg.problem()
    curve = reference.error_curve(
        cfg.rom_arch(), traj, ref, problem.domain, n_x, seed=cfg.seed + 17, max_times=max_times
    )
    path = _curve_path(cfg, anchor_index)
    reference.save_error_curve(curve, path)
    finite = curve.rel_err[np.isfinite(curve.rel_err)]
    return {
        "path": path,
        "abs_err_max": float(curve.abs_err.max()),
        "rel_err_max": float(finite.max()) if finite.size else None,
        "rel_err_mean": float(finite.mean()) if finite.size else None,
    }


def cmd_export_slice(cfg: RunConfig, anchor_index: int, t: float, grid_n: int = 40) -> dict:
    cfg.ensure_layout()
    problem = cfg.problem()
    if problem.dim != 2:
        raise ConfigError("export-slice needs a 2-D problem")
    doc, traj = load_solution(cfg, anchor_index)
    ref = build_reference(cfg, doc)
    j = int(np.argmin(np.abs(traj.times - t)))
    path = os.path.join(cfg.out_dir, "slices", f"slice_{anchor_index:03d}_t{traj.times[j]:.4f}.csv")
    reference.export_slice(
        cfg.rom_arch(), traj.thetas[j], ref, problem.domain, float(traj.times[j]), path, grid_n=grid_n
    )
    return {"path": path, "time": float(traj.times[j])}


def _curve_maxima(path) -> tuple[float, float | None]:
    """Max abs and rel error of an error-curve CSV (rel None if undefined)."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    rel = [float(r[2]) for r in rows if r[2]]
    return max(float(r[1]) for r in rows), (max(rel) if rel else None)


def cmd_verify(cfg: RunConfig) -> dict:
    """Report on this run's artifacts and write out/report.json: the
    projection residual |G V(theta) - p| of the control field over the Gram
    cache, and per stored solution the field statistics M_V, L_V along its
    states, the Euler bound they give, and the measured error curve."""
    cfg.ensure_layout()
    arch = cfg.rom_arch()
    problem = cfg.problem()
    ckpt = control_checkpoint_path(cfg)
    if not os.path.exists(ckpt):
        raise MissingArtifact(f"control checkpoint {ckpt} not found; run train-control first")
    net = cn.load_control_checkpoint(ckpt)
    if net.arch.input_dim != rom.param_count(arch):
        raise ChecksumMismatch("control net dimension does not match the model architecture")
    cache = _read_gram_cache(cfg)
    sol_dir = os.path.dirname(solution_path(cfg, 0))
    names = (re.fullmatch(r"solution_(\d+)\.json", name) for name in os.listdir(sol_dir))
    indices = sorted(int(match.group(1)) for match in names if match)
    if not indices:
        raise MissingArtifact(f"no solutions in {sol_dir}; run solve first")

    rows = cache.rows
    res = np.empty(rows.size)
    for i in range(0, rows.size, _VERIFY_CHUNK):
        idx = rows[i : i + _VERIFY_CHUNK]
        res[i : i + idx.size] = cn.residual_scan(net, cache.theta[idx], cache.gram[idx], cache.rhs[idx])
    q = np.quantile(res, [0.5, 0.9, 1.0]).tolist() if res.size else [math.nan] * 3
    anchors = []
    for k in indices:
        doc, traj = load_solution(cfg, k)
        m_v, l_v = evolve.field_stats(net, SampleBatch(points=traj.thetas, seed=cfg.seed, generator_tag="solution"))
        entry = {
            "anchor": k,
            "fit_rmse": doc["fit_rmse"],
            "steps": traj.thetas.shape[0] - 1,
            "blowup_step": traj.blowup_step,
            "escape_step": traj.escape_step,
            "m_v": m_v,
            "l_v": l_v,
            "euler_bound": pde_ops.euler_bound(l_v, m_v, problem.volume, traj.step, problem.horizon),
        }
        curve = _curve_path(cfg, k)
        if os.path.exists(curve):
            entry["abs_err_max"], entry["rel_err_max"] = _curve_maxima(curve)
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
    path = os.path.join(cfg.out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    return dict(report, path=path)
