"""Command bodies shared by the CLI: each function reads/writes only its
declared artifacts under the run's out_dir. Each artifact's header records
the inputs that shaped it, and every reader checks them against the config,
so a stale artifact fails fast (exit 4) naming the command to rerun.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

from . import assembly, binfile, control_net as cn, evolve, fit, pde_ops, reference, rom
from .config import RunConfig
from .errors import ConfigError, MissingArtifact, NonFiniteError
from .sampling import AnchorBalls, rng_for, sample_theta

SOLUTION_FORMAT_VERSION = 3
CURVE_FORMAT_VERSION = 1
# Gram records per residual_scan call in verify: holds chunk * m^2 floats of G
_VERIFY_CHUNK = 256
# the default grid sizes of reference (IMEX cells and steps) and of eval (Monte-Carlo points)
REFERENCE_NX = 100
REFERENCE_NT = 2000
EVAL_N_X = 4096

# cheb_combo initials: up to CHEB_MAX_TERMS terms T_i(x) T_j(y) with i, j <=
# CHEB_DEGREE_MAX, scaled down to a peak of CHEB_AMPLITUDE where they exceed it
CHEB_DEGREE_MAX = 3
CHEB_MAX_TERMS = 6
CHEB_AMPLITUDE = 0.9


def sample_initial_specs(cfg: RunConfig):
    """Draw initial-condition specs from the problem kind's family: transport
    random_theta, heat heat_combo, allen_cahn cheb_combo."""
    kind = cfg.raw["problem"]["kind"]
    n = cfg.raw["initials"]["count"]
    rng = rng_for(cfg.seed, stream=60)
    specs: list[fit.InitialSpec] = []
    if kind == "transport":
        for i in range(n):
            specs.append(fit.RandomTheta(seed=int(rng.integers(0, 2**31 - 1))))
    elif kind == "heat":
        for _ in range(n):
            specs.append(fit.HeatCombo(coeffs=rng.uniform(-1.0, 1.0, 4)))
    else:
        # the amplitude probe covers (-1,1)^2, the only box config lets allen_cahn take
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
    """Fit (or directly sample) anchor parameters for each initial spec and
    write the anchor store."""
    cfg.ensure_layout()
    ini = cfg.raw["initials"]
    entries = []
    for k, spec in enumerate(sample_initial_specs(cfg)):
        if isinstance(spec, fit.RandomTheta):
            # config gives transport a box theta_space
            model = fit.resolve_random_theta(spec, cfg.rom_arch, cfg.theta_space())
            entries.append((spec, model.theta, 0.0))
        else:
            res = fit.fit_initial(cfg.rom_arch, spec, ini["fit_n_x"], ini["eps0_target"], seed=cfg.seed + 1000 + k,
                                  **ini["fit"])
            entries.append((spec, res.theta, res.rmse))
    fit.save_anchors(cfg.path("anchors"), cfg.anchor_header(), entries)
    return [
        {"spec": spec.describe(), "rmse": rmse, "theta_norm": float(np.linalg.norm(theta))}
        for spec, theta, rmse in entries
    ]


def _gram_thetas(cfg: RunConfig) -> np.ndarray:
    return sample_theta(cfg.theta_space(), cfg.raw["counts"]["n_theta"], cfg.seed, stream=40)


def _gram_header(cfg: RunConfig) -> dict:
    return assembly.cache_header(cfg.rom_arch, cfg.operator, cfg.raw["counts"]["n_x"], cfg.seed)


def _read_gram_cache(cfg: RunConfig) -> assembly.GramCache:
    """The first counts.n_theta records of the run's Gram cache, checked as
    sample-gram checks them before it resumes."""
    path = cfg.path("gram_cache")
    if not os.path.exists(path):
        raise MissingArtifact(f"gram cache {path} not found; run sample-gram first")
    return assembly.read_cache(path, _gram_header(cfg), _gram_thetas(cfg))


def cmd_sample_gram(cfg: RunConfig) -> dict:
    cfg.ensure_layout()
    return assembly.assemble_batch(cfg.rom_arch, _gram_thetas(cfg), cfg.operator, cfg.raw["counts"]["n_x"],
                                   cfg.seed, cfg.path("gram_cache"))


def _traj_plan(cfg: RunConfig) -> tuple[dict, np.ndarray]:
    """The trajectory cache header and the start thetas the config implies."""
    counts = cfg.raw["counts"]
    n_traj = counts["n_traj"]
    starts = np.zeros((0, rom.param_count(cfg.rom_arch)))
    if n_traj:
        space = cfg.theta_space()
        if isinstance(space, AnchorBalls):
            starts = space.anchors[np.arange(n_traj) % len(space.anchors)]
        else:
            starts = sample_theta(space, n_traj, cfg.seed, stream=41)
    h = cfg.raw["problem"]["horizon"] / counts["n_t"]
    header = evolve.traj_cache_header(_gram_header(cfg), h, counts["n_t"], starts)
    return header, starts


def cmd_gen_trajectories(cfg: RunConfig) -> dict:
    cfg.ensure_layout()
    counts = cfg.raw["counts"]
    header, starts = _traj_plan(cfg)
    trajs = []
    blowups = 0
    for i in range(starts.shape[0]):
        traj = evolve.gen_trajectory(cfg.rom_arch, starts[i], cfg.operator, counts["n_t"], header["h"],
                                     counts["n_x"], cfg.seed, stream_base=100_000 * (i + 1))
        blowups += int(traj.blowup_step is not None)
        trajs.append(traj)
    evolve.write_traj_cache(cfg.path("traj_cache"), header, trajs)
    pairs = sum(t.thetas.shape[0] for t in trajs)
    return {"trajectories": len(trajs), "pairs": pairs, "blowups": blowups}


def control_checkpoint_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.path("checkpoints"), "control.bin")


def _load_control(cfg: RunConfig) -> cn.ControlNet:
    """The trained control net, checked against the config's control_arch
    (the ROM's parameter count, width and depth)."""
    return cn.load_control_checkpoint(control_checkpoint_path(cfg), cfg.control_arch)


def _digest(array: np.ndarray) -> str:
    """sha256 of an array's bytes: a solution records its control field's xi
    this way, and an error curve its solution's theta rows."""
    return hashlib.sha256(array.tobytes()).hexdigest()


def cmd_train_control(
    cfg: RunConfig,
    resume: bool = False,
    train_overrides: dict | None = None,
    pairs_only: bool = False,
) -> dict:
    """Train the control field. pairs_only skips the projection loss and fits
    the trajectory pairs alone (curriculum warmup for stiff selections). The
    trajectory cache is read when the config asks for trajectories
    (counts.n_traj > 0)."""
    train = cfg.train_config(**(train_overrides or {}))
    if pairs_only and train["zeta"] == 0:
        train["zeta"] = 1.0
    cfg.ensure_layout()
    gram = rows = pairs = None
    if not pairs_only:
        cache = _read_gram_cache(cfg)
        if not cache.rows.size:
            raise NonFiniteError(
                f"every record of {cfg.path('gram_cache')} was skipped: assembly went non-finite at each theta; "
                "shrink theta_space and rerun sample-gram"
            )
        gram, rows = (cache.theta, cache.gram, cache.rhs), cache.rows
    if cfg.raw["counts"]["n_traj"]:
        pairs = evolve.read_traj_cache(cfg.path("traj_cache"), header=_traj_plan(cfg)[0])[1:]
    n_pairs = 0 if pairs is None else int(pairs[0].shape[0])
    if pairs_only and not n_pairs:
        raise MissingArtifact("pairs-only training needs a nonempty trajectory cache")
    if resume:
        net = _load_control(cfg)
    else:
        net = cn.ControlNet(cfg.control_arch, cn.init_control_params(cfg.control_arch, cfg.seed))
    # a resumed stage checks the rows it continues before it trains
    history_path = os.path.join(cfg.out_dir, "curves", "loss_history.bin")
    kept = cn.read_loss_history(history_path) if resume and os.path.exists(history_path) else None
    net, history = cn.train(net, gram, pairs, seed=cfg.seed, rows=rows, **train)
    cn.save_control_checkpoint(net, control_checkpoint_path(cfg))
    cn.save_loss_history(history, history_path, kept)
    final = history[-1][3] if history else float("nan")
    records = 0 if rows is None else int(rows.shape[0])
    return {"steps": len(history), "final_loss": final, "records": records, "pairs": n_pairs}


def solution_path(cfg: RunConfig, index: int) -> str:
    return os.path.join(cfg.out_dir, "solutions", f"solution_{index:03d}.bin")


def _load_anchors(cfg: RunConfig, index: int) -> tuple[dict, np.ndarray]:
    """The anchor store's (header, thetas), once anchor index is known to be
    in it; solve, reference, eval and export-slice take their --anchor here."""
    header, thetas = fit.load_anchors(cfg.path("anchors"), cfg.anchor_header())
    if not 0 <= index < len(thetas):
        raise MissingArtifact(f"anchor {index} not in store of size {len(thetas)}")
    return header, thetas


def cmd_solve(cfg: RunConfig, anchor_index: int = 0) -> dict:
    cfg.ensure_layout()
    net = _load_control(cfg)
    anchors, thetas = _load_anchors(cfg, anchor_index)
    traj = evolve.solve_ivp(net, thetas[anchor_index], cfg.raw["problem"]["horizon"], cfg.raw["solve"]["n_steps"],
                            theta_space=cfg.theta_space())
    header = {
        "format_version": SOLUTION_FORMAT_VERSION,
        "kind": "solution",
        "arch_hash": rom.arch_hash(cfg.rom_arch),
        "control_sha256": _digest(net.xi),
        "initial": anchors["specs"][anchor_index],
        "fit_rmse": anchors["rmse"][anchor_index],
        "step": traj.step,
        "blowup_step": traj.blowup_step,
        "escape_step": traj.escape_step,
    }
    path = solution_path(cfg, anchor_index)
    binfile.save(path, header, traj.thetas)
    return {
        "path": path,
        "steps": traj.thetas.shape[0] - 1,
        "blowup_step": traj.blowup_step,
        "escape_step": traj.escape_step,
    }


def load_solution(cfg: RunConfig, index: int, net: cn.ControlNet | None = None) -> tuple[dict, evolve.ParamTrajectory]:
    """The solution's header and its trajectory, times rebuilt as step * j;
    given net, the solution must have been solved with that control field."""
    expected = {"arch_hash": rom.arch_hash(cfg.rom_arch)}
    if net is not None:
        expected["control_sha256"] = _digest(net.xi)
    header, thetas = binfile.load(solution_path(cfg, index), "solution", SOLUTION_FORMAT_VERSION, expected,
                                  "rerun solve")
    traj = evolve.ParamTrajectory(
        times=header["step"] * np.arange(thetas.shape[0]),
        thetas=thetas,
        velocities=None,
        step=header["step"],
        blowup_step=header["blowup_step"],
        escape_step=header["escape_step"],
    )
    return header, traj


def reference_path(cfg: RunConfig, index: int) -> str:
    return os.path.join(cfg.out_dir, "reference", f"ref_{index:03d}.bin")


def _reference_header(cfg: RunConfig, initial: dict) -> dict:
    """Every input of an IMEX reference but the grid sizes."""
    p = cfg.raw["problem"]
    return {"initial": initial, "epsilon": p["epsilon"], "horizon": p["horizon"], "domain": p["domain"]}


def cmd_reference(cfg: RunConfig, anchor_index: int = 0, nx: int = REFERENCE_NX, nt: int = REFERENCE_NT) -> dict:
    """Materialize the reference solution where one must be computed
    (Allen-Cahn IMEX); closed-form references need no artifact. The anchor
    index is checked against the store for every problem kind."""
    cfg.ensure_layout()
    p = cfg.raw["problem"]
    initial = _load_anchors(cfg, anchor_index)[0]["specs"][anchor_index]
    if p["kind"] != "allen_cahn":
        return {"note": f"{p['kind']} uses a closed-form reference; nothing to compute"}
    grid = reference.solve_allen_cahn_imex(fit.spec_from_dict(initial), p["epsilon"], nx, nt, p["horizon"],
                                           lo=cfg.rom_arch.lo, hi=cfg.rom_arch.hi)
    path = reference_path(cfg, anchor_index)
    reference.save_grid_solution(grid, path, _reference_header(cfg, initial))
    return {"path": path, "snapshots": len(grid.times)}


def build_reference(cfg: RunConfig, index: int, initial: dict):
    """Reference solution object for anchor index with the initial spec
    (a describe() dict) that its solution records; config only builds runs
    whose problem one of them serves."""
    kind = cfg.raw["problem"]["kind"]
    if kind == "transport":
        # the anchor theta defines the initial function u_theta0
        model = rom.RomModel(cfg.rom_arch, _load_anchors(cfg, index)[1][index])
        return reference.TransportShift(model=model, velocity=cfg.operator.velocity)
    if kind == "heat":
        return reference.HeatSeries(fit.spec_from_dict(initial).coeffs)
    return reference.load_grid_solution(reference_path(cfg, index), _reference_header(cfg, initial))


def _curve_path(cfg: RunConfig, index: int) -> str:
    return os.path.join(cfg.out_dir, "curves", f"errors_{index:03d}.bin")


def cmd_eval(cfg: RunConfig, anchor_index: int = 0, n_x: int = EVAL_N_X, max_times: int = 64) -> dict:
    cfg.ensure_layout()
    _load_anchors(cfg, anchor_index)
    header, traj = load_solution(cfg, anchor_index)
    ref = build_reference(cfg, anchor_index, header["initial"])
    curve = reference.error_curve(cfg.rom_arch, traj, ref, n_x, seed=cfg.seed + 17, max_times=max_times)
    path = _curve_path(cfg, anchor_index)
    # rows (t, abs_err, rel_err), rel_err NaN where undefined
    binfile.save(path, {"format_version": CURVE_FORMAT_VERSION, "kind": "error_curve",
                        "solution_sha256": _digest(traj.thetas)},
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
    _load_anchors(cfg, anchor_index)
    header, traj = load_solution(cfg, anchor_index)
    ref = build_reference(cfg, anchor_index, header["initial"])
    j = int(np.argmin(np.abs(traj.times - t)))
    path = os.path.join(cfg.out_dir, "slices", f"slice_{anchor_index:03d}_t{traj.times[j]:.4f}.csv")
    reference.export_slice(cfg.rom_arch, traj.thetas[j], ref, float(traj.times[j]), path, grid_n=grid_n)
    return {"path": path, "time": float(traj.times[j])}


def cmd_verify(cfg: RunConfig) -> dict:
    """Report on this run's artifacts and write out/report.json: the
    projection residual |G V(theta) - p| of the control field over the Gram
    cache, and per stored solution the field statistics M_V, L_V along its
    states, the forward-Euler bound they give at the solve's step, and the
    measured error curve."""
    cfg.ensure_layout()
    volume = float(np.prod(np.subtract(cfg.rom_arch.hi, cfg.rom_arch.lo)))
    net = _load_control(cfg)
    cache = _read_gram_cache(cfg)
    sol_dir = os.path.dirname(solution_path(cfg, 0))
    names = (re.fullmatch(r"solution_(\d+)\.bin", name) for name in os.listdir(sol_dir))
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
        header, traj = load_solution(cfg, k, net)
        m_v, l_v = cn.field_stats(net, traj.thetas, cfg.seed)
        entry = {
            "anchor": k,
            "fit_rmse": header["fit_rmse"],
            "steps": traj.thetas.shape[0] - 1,
            "blowup_step": traj.blowup_step,
            "escape_step": traj.escape_step,
            "m_v": m_v,
            "l_v": l_v,
            "euler_bound": pde_ops.euler_bound(l_v, m_v, volume, traj.step, cfg.raw["problem"]["horizon"]),
        }
        curve = _curve_path(cfg, k)
        if os.path.exists(curve):
            _, rows = binfile.load(curve, "error_curve", CURVE_FORMAT_VERSION,
                                   {"solution_sha256": _digest(traj.thetas)}, "rerun eval")
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
    path = os.path.join(cfg.out_dir, "report.json")
    with binfile.atomic_write(path) as fh:
        json.dump(report, fh, indent=2)
    return dict(report, path=path)
