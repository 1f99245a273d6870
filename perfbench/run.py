#!/usr/bin/env python3
"""pdecontrol benchmark.

    python3 perfbench/run.py --workload {transport1d,heat1d,allen_cahn2d} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree (``src/``, ``configs/``). Each workload run
is a fresh process with a fresh out dir and a config generated from the seed
(``workloads.py``); runs repeat until ``--seconds`` is used up and every
metric is the median over them. Times are scaled by the probe of
``calib.py``, run between pipeline calls, to cancel the host's speed drift.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics of ``tracer.py``.
Every run of one seed must produce the same Gram cache, artifact bytes and
accuracy. The last stdout line is one JSON object ``{correct, attempted,
failed, metrics}``; the lines before it are a readable table and the run
metadata, which also go to ``.bench_out/results/``.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, config_seed, write_config  # noqa: E402

# name -> unit; the end-to-end metrics reported by --trace 0
END_TO_END = {
    "setup_s": "s",
    "field_s": "s",
    "ic_per_s": "1/s",
    "eval_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}
# printed with the end-to-end table but not bounded: rel_err_max is exact per
# seed yet spreads far across seeds, failed_frac is 0 on every workload; the
# unscaled times and the probe's time show what the scaling did
END_TO_END_UNBOUNDED = {
    "rel_err_max": "1",
    "failed_frac": "1",
    "raw.setup_s": "s",
    "raw.field_s": "s",
    "raw.ic_per_s": "1/s",
    "raw.eval_s": "s",
    "raw.pipeline_s": "s",
    "probe_s": "s",
}

# printed but left out of the result line: per-layer metrics that are exactly
# 0 (the layer does no work) or undefined on some workload, and the span
# count; see README.md
PER_LAYER_PRINTED_ONLY = {
    "rom.eval_batch.laplacian.s",
    "linalg.ridge_solve.s",
    "optim.Adam.step.fit.s",
    "evolve.gen_trajectory.self_s",
    "fit.fit_initial.self_s",
    "fit.target_reached_frac",
    "reference.solve_allen_cahn_imex.s",
    "trace.spans",
}

# rel_err_max above these fails the run. They catch gross losses only (a
# diverging or sign-flipped field): on heat1d an anchor with a near-zero
# first mode has a tiny norm at the horizon, so the value is heavy-tailed
# across seeds. Ten seeds gave transport1d 1.9-4.3, heat1d 0.32-5.5 and
# allen_cahn2d 0.40-0.85.
REL_ERR_CEILING = {"transport1d": 50.0, "heat1d": 1000.0, "allen_cahn2d": 50.0}

SETUP_ONLY_RUNS = 5
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
RUN_TIMEOUT_S = 150


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "overhead_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_per_record"):
        return "bytes"
    if name.endswith(("_frac", "rel_err_max")):
        return "1"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "pdecontrol")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Runner:
    """Spawns workload runs, each in its own process and out dir."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.threads = len(os.sched_getaffinity(0))
        self.work = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}")
        self.count = 0
        self.n_theta = None

    def spawn(self, mode: str) -> dict:
        """mode is 'setup' (stop after set-up), '0' (untraced) or '1' (traced)."""
        run_dir = os.path.join(self.work, f"run{self.count}")
        self.count += 1
        os.makedirs(run_dir)
        config_path = os.path.join(run_dir, "config.json")
        doc = write_config(ROOT, self.workload, self.seed, self.threads, config_path)
        self.n_theta = doc["counts"]["n_theta"]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "rep.py"), ROOT, self.workload, config_path,
                 os.path.join(run_dir, "out"), repr(t0), mode],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            result = {"error": f"run exceeded {RUN_TIMEOUT_S} s"}
        else:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
                result = {"error": tail[0]}
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.monotonic() - t0
        result["mode"] = mode
        shutil.rmtree(run_dir, ignore_errors=True)
        return result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def schedule(runner: Runner, seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Workload runs until the time is used up (and at least the minimum).

    Untraced: a few set-up-only runs, then full runs. Traced: untraced and
    traced runs alternate, so the tracing overhead compares like with like.
    """
    start = time.monotonic()
    setups: list[dict] = []
    runs: list[dict] = []
    if not trace:
        for _ in range(SETUP_ONLY_RUNS):
            r = runner.spawn("setup")
            if r.get("error"):
                runs.append(r)
                return runs, setups
            setups.append(r)
    while True:
        mode = "1" if trace and len(runs) % 2 else "0"
        r = runner.spawn(mode)
        runs.append(r)
        if r.get("error"):
            break
        plain = sum(x["mode"] == "0" for x in runs)
        traced = len(runs) - plain
        enough = min(plain, traced) >= MIN_TRACED_RUNS if trace else plain >= MIN_RUNS
        next_mode = "1" if trace and len(runs) % 2 else "0"
        estimate = statistics.median([x["wall_s"] for x in runs if x["mode"] == next_mode] or [r["wall_s"]])
        if enough and time.monotonic() - start + estimate > seconds:
            break
    return runs, setups


def check(workload: str, runs: list[dict], n_theta: int, trace: int) -> list[str]:
    """Correctness problems; empty when every check passes."""
    problems = []
    for i, r in enumerate(runs):
        if r.get("error"):
            problems.append(f"run {i}: {r['error']}")
            continue
        gram = r["gram"]
        if gram["computed"] != n_theta or gram["resumed"] != 0:
            problems.append(f"run {i}: sample-gram computed {gram['computed']} of {n_theta}, resumed {gram['resumed']}")
        err = r["rel_err_max"]
        if not (math.isfinite(err) and err <= REL_ERR_CEILING[workload]):
            problems.append(f"run {i}: rel_err_max {err} not finite or above {REL_ERR_CEILING[workload]}")
        cov = r.get("layers", {}).get("coverage")
        if cov:
            if cov["assemble_at_calls"] != cov["assemble_at_expected"]:
                problems.append(f"run {i}: assemble_at spans {cov['assemble_at_calls']} != {cov['assemble_at_expected']}")
            if cov["solve_ivp_calls"] != cov["solve_ivp_expected"]:
                problems.append(f"run {i}: solve_ivp spans {cov['solve_ivp_calls']} != {cov['solve_ivp_expected']}")
    ok = [r for r in runs if not r.get("error")]
    for key in ("gram_sha256", "artifact_bytes", "rel_err_max"):
        values = {json.dumps(r[key]) for r in ok}
        if len(values) > 1:
            problems.append(f"{key} differs between runs of one seed: {sorted(values)}")
    if trace and not any(r["mode"] == "1" for r in ok):
        problems.append("no traced run completed")
    return problems


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(runs: list[dict], setups: list[dict]) -> dict[str, dict]:
    ok = [r for r in runs if not r.get("error") and r["mode"] == "0"]
    series = {name: [r[name] for r in ok] for name in ("field_s", "ic_per_s", "eval_s", "pipeline_s", "peak_rss_mb")}
    series["setup_s"] = [r["setup_s"] for r in setups + ok]
    series["artifact_mb"] = [r["artifact_bytes"] / 1e6 for r in ok]
    series["rel_err_max"] = [r["rel_err_max"] for r in ok]
    series["failed_frac"] = [r["failed"] / r["attempted"] for r in ok]
    series["raw.setup_s"] = [r["raw"]["setup_s"] for r in setups + ok]
    for name in ("field_s", "ic_per_s", "eval_s", "pipeline_s"):
        series[f"raw.{name}"] = [r["raw"][name] for r in ok]
    series["probe_s"] = [r["probe_s"] for r in setups + ok]
    return {name: summarize(vals) for name, vals in series.items() if vals}


def per_layer(runs: list[dict]) -> dict[str, dict]:
    traced = [r for r in runs if not r.get("error") and r["mode"] == "1"]
    plain = [r for r in runs if not r.get("error") and r["mode"] == "0"]
    out = {}
    for name in traced[0]["layers"]["metrics"] if traced else ():
        out[name] = summarize([r["layers"]["metrics"][name] for r in traced])
    if traced and plain:
        out["rel_err_max"] = summarize([r["rel_err_max"] for r in traced])
        out["failed_frac"] = summarize([r["failed"] / r["attempted"] for r in traced])
        overhead = statistics.median(r["pipeline_s"] for r in traced) - statistics.median(
            r["pipeline_s"] for r in plain
        )
        out["trace.overhead_s"] = summarize([overhead])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    preset = os.path.join(ROOT, "configs", WORKLOADS[args.workload]["preset"])
    if not os.path.isfile(os.path.join(ROOT, "src", "pdecontrol", "pipeline.py")) or not os.path.isfile(preset):
        print(f"perfbench: {ROOT} holds no pdecontrol source tree (src/pdecontrol, configs/)", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.trace)
    try:
        runs, setups = schedule(runner, args.seconds, args.trace)
    finally:
        runner.close()
    problems = check(args.workload, runs, runner.n_theta, args.trace)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": config_seed(args.workload, args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": len(runs),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": runner.threads,
        "assembly_threads": runner.threads,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }
    meta.update(next((r["meta"] for r in runs if "meta" in r), {}))
    ok = [r for r in runs if not r.get("error")]
    if ok:
        meta["gram_sha256"] = ok[0]["gram_sha256"]
        meta["cache_bytes_per_record"] = ok[0]["gram_bytes"] / runner.n_theta

    if args.trace:
        table = per_layer(runs)
        wanted = [name for name in table if name not in PER_LAYER_PRINTED_ONLY]
        units = {name: layer_unit(name) for name in table}
    else:
        table = end_to_end(runs, setups)
        wanted = [name for name in END_TO_END if name in table]
        units = {**END_TO_END, **END_TO_END_UNBOUNDED}

    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for name, s in table.items():
        flag = "" if name in wanted else "  (printed only)"
        print(f"{name:40s} {s['median']:.6g} {units[name]}  median of {s['n']} "
              f"[{s['min']:.6g} .. {s['max']:.6g}]{flag}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    # a run that crashed or timed out counts as one failed operation
    attempted = sum(r.get("attempted", 1) for r in runs)
    failed = sum(r.get("failed", 1) for r in runs)
    result = {
        "correct": not problems and len(wanted) > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": table[name]["median"], "unit": units[name]} for name in wanted},
    }
    results_dir = os.path.join(ROOT, ".bench_out", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"meta": meta, "summary": table, "problems": problems, "result": result, "runs": runs}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
