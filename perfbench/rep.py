"""One workload run in a fresh process.

    python3 perfbench/rep.py <root> <workload> <config.json> <out_dir> <spawn_monotonic> <setup|0|1>

Imports the package from ``<root>/src``, loads the generated config, drives
the pipeline through the ``pipeline.cmd_*`` functions in the workload's stage
order, and prints one JSON object with stage times, operation counts,
accuracy and (with 1) the per-layer metrics of ``tracer.py``. Times are
given raw and scaled by the probe of ``calib.py``, which runs after set-up
and around every pipeline call. With ``setup`` it stops after set-up.
``spawn_monotonic`` is ``time.monotonic()`` of the parent just before it
started this process, so set-up time includes interpreter start-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time


def _tree_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Ops:
    """Operations attempted and failed (records, trajectories, fits, solves, evals)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


class Stages:
    """Times pipeline calls, raw and scaled by the probe on either side.

    The probe runs on the calling thread after every call, so a call is
    bracketed by two probe times. A ``parallel`` call (one that runs on
    every CPU: the assembly pool, BLAS-threaded training) is bracketed
    instead by the slowest CPU's probe, since its parallel parts wait for
    the slowest. A call's scaled time is raw x reference_s / the mean of its
    two bracketing probe times; a stage's time is the sum over its calls.
    """

    def __init__(self, probe, reference_s: float):
        self.probe = probe
        self.reference_s = reference_s
        # three probes at the start: their median scales the set-up time
        self.start = statistics.median(probe.measure() for _ in range(3))
        self.last = probe.times[-1]
        self.raw: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.calls: list[tuple[str, str, float, float]] = []

    def call(self, stage: str, fn, *args, parallel: bool = False, **kwargs):
        before = self.probe.slowest_cpu() if parallel else self.last
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t
        self.last = self.probe.measure()
        after = self.probe.slowest_cpu() if parallel else self.last
        scaled = dt * self.reference_s / (0.5 * (before + after))
        self.calls.append((stage, fn.__name__, dt, scaled))
        self.raw[stage] = self.raw.get(stage, 0.0) + dt
        self.scaled[stage] = self.scaled.get(stage, 0.0) + scaled
        return out


def run_stages(pipeline, cfg, spec: dict, ops: Ops, stages: Stages, result: dict) -> None:
    """The workload's pipeline; fills result with stage times and outputs."""
    n_anchors = cfg.raw["initials"]["count"]

    fits = stages.call("fit_s", pipeline.cmd_fit_initial, cfg)
    ops.add(len(fits), sum(1 for f in fits if not math.isfinite(f["rmse"])))

    # the once-per-operator calls run the assembly pool and BLAS-threaded
    # training on every CPU
    gram = stages.call("field_s", pipeline.cmd_sample_gram, cfg, parallel=True)
    ops.add(gram["computed"], gram["skipped"])
    traj = stages.call("field_s", pipeline.cmd_gen_trajectories, cfg, parallel=True)
    ops.add(traj["trajectories"], traj["blowups"])
    for i, (lr, steps, pairs_only, batch) in enumerate(spec["train_stages"]):
        overrides = {"lr": lr, "max_steps": steps}
        if batch is not None:
            overrides["batch_size"] = batch
        stages.call(
            "field_s",
            pipeline.cmd_train_control,
            cfg,
            resume=i > 0,
            pairs_only=pairs_only,
            train_overrides=overrides,
            parallel=True,
        )

    for k in range(n_anchors):
        solved = stages.call("solve_s", pipeline.cmd_solve, cfg, anchor_index=k)
        ops.add(1, int(solved["blowup_step"] is not None))

    errs = []
    for k in range(spec["eval_anchors"]):
        stages.call("eval_s", pipeline.cmd_reference, cfg, anchor_index=k, **(spec["imex"] or {}))
        err = stages.call("eval_s", pipeline.cmd_eval, cfg, anchor_index=k, n_x=spec["eval_n_x"])["rel_err_max"]
        ok = err is not None and math.isfinite(err)
        ops.add(1, int(not ok))
        errs.append(err if ok else math.nan)

    raw, scaled = dict(stages.raw), dict(stages.scaled)
    for times in (raw, scaled):
        times["pipeline_s"] = sum(times.values())
        times["ic_per_s"] = n_anchors / (times["fit_s"] + times["solve_s"])
    result["raw"].update(raw)
    result["calls"] = stages.calls
    result.update(
        scaled,
        gram=gram,
        traj=traj,
        anchors=n_anchors,
        rel_err_max=max(errs) if errs else math.nan,
    )


def blas_info() -> dict:
    """Library versions and the OpenBLAS thread count of this process."""
    import ctypes

    import numpy
    import scipy

    info = {"numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": None, "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            info["openblas"] = get_config().decode()
            info["blas_threads"] = get_threads()
            return info
    return info


def main(argv: list[str]) -> int:
    root, workload, config_path, out_dir = argv[:4]
    spawn = float(argv[4])
    mode = argv[5]
    trace = mode == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import pdecontrol  # noqa: F401  (package import is part of setup)
    from pdecontrol import config, pipeline
    from pdecontrol.errors import PdeControlError

    from calib import REFERENCE_S, Probe
    from workloads import WORKLOADS

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    cfg = config.load_config(config_path, out_dir=out_dir)
    cfg.ensure_layout()
    setup_s = time.monotonic() - spawn

    # set-up is scaled by the probes that run right after it
    stages = Stages(Probe(), REFERENCE_S)
    ops = Ops()
    result: dict = {"setup_s": setup_s * REFERENCE_S / stages.start, "raw": {"setup_s": setup_s}, "error": None}
    if mode != "setup":
        try:
            run_stages(pipeline, cfg, WORKLOADS[workload], ops, stages, result)
        except PdeControlError as exc:
            ops.add(1, 1)
            result["error"] = f"{type(exc).__name__}: {exc}"
    result["probe_s"] = statistics.median(stages.probe.times)
    if mode == "setup":
        result.update(attempted=0, failed=0)
        print(json.dumps(result))
        return 0
    if tracer is not None:
        tracer.uninstall()

    gram_path = cfg.path("gram_cache")
    if os.path.exists(gram_path):
        result["gram_sha256"] = _sha256(gram_path)
        result["gram_bytes"] = os.path.getsize(gram_path)
    result["artifact_bytes"] = _tree_bytes(out_dir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["meta"] = blas_info()
    if tracer is not None and result["error"] is None:
        result["layers"] = tracer.layer_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
