"""Spans around every public function of every ``pdecontrol`` module.

The tracer is installed from outside the library: it replaces each public
module-level function with a wrapper at every binding in the package, the
``from x import f`` copies included, and wraps ``optim.Adam.step`` on the
class. A span is (id, parent id, name, start, end, raised, info). Spans are
kept in memory; ``layer_metrics`` reduces them to the per-layer metrics
documented in README.md.

Self time is a span's duration minus the part of its interval that its child
spans cover (the union, so spans from assembly worker threads that overlap
count once). A span opened on a thread with no open span of its own takes the
innermost open span of the main thread as its parent, which attributes the
assembly pool's ``assemble_at`` calls to ``assemble_batch``. Because those
children run while ``assemble_batch`` encodes and writes on the calling
thread, its self time is taken instead as that thread's CPU time
(``time.thread_time``) inside the span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import threading
import time
from collections import defaultdict

import numpy as np


def _eval_batch_info(args, kwargs, result):
    need = kwargs.get("need", args[2] if len(args) > 2 else None)
    if need.laplacian:
        bucket = "laplacian"
    elif need.grad_theta:
        bucket = "grad_theta"
    else:
        bucket = "value_only"
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"points": np.atleast_2d(X).shape[0], "bucket": bucket}


def _forward_info(args, kwargs, result):
    return {"rows": 1 if result.ndim == 1 else result.shape[0]}


def _solve_info(args, kwargs, result):
    return {
        "steps": result.thetas.shape[0] - 1,
        "blowup": int(result.blowup_step is not None),
        "escape": int(result.escape_step is not None),
    }


def _traj_info(args, kwargs, result):
    return {"points": result.thetas.shape[0], "blowup": int(result.blowup_step is not None)}


def _fit_info(args, kwargs, result):
    return {"steps": result.steps, "reached": int(bool(result.target_reached))}


def _train_info(args, kwargs, result):
    return {"steps": len(result[1])}


def _batch_info(args, kwargs, result):
    return {"skipped": result["skipped"]}


INFO = {
    "rom.eval_batch": _eval_batch_info,
    "control_net.forward": _forward_info,
    "evolve.solve_ivp": _solve_info,
    "evolve.gen_trajectory": _traj_info,
    "fit.fit_initial": _fit_info,
    "control_net.train": _train_info,
    "assembly.assemble_batch": _batch_info,
}

# spans whose calling-thread CPU time is recorded as info["cpu_s"]
THREAD_CPU = {"assembly.assemble_batch"}

PIPELINE_COMMANDS = (
    "cmd_fit_initial",
    "cmd_sample_gram",
    "cmd_gen_trajectories",
    "cmd_train_control",
    "cmd_solve",
    "cmd_reference",
    "cmd_eval",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        info_fn = INFO.get(name)
        clock = time.perf_counter
        cpu_clock = time.thread_time if name in THREAD_CPU else None
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            sid = next(self._ids)
            stack.append(sid)
            raised = True
            c0 = cpu_clock() if cpu_clock else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                info = info_fn(args, kwargs, result) if (info_fn and not raised) else None
                if cpu_clock:
                    info = {**(info or {}), "cpu_s": cpu_clock() - c0}
                spans.append((sid, parent, name, t0, t1, raised, info))

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every package module at each binding."""
        import pdecontrol

        modules = [pdecontrol] + [
            importlib.import_module(f"pdecontrol.{info.name}")
            for info in pkgutil.iter_modules(pdecontrol.__path__)
            if info.name != "__main__"
        ]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        from pdecontrol.optim import Adam

        self._patches.append((Adam, "step", Adam.step))
        Adam.step = self.wrap("optim.Adam.step", Adam.step)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, parent, _, t0, t1, _, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1, _, _ in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def layer_metrics(self, result: dict) -> dict:
        """Per-layer metrics plus the coverage counts the caller checks."""
        names = {sid: name for sid, _, name, *_ in self.spans}
        self_s = self.self_times()
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        counts = defaultdict(int)
        for sid, parent, name, t0, t1, raised, info in self.spans:
            key = name
            if name == "optim.Adam.step":
                key = {"control_net.train": "optim.Adam.step.train", "fit.fit_initial": "optim.Adam.step.fit"}.get(
                    names.get(parent), "optim.Adam.step.other"
                )
            calls[key] += 1
            total[key] += t1 - t0
            own[key] += self_s[sid]
            if name == "assembly.assemble_at" and raised and names.get(parent) == "evolve.gen_trajectory":
                counts["assemble_at_raised_in_traj"] += 1
            if info:
                for field, value in info.items():
                    if field == "bucket":
                        total[f"{name}.{value}"] += t1 - t0
                    else:
                        counts[f"{name}.{field}"] += value

        m: dict[str, float] = {"config.load_config.s": total["config.load_config"]}
        for cmd in PIPELINE_COMMANDS:
            m[f"pipeline.{cmd}.s"] = total[f"pipeline.{cmd}"]
            m[f"pipeline.{cmd}.self_s"] = own[f"pipeline.{cmd}"]
        m.update({
            "rom.eval_batch.calls": calls["rom.eval_batch"],
            "rom.eval_batch.points": counts["rom.eval_batch.points"],
            "rom.eval_batch.grad_theta.s": total["rom.eval_batch.grad_theta"],
            "rom.eval_batch.laplacian.s": total["rom.eval_batch.laplacian"],
            "rom.eval_batch.value_only.s": total["rom.eval_batch.value_only"],
            "pde_ops.apply_operator_arrays.s": total["pde_ops.apply_operator_arrays"],
            "sampling.sample_omega.calls": calls["sampling.sample_omega"],
            "sampling.sample_omega.s": total["sampling.sample_omega"],
            "linalg.ridge_solve.calls": calls["linalg.ridge_solve"],
            "linalg.ridge_solve.s": total["linalg.ridge_solve"],
            "assembly.assemble_at.calls": calls["assembly.assemble_at"],
            "assembly.assemble_at.s": total["assembly.assemble_at"],
            "assembly.assemble_batch.self_s": counts["assembly.assemble_batch.cpu_s"],
            "assembly.read_cache.calls": calls["assembly.read_cache"],
            "assembly.read_cache.s": total["assembly.read_cache"],
            "assembly.cache_bytes_per_record": result["gram_bytes"] / max(result["gram"]["total"], 1),
            "assembly.records_skipped": counts["assembly.assemble_batch.skipped"],
        })
        train_steps = counts["control_net.train.steps"]
        adam_train_s = total["optim.Adam.step.train"]
        m.update({
            "control_net.train.calls": calls["control_net.train"],
            "control_net.train.steps": train_steps,
            "control_net.train.self_s": own["control_net.train"],
            "control_net.train.step_ms": 1e3 * (total["control_net.train"] - adam_train_s) / max(train_steps, 1),
            "control_net.forward.calls": calls["control_net.forward"],
            "control_net.forward.rows": counts["control_net.forward.rows"],
            "control_net.forward.s": total["control_net.forward"],
            "control_net.checkpoint.s": total["control_net.save_control_checkpoint"]
            + total["control_net.load_control_checkpoint"],
            "optim.Adam.step.train.calls": calls["optim.Adam.step.train"],
            "optim.Adam.step.train.s": adam_train_s,
            "optim.Adam.step.fit.calls": calls["optim.Adam.step.fit"],
            "optim.Adam.step.fit.s": total["optim.Adam.step.fit"],
            "evolve.gen_trajectory.calls": calls["evolve.gen_trajectory"],
            "evolve.gen_trajectory.self_s": own["evolve.gen_trajectory"],
            "evolve.traj_blowups": counts["evolve.gen_trajectory.blowup"],
            "evolve.traj_cache.s": total["evolve.write_traj_cache"] + total["evolve.read_traj_cache"],
            "evolve.solve_ivp.calls": calls["evolve.solve_ivp"],
            "evolve.solve_ivp.steps": counts["evolve.solve_ivp.steps"],
            "evolve.solve_ivp.self_s": own["evolve.solve_ivp"],
            "evolve.solve_blowups": counts["evolve.solve_ivp.blowup"],
            "evolve.escapes": counts["evolve.solve_ivp.escape"],
        })
        fits = calls["fit.fit_initial"]
        m.update({
            "fit.fit_initial.calls": fits,
            "fit.fit_initial.steps": counts["fit.fit_initial.steps"],
            "fit.fit_initial.self_s": own["fit.fit_initial"],
            "fit.target_reached_frac": counts["fit.fit_initial.reached"] / fits if fits else math.nan,
            "reference.solve_allen_cahn_imex.calls": calls["reference.solve_allen_cahn_imex"],
            "reference.solve_allen_cahn_imex.s": total["reference.solve_allen_cahn_imex"],
            "reference.error_curve.calls": calls["reference.error_curve"],
            "reference.error_curve.self_s": own["reference.error_curve"],
            "reference.eval_reference.s": total["reference.eval_reference"],
            "trace.spans": len(self.spans),
        })
        coverage = {
            "assemble_at_calls": calls["assembly.assemble_at"],
            "assemble_at_expected": result["gram"]["computed"]
            + result["traj"]["pairs"]
            + counts["assemble_at_raised_in_traj"],
            "solve_ivp_calls": calls["evolve.solve_ivp"],
            "solve_ivp_expected": result["anchors"],
        }
        return {"metrics": m, "coverage": coverage}
