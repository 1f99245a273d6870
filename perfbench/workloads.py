"""The three benchmark workloads: reduced shipped presets plus a stage plan.

Each workload starts from a preset in ``configs/``, shrinks it with
``overrides`` and fixes the order of the ``pipeline.cmd_*`` calls. The seed
of a run is written into the generated config file; the program never sees
``--set`` overrides.
"""

from __future__ import annotations

import json
import os

# "train_stages" entries are (lr, max_steps, pairs_only, batch_size), with
# batch_size None keeping the config's value; stages after the first resume.
# "eval_n_x" is the Monte-Carlo sample size of cmd_eval. Anchor counts and
# eval sizes are set so that the fit + solve and the eval stages each take
# over a second: shorter stages are mostly the host's sub-second jitter.
WORKLOADS = {
    # Big MC records (m=67, n_x=256): cache encode and decode dominate field_s.
    # Random-theta initials need no fit, so ic_per_s is pure RK4 solving with
    # batch-1 control-net calls; fit and linalg do no work here.
    "transport1d": {
        "preset": "transport_1d.json",
        "overrides": {
            "counts": {"n_theta": 300, "n_x": 256, "n_traj": 0},
            "initials": {"count": 12},
            "solve": {"n_steps": 200},
        },
        "train_stages": [(1e-3, 60, False, None)],
        "eval_anchors": 12,
        "eval_n_x": 8192,
        "imex": None,
    },
    # Linear sine basis with Gauss quadrature: per-record ROM and assembly
    # work is nearly free, while the 136k-parameter control net, Adam and the
    # resumed lr stages (re-read cache, rewrite checkpoint) dominate field_s.
    # The ADAM fit of a linear problem is about half of ic_per_s; the
    # closed-form series makes rel_err_max an accuracy oracle.
    "heat1d": {
        "preset": "heat_fourier_1d.json",
        "overrides": {
            "counts": {"n_theta": 256, "n_traj": 4, "n_t": 25},
            # a target no fit reaches: every seed runs the same 2000 ADAM steps
            "initials": {"count": 6, "eps0_target": 1e-15, "fit": {"max_steps": 2000}},
        },
        "train_stages": [(1e-2, 25, False, None), (3e-3, 25, False, None), (1e-3, 25, False, None)],
        "eval_anchors": 6,
        "eval_n_x": 12288,
        "imex": None,
    },
    # The only Laplacian-through-a-net ROM path; the Gram march
    # (linalg.ridge_solve) and the Chebyshev ADAM fits do real work, and the
    # IMEX reference dominates eval_s.
    "allen_cahn2d": {
        "preset": "allen_cahn_2d.json",
        "overrides": {
            "counts": {"n_theta": 150, "n_x": 256, "n_traj": 4, "n_t": 20},
            "initials": {"count": 8, "fit": {"lr": 0.01, "max_steps": 150}},
        },
        "train_stages": [(1e-2, 50, True, 0), (1e-3, 50, False, None)],
        "eval_anchors": 3,
        "eval_n_x": 4096,
        "imex": {"nx": 64, "nt": 500},
    },
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def config_seed(workload: str, bench_seed: int) -> int:
    """The program seed for a benchmark seed; distinct per workload."""
    return 1_000 * bench_seed + sorted(WORKLOADS).index(workload)


def write_config(root: str, workload: str, bench_seed: int, threads: int, path: str) -> dict:
    """Generate the run config for one workload run and write it to path."""
    spec = WORKLOADS[workload]
    with open(os.path.join(root, "configs", spec["preset"])) as fh:
        doc = json.load(fh)
    doc = _deep_merge(doc, spec["overrides"])
    doc["seed"] = config_seed(workload, bench_seed)
    doc["threads"] = threads
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc
