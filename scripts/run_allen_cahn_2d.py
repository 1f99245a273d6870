#!/usr/bin/env python3
"""End-to-end 2-D Allen-Cahn experiment.

Mirrors configs/allen_cahn_2d.json: fit Chebyshev anchors, build the
anchor-ball parameter space, assemble the projection cache, generate
Gram-march trajectories, train with a trajectory warmup plus joint stages,
then solve/evaluate against freshly computed IMEX references and write the
verify report.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pdecontrol import pipeline
from pdecontrol.config import load_config

WARMUP = [(1e-2, 1000), (1e-3, 800)]
JOINT = [(3e-4, 4000), (1e-4, 6000)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..", "configs", "allen_cahn_2d.json"))
    ap.add_argument("--out", default="out/allen_cahn_2d")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--eval-anchors", type=int, default=5)
    args = ap.parse_args()

    cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    print("fitting anchors...")
    pipeline.cmd_fit_initial(cfg)
    print("generating trajectories...")
    print(pipeline.cmd_gen_trajectories(cfg))
    print("assembling projection cache...")
    print(pipeline.cmd_sample_gram(cfg))
    resume = False
    for lr, steps in WARMUP:
        stats = pipeline.cmd_train_control(
            cfg, resume=resume, pairs_only=True,
            train_overrides={"lr": lr, "max_steps": steps, "batch_size": 0},
        )
        resume = True
        print(f"warmup lr={lr:g}: l_total={stats['final_loss']:.3e}")
    for lr, steps in JOINT:
        stats = pipeline.cmd_train_control(cfg, resume=True, train_overrides={"lr": lr, "max_steps": steps})
        print(f"joint lr={lr:g}: l_total={stats['final_loss']:.3e}")
    for k in range(args.eval_anchors):
        pipeline.cmd_solve(cfg, anchor_index=k)
        pipeline.cmd_reference(cfg, anchor_index=k)
        stats = pipeline.cmd_eval(cfg, anchor_index=k)
        print(f"anchor {k}: max rel err {stats['rel_err_max']:.4f}")
        pipeline.cmd_export_slice(cfg, anchor_index=k, t=cfg.problem.horizon)
    report = pipeline.cmd_verify(cfg)
    print(f"verify: {'passed' if report['totals']['passed'] else 'FAILED'} -> {report['path']}")


if __name__ == "__main__":
    main()
