#!/usr/bin/env python3
"""End-to-end 1-D heat experiment with the orthonormal sine basis.

Runs the full workflow against configs/heat_fourier_1d.json: fit anchors,
assemble the exact-quadrature projection cache, generate trajectories, train
the control field in annealed stages, then solve and evaluate every anchor
and write the verify report.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pdecontrol import pipeline
from pdecontrol.config import load_config

STAGES = [(1e-2, 3000), (3e-3, 3000), (1e-3, 5000), (3e-4, 8000), (1e-4, 8000), (3e-5, 3000)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..", "configs", "heat_fourier_1d.json"))
    ap.add_argument("--out", default="out/heat_fourier_1d")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    print("fitting anchors...")
    pipeline.cmd_fit_initial(cfg)
    print("assembling projection cache...")
    print(pipeline.cmd_sample_gram(cfg))
    print("generating trajectories...")
    print(pipeline.cmd_gen_trajectories(cfg))
    for i, (lr, steps) in enumerate(STAGES):
        stats = pipeline.cmd_train_control(
            cfg, resume=(i > 0), train_overrides={"lr": lr, "max_steps": steps}
        )
        print(f"stage lr={lr:g}: final l_total={stats['final_loss']:.3e}")
    for k in range(cfg.raw["initials"]["count"]):
        pipeline.cmd_solve(cfg, anchor_index=k)
        stats = pipeline.cmd_eval(cfg, anchor_index=k)
        print(f"anchor {k}: max rel err {stats['rel_err_max']:.4f} -> {stats['path']}")
    report = pipeline.cmd_verify(cfg)
    print(f"verify: {'passed' if report['totals']['passed'] else 'FAILED'} -> {report['path']}")


if __name__ == "__main__":
    main()
