#!/usr/bin/env python3
"""End-to-end 1-D transport experiment with the periodic ReLU model.

The workflow mirrors configs/transport_1d.json: sample the projection cache
over the box, train the control field on it in annealed stages, then solve
and evaluate fresh random initial parameters against the shifted truth,
then write the verify report. The preset generates no trajectories
(counts.n_traj = 0, train.zeta = 0), so training uses the projection loss
alone and there is no trajectory warmup.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pdecontrol import pipeline
from pdecontrol.config import load_config

STAGES = [(3e-4, 3000), (1e-4, 3000)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..", "configs", "transport_1d.json"))
    ap.add_argument("--out", default="out/transport_1d")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    cfg = load_config(args.config, out_dir=args.out, seed=args.seed)
    print("materializing test initials as anchors...")
    pipeline.cmd_fit_initial(cfg)
    print("assembling projection cache...")
    print(pipeline.cmd_sample_gram(cfg))
    print("generating trajectories...")
    print(pipeline.cmd_gen_trajectories(cfg))
    for i, (lr, steps) in enumerate(STAGES):
        stats = pipeline.cmd_train_control(
            cfg, resume=(i > 0), train_overrides={"lr": lr, "max_steps": steps}
        )
        print(f"stage lr={lr:g}: l_total={stats['final_loss']:.3e}")
    for k in range(cfg.raw["initials"]["count"]):
        pipeline.cmd_solve(cfg, anchor_index=k)
        stats = pipeline.cmd_eval(cfg, anchor_index=k)
        print(f"anchor {k}: max rel err {stats['rel_err_max']:.4f}")
    report = pipeline.cmd_verify(cfg)
    print(f"verify: {'passed' if report['totals']['passed'] else 'FAILED'} -> {report['path']}")


if __name__ == "__main__":
    main()
