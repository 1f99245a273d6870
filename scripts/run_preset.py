#!/usr/bin/env python3
"""Run a preset end to end through the pdecontrol CLI.

The stage order: fit-initial, sample-gram, gen-trajectories, train-control
(every stage of the config's train.schedule), then for each evaluated anchor
solve, reference, eval and, on a 2-D problem, export-slice at the horizon,
and last verify. The run stops at the first command that fails and exits
with its code, so a failed verify is exit 5.

    python scripts/run_preset.py --config configs/heat_fourier_1d.json
    python scripts/run_preset.py --config configs/allen_cahn_2d.json --eval-anchors 5
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pdecontrol import cli
from pdecontrol.config import load_config
from pdecontrol.errors import ConfigError


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="path to the preset's run-config JSON")
    ap.add_argument("--out", default=None, help="output directory (default: out/<config name>)")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--eval-anchors", type=int, default=None,
                    help="solve and evaluate anchors 0..N-1 (default: every anchor, initials.count)")
    args = ap.parse_args(argv)

    out = args.out or os.path.join("out", os.path.splitext(os.path.basename(args.config))[0])
    common = ["--config", args.config, "--out", out]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    try:
        cfg = load_config(args.config, out_dir=out, seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    count = cfg.raw["initials"]["count"]
    n_eval = count if args.eval_anchors is None else args.eval_anchors
    if not 1 <= n_eval <= count:
        print(f"config error: --eval-anchors must lie in 1..{count} (initials.count), got {n_eval}", file=sys.stderr)
        return cli.EXIT_CONFIG

    commands = [["fit-initial"], ["sample-gram"], ["gen-trajectories"], ["train-control"]]
    for k in range(n_eval):
        anchor = ["--anchor", str(k)]
        commands += [["solve", *anchor], ["reference", *anchor], ["eval", *anchor]]
        if cfg.rom_arch.input_dim == 2:
            commands.append(["export-slice", *anchor, "--time", repr(cfg.raw["problem"]["horizon"])])
    commands.append(["verify"])
    for command in commands:
        print(f"== {' '.join(command)}", flush=True)
        code = cli.main([*command, *common])
        if code != cli.EXIT_OK:
            return code
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
