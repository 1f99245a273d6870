#!/usr/bin/env python3
"""Run the allen_cahn_2d preset end to end: scripts/run_preset.py with
--config configs/allen_cahn_2d.json and --eval-anchors 5 as defaults.

Any flag given on the command line overrides the default.

    python scripts/run_allen_cahn_2d.py --out out/allen_cahn_2d --seed 1
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import run_preset

PRESET = os.path.join(os.path.dirname(__file__), "..", "configs", "allen_cahn_2d.json")


def main(argv=None) -> int:
    return run_preset.main(["--config", PRESET, "--eval-anchors", "5", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
