#!/usr/bin/env python3
"""Run the transport_1d preset end to end: scripts/run_preset.py with
--config configs/transport_1d.json as defaults.

Any flag given on the command line overrides the default.

    python scripts/run_transport_1d.py --out out/transport_1d --seed 1
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import run_preset

PRESET = os.path.join(os.path.dirname(__file__), "..", "configs", "transport_1d.json")


def main(argv=None) -> int:
    return run_preset.main(["--config", PRESET, *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
