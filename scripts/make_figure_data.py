#!/usr/bin/env python3
"""Regenerate the figure-style sweep datasets as CSV files.

Full-resolution presets evaluate ~100k trajectory points each (under a
minute on one core); pass --grid/--steps to downsample for a quick look.

Examples
--------
    python3 scripts/make_figure_data.py --outdir data
    python3 scripts/make_figure_data.py --only fig2 fig5 --grid 21 --steps 201
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from discordsim.sweep import PRESET_IDS, figure_preset, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("data"))
    parser.add_argument("--only", nargs="+", choices=PRESET_IDS, default=PRESET_IDS)
    parser.add_argument("--grid", type=int, help="override swept-axis point count")
    parser.add_argument("--steps", type=int, help="override time-sample count")
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    for preset in args.only:
        config = figure_preset(preset).resized(args.grid, args.steps)
        n_points = len(config.families) * config.axis.count * config.steps
        print(f"{preset}: {n_points} points ...", flush=True)
        start = time.monotonic()
        path = run_sweep(config, args.outdir / f"{preset}.csv")
        print(f"{preset}: wrote {path} in {time.monotonic() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
