#!/usr/bin/env python3
"""Summarize a sweep CSV: sudden-death times, discord zeros, revivals.

Reads a file produced by `discordsim sweep` (or make_figure_data.py),
groups rows into trajectories, and prints one line per trajectory with
the entanglement death time (if any), the detected discord-zero times,
and the post-zero revival amplitude.

Example
-------
    python3 scripts/summarize_features.py data/fig2.csv
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from discordsim import (
    NoRevivalError,
    detect_discord_zeros,
    detect_esd,
    read_sweep_csv,
    revival_amplitude,
    trajectory_from_csv_rows,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", type=Path)
    args = parser.parse_args()

    _, data = read_sweep_csv(args.csv)
    # one trajectory = one run of identical (alpha_sq, r, lambda_ratio);
    # NaNs (raw-state trajectories) compare equal via their bit pattern
    keys = data[:, 1:4]
    boundaries = [
        i
        for i in range(len(data))
        if i == 0 or not np.array_equal(keys[i], keys[i - 1], equal_nan=True)
    ] + [len(data)]

    print(f"{'alpha_sq':>10} {'r':>6} {'lam':>6}  {'death':>8}  zeros / revival")
    for lo, hi in zip(boundaries, boundaries[1:]):
        traj = trajectory_from_csv_rows(data[lo:hi])
        alpha_sq, r, lam = data[lo, 1:4]
        report = detect_esd(traj)
        zeros = detect_discord_zeros(traj)
        try:
            revival = f"revival {revival_amplitude(traj):.4f} bits"
        except NoRevivalError:
            revival = "no revival"
        death = "-" if report.esd_time is None else f"{report.esd_time:.3f}"
        zeros_text = ", ".join(f"{z:.3f}" for z in zeros) or "none"
        print(
            f"{alpha_sq:>10.4f} {r:>6.3f} {lam:>6.3f}  {death:>8}  "
            f"[{zeros_text}] / {revival}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
