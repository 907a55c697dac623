#!/usr/bin/env python3
"""Summarize a sweep CSV: sudden-death times, discord zeros, revivals.

Reads a file produced by `discordsim sweep` (or make_figure_data.py),
splits its rows into trajectories, a new one wherever the time does not
increase, and prints one line per trajectory with its index in the file,
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
    t = data[:, 0]
    trajectories = np.split(data, np.flatnonzero(t[1:] <= t[:-1]) + 1) if len(data) else []

    print(f"{'traj':>4} {'alpha_sq':>10} {'r':>6} {'lam':>6}  {'death':>8}  zeros / revival")
    for index, rows in enumerate(trajectories):
        traj = trajectory_from_csv_rows(rows)
        alpha_sq, r, lam = rows[0, 1:4]
        report = detect_esd(traj)
        zeros = detect_discord_zeros(traj)
        try:
            revival = f"revival {revival_amplitude(traj):.4f} bits"
        except NoRevivalError:
            revival = "no revival"
        death = "-" if report.esd_time is None else f"{report.esd_time:.3f}"
        zeros_text = ", ".join(f"{z:.3f}" for z in zeros) or "none"
        print(
            f"{index:>4} {alpha_sq:>10.4f} {r:>6.3f} {lam:>6.3f}  {death:>8}  "
            f"[{zeros_text}] / {revival}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
