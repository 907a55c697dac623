#!/usr/bin/env python3
"""Compare a change's CSV with the parent's under the output gate.

The gate for changes to the classical-correlation optimiser, row by row:

- the columns ``t_gamma0`` through ``mutual_info_bits`` are bit-identical;
- ``classical_corr_bits`` is at least the parent's minus 1e-12;
- ``discord_bits`` is within 1e-12 of the parent's;
- the argmax columns are not gated (the maximising basis may move on flat
  and phi-independent rows); how many rows they differ on is printed.

Prints the largest deltas and exits 0 when the gate holds, 1 when it does
not, and 2 when the files cannot be compared (other columns or row counts).

Example
-------
    discordsim sweep --preset fig2 --grid 3 --steps 101 --output change.csv
    python3 scripts/output_gate.py parent.csv change.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from discordsim import CSV_COLUMNS, read_sweep_csv

J_DROP = 1e-12  # classical_corr_bits may fall at most this far below the parent's
D_MOVE = 1e-12  # discord_bits may move at most this far from the parent's
EXACT = CSV_COLUMNS[: CSV_COLUMNS.index("mutual_info_bits") + 1]
FREE = ("argmax_theta", "argmax_phi")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()

    try:
        _, old = read_sweep_csv(args.parent)
        _, new = read_sweep_csv(args.change)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if old.shape != new.shape:
        print(f"error: {len(old)} parent rows against {len(new)} change rows", file=sys.stderr)
        return 2
    col = {name: k for k, name in enumerate(CSV_COLUMNS)}
    failures = []

    exact = [col[name] for name in EXACT]
    differs = np.any(old[:, exact].view(np.uint64) != new[:, exact].view(np.uint64), axis=1)
    print(f"rows: {len(old)}")
    print(f"{EXACT[0]} .. {EXACT[-1]}: {np.count_nonzero(differs)} rows not bit-identical")
    if differs.any():
        failures.append(f"{EXACT[0]} .. {EXACT[-1]} differ, first at row {np.flatnonzero(differs)[0]}")

    j = new[:, col["classical_corr_bits"]] - old[:, col["classical_corr_bits"]]
    d = np.abs(new[:, col["discord_bits"]] - old[:, col["discord_bits"]])
    if len(old):
        low, high, far = int(np.argmin(j)), int(np.argmax(j)), int(np.argmax(d))
        print(f"classical_corr_bits: change - parent from {j[low]:+.3g} (row {low}) to {j[high]:+.3g} "
              f"(row {high}); bound {-J_DROP:+.0e}")
        print(f"discord_bits: max |change - parent| {d[far]:.3g} (row {far}); bound {D_MOVE:.0e}")
    if (j < -J_DROP).any():
        failures.append(f"classical_corr_bits below the parent's - {J_DROP:.0e} "
                        f"on {np.count_nonzero(j < -J_DROP)} rows")
    if (d > D_MOVE).any():
        failures.append(f"discord_bits beyond {D_MOVE:.0e} of the parent's on {np.count_nonzero(d > D_MOVE)} rows")

    free = [col[name] for name in FREE]
    moved = np.any(old[:, free].view(np.uint64) != new[:, free].view(np.uint64), axis=1)
    print(f"{', '.join(FREE)} (not gated): {np.count_nonzero(moved)} rows differ")

    for message in failures:
        print(f"FAIL: {message}")
    print("output gate: " + ("fail" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
