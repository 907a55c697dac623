"""Command-line interface.

Four subcommands cover the common workflows:

``evolve``
    Correlation measures along one trajectory, written as CSV.
``sweep``
    A named figure-style parameter sweep, written as CSV.
``zeros``
    Vanishing times of the decay amplitude factor.
``verify``
    Self-checks; ``--level full`` adds the long acceptance battery.

Exit codes: 0 on success, 1 when verification fails, 2 on usage errors
(including invalid parameter values and unreadable/unwritable paths).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .reservoir import ReservoirParams, chi_zeros
from .scenarios import Family, StateFamily, build_state
from .states import DensityMatrix, Qubit
from .sweep import (
    CSV_COLUMNS,
    _replace_file,
    PRESET_IDS,
    figure_preset,
    format_csv_rows,
    run_sweep,
    trajectory_from_state,
    uniform_grid,
)
from .verification import format_report, run_verification

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_USAGE = 2


def load_raw_state(text: str) -> DensityMatrix:
    """Parse a 4x4 density matrix from 32 whitespace-separated reals.

    Entries are row-major with real and imaginary parts interleaved:
    ``re(m[0,0]) im(m[0,0]) re(m[0,1]) im(m[0,1]) ...``.
    """
    values = [float(tok) for tok in text.split()]
    if len(values) != 32:
        raise ValueError(
            "expected 32 reals (row-major, re/im interleaved), "
            f"got {len(values)}"
        )
    flat = np.asarray(values, dtype=float).reshape(4, 4, 2)
    return DensityMatrix(flat[..., 0] + 1j * flat[..., 1])


def _write_lines(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        _replace_file(Path(output), [text])


def _cmd_evolve(args: argparse.Namespace) -> int:
    params = ReservoirParams(lambda_ratio=args.lambda_ratio)
    t_grid = uniform_grid(args.tmax, args.steps)
    measured = Qubit(args.measure)
    if args.raw_state is not None:
        rho0 = load_raw_state(Path(args.raw_state).read_text())
        alpha_sq = r = float("nan")
    else:
        family = Family.PSI if args.state is None else Family(args.state)
        alpha_sq = 0.5 if args.alpha2 is None else args.alpha2
        r = 1.0 if args.r is None else args.r
        rho0 = build_state(StateFamily(family, alpha_sq, r))
    traj = trajectory_from_state(rho0, params, t_grid, measured)
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(format_csv_rows(traj, alpha_sq, r, params))
    _write_lines(lines, args.output)
    return _EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    measured = None if args.measure is None else Qubit(args.measure)
    config = figure_preset(args.preset).resized(args.grid, args.steps, args.tmax, measured)
    path = run_sweep(config, args.output)
    print(f"wrote {path}")
    return _EXIT_OK


def _cmd_zeros(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    params = ReservoirParams(lambda_ratio=args.lambda_ratio)
    times = chi_zeros(params, args.count)
    _write_lines([format(t, ".17g") for t in times], args.output)
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(args.level)
    print(format_report(results))
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_VERIFY_FAILED


def _add_trajectory_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--lambda-ratio",
        type=float,
        default=0.1,
        help="reservoir linewidth over coupling strength (default 0.1)",
    )
    sub.add_argument(
        "--tmax",
        type=float,
        default=25.0,
        help="trajectory horizon in units of inverse coupling (default 25)",
    )
    sub.add_argument(
        "--steps",
        type=int,
        default=1001,
        help="number of time samples, endpoints included (default 1001)",
    )
    sub.add_argument(
        "--measure",
        choices=("A", "B"),
        default="B",
        help="which qubit the classical-correlation probe measures (default B)",
    )
    sub.add_argument(
        "--output",
        metavar="PATH",
        help="write CSV here instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discordsim",
        description=(
            "Exact dynamics of entanglement and discord for two qubits in "
            "independent zero-temperature Lorentzian reservoirs."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    evolve = subs.add_parser(
        "evolve",
        help="correlation measures along one trajectory, as CSV",
        description=(
            "Evolve one two-qubit state and report concurrence, mutual "
            "information, classical correlation, and discord at each time."
        ),
    )
    evolve.add_argument(
        "--state",
        choices=tuple(f.value for f in Family),
        default=None,
        help="initial pure-state family (default psi)",
    )
    evolve.add_argument(
        "--alpha2",
        type=float,
        default=None,
        help="excited-amplitude weight of the pure part, in [0, 1] (default 0.5)",
    )
    evolve.add_argument(
        "--r",
        type=float,
        default=None,
        help="pure-state fraction mixed with white noise, in [0, 1] (default 1)",
    )
    evolve.add_argument(
        "--raw-state",
        metavar="PATH",
        default=None,
        help=(
            "read the initial density matrix from PATH: 32 whitespace-"
            "separated reals, row-major, re/im interleaved (excludes "
            "--state/--alpha2/--r)"
        ),
    )
    _add_trajectory_args(evolve)

    sweep = subs.add_parser(
        "sweep",
        help="run a named figure-style parameter sweep, as CSV",
        description=(
            "Run one of the prepackaged parameter sweeps and write its CSV. "
            "Optional flags override the preset's resolution."
        ),
    )
    sweep.add_argument(
        "--preset",
        required=True,
        choices=PRESET_IDS,
        help="sweep name",
    )
    sweep.add_argument(
        "--output",
        required=True,
        metavar="PATH",
        help="CSV destination",
    )
    sweep.add_argument(
        "--grid",
        type=int,
        default=None,
        help="override the number of swept-axis points",
    )
    sweep.add_argument(
        "--steps",
        type=int,
        default=None,
        help="override the number of time samples",
    )
    sweep.add_argument(
        "--tmax",
        type=float,
        default=None,
        help="override the trajectory horizon",
    )
    sweep.add_argument(
        "--measure",
        choices=("A", "B"),
        default=None,
        help="override which qubit the classical-correlation probe measures",
    )

    zeros = subs.add_parser(
        "zeros",
        help="vanishing times of the decay amplitude factor",
        description=(
            "Print the first few times where the decay amplitude factor "
            "crosses zero (strong-memory regime only)."
        ),
    )
    zeros.add_argument(
        "--lambda-ratio",
        type=float,
        required=True,
        help="reservoir linewidth over coupling strength",
    )
    zeros.add_argument(
        "--count",
        type=int,
        default=2,
        help="how many vanishing times to print (default 2)",
    )
    zeros.add_argument(
        "--output",
        metavar="PATH",
        help="write the times here instead of stdout",
    )

    verify = subs.add_parser(
        "verify",
        help="run self-checks",
        description=(
            "Run the self-check battery; fast structural checks by default, "
            "plus the long numerical acceptance battery with --level full."
        ),
    )
    verify.add_argument(
        "--level",
        choices=("quick", "full"),
        default="quick",
        help="quick: fast checks only; full: adds the long battery",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "evolve" and args.raw_state is not None:
        if any(v is not None for v in (args.state, args.alpha2, args.r)):
            parser.error("--raw-state excludes --state/--alpha2/--r")

    handlers = {
        "evolve": _cmd_evolve,
        "sweep": _cmd_sweep,
        "zeros": _cmd_zeros,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
