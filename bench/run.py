"""discordsim benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The set-up probes and the workload
each run in a fresh interpreter that imports discordsim from ``src``; BLAS
and OpenMP pools are limited to the CPUs this process may use.  Operation
times, setup_s included, are reference seconds (see ``calibration.py``):
wall time scaled by the host speed measured around and during each call;
the wall figures are printed too.  With
``--trace 0`` the last stdout line reports setup_s, points_per_s,
traj_p50_ms, traj_p90_ms and peak_rss_mb; with ``--trace 1`` it reports the
per-layer metrics of a traced replay of the same operations, plus import
times and the tracing overhead.  Earlier lines give the sample counts.
Every run checks every output row (see ``oracle.py``); an operation fails
if it raises or if any of its rows fails a check.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5  # the median also absorbs a first probe that compiles bytecode

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "traj_p50_ms": "ms",
    "traj_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# setup.import.<key>_s: cumulative import time of the module, from -X importtime.
# "cli" is all of ``import discordsim.cli``, the package's own import included.
IMPORTS = {
    "discordsim": "discordsim",
    "cli": "discordsim.cli",
    "reservoir": "discordsim.reservoir",
    "scenarios": "discordsim.scenarios",
    "states": "discordsim.states",
    "linalg": "discordsim.linalg",
    "correlations": "discordsim.correlations",
    "sweep": "discordsim.sweep",
    "verification": "discordsim.verification",
    "numpy": "numpy",
    "scipy.optimize": "scipy.optimize",
    "scipy.signal": "scipy.signal",
}


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = threads
    return env


def parse_importtime(text):
    cumulative = {}
    for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", text, re.M):
        cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return cumulative


def setup_probe(env, importtime):
    """(reference seconds, wall seconds, import times) from process start to ``ready``.

    The probe's wall time, less its calibration bursts, is scaled by the
    host speed that the bursts measured inside the probe while it set up.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src")]
    if importtime:
        cmd[1:1] = ["-X", "importtime"]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        return None, None, parse_importtime(proc.stderr)
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed")
    probe = json.loads(rest)
    return (wall - probe["spent_s"]) * probe["scale"], wall, {}


def run_worker(args, env):
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--toy"] if args.toy else [])
    # No timeout: the worker must finish its minimum of operations, and a slow
    # program should report its slowness, not a crash.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile_90(samples):
    return statistics.quantiles(samples, n=10, method="inclusive")[-1] if len(samples) > 1 else samples[0]


def end_to_end(probes, report):
    ops = report["op_seconds"]
    per_traj = [s / n for s, n in zip(ops, report["op_trajectories"])]
    n = len(per_traj)
    beyond = sum(1 for x in per_traj if x > percentile_90(per_traj))
    metrics = {
        "setup_s": statistics.median(p[0] for p in probes),
        "points_per_s": sum(report["op_points"]) / sum(ops),
        "traj_p50_ms": 1e3 * statistics.median(per_traj),
        "traj_p90_ms": 1e3 * percentile_90(per_traj),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    wall = sum(report["op_wall_seconds"])
    notes = {
        "setup_s": f"median of {len(probes)} fresh processes; wall {statistics.median(p[1] for p in probes):.4g} s",
        "points_per_s": (
            f"{sum(report['op_points'])} points in {sum(ops):.2f} reference s of {len(ops)} operations; "
            f"wall {wall:.2f} s, {sum(report['op_points']) / wall:.4g} points/s"
        ),
        "traj_p50_ms": f"n={n} trajectory samples",
        "traj_p90_ms": f"n={n} trajectory samples, {beyond} beyond",
        "peak_rss_mb": "workload process",
    }
    if sum(report["op_trajectories"]) != n:
        for key in ("traj_p50_ms", "traj_p90_ms"):
            notes[key] += f", each an operation's time over its {report['op_trajectories'][0]} trajectories"
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # On SIGTERM, exit through Python so that subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "discordsim" / "__init__.py").is_file():
        print(f"error: no discordsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    probes = [setup_probe(env, bool(args.trace)) for _ in range(1 if args.toy else SETUP_RUNS)]
    report = run_worker(args, env)

    print(
        f"{args.workload} seed={args.seed}: {len(report['op_seconds'])} operations, "
        f"{sum(report['op_trajectories'])} trajectories, {report['attempted']} checked, "
        f"{report['failed']} failed"
    )
    print(f"host speed: median calibration burst {1e3 * report['burst_median_s']:.4g} ms, reference {1e3 * REFERENCE_S:.4g} ms")
    for message in report["failures"]:
        print(f"  failure: {message.strip()}")
    if args.trace:
        layers = {
            f"setup.import.{key}_s": (statistics.median(p[2].get(mod, 0.0) for p in probes), "s")
            for key, mod in IMPORTS.items()
        }
        layers.update(report["layers"])
        metrics = {name: value for name, (value, _) in layers.items()}
        units = {name: unit for name, (_, unit) in layers.items()}
        info = report["trace_info"]
        notes = {name: "" for name in metrics}
        print(
            f"traced replay: {info['points']} points, {info['spans']} spans; counts over the first "
            f"{info['prefix_ops']} operations ({info['prefix_points']} points); "
            f"refine_useful {info['refine_useful']}; wrapped {', '.join(report['wrapped'])}"
        )
    else:
        metrics, notes = end_to_end(probes, report)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]:12s} {notes[name]}")
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
