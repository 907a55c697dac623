"""One workload in a fresh process: warm up, time, optionally trace, check.

Started by ``run.py`` with the checkout's ``src`` directory as the only
place discordsim may be imported from.  Prints one JSON object as its last
stdout line.  The caller is a closed loop: one operation at a time, the next
one starting when the previous returned.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import calibration
import oracle
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
ORACLE_SAMPLES = 12  # classical-correlation oracle points per run, ~35 ms each


def import_checkout():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import discordsim
    import discordsim.sweep

    if not Path(discordsim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"discordsim imported from {discordsim.__file__}, not from {src}")
    return discordsim


def run_ops(workload, specs, sampler, tracer=None):
    """Run each spec once; per op (reference seconds, wall seconds, checkable output or None, error or None)."""
    results = []
    for i, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = i
        ref, wall, result, error = sampler.time(workload.run, spec)
        if error is None:
            output = workload.collect(spec, result)
        else:
            output, error = None, "".join(traceback.format_exception(error, limit=3))
        results.append((ref, wall, output, error))
    return results


def timed_window(workload, seconds, sampler):
    """Closed loop over the seeded stream for at least ``seconds`` and ``min_ops`` operations."""
    specs, results = [], []
    start = time.perf_counter()
    for spec in workload.specs():
        specs.append(spec)
        results.extend(run_ops(workload, [spec], sampler))
        if time.perf_counter() - start >= seconds and len(specs) >= workload.min_ops:
            return specs, results


def check_all(workload, specs, results, seed):
    """(trajectories attempted, trajectories failed, first failure messages)."""
    attempted = failed = 0
    messages, outcomes = [], []
    for spec, (_, _, output, error) in zip(specs, results):
        n = workload.trajectories(spec)
        attempted += n
        if error is not None:
            failed += n
            messages.append(error)
            continue
        try:
            outcomes.append(workload.check(spec, output))
        except Exception:
            failed += n
            messages.append("check raised: " + traceback.format_exc(limit=3))
    pool = [(o, c) for o in outcomes for c in o.candidates]
    rng = np.random.default_rng([seed, 7])
    n_sample = min(2 if workload.toy else ORACLE_SAMPLES, len(pool))
    for idx in rng.choice(len(pool), size=n_sample, replace=False):
        outcome, (k, rho0, lam, t, j, measured) = pool[idx]
        outcome.fails[k].extend(oracle.check_classical(workload.ds, rho0, lam, t, j, measured))
    for outcome in outcomes:
        for fails in outcome.fails:
            if fails:
                failed += 1
                messages.extend(fails)
    return attempted, failed, messages[:5]


def layer_metrics(tracer, workload, specs, untraced, traced):
    """Per-layer numbers of one traced replay.

    Returns ({name: (value, unit)}, notes).  Times are self reference
    seconds per trajectory point over the whole replay, scaled by the
    replay's mean calibration factor.
    Counts are per point over the first ``min_ops`` operations, which every
    run completes, so for one seed they repeat exactly from run to run.
    """
    points = sum(workload.points(s) for s in specs)
    n_prefix = min(workload.min_ops, len(specs))
    prefix_points = sum(workload.points(s) for s in specs[:n_prefix])
    every = tracing.layer_stats(tracer.spans)
    traced_s = sum(r[0] for r in traced)
    untraced_s = sum(r[0] for r in untraced)
    to_reference = traced_s / sum(r[1] for r in traced)
    prefix = tracing.layer_stats(tracer.spans, op_limit=n_prefix)
    empty = {"calls": 0, "self_s": 0.0, "info": []}

    def self_s(name):
        return every.get(name, empty)["self_s"] * to_reference / points

    def calls(name):
        return prefix.get(name, empty)["calls"] / prefix_points

    refines = prefix.get("correlations.classical.refine", empty)["info"]
    useful, starts = tracing.refine_usefulness(refines)
    written = sum(n for _, n in prefix.get("sweep.csv.write", empty)["info"])
    classical_s = self_s("correlations.classical") + self_s("correlations.classical.refine")
    per_point, count, ratio = "s/point", "count/point", "ratio"
    return {
        "reservoir.chi.calls": (calls("reservoir.chi"), count),
        "reservoir.chi.self_s": (self_s("reservoir.chi"), per_point),
        "scenarios.build_state.self_s": (self_s("scenarios.build_state"), per_point),
        "states.channel.calls": (calls("states.channel"), count),
        "states.channel.self_s": (self_s("states.channel"), per_point),
        "states.partial_trace.calls": (calls("states.partial_trace"), count),
        "states.validate.calls": (calls("states.validate"), count),
        "linalg.eigh.calls": (calls("linalg.eigh"), count),
        "linalg.eigh.self_s": (self_s("linalg.eigh"), per_point),
        "correlations.concurrence.self_s": (self_s("correlations.concurrence"), per_point),
        "correlations.mutual_info.self_s": (self_s("correlations.mutual_info"), per_point),
        "correlations.classical.self_s": (self_s("correlations.classical"), per_point),
        "correlations.classical.refine_s": (self_s("correlations.classical.refine"), per_point),
        "correlations.classical.nfev": (sum(info[2] for _, info in refines) / prefix_points, count),
        "correlations.classical.refine_starts": (starts / prefix_points, count),
        "correlations.classical.refine_useful": (useful / starts if starts else 0.0, ratio),
        "correlations.classical.share": (classical_s * points / traced_s, ratio),
        "sweep.trajectory.self_s": (self_s("sweep.trajectory"), per_point),
        "sweep.csv.format_self_s": (self_s("sweep.csv.format"), per_point),
        "sweep.csv.write_s": (self_s("sweep.csv.write"), per_point),
        "sweep.csv.bytes": (written / prefix_points, "B/point"),
        "sweep.detect.self_s": (self_s("sweep.detect"), per_point),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": ((traced_s - untraced_s) / untraced_s, ratio),
    }, {
        "points": points,
        "prefix_ops": n_prefix,
        "prefix_points": prefix_points,
        "refine_useful": f"{useful}/{starts}",
        "spans": len(tracer.spans),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    ds = import_checkout()
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    make = WORKLOADS[args.workload]
    # Warm-up: one toy-sized operation through every code path of the workload.
    sampler = calibration.Sampler()
    warm = make(ds, args.seed, True, workdir)
    run_ops(warm, [next(iter(warm.specs()))], sampler)

    workload = make(ds, args.seed, args.toy, workdir)
    specs, results = timed_window(workload, args.seconds, sampler)
    report = {
        "op_seconds": [r[0] for r in results],
        "op_wall_seconds": [r[1] for r in results],
        "op_trajectories": [workload.trajectories(s) for s in specs],
        "op_points": [workload.points(s) for s in specs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "burst_median_s": statistics.median(sampler.bursts),
    }
    checked_specs, checked_results = specs, results
    if args.trace:
        tracer = tracing.Tracer(sampler.clock)
        report["wrapped"] = sorted(tracer.instrument())
        try:
            traced = run_ops(workload, specs, sampler, tracer)
        finally:
            tracer.uninstrument()
        tracer.write(workdir / "trace" / f"{args.workload}-seed{args.seed}.csv")
        report["layers"], report["trace_info"] = layer_metrics(tracer, workload, specs, results, traced)
        checked_specs, checked_results = specs + specs, results + traced
    report["attempted"], report["failed"], report["failures"] = check_all(
        workload, checked_specs, checked_results, args.seed
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
