"""Fast self-test of the benchmark (about a minute): python3 bench/selftest.py

Checks, at toy size, that every workload runs in both modes and prints each
metric of BENCHMARK.json with its unit; that the output checks reject a
corrupted row; that a second seed changes the seeded inputs; and that the
benchmark fails without a result where there are no discordsim sources.
Exits 1 with the failed checks listed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibration
import worker
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_runs(problems):
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: not correct:\n{proc.stdout[-1500:]}")
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics/units differ: {sorted(set(got.items()) ^ set(expected.items()))}")


def first_output(workload, sampler):
    spec = next(iter(workload.specs()))
    (_, _, output, error), = worker.run_ops(workload, [spec], sampler)
    assert error is None, error
    return spec, output


def corrupt(text, row, column, delta):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def check_corruption(problems, ds, workdir, sampler):
    for name in ("fig2-sweep", "raw-general"):
        wl = WORKLOADS[name](ds, 3, True, workdir)
        spec, text = first_output(wl, sampler)
        if any(wl.check(spec, text).fails[0]):
            problems.append(f"{name}: clean output fails the check")
        columns = list(ds.CSV_COLUMNS)
        for column, delta in (("discord_bits", 1e-6), ("concurrence", 1e-7), ("mutual_info_bits", 1e-9)):
            bad = corrupt(text, 2, columns.index(column), delta)
            if not any(wl.check(spec, bad).fails[0]):
                problems.append(f"{name}: {column} + {delta} on one row passes the check")
        bad_header = text.replace("discord_bits", "discord", 1)
        if not any(wl.check(spec, bad_header).fails[0]):
            problems.append(f"{name}: a renamed header column passes the check")
    wl = WORKLOADS["feature-scan"](ds, 3, True, workdir)
    spec, (records, esd, zeros, revival) = first_output(wl, sampler)
    rec = records[1]
    records[1] = type(rec)(rec.t, rec.concurrence, rec.mutual_info + 1e-9, rec.classical_corr,
                           rec.discord + 1e-9, rec.argmax_basis)
    if not any(wl.check(spec, (records, esd, zeros, revival)).fails[0]):
        problems.append("feature-scan: mutual information + 1e-9 on one record passes the check")


def check_seeds(problems, ds, workdir):
    def inputs(name, seed):
        specs = WORKLOADS[name](ds, seed, False, workdir).specs()
        return [
            np.concatenate([np.ravel(x) for x in spec if isinstance(x, (float, np.ndarray))])
            for spec, _ in zip(specs, range(4))
        ]

    for name in ("raw-general", "feature-scan"):
        a, b, c = inputs(name, 1), inputs(name, 1), inputs(name, 2)
        if not all(np.array_equal(x, y) for x, y in zip(a, b)):
            problems.append(f"{name}: one seed gives different inputs")
        if any(np.array_equal(x, y) for x, y in zip(a, c)):
            problems.append(f"{name}: a second seed leaves inputs unchanged")


def check_no_sources(problems, workdir):
    bare = workdir / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(bare, "fig2-sweep", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main():
    ds = worker.import_checkout()
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    problems = []
    check_corruption(problems, ds, workdir, calibration.Sampler())
    check_seeds(problems, ds, workdir)
    check_no_sources(problems, workdir)
    check_runs(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
