"""Command-line interface, exercised through real subprocesses."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from discordsim import CSV_COLUMNS, Qubit, figure_preset, read_sweep_csv, run_sweep
from discordsim import cli, verification

FIRST_ZERO = 8.242034311692072
SECOND_ZERO = 22.656649994605434


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "discordsim.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def run_script(name, *args):
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "discordsim" in proc.stdout


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_cli_import_leaves_out_scipy_signal():
    # discordsim needs only numpy at run time, and CLI start-up should not pay
    # for numpy.random (which also loads hashlib and OpenSSL) either.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, discordsim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unknown_flag_is_usage_error():
    proc = run_cli("evolve", "--bogus", "1")
    assert proc.returncode == 2


def test_zeros_frozen_values():
    proc = run_cli("zeros", "--lambda-ratio", "0.1", "--count", "2")
    assert proc.returncode == 0
    got = [float(line) for line in proc.stdout.split()]
    assert got == [FIRST_ZERO, SECOND_ZERO]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_zeros_nonpositive_count_is_usage_error(count):
    proc = run_cli("zeros", "--lambda-ratio", "0.1", "--count", count)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_zeros_markovian_is_error():
    proc = run_cli("zeros", "--lambda-ratio", "10")
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_evolve_emits_standard_columns(tmp_path):
    out = tmp_path / "traj.csv"
    proc = run_cli(
        "evolve",
        "--state", "psi",
        "--alpha2", "0.5",
        "--lambda-ratio", "0.1",
        "--tmax", "2",
        "--steps", "3",
        "--output", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    first = dict(zip(CSV_COLUMNS, (float(x) for x in lines[1].split(","))))
    assert first["t_gamma0"] == 0.0
    assert first["chi"] == 1.0
    assert first["concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert first["mutual_info_bits"] == pytest.approx(2.0, abs=1e-9)
    assert first["discord_bits"] == pytest.approx(1.0, abs=1e-4)


def test_evolve_writes_to_stdout_by_default():
    proc = run_cli("evolve", "--tmax", "1", "--steps", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_evolve_defaults_to_the_psi_bell_state():
    args = ("evolve", "--lambda-ratio", "0.5", "--tmax", "3", "--steps", "7")
    default = run_cli(*args)
    explicit = run_cli(*args, "--state", "psi", "--alpha2", "0.5", "--r", "1")
    assert default.returncode == explicit.returncode == 0
    assert default.stdout == explicit.stdout


def test_evolve_rejects_bad_alpha2():
    for args in (("--alpha2", "1.5", "--tmax", "1"), ("--tmax", "nan")):
        proc = run_cli("evolve", *args, "--steps", "2")
        assert proc.returncode == 2
        assert "error:" in proc.stderr.lower()


def test_evolve_rejects_too_wide_spectrum():
    proc = run_cli("evolve", "--lambda-ratio", "1e200", "--steps", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


@pytest.mark.parametrize("tmax, steps", [("0", "3"), ("inf", "3"), ("-1", "3"), ("1", "1")])
def test_evolve_rejects_bad_time_grid(tmax, steps):
    proc = run_cli("evolve", "--tmax", tmax, "--steps", steps)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def _write_bell_matrix(path):
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 2**-0.5
    m = np.outer(v, v.conj())
    flat = np.empty((4, 4, 2))
    flat[..., 0] = m.real
    flat[..., 1] = m.imag
    path.write_text(" ".join(format(x, ".17g") for x in flat.ravel()))


def test_evolve_raw_state(tmp_path):
    matrix_file = tmp_path / "bell.txt"
    _write_bell_matrix(matrix_file)
    proc = run_cli(
        "evolve",
        "--raw-state", str(matrix_file),
        "--lambda-ratio", "0.1",
        "--tmax", "1",
        "--steps", "2",
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    first = dict(zip(CSV_COLUMNS, (float(x) for x in lines[1].split(","))))
    assert first["mutual_info_bits"] == pytest.approx(2.0, abs=1e-9)
    assert first["concurrence"] == pytest.approx(1.0, abs=1e-9)
    assert np.isnan(first["alpha_sq"]) and np.isnan(first["r"])


def test_evolve_raw_state_excludes_family_flags(tmp_path):
    matrix_file = tmp_path / "bell.txt"
    _write_bell_matrix(matrix_file)
    proc = run_cli("evolve", "--raw-state", str(matrix_file), "--alpha2", "0.3")
    assert proc.returncode == 2


def test_evolve_raw_state_wrong_length(tmp_path):
    matrix_file = tmp_path / "short.txt"
    matrix_file.write_text(" ".join(["0.1"] * 31))
    proc = run_cli("evolve", "--raw-state", str(matrix_file))
    assert proc.returncode == 2
    assert "32" in proc.stderr


def test_evolve_raw_state_invalid_matrix(tmp_path):
    matrix_file = tmp_path / "matrix.txt"
    nan_coherence = np.eye(4, dtype=complex) / 4.0
    nan_coherence[0, 1] = nan_coherence[1, 0] = np.nan
    for m in (np.diag([1.5, 0.0, 0.0, -0.5]).astype(complex), nan_coherence):
        flat = np.empty((4, 4, 2))
        flat[..., 0] = m.real
        flat[..., 1] = m.imag
        matrix_file.write_text(" ".join(format(x, ".17g") for x in flat.ravel()))
        proc = run_cli("evolve", "--raw-state", str(matrix_file))
        assert proc.returncode == 2


def test_sweep_preset_with_overrides(tmp_path):
    out = tmp_path / "mini.csv"
    proc = run_cli(
        "sweep", "--preset", "fig2", "--grid", "3", "--steps", "3",
        "--output", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 3


def test_sweep_overrides_horizon_and_measured_qubit(tmp_path):
    out = tmp_path / "cli.csv"
    proc = run_cli(
        "sweep", "--preset", "fig2", "--grid", "3", "--steps", "21", "--tmax", "10",
        "--measure", "A", "--output", str(out),
    )
    assert proc.returncode == 0
    config = figure_preset("fig2").resized(3, 21, 10.0, Qubit.A)
    assert out.read_bytes() == run_sweep(config, tmp_path / "lib.csv").read_bytes()
    assert read_sweep_csv(out)[1][-1, 0] == 10.0


def test_sweep_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--preset", "fig2", "--grid", "3", "--steps", "3")
    assert run_cli(*args, "--output", str(a)).returncode == 0
    assert run_cli(*args, "--output", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_unknown_preset(tmp_path):
    proc = run_cli("sweep", "--preset", "fig9", "--output", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


def test_sweep_requires_output():
    proc = run_cli("sweep", "--preset", "fig2")
    assert proc.returncode == 2


def test_verify_quick_passes_quickly():
    start = time.monotonic()
    proc = run_cli("verify", "--level", "quick")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
    assert "FAIL" not in proc.stdout
    assert elapsed < 10.0


def test_verify_rejects_unknown_level():
    proc = run_cli("verify", "--level", "extreme")
    assert proc.returncode == 2


def test_verify_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    def check_that_raises():
        raise RuntimeError("no discord zero")

    checks = (verification.check_zero_formula, check_that_raises, verification.check_werner_values)
    monkeypatch.setattr(verification, "QUICK_CHECKS", checks)
    assert cli.main(["verify", "--level", "quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PASS  zero-formula")
    assert lines[1].split() == ["FAIL", "check_that_raises", "raised", "RuntimeError:", "no", "discord", "zero"]
    assert lines[2].startswith("PASS  werner-values")
    assert lines[3] == "2/3 checks passed, 1 FAILED"


def test_summary_splits_trajectories_where_time_restarts(tmp_path):
    # fig4 holds a PHI and a PSI block over the same r values, so only the
    # restart of t tells its trajectories apart; one trajectory's rows written
    # twice are two trajectories.
    proc = run_script("make_figure_data.py", "--only", "fig4", "--grid", "2", "--steps", "5", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    fig4 = tmp_path / "fig4.csv"
    proc = run_script("summarize_features.py", str(fig4))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()[1:]
    assert [line.split()[:3] for line in lines] == [
        [str(k), "0.5000", r] for k, r in enumerate(["0.000", "1.000"] * 2)
    ]
    header, *rows = fig4.read_text().splitlines()
    twice = tmp_path / "twice.csv"
    twice.write_text("\n".join([header, *rows[:5], *rows[:5]]) + "\n")
    proc = run_script("summarize_features.py", str(twice))
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()[1:]] == ["0", "1"]


def test_evolve_output_keeps_the_old_file_when_the_replace_fails(monkeypatch, tmp_path, capsys):
    # evolve --output writes beside the target and then replaces it, as sweep
    # does: a failed replace is a usage error that leaves the old bytes and
    # no partial file.
    target = tmp_path / "existing.csv"
    target.write_bytes(b"earlier run\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    assert cli.main(["evolve", "--steps", "3", "--output", str(target)]) == 2
    assert "replace failed" in capsys.readouterr().err
    assert target.read_bytes() == b"earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["existing.csv"]


def test_output_gate_holds_exact_columns_and_bounds_j_and_d(tmp_path):
    # Columns t_gamma0 .. mutual_info_bits must match bit for bit, J may fall
    # at most 1e-12 and D move at most 1e-12; the argmax columns are free.
    parent = run_sweep(figure_preset("fig2").resized(2, 5, None, None), tmp_path / "parent.csv")
    header, *rows = parent.read_text().splitlines()
    col = {name: k for k, name in enumerate(CSV_COLUMNS)}

    def gate(edit):
        fields = [row.split(",") for row in rows]
        edit(fields)
        change = tmp_path / "change.csv"
        change.write_text("\n".join([header, *(",".join(f) for f in fields)]) + "\n")
        return run_script("output_gate.py", str(parent), str(change))

    def shift(row, name, delta):  # delta None: one ulp up
        def edit(fields):
            x = float(fields[row][col[name]])
            fields[row][col[name]] = repr(float(np.nextafter(x, np.inf)) if delta is None else x + delta)
        return edit

    proc = gate(lambda fields: None)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "output gate: pass"
    for name, delta in (("argmax_theta", 0.5), ("classical_corr_bits", -0.5e-12), ("discord_bits", 0.5e-12)):
        assert gate(shift(3, name, delta)).returncode == 0
    for name, delta in (("mutual_info_bits", None), ("chi", None), ("classical_corr_bits", -2e-12),
                        ("discord_bits", -2e-12)):
        proc = gate(shift(3, name, delta))
        assert proc.returncode == 1 and proc.stdout.splitlines()[-1] == "output gate: fail", (name, proc.stdout)
    assert gate(lambda fields: fields.pop()).returncode == 2
