"""Command-line interface, exercised through real subprocesses."""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from discordsim import CSV_COLUMNS

FIRST_ZERO = 8.242034311692072
SECOND_ZERO = 22.656649994605434


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "discordsim.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


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
    assert abs(got[0] - FIRST_ZERO) < 1e-9
    assert abs(got[1] - SECOND_ZERO) < 1e-9


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
