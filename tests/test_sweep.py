"""Trajectories, death/zero detection, and deterministic CSV sweeps."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from discordsim import (
    CSV_COLUMNS,
    Axis,
    CorrelationRecord,
    DensityMatrix,
    EsdReport,
    Family,
    MeasurementBasis,
    NoRevivalError,
    Qubit,
    ReservoirParams,
    StateFamily,
    SweepConfig,
    build_state,
    chi_zeros,
    classical_correlation,
    concurrence,
    detect_discord_zeros,
    detect_esd,
    evolve_trajectory,
    figure_preset,
    mutual_information,
    quantum_discord,
    read_sweep_csv,
    revival_amplitude,
    run_sweep,
    trajectory_from_state,
)

_BASIS = MeasurementBasis(0.0, 0.0)


def synth(t: float, conc: float = 0.0, discord: float = 0.0) -> CorrelationRecord:
    """Record with prescribed concurrence/discord and consistent bookkeeping."""
    return CorrelationRecord(t, conc, discord + 0.5, 0.5, discord, _BASIS)


def series_from(ts, concs=None, discords=None):
    n = len(ts)
    concs = concs if concs is not None else [0.0] * n
    discords = discords if discords is not None else [0.0] * n
    return [synth(t, c, d) for t, c, d in zip(ts, concs, discords)]


# ------------------------------------------------------------- validation


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("blah", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("alpha_sq", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Axis("alpha_sq", 0.8, 0.2, 5)
    with pytest.raises(ValueError):
        Axis("alpha_sq", 0.0, 1.5, 5)
    with pytest.raises(ValueError):
        Axis("lambda_ratio", 0.0, 1.0, 5)  # zero width excluded
    vals = Axis("r", 0.0, 1.0, 11).values()
    assert vals[0] == 0.0 and vals[-1] == 1.0 and len(vals) == 11


def test_sweep_config_validation():
    axis = Axis("alpha_sq", 0.0, 1.0, 5)
    good = SweepConfig((Family.PSI,), axis, 10.0, 11, r=1.0, lambda_ratio=0.1)
    assert good.point_params(0.25) == (0.25, 1.0, 0.1)
    with pytest.raises(ValueError):  # axis parameter also fixed
        SweepConfig(
            (Family.PSI,), axis, 10.0, 11, alpha_sq=0.5, r=1.0, lambda_ratio=0.1
        )
    with pytest.raises(ValueError):  # missing fixed parameter
        SweepConfig((Family.PSI,), axis, 10.0, 11, r=1.0)
    with pytest.raises(ValueError):  # empty family tuple
        SweepConfig((), axis, 10.0, 11, r=1.0, lambda_ratio=0.1)
    with pytest.raises(ValueError):  # repeated family
        SweepConfig(
            (Family.PSI, Family.PSI), axis, 10.0, 11, r=1.0, lambda_ratio=0.1
        )
    with pytest.raises(ValueError):  # bad horizon
        SweepConfig((Family.PSI,), axis, -1.0, 11, r=1.0, lambda_ratio=0.1)


def test_time_grid_endpoints():
    axis = Axis("alpha_sq", 0.0, 1.0, 5)
    config = SweepConfig((Family.PSI,), axis, 12.0, 25, r=1.0, lambda_ratio=0.1)
    grid = config.time_grid()
    assert grid[0] == 0.0 and grid[-1] == 12.0 and len(grid) == 25


def test_esd_report_interval_validation():
    EsdReport(1.0, ((2.0, 3.0), (4.0, 5.0)))
    with pytest.raises(ValueError):
        EsdReport(1.0, ((2.0, 3.0), (2.5, 5.0)))  # overlap
    with pytest.raises(ValueError):
        EsdReport(1.0, ((4.0, 5.0), (2.0, 3.0)))  # out of order


# ------------------------------------------------------------ trajectories


def test_trajectory_first_point_matches_static_measures():
    scenario = StateFamily(Family.PSI, 0.3, 0.8)
    params = ReservoirParams(lambda_ratio=0.1)
    rec = evolve_trajectory(scenario, params, np.array([0.0]))[0]
    rho0 = build_state(scenario)
    assert rec.concurrence == pytest.approx(concurrence(rho0), abs=1e-12)
    assert rec.mutual_info == pytest.approx(mutual_information(rho0), abs=1e-12)
    assert rec.discord == pytest.approx(quantum_discord(rho0), abs=1e-7)
    j, _ = classical_correlation(rho0)
    assert rec.classical_corr == pytest.approx(j, abs=1e-7)


def test_trajectory_vanishes_at_first_amplitude_zero():
    params = ReservoirParams(lambda_ratio=0.1)
    t1 = chi_zeros(params, 1)[0]
    rec = evolve_trajectory(
        StateFamily(Family.PSI, 0.5, 1.0), params, np.array([t1])
    )[0]
    # the state is pure ground there, so every correlation dies
    assert rec.concurrence < 1e-6
    assert rec.discord < 1e-6
    assert rec.mutual_info < 1e-6


def test_trajectory_from_raw_state_matches_family_path():
    scenario = StateFamily(Family.PHI, 0.4, 0.9)
    params = ReservoirParams(lambda_ratio=0.5)
    grid = np.linspace(0.0, 3.0, 4)
    via_family = evolve_trajectory(scenario, params, grid)
    via_state = trajectory_from_state(build_state(scenario), params, grid)
    for a, b in zip(via_family, via_state):
        assert a.concurrence == b.concurrence
        assert a.discord == b.discord


def _trajectory_peak_bytes(rho0, params, steps: int) -> int:
    tracemalloc.start()
    try:
        trajectory_from_state(rho0, params, np.linspace(0.0, 25.0, steps))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_peak_memory_does_not_grow_with_grid():
    # The batched optimiser caps the (state, angle) pairs of each evaluator
    # call, so ten times the points costs little more than their records.
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    params = ReservoirParams(lambda_ratio=0.5)
    growth = _trajectory_peak_bytes(rho0, params, 1001) - _trajectory_peak_bytes(rho0, params, 101)
    assert growth <= 2_000_000


def test_trajectory_rejects_empty_grid():
    with pytest.raises(ValueError):
        evolve_trajectory(
            StateFamily(Family.PSI, 0.5, 1.0),
            ReservoirParams(lambda_ratio=0.1),
            np.array([]),
        )


# ---------------------------------------------------------------- ESD


def test_esd_constant_zero_starts_at_first_point():
    ts = np.linspace(0.0, 10.0, 101)
    report = detect_esd(series_from(ts))
    assert report.esd_time == 0.0
    assert report.revival_times == ()


def test_esd_absent_when_alive():
    ts = np.linspace(0.0, 10.0, 101)
    report = detect_esd(series_from(ts, concs=[0.5] * 101))
    assert report.esd_time is None
    assert report.revival_times == ()


def test_esd_with_revival_interval():
    ts = np.linspace(0.0, 10.0, 101)
    concs = []
    for i in range(101):
        if i < 30:
            concs.append(0.4)
        elif i <= 60:
            concs.append(0.0)  # dead, exactly
        elif i <= 80:
            concs.append(0.2)  # revival
        else:
            concs.append(1e-12)  # tail: tiny but strictly positive
    report = detect_esd(series_from(ts, concs=concs))
    assert report.esd_time == pytest.approx(3.0)
    assert len(report.revival_times) == 1
    start, end = report.revival_times[0]
    assert start == pytest.approx(6.1)
    assert end == pytest.approx(8.0)


def test_esd_requires_exact_zero_not_just_small():
    # An asymptotically decaying tail gets arbitrarily small without ever
    # clamping to zero; that must not be classified as sudden death.
    ts = np.linspace(0.0, 10.0, 101)
    concs = [0.4 if i < 30 else 1e-12 for i in range(101)]
    report = detect_esd(series_from(ts, concs=concs))
    assert report.esd_time is None


def test_esd_requires_dwell():
    ts = np.linspace(0.0, 10.0, 101)
    concs = [0.0 if 30 <= i <= 33 else 0.4 for i in range(101)]
    report = detect_esd(series_from(ts, concs=concs), dwell_window=0.5)
    assert report.esd_time is None


# ------------------------------------------------------------- discord zeros


def test_discord_zeros_isolated_dip():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [0.01 * abs(t - 4.97) for t in ts]
    zeros = detect_discord_zeros(series_from(ts, discords=discords))
    assert len(zeros) == 1
    assert abs(zeros[0] - 4.97) < 0.1


def test_discord_zeros_plateau_reports_edges():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [0.0 if 40 <= i <= 50 else 0.5 for i in range(101)]
    zeros = detect_discord_zeros(series_from(ts, discords=discords))
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(4.0)
    assert zeros[1] == pytest.approx(5.0)


def test_discord_zeros_all_zero_collapses_to_endpoints():
    ts = np.linspace(0.0, 5.0, 51)
    zeros = detect_discord_zeros(series_from(ts))
    assert zeros == [0.0, 5.0]


def test_discord_zeros_monotone_decay_is_empty():
    ts = np.linspace(0.0, 20.0, 201)
    discords = [math.exp(-0.8 * t) for t in ts]
    assert detect_discord_zeros(series_from(ts, discords=discords)) == []


def test_discord_zeros_noise_floor_not_flagged():
    # Wiggle at the arithmetic noise floor has no prominence and is ignored.
    ts = np.linspace(0.0, 10.0, 101)
    discords = [1e-11 * (1.0 + 0.5 * math.sin(10.0 * t)) for t in ts]
    assert detect_discord_zeros(series_from(ts, discords=discords)) == []


def test_discord_zeros_match_amplitude_zeros_cross_module():
    params = ReservoirParams(lambda_ratio=0.1)
    t1 = chi_zeros(params, 1)[0]
    grid = np.linspace(0.0, 10.0, 201)
    series = evolve_trajectory(StateFamily(Family.PSI, 0.5, 1.0), params, grid)
    zeros = detect_discord_zeros(series)
    step = grid[1] - grid[0]
    assert len(zeros) == 1
    assert abs(zeros[0] - t1) <= step


# --------------------------------------------------------- revival amplitude


def test_revival_amplitude_after_dip():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [
        0.01 * abs(t - 4.0) if i <= 50 else 0.3 * (t - 5.0) / 5.0
        for i, t in enumerate(ts)
    ]
    amp = revival_amplitude(series_from(ts, discords=discords))
    assert amp == pytest.approx(0.3, abs=1e-12)


def test_revival_amplitude_monotone_decay_raises():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [math.exp(-t) for t in ts]
    with pytest.raises(NoRevivalError):
        revival_amplitude(series_from(ts, discords=discords))


def test_revival_amplitude_truncated_before_zero_raises():
    ts = np.linspace(0.0, 3.0, 31)  # window ends before any dip
    discords = [0.01 * abs(t - 4.97) for t in ts]
    with pytest.raises(NoRevivalError):
        revival_amplitude(series_from(ts, discords=discords))


# ------------------------------------------------------------------ CSV


@pytest.fixture
def small_fig2(tmp_path):
    config = figure_preset("fig2")
    config = dataclasses.replace(
        config,
        axis=dataclasses.replace(config.axis, count=11),
        steps=11,
    )
    return config, tmp_path


def test_run_sweep_row_count_and_header(small_fig2):
    config, tmp_path = small_fig2
    path = run_sweep(config, tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 11 * 11


def test_run_sweep_deterministic_bytes(small_fig2):
    config, tmp_path = small_fig2
    a = run_sweep(config, tmp_path / "a.csv").read_bytes()
    b = run_sweep(config, tmp_path / "b.csv").read_bytes()
    assert a == b


def test_run_sweep_round_trip(small_fig2):
    config, tmp_path = small_fig2
    path = run_sweep(config, tmp_path / "out.csv")
    header, data = read_sweep_csv(path)
    assert header == CSV_COLUMNS
    assert data.shape == (121, len(CSV_COLUMNS))
    # spot-check one full trajectory block against a fresh evaluation
    t_grid = config.time_grid()
    alpha_sq, r, lam = config.point_params(config.axis.values()[5])
    records = evolve_trajectory(
        StateFamily(Family.PSI, alpha_sq, r),
        ReservoirParams(lambda_ratio=lam),
        t_grid,
    )
    block = data[5 * 11 : 6 * 11]
    for row, rec in zip(block, records):
        assert row[0] == pytest.approx(rec.t, abs=1e-12)
        assert row[1] == pytest.approx(alpha_sq, abs=1e-12)
        assert row[5] == pytest.approx(rec.concurrence, abs=1e-12)
        assert row[6] == pytest.approx(rec.mutual_info, abs=1e-12)
        assert row[7] == pytest.approx(rec.classical_corr, abs=1e-12)
        assert row[8] == pytest.approx(rec.discord, abs=1e-12)


def test_run_sweep_family_major_ordering(tmp_path):
    config = figure_preset("fig4")
    config = dataclasses.replace(
        config,
        axis=dataclasses.replace(config.axis, count=3),
        steps=3,
    )
    path = run_sweep(config, tmp_path / "fig4.csv")
    header, data = read_sweep_csv(path)
    assert data.shape == (2 * 3 * 3, len(CSV_COLUMNS))
    # one block per family: axis (r) values repeat identically in each half
    r_col = data[:, 2]
    assert np.array_equal(r_col[:9], r_col[9:])
    # within a block, rows are axis-major then time
    assert list(r_col[:9]) == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    t_col = data[:, 0]
    assert list(t_col[:3]) == [0.0, 12.5, 25.0]


def test_run_sweep_requires_output_path():
    config = figure_preset("fig2")
    with pytest.raises(ValueError):
        run_sweep(config)


def test_read_sweep_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_sweep_csv(bad)


def test_every_emitted_record_is_consistent():
    # CorrelationRecord construction enforces the bookkeeping invariants,
    # so a full trajectory materializing without error is itself the check;
    # verify a few numbers are inside their ranges anyway.
    params = ReservoirParams(lambda_ratio=0.25)
    series = evolve_trajectory(
        StateFamily(Family.PHI, 0.3, 0.85), params, np.linspace(0.0, 8.0, 17)
    )
    for rec in series:
        assert 0.0 <= rec.concurrence <= 1.0
        assert rec.classical_corr <= rec.mutual_info + 1e-9
        assert rec.discord >= -1e-9
