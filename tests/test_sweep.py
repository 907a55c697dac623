"""Trajectories, death/zero detection, and deterministic CSV sweeps."""

from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from discordsim import (
    CSV_COLUMNS,
    Axis,
    DensityMatrix,
    EsdReport,
    Family,
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
    evaluate_chi,
    evolve_trajectory,
    figure_preset,
    make_trajectory,
    mutual_information,
    quantum_discord,
    read_sweep_csv,
    revival_amplitude,
    run_sweep,
    trajectory_from_csv_rows,
    trajectory_from_state,
)
from discordsim import sweep
from discordsim.sweep import (
    _EXACT_ZERO,
    _MIN_PROMINENCE,
    _TRAJECTORY_DTYPE,
    _ZERO_THRESHOLD,
    _parabola_vertex,
    _prominent_dips,
    format_csv_rows,
    uniform_grid,
)

from conftest import random_unitary


def synth(ts, concs=None, discords=None) -> np.recarray:
    """Trajectory with prescribed concurrence/discord (default 0) and consistent bookkeeping."""
    zeros = np.zeros(len(ts))
    concs = zeros if concs is None else np.asarray(concs, dtype=float)
    discords = zeros if discords is None else np.asarray(discords, dtype=float)
    return make_trajectory(ts, zeros, concs, discords + 0.5, zeros + 0.5, discords, zeros, zeros)


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
    for wide in (math.inf, 1e200):  # beyond ReservoirParams' domain
        with pytest.raises(ValueError):
            Axis("lambda_ratio", 0.1, wide, 3)
    # A whole float count fails at construction, naming the argument, rather
    # than later inside numpy's linspace; numpy integers are integers.
    with pytest.raises(TypeError, match="axis count must be an integer, got 3.0"):
        Axis("alpha_sq", 0.0, 1.0, 3.0)
    assert len(Axis("alpha_sq", 0.0, 1.0, np.int64(3)).values()) == 3
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
    for wide in (math.inf, 1e200):  # beyond ReservoirParams' domain
        with pytest.raises(ValueError):
            SweepConfig((Family.PSI,), axis, 10.0, 11, r=1.0, lambda_ratio=wide)
    for t_max, steps in ((-1.0, 11), (0.0, 3), (math.inf, 3), (math.nan, 3), (10.0, 1)):
        with pytest.raises(ValueError):  # bad time grid
            SweepConfig((Family.PSI,), axis, t_max, steps, r=1.0, lambda_ratio=0.1)
    with pytest.raises(TypeError, match="steps must be an integer, got 3.0"):
        uniform_grid(25.0, 3.0)
    with pytest.raises(TypeError, match="steps must be an integer, got 5.0"):
        SweepConfig((Family.PSI,), axis, 25.0, 5.0, r=1.0, lambda_ratio=0.1)


def test_resized_replaces_only_what_it_is_given():
    config = figure_preset("fig4")
    assert config.resized() == config
    small = config.resized(grid=3, t_max=10.0)
    assert small.axis == Axis("r", 0.0, 1.0, 3)
    assert (small.t_max, small.steps, small.measured) == (10.0, 1001, Qubit.B)
    assert small.resized(steps=21, measured=Qubit.A) == SweepConfig(
        (Family.PHI, Family.PSI), Axis("r", 0.0, 1.0, 3), 10.0, 21, alpha_sq=0.5, lambda_ratio=0.1,
        measured=Qubit.A,
    )
    with pytest.raises(ValueError, match="axis count"):
        config.resized(grid=1)
    with pytest.raises(ValueError, match="steps"):
        config.resized(steps=1)


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


def test_make_trajectory_invariants_enforced():
    def traj(**row):
        # Row 1 of three gets the fields given; rows 0 and 2 are consistent.
        good = dict(chi=1.0, concurrence=0.5, mutual_info=1.0, classical_corr=0.4,
                    discord=0.6, theta=0.0, phi=0.0)
        cols = {k: [v, row.get(k, v), v] for k, v in good.items()}
        return make_trajectory(t=[0.0, row.get("t", 1.0), 2.0], **cols)

    assert len(traj()) == 3  # consistent
    assert len(traj(chi=-1.0 - 1e-12)) == 3  # within the channel's chi tolerance
    bad_rows = (
        dict(t=math.nan),  # NaN time
        dict(t=-0.5),  # negative time
        dict(t=math.inf),  # infinite time
        dict(t=0.0),  # repeated time
        dict(chi=5.0),  # |chi| > 1
        dict(chi=-1.0 - 1e-9),  # beyond the chi tolerance
        dict(chi=math.nan),  # NaN chi
        dict(discord=0.3),  # discord mismatch
        dict(classical_corr=1.2, discord=-0.2),  # classical > total
        dict(concurrence=1.5),  # concurrence > 1
        dict(mutual_info=-0.1, classical_corr=-0.1, discord=0.0),  # negative measures
        dict(theta=2.0),  # theta > pi/2
        dict(phi=2.0 * math.pi),  # phi >= 2 pi
        dict(discord=math.nan),  # NaN fails every range check
    )
    for row in bad_rows:
        with pytest.raises(ValueError, match=r"\(row 1\)"):
            traj(**row)
    with pytest.raises(ValueError):
        make_trajectory([0.0, 1.0], [1.0], [0.0], [0.0], [0.0], [0.0], [0.0], [0.0])


def test_csv_rows_with_bad_times_or_chi_raise(tmp_path):
    # A CSV with a NaN time, an out-of-range chi or rows out of time order
    # fails at the boundary instead of reaching the detectors.
    params = ReservoirParams(lambda_ratio=0.1)
    traj = evolve_trajectory(StateFamily(Family.PSI, 0.5, 1.0), params, np.linspace(0.0, 5.0, 6))
    lines = format_csv_rows(traj, 0.5, 1.0, params)

    def read_back(rows):
        path = tmp_path / "traj.csv"
        path.write_text("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
        return trajectory_from_csv_rows(read_sweep_csv(path)[1])

    assert np.array_equal(read_back(lines).t, traj.t)
    t_col, chi_col = CSV_COLUMNS.index("t_gamma0"), CSV_COLUMNS.index("chi")

    def with_field(k, col, value):
        fields = lines[k].split(",")
        fields[col] = value
        return lines[:k] + [",".join(fields)] + lines[k + 1 :]

    cases = (
        (with_field(2, t_col, "nan"), r"time must be finite.*\(row 2\)"),
        (with_field(3, chi_col, "5"), r"\|chi\| must be <= 1.*\(row 3\)"),
        ([lines[1], lines[0], *lines[2:]], r"times must increase strictly.*\(row 1\)"),
    )
    for rows, match in cases:
        with pytest.raises(ValueError, match=match):
            read_back(rows)


def test_trajectory_columns_and_rows_agree():
    params = ReservoirParams(lambda_ratio=0.3)
    grid = np.linspace(0.0, 6.0, 7)
    traj = evolve_trajectory(StateFamily(Family.PHI, 0.4, 0.9), params, grid)
    assert traj.dtype.names == (
        "t", "chi", "concurrence", "mutual_info", "classical_corr", "discord", "theta", "phi"
    )
    assert np.array_equal(traj.t, grid)
    assert traj.chi.tolist() == [evaluate_chi(params, t) for t in grid.tolist()]
    for k, rec in enumerate(traj):
        assert rec.t == traj.t[k] and rec.discord == traj.discord[k]


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


@pytest.mark.parametrize("measured", ["B", "A", 1, None])
def test_evolve_trajectory_rejects_non_qubit_measured(measured):
    scenario = StateFamily(Family.PSI, 0.3, 0.8)
    params = ReservoirParams(lambda_ratio=0.1)
    with pytest.raises(TypeError, match="measured must be a Qubit"):
        evolve_trajectory(scenario, params, np.linspace(0.0, 1.0, 3), measured)


def test_trajectory_from_state_rejects_a_bare_matrix():
    with pytest.raises(TypeError, match="rho0 must be a DensityMatrix"):
        trajectory_from_state(np.eye(4) / 4.0, ReservoirParams(lambda_ratio=0.1), np.linspace(0.0, 1.0, 3))


def test_trajectory_from_raw_state_matches_family_path():
    scenario = StateFamily(Family.PHI, 0.4, 0.9)
    params = ReservoirParams(lambda_ratio=0.5)
    grid = np.linspace(0.0, 3.0, 4)
    via_family = evolve_trajectory(scenario, params, grid)
    via_state = trajectory_from_state(build_state(scenario), params, grid)
    for a, b in zip(via_family, via_state):
        assert a.concurrence == b.concurrence
        assert a.discord == b.discord


@settings(max_examples=60, deadline=None)
@given(
    small=st.lists(st.sampled_from([-1e-10, -5e-11, 0.0, 1e-15]), min_size=1, max_size=3),
    lam=st.floats(0.05, 20.0),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_near_singular_raw_states(small, lam, measured, seed):
    # Eigenvalues at and just past the positivity tolerance: a state is either
    # rejected at the boundary or gives a trajectory with every column finite.
    rng = np.random.default_rng(seed)
    spectrum = np.concatenate([small, rng.dirichlet(np.ones(4 - len(small))) * (1.0 - sum(small))])
    u = random_unitary(rng, 4)
    try:
        rho0 = DensityMatrix((u * spectrum) @ u.conj().T)
    except ValueError:
        return
    traj = trajectory_from_state(rho0, ReservoirParams(lambda_ratio=lam), np.linspace(0.0, 25.0, 11), measured)
    for name in traj.dtype.names:
        assert np.all(np.isfinite(traj[name]))


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
    report = detect_esd(synth(ts))
    assert report.esd_time == 0.0
    assert report.revival_times == ()


def test_esd_absent_when_alive():
    ts = np.linspace(0.0, 10.0, 101)
    report = detect_esd(synth(ts, concs=[0.5] * 101))
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
    report = detect_esd(synth(ts, concs=concs))
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
    report = detect_esd(synth(ts, concs=concs))
    assert report.esd_time is None


def test_esd_requires_dwell():
    ts = np.linspace(0.0, 10.0, 101)
    concs = [0.0 if 30 <= i <= 33 else 0.4 for i in range(101)]
    report = detect_esd(synth(ts, concs=concs))
    assert report.esd_time is None


# ------------------------------------------------------------- discord zeros


def test_discord_zeros_isolated_dip():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [0.01 * abs(t - 4.97) for t in ts]
    zeros = detect_discord_zeros(synth(ts, discords=discords))
    assert len(zeros) == 1
    assert abs(zeros[0] - 4.97) < 0.1


def test_discord_zeros_plateau_reports_edges():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [0.0 if 40 <= i <= 50 else 0.5 for i in range(101)]
    zeros = detect_discord_zeros(synth(ts, discords=discords))
    assert len(zeros) == 2
    assert zeros[0] == pytest.approx(4.0)
    assert zeros[1] == pytest.approx(5.0)


def test_discord_zeros_all_zero_collapses_to_endpoints():
    ts = np.linspace(0.0, 5.0, 51)
    zeros = detect_discord_zeros(synth(ts))
    assert zeros == [0.0, 5.0]


def test_discord_zeros_monotone_decay_is_empty():
    ts = np.linspace(0.0, 20.0, 201)
    discords = [math.exp(-0.8 * t) for t in ts]
    assert detect_discord_zeros(synth(ts, discords=discords)) == []


def test_discord_zeros_noise_floor_not_flagged():
    # Wiggle at the arithmetic noise floor has no prominence and is ignored.
    ts = np.linspace(0.0, 10.0, 101)
    discords = [1e-11 * (1.0 + 0.5 * math.sin(10.0 * t)) for t in ts]
    assert detect_discord_zeros(synth(ts, discords=discords)) == []


def test_discord_zeros_match_amplitude_zeros_cross_module():
    params = ReservoirParams(lambda_ratio=0.1)
    t1 = chi_zeros(params, 1)[0]
    grid = np.linspace(0.0, 10.0, 201)
    series = evolve_trajectory(StateFamily(Family.PSI, 0.5, 1.0), params, grid)
    zeros = detect_discord_zeros(series)
    step = grid[1] - grid[0]
    assert len(zeros) == 1
    assert abs(zeros[0] - t1) <= step


def test_discord_zeros_are_python_floats():
    ts = np.linspace(0.0, 10.0, 101)
    dip = [0.01 * abs(t - 4.97) for t in ts]  # parabola vertex
    plateau = [0.0 if 40 <= i <= 50 else 0.5 for i in range(101)]  # run edges
    for discords in (dip, plateau, None):  # None: all zero, endpoints
        zeros = detect_discord_zeros(synth(ts, discords=discords))
        assert zeros and all(type(z) is float for z in zeros)


def test_detectors_reject_empty_trajectory():
    empty = synth([])
    for detector in (detect_esd, detect_discord_zeros, revival_amplitude):
        with pytest.raises(ValueError):
            detector(empty)


def test_detectors_on_one_and_two_point_trajectories():
    one_dead = synth([2.0])
    assert detect_esd(one_dead) == EsdReport(None, ())  # shorter than the dwell window
    assert detect_discord_zeros(one_dead) == [2.0, 2.0]
    with pytest.raises(NoRevivalError):
        revival_amplitude(one_dead)
    one_alive = synth([2.0], concs=[0.5], discords=[0.3])
    assert detect_esd(one_alive) == EsdReport(None, ())
    assert detect_discord_zeros(one_alive) == []
    with pytest.raises(NoRevivalError):
        revival_amplitude(one_alive)

    two_dead = synth([0.0, 1.0])
    assert detect_esd(two_dead) == EsdReport(0.0, ())
    assert detect_discord_zeros(two_dead) == [0.0, 1.0]
    assert revival_amplitude(two_dead) == 0.0
    two_alive = synth([0.0, 1.0], concs=[0.5, 0.4], discords=[0.3, 0.2])
    assert detect_esd(two_alive) == EsdReport(None, ())
    assert detect_discord_zeros(two_alive) == []
    dead_then_alive = synth([0.0, 0.5, 1.0], concs=[0.0, 0.0, 0.4])  # dead for exactly the dwell window
    assert detect_esd(dead_then_alive) == EsdReport(0.0, ((1.0, 1.0),))


def test_detectors_run_without_scipy():
    # The detectors need only numpy: with scipy made unimportable, an
    # oscillating trajectory still yields its discord zeros and revival.
    script = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np, discordsim as ds\n"
        "traj = ds.evolve_trajectory(ds.StateFamily(ds.Family.PSI, 0.5, 1.0),\n"
        "    ds.ReservoirParams(lambda_ratio=0.1), np.linspace(0.0, 25.0, 51))\n"
        "ds.detect_esd(traj)\n"
        "print(len(ds.detect_discord_zeros(traj)), ds.revival_amplitude(traj) > 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    count, revived = proc.stdout.split()
    assert int(count) >= 1 and revived == "True"


@st.composite
def _plateau_sequences(draw):
    """Runs over a 3-5 value alphabet; the end runs are plateaus, inner runs may be too.

    The values are quarters, so that a dip 0.5 deep is exactly 0.5 deep.
    """
    quarters = st.integers(0, 4).map(lambda k: k / 4)
    alphabet = draw(st.lists(quarters, min_size=3, max_size=5, unique=True))
    n_runs = draw(st.integers(1, 10))
    values = draw(st.lists(st.sampled_from(alphabet), min_size=n_runs, max_size=n_runs))
    lengths = [
        draw(st.integers(2 if k in (0, n_runs - 1) else 1, 6)) for k in range(n_runs)
    ]
    return [v for v, n in zip(values, lengths) for _ in range(n)]


@settings(max_examples=600, deadline=None)
@given(
    d=st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        _plateau_sequences(),
    ),
    prominence=st.sampled_from([0.0, 1e-7, 0.5]),
)
def test_prominent_dips_match_find_peaks(d, prominence):
    # scipy's find_peaks on -d with flat peaks allowed is the oracle: the
    # same dips, edges and midpoints, kept by the same >= prominence rule.
    d = np.array(d)
    peaks, props = find_peaks(-d, prominence=prominence, plateau_size=(1, None))
    dips = _prominent_dips(d, prominence)
    assert [first for first, _ in dips] == props["left_edges"].tolist()
    assert [last for _, last in dips] == props["right_edges"].tolist()
    assert [(first + last) // 2 for first, last in dips] == peaks.tolist()


def _find_peaks_discord_zeros(traj):
    """detect_discord_zeros written with scipy's find_peaks, as an oracle."""
    t, d = traj.t, traj.discord
    if bool(np.all(d < _EXACT_ZERO)):
        return [float(t[0]), float(t[-1])]
    peaks, props = find_peaks(-d, prominence=_MIN_PROMINENCE, plateau_size=(1, None))
    zeros = []
    for k, i in enumerate(peaks):
        if d[i] >= _ZERO_THRESHOLD:
            continue
        left = int(props["left_edges"][k])
        right = int(props["right_edges"][k])
        if right > left:
            zeros.append(float(t[left]))
            zeros.append(float(t[right]))
        else:
            zeros.append(
                _parabola_vertex(t[i - 1], t[i], t[i + 1], d[i - 1], d[i], d[i + 1])
            )
    return sorted(zeros)


def test_discord_zeros_and_revival_match_find_peaks_oracle():
    # Coarse 26-point trajectories of both families, half with oscillating
    # and half with monotone chi, r near the Werner onset 1/3 on a third.
    rng = np.random.default_rng(2009)
    for i in range(120):
        alpha_sq = rng.uniform()
        r = 1.0 / 3.0 + rng.uniform(-0.02, 0.02) if i % 3 == 0 else rng.uniform(0.34, 1.0)
        if (i // 2) % 2 == 0:
            lam, t_max = math.exp(rng.uniform(math.log(0.05), math.log(1.5))), 25.0
        else:
            lam, t_max = math.exp(rng.uniform(math.log(2.5), math.log(20.0))), 20.0
        scenario = StateFamily((Family.PHI, Family.PSI)[i % 2], alpha_sq, r)
        traj = evolve_trajectory(
            scenario, ReservoirParams(lambda_ratio=lam), np.linspace(0.0, t_max, 26)
        )
        expected = _find_peaks_discord_zeros(traj)
        assert detect_discord_zeros(traj) == expected
        after = traj.discord[traj.t > expected[0]] if expected else np.array([])
        if after.size:
            assert revival_amplitude(traj) == float(after.max())
        else:
            with pytest.raises(NoRevivalError):
                revival_amplitude(traj)


# --------------------------------------------------------- revival amplitude


def test_revival_amplitude_after_dip():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [
        0.01 * abs(t - 4.0) if i <= 50 else 0.3 * (t - 5.0) / 5.0
        for i, t in enumerate(ts)
    ]
    amp = revival_amplitude(synth(ts, discords=discords))
    assert amp == pytest.approx(0.3, abs=1e-12)


def test_revival_amplitude_monotone_decay_raises():
    ts = np.linspace(0.0, 10.0, 101)
    discords = [math.exp(-t) for t in ts]
    with pytest.raises(NoRevivalError):
        revival_amplitude(synth(ts, discords=discords))


def test_revival_amplitude_truncated_before_zero_raises():
    ts = np.linspace(0.0, 3.0, 31)  # window ends before any dip
    discords = [0.01 * abs(t - 4.97) for t in ts]
    with pytest.raises(NoRevivalError):
        revival_amplitude(synth(ts, discords=discords))


# ------------------------------------------------------------------ CSV


@pytest.fixture
def small_fig2(tmp_path):
    return figure_preset("fig2").resized(grid=11, steps=11), tmp_path


def test_run_sweep_row_count_and_header(small_fig2):
    config, tmp_path = small_fig2
    path = run_sweep(config, tmp_path / "out.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 11 * 11


def test_family_path_makes_no_lapack_call(monkeypatch, small_fig2):
    # Both families are X states and the channel keeps them X, so spectra and
    # concurrence take closed forms; a family run never pages LAPACK in.
    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK called on the family path")

    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    t_grid = np.linspace(0.0, 25.0, 41)
    for family in Family:
        for alpha_sq, r, lam in ((0.5, 1.0, 0.1), (0.2, 0.6, 10.0), (1.0, 0.0, 1.0), (0.7, 0.3, 0.05)):
            for measured in Qubit:
                evolve_trajectory(StateFamily(family, alpha_sq, r), ReservoirParams(lambda_ratio=lam), t_grid, measured)
    config, tmp_path = small_fig2
    for measured in Qubit:
        run_sweep(config.resized(measured=measured), tmp_path / f"{measured.value}.csv")


def test_run_sweep_deterministic_bytes(small_fig2):
    config, tmp_path = small_fig2
    a = run_sweep(config, tmp_path / "a.csv").read_bytes()
    b = run_sweep(config, tmp_path / "b.csv").read_bytes()
    assert a == b


def _joined_sweep_bytes(config):
    """A sweep's CSV as one list of lines joined at the end."""
    t_grid = config.time_grid()
    lines = [",".join(CSV_COLUMNS)]
    for family in config.families:
        for axis_value in config.axis.values():
            alpha_sq, r, lambda_ratio = config.point_params(axis_value)
            params = ReservoirParams(lambda_ratio=lambda_ratio)
            traj = evolve_trajectory(StateFamily(family, alpha_sq, r), params, t_grid, config.measured)
            lines.extend(format_csv_rows(traj, alpha_sq, r, params))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_run_sweep_streams_the_joined_bytes(tmp_path, preset):
    # Rows go to disk one trajectory at a time; the file must be the one the
    # whole list joined at the end gives, with nothing left beside it.
    config = figure_preset(preset).resized(grid=2, steps=21)
    path = run_sweep(config, tmp_path / "out.csv")
    assert path.read_bytes() == _joined_sweep_bytes(config)
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_run_sweep_leaves_the_target_as_it_was(monkeypatch, small_fig2):
    # A second trajectory that raises removes the partial file; a target from
    # an earlier run keeps its bytes, and a new one is not created.
    config, tmp_path = small_fig2
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("trajectory failed")
        return evolve_trajectory(*args, **kwargs)

    monkeypatch.setattr(sweep, "evolve_trajectory", fail_second)
    with pytest.raises(RuntimeError, match="trajectory failed"):
        run_sweep(config, tmp_path / "new.csv")
    assert list(tmp_path.iterdir()) == []
    old = tmp_path / "old.csv"
    old.write_bytes(b"earlier run\n")
    calls.clear()
    with pytest.raises(RuntimeError, match="trajectory failed"):
        run_sweep(config, old)
    assert old.read_bytes() == b"earlier run\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


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
    assert np.all(block[:, 1:4] == (alpha_sq, r, lam))
    # 17 significant digits round-trip, so every field comes back exactly
    again = trajectory_from_csv_rows(block)
    for name in records.dtype.names:
        assert np.array_equal(again[name], records[name]), name


def test_trajectories_share_one_record_dtype(small_fig2):
    # One module-level dtype for every trajectory, equal to the one
    # np.rec.fromarrays builds from the field names, and kept through the CSV.
    config, tmp_path = small_fig2
    params = ReservoirParams(lambda_ratio=0.1)
    a = evolve_trajectory(StateFamily(Family.PSI, 0.5, 1.0), params, np.linspace(0.0, 5.0, 6))
    b = synth([0.0, 1.0])
    names = ("t", "chi", "concurrence", "mutual_info", "classical_corr", "discord", "theta", "phi")
    by_names = np.rec.fromarrays([np.zeros(2)] * len(names), names=names).dtype
    assert isinstance(a, np.recarray) and isinstance(b, np.recarray)
    assert a.dtype == b.dtype == by_names == _TRAJECTORY_DTYPE
    assert a.dtype.names == names
    _, data = read_sweep_csv(run_sweep(config, tmp_path / "out.csv"))
    again = trajectory_from_csv_rows(data[:11])
    assert again.dtype == _TRAJECTORY_DTYPE
    assert again.classical_corr.dtype == np.float64


@pytest.mark.parametrize("preset, grid, steps", [("fig1", 5, 51), ("fig2", 5, 101)])
def test_preset_classical_correlation_has_no_negative_zero(tmp_path, preset, grid, steps):
    # Product-state rows have J = 0 exactly; it must print as 0, not -0.
    config = figure_preset(preset).resized(grid, steps)
    path = run_sweep(config, tmp_path / f"{preset}.csv")
    column = CSV_COLUMNS.index("classical_corr_bits")
    printed = [line.split(",")[column] for line in path.read_text().splitlines()[1:]]
    assert "0" in printed  # the product-state rows are there
    assert not any(v.startswith("-") for v in printed)
    assert not np.any(np.signbit(read_sweep_csv(path)[1][:, column]))


def test_run_sweep_family_major_ordering(tmp_path):
    config = figure_preset("fig4").resized(grid=3, steps=3)
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


def test_read_sweep_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_sweep_csv(bad)


def test_read_sweep_csv_rejects_short_rows(tmp_path):
    # Rows one field short under the right header once came back as a
    # (2, 10) array that later code misread column by column.
    bad = tmp_path / "short.csv"
    row = ",".join(["0.5"] * (len(CSV_COLUMNS) - 1))
    bad.write_text(",".join(CSV_COLUMNS) + f"\n{row}\n{row}\n")
    with pytest.raises(ValueError, match="fields"):
        read_sweep_csv(bad)


def test_read_sweep_csv_header_only_is_empty_with_all_columns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    header, data = read_sweep_csv(path)
    assert header == CSV_COLUMNS
    assert data.shape == (0, len(CSV_COLUMNS))


def test_every_emitted_record_is_consistent():
    # make_trajectory enforces the bookkeeping invariants, so a full
    # trajectory materializing without error is itself the check; verify a
    # few numbers are inside their ranges anyway.
    params = ReservoirParams(lambda_ratio=0.25)
    series = evolve_trajectory(
        StateFamily(Family.PHI, 0.3, 0.85), params, np.linspace(0.0, 8.0, 17)
    )
    for rec in series:
        assert 0.0 <= rec.concurrence <= 1.0
        assert rec.classical_corr <= rec.mutual_info + 1e-9
        assert rec.discord >= -1e-9
