"""Trajectory evolution, death/zero detection, and deterministic CSV sweeps.

A trajectory is a validated numpy record array of the correlation measures
along a time grid for one initial state and one reservoir: its fields are
columns (``traj.discord``) and its rows are records (``rec.t``).  On top of
trajectories this module detects sudden death of entanglement (concurrence
reaching zero and dwelling there), the isolated zeros of the discord, and
the size of the discord revival after its first zero.  ``run_sweep``
materializes a 2-D (parameter x time) sweep as a CSV file with deterministic
bytes, and ``figure_preset`` names the sweeps of the figure datasets.
"""

import math
import numbers
import os
from dataclasses import dataclass, replace
from itertools import chain, takewhile
from pathlib import Path

import numpy as np

from .correlations import (
    _DISCORD_TOL,
    angle_rules,
    classical_correlation_stack,
    concurrence_stack,
    discord_from_parts,
    mutual_information_stack,
)
from .reservoir import ReservoirParams, evaluate_chi
from .scenarios import Family, StateFamily, build_state
from .states import _CHI_TOL, DensityMatrix, Qubit, evolve_stack, require_qubit, validate_states

__all__ = [
    "Axis",
    "SweepConfig",
    "PRESET_IDS",
    "figure_preset",
    "uniform_grid",
    "EsdReport",
    "NoRevivalError",
    "make_trajectory",
    "evolve_trajectory",
    "detect_esd",
    "detect_discord_zeros",
    "revival_amplitude",
    "run_sweep",
    "read_sweep_csv",
    "trajectory_from_csv_rows",
    "CSV_COLUMNS",
]

# Concurrence below this is dead; a death must dwell there this long (in units
# of 1/gamma0).
_ESD_THRESHOLD = 1e-9
_ESD_DWELL = 0.5

# A discord zero is a dip below this.
_ZERO_THRESHOLD = 1e-3

# Discord values below this are exact zeros up to arithmetic noise; runs of
# them are reported as intervals rather than as individual minima.
_EXACT_ZERO = 1e-12

# Minimum rise out of a dip for it to count as a zero touch rather than
# optimizer noise (noise stays below ~1e-11 bits) or a decaying tail.
_MIN_PROMINENCE = 1e-7

_AXIS_NAMES = ("alpha_sq", "r", "lambda_ratio")

_TRAJECTORY_FIELDS = (
    "t", "chi", "concurrence", "mutual_info", "classical_corr", "discord", "theta", "phi"
)
# Built once: np.rec.fromarrays(names=...) would parse a new dtype per trajectory.
_TRAJECTORY_DTYPE = np.dtype((np.record, [(f, float) for f in _TRAJECTORY_FIELDS]))

# A CSV row is t, the three parameters, then the other trajectory fields in
# order, so format_csv_rows and trajectory_from_csv_rows read the fields in
# place; these fields carry their unit or role in the column name.
_CSV_NAMES = {
    "t": "t_gamma0", "mutual_info": "mutual_info_bits", "classical_corr": "classical_corr_bits",
    "discord": "discord_bits", "theta": "argmax_theta", "phi": "argmax_phi",
}
CSV_COLUMNS = tuple(
    _CSV_NAMES.get(f, f) for f in ("t", *_AXIS_NAMES, *_TRAJECTORY_FIELDS[1:])
)
_CSV_ROW = ",".join(["{:.17g}"] * len(CSV_COLUMNS))  # 17 significant digits round-trip


class NoRevivalError(RuntimeError):
    """The trajectory contains no discord zero, so no revival can follow one."""


@dataclass(frozen=True)
class Axis:
    """One swept parameter: uniformly spaced values over [min, max]."""

    name: str
    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValueError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        if _require_count(self.count, "axis count") < 2:
            raise ValueError(f"axis count must be >= 2, got {self.count}")
        if not self.max > self.min:
            raise ValueError(f"axis range is empty: [{self.min}, {self.max}]")
        # Each domain is an interval and the axis is linear, so its two
        # endpoints stand for every value in between.
        for end in (self.min, self.max):
            _point(**{self.name: end})

    def values(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to produce one sweep dataset.

    Exactly one of the three physical parameters is swept (the axis); the
    other two must be fixed.  Multiple families produce stacked blocks in
    the output, ordered as given.
    """

    families: tuple[Family, ...]
    axis: Axis
    t_max: float
    steps: int
    alpha_sq: float | None = None
    r: float | None = None
    lambda_ratio: float | None = None
    measured: Qubit = Qubit.B

    def __post_init__(self):
        if not self.families or any(not isinstance(f, Family) for f in self.families):
            raise ValueError("families must be a nonempty tuple of Family members")
        if len(set(self.families)) != len(self.families):
            raise ValueError("families must not repeat")
        if not isinstance(self.axis, Axis):
            raise TypeError("axis must be an Axis")
        uniform_grid(self.t_max, self.steps)
        require_qubit(self.measured, "measured")
        fixed = {"alpha_sq": self.alpha_sq, "r": self.r, "lambda_ratio": self.lambda_ratio}
        if fixed[self.axis.name] is not None:
            raise ValueError(f"{self.axis.name} is the swept axis and must not be fixed")
        for name, value in fixed.items():
            if name != self.axis.name and value is None:
                raise ValueError(f"{name} must be fixed when it is not the swept axis")
        _point(*self.point_params(self.axis.min))

    def point_params(self, axis_value: float) -> tuple[float, float, float]:
        """(alpha_sq, r, lambda_ratio) with the axis value substituted in."""
        merged = {"alpha_sq": self.alpha_sq, "r": self.r, "lambda_ratio": self.lambda_ratio}
        merged[self.axis.name] = float(axis_value)
        return merged["alpha_sq"], merged["r"], merged["lambda_ratio"]

    def time_grid(self) -> np.ndarray:
        return uniform_grid(self.t_max, self.steps)

    def resized(self, grid=None, steps=None, t_max=None, measured=None) -> "SweepConfig":
        """This config with the swept-axis point count, the number of time
        samples, the horizon or the measured qubit replaced; None keeps a value."""
        changes = {"steps": steps, "t_max": t_max, "measured": measured}
        changes = {name: value for name, value in changes.items() if value is not None}
        if grid is not None:
            changes["axis"] = replace(self.axis, count=grid)
        return replace(self, **changes)


# The figure datasets: id -> (families, axis (name, min, max, count), t_max,
# the two fixed parameters), each sampled at 1001 times.  The Markovian
# window is [0, 20], the non-Markovian ones [0, 25], wide enough for every
# qualitative feature (death, revivals, the first few zeros).
_PRESETS = {
    "fig1": ((Family.PSI,), ("alpha_sq", 0.0, 1.0, 101), 20.0, {"r": 1.0, "lambda_ratio": 10.0}),
    "fig2": ((Family.PSI,), ("alpha_sq", 0.0, 1.0, 101), 25.0, {"r": 1.0, "lambda_ratio": 0.1}),
    "fig3a": ((Family.PSI,), ("alpha_sq", 0.25, 0.75, 3), 25.0, {"r": 1.0, "lambda_ratio": 0.1}),
    "fig3b": ((Family.PSI,), ("r", 0.4, 1.0, 3), 25.0, {"alpha_sq": 0.5, "lambda_ratio": 0.1}),
    "fig4": ((Family.PHI, Family.PSI), ("r", 0.0, 1.0, 101), 25.0, {"alpha_sq": 0.5, "lambda_ratio": 0.1}),
    "fig5": ((Family.PSI,), ("lambda_ratio", 0.05, 1.0, 101), 25.0, {"alpha_sq": 1.0 / 3.0, "r": 1.0}),
}
PRESET_IDS = tuple(_PRESETS)


def figure_preset(figure_id: str) -> SweepConfig:
    """The SweepConfig of one of the named figure datasets.

    fig1 (Markovian alpha_sq surface), fig2 (non-Markovian alpha_sq
    surface), fig3a (three alpha_sq cuts), fig3b (three purity cuts), fig4
    (purity axis, both families), fig5 (reservoir-width axis).
    """
    if figure_id not in _PRESETS:
        raise KeyError(f"unknown preset {figure_id!r}; known: {', '.join(PRESET_IDS)}")
    families, axis, t_max, fixed = _PRESETS[figure_id]
    return SweepConfig(families, Axis(*axis), t_max, 1001, **fixed)


def _point(
    alpha_sq: float = 0.0, r: float = 1.0, lambda_ratio: float = 1.0, family: Family = Family.PSI
) -> tuple[StateFamily, ReservoirParams]:
    """Initial state and reservoir of one sweep point, each checking its own domain."""
    return StateFamily(family, alpha_sq, r), ReservoirParams(lambda_ratio=lambda_ratio)


def _require_count(value, role: str) -> int:
    """``value`` itself if it is an integer, Python's or numpy's; a float, even a whole one, is an error."""
    if not isinstance(value, numbers.Integral):
        raise TypeError(f"{role} must be an integer, got {value!r}")
    return value


def uniform_grid(t_max: float, steps: int) -> np.ndarray:
    """``steps`` >= 2 evenly spaced times over [0, t_max], t_max positive and finite."""
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if _require_count(steps, "steps") < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    return np.linspace(0.0, t_max, steps)


@dataclass(frozen=True, slots=True)
class EsdReport:
    """Where entanglement died for good, and where it came back above threshold."""

    esd_time: float | None
    revival_times: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -math.inf
        for start, end in self.revival_times:
            if not (start <= end and start > prev_end):
                raise ValueError("revival intervals must be ordered and disjoint")
            prev_end = end


def make_trajectory(
    t, chi, concurrence, mutual_info, classical_corr, discord, theta, phi
) -> np.recarray:
    """Validated record array of one trajectory, one row per time point.

    Every argument is a 1-D sequence of one length.  Times must be finite,
    >= 0 and strictly increasing, and |chi| <= 1 (+1e-12).  Each row must be
    internally consistent: 0 <= concurrence <= 1 (+1e-12); mutual
    information and classical correlation nonnegative, the classical part at
    most the total (+1e-9); discord the gap between them within 1e-9 and not
    below -1e-9; the maximizing basis angles theta in [0, pi/2] and phi in
    [0, 2 pi).  The first offending row is reported.
    """
    cols = [np.asarray(c, dtype=float) for c in
            (t, chi, concurrence, mutual_info, classical_corr, discord, theta, phi)]
    if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError("trajectory columns must be 1-D and of one length")
    ts, chi, c, i, j, d, th, ph = cols
    gap = i - j
    # (rows that pass, message for row k); written as "passes" so NaN fails.
    checks = (
        ((0.0 <= ts) & (ts < math.inf),
         lambda k: f"time must be finite and >= 0, got {ts[k]}"),
        (np.concatenate([[True], ts[1:] > ts[:-1]]),
         lambda k: f"times must increase strictly, got {ts[k]} after {ts[k - 1]}"),
        (np.abs(chi) <= 1.0 + _CHI_TOL,
         lambda k: f"|chi| must be <= 1, got {chi[k]}"),
        ((0.0 <= c) & (c <= 1.0 + 1e-12),
         lambda k: f"concurrence out of [0, 1]: {c[k]}"),
        ((i >= 0.0) & (j >= 0.0),
         lambda k: "correlation measures must be nonnegative"),
        (j <= i + _DISCORD_TOL,
         lambda k: f"classical correlation {j[k]} exceeds mutual information {i[k]}"),
        (d >= -_DISCORD_TOL,
         lambda k: f"discord below round-off floor: {d[k]}"),
        (np.abs(d - gap) <= _DISCORD_TOL,
         lambda k: f"discord {d[k]} inconsistent with total - classical = {gap[k]}"),
        *angle_rules(th, ph),
    )
    for ok, message in checks:
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(f"{message(bad[0])} (row {bad[0]})")
    return np.rec.fromarrays(cols, dtype=_TRAJECTORY_DTYPE)


def trajectory_from_state(
    rho0,
    params: ReservoirParams,
    t_grid,
    measured: Qubit = Qubit.B,
) -> np.recarray:
    """Correlation measures along a time grid for an arbitrary initial state.

    The initial state is pushed through the decay channel as one (T, 4, 4)
    stack, validated once; concurrence, mutual information, classical
    correlation (with its maximizing basis) and discord are evaluated on it.
    """
    if not isinstance(rho0, DensityMatrix):
        raise TypeError("rho0 must be a DensityMatrix")
    t_arr = np.asarray(t_grid, dtype=float)
    if t_arr.ndim != 1 or t_arr.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array of times")
    chi = evaluate_chi(params, t_arr)
    stack = validate_states(evolve_stack(rho0, chi, chi))
    total = mutual_information_stack(stack)
    classical, theta, phi = classical_correlation_stack(stack, measured)
    return make_trajectory(
        t_arr, chi, concurrence_stack(stack), total, classical,
        discord_from_parts(total, classical), theta, phi,
    )


def evolve_trajectory(
    scenario: StateFamily,
    params: ReservoirParams,
    t_grid,
    measured: Qubit = Qubit.B,
) -> np.recarray:
    """Correlation measures along a time grid for a Werner-like initial state."""
    return trajectory_from_state(build_state(scenario), params, t_grid, measured)


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of equal values of a nonempty ``x``."""
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    return starts, np.append(starts[1:] - 1, x.size - 1)


def detect_esd(traj: np.recarray) -> EsdReport:
    """Find sudden death of entanglement and any revivals after it.

    Death is a stretch of concurrence below 1e-9 that lasts at least 0.5 (in
    units of 1/gamma0) and contains an exactly zero value — the spin-flip
    formula clamps genuinely dead states to 0.0, while an asymptotically
    decaying tail stays strictly positive no matter how small it gets, so
    the exactness test separates true death from slow decay.  The death
    time is the start of the first such stretch; revival intervals are the
    stretches at or above 1e-9 after it.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    t, c = traj.t, traj.concurrence
    below = c < _ESD_THRESHOLD
    starts, ends = _runs(below)
    runs = list(zip(starts.tolist(), ends.tolist()))
    for k, (i0, i1) in enumerate(runs):
        if below[i0] and t[i1] - t[i0] >= _ESD_DWELL and np.any(c[i0 : i1 + 1] == 0.0):
            esd_time = float(t[i0])
            revivals = [(float(t[j0]), float(t[j1])) for j0, j1 in runs[k + 1 :] if not below[j0]]
            return EsdReport(esd_time=esd_time, revival_times=tuple(revivals))
    return EsdReport(esd_time=None, revival_times=())


def _parabola_vertex(t0, t1, t2, d0, d1, d2) -> float:
    """Abscissa of the parabola vertex through three points, clamped near t1."""
    denom = (t1 - t0) * (d1 - d2) - (t1 - t2) * (d1 - d0)
    if abs(denom) < 1e-300:
        return float(t1)
    num = (t1 - t0) ** 2 * (d1 - d2) - (t1 - t2) ** 2 * (d1 - d0)
    tv = t1 - 0.5 * num / denom
    return float(min(max(tv, 0.5 * (t0 + t1)), 0.5 * (t1 + t2)))


def _prominent_dips(d: np.ndarray, min_prominence: float) -> list[tuple[int, int]]:
    """(first, last) index of each flat dip of ``d`` with at least ``min_prominence``.

    A dip is a maximal run of equal values that touches neither end and whose
    neighbouring runs are both higher.  Its prominence is that of
    ``scipy.signal.find_peaks(-d, plateau_size=(1, None))`` restated for
    minima: on each side, walk outward until ``d`` first falls below the dip
    or ends, take the highest value reached, and subtract the dip's value
    from the lower of the two highs.
    """
    starts, ends = _runs(d)
    v = d[starts]  # one value per run; a walk moves run by run
    runs = v.tolist()
    dips = []
    for k in (np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])) + 1).tolist():
        floor = runs[k]
        left = max(takewhile(floor.__le__, reversed(runs[:k])))
        right = max(takewhile(floor.__le__, runs[k + 1 :]))
        if min(left, right) - floor >= min_prominence:
            dips.append((int(starts[k]), int(ends[k])))
    return dips


def detect_discord_zeros(traj: np.recarray) -> list[float]:
    """Times where the discord touches zero and climbs out again.

    Candidates are local minima below 1e-3 bits with prominence above the
    arithmetic-noise scale — the rise on both sides separates a genuine
    touch both from wiggle at the noise floor and from asymptotic decay
    into the end of the window, which has no rise at all.  Isolated minima
    are refined by a three-point parabola fit; flat runs of equal minimal
    values report their two edge times.  A trajectory whose discord never
    exceeds the noise floor collapses to its endpoint times.
    """
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    t, d = traj.t, traj.discord
    if bool(np.all(d < _EXACT_ZERO)):
        return [float(t[0]), float(t[-1])]

    zeros: list[float] = []
    for left, right in _prominent_dips(d, _MIN_PROMINENCE):
        i = (left + right) // 2
        if d[i] >= _ZERO_THRESHOLD:
            continue
        if right > left:
            zeros.append(float(t[left]))
            zeros.append(float(t[right]))
        else:
            zeros.append(
                _parabola_vertex(t[i - 1], t[i], t[i + 1], d[i - 1], d[i], d[i + 1])
            )
    return sorted(zeros)


def revival_amplitude(traj: np.recarray) -> float:
    """Largest discord strictly after its first zero, in bits."""
    zeros = detect_discord_zeros(traj)
    if not zeros:
        raise NoRevivalError("no discord zero in the trajectory")
    after = traj.discord[traj.t > zeros[0]]
    if not after.size:
        raise NoRevivalError("trajectory ends at its first discord zero")
    return float(after.max())


def format_csv_rows(
    traj: np.recarray,
    alpha_sq: float,
    r: float,
    params: ReservoirParams,
) -> list[str]:
    """Render one trajectory as CSV data lines (no header).

    ``alpha_sq`` and ``r`` may be NaN when the initial state was supplied
    directly rather than built from a family; the other columns are still
    well defined.
    """
    fixed = (float(alpha_sq), float(r), float(params.lambda_ratio))
    return [_CSV_ROW.format(t, *fixed, *rest) for t, *rest in traj.tolist()]


def _replace_file(path: Path, chunks) -> Path:
    """Write the strings ``chunks``, in order, to a temporary file beside
    ``path``, which then replaces ``path``; returns ``path``.  If writing or
    replacing raises, the temporary file is removed and ``path`` is left as it was."""
    partial = path.with_name(f".{path.name}.{os.urandom(6).hex()}.part")
    fh = open(partial, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def run_sweep(config: SweepConfig, output: str | Path) -> Path:
    """Evaluate the sweep and write it as CSV; returns the path written.

    One row per (family, axis point, time), ordered family-major, then
    axis-major, then by time.  Floats carry 17 significant digits and rows
    end with a bare newline, so identical configs give identical bytes.
    Points are mutually independent; they are evaluated and written in a
    fixed order regardless of how they might be scheduled.  Each trajectory's
    rows go to a temporary file beside ``output`` as it completes, which
    replaces ``output`` at the end; a run that raises removes it and leaves
    ``output`` as it was.
    """
    t_grid = config.time_grid()

    def chunks():
        yield ",".join(CSV_COLUMNS) + "\n"
        for family in config.families:
            for axis_value in config.axis.values():
                alpha_sq, r, lambda_ratio = config.point_params(axis_value)
                scenario, params = _point(alpha_sq, r, lambda_ratio, family)
                traj = evolve_trajectory(scenario, params, t_grid, config.measured)
                yield "\n".join(format_csv_rows(traj, alpha_sq, r, params)) + "\n"

    return _replace_file(Path(output), chunks())


def read_sweep_csv(path: str | Path) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a sweep CSV back as (column names, (rows, columns) array)."""
    with open(path, newline="") as fh:
        header = tuple(fh.readline().strip().split(","))
        if header != CSV_COLUMNS:
            raise ValueError(f"unexpected columns {header}")
        rows = (line for line in fh if line.strip())
        if (first := next(rows, None)) is None:
            return header, np.empty((0, len(CSV_COLUMNS)))
        data = np.loadtxt(chain([first], rows), delimiter=",", ndmin=2)
    if data.shape[1] != len(CSV_COLUMNS):
        raise ValueError(f"rows have {data.shape[1]} fields, expected {len(CSV_COLUMNS)}")
    return header, data


def trajectory_from_csv_rows(rows: np.ndarray) -> np.recarray:
    """Validated trajectory from the rows of one trajectory of ``read_sweep_csv`` data."""
    return make_trajectory(rows[:, 0], *rows[:, 1 + len(_AXIS_NAMES) :].T)
