"""The benchmark's workloads: seeded inputs, one operation, output checks.

An operation is what one closed-loop caller waits for.  On raw-general and
feature-scan it is one trajectory; on fig2-sweep it is one ``run_sweep``
call over the reduced fig2 axis, three trajectories long.  Workloads call
discordsim only through module attributes looked up at call time
(``ds.evolve_trajectory``), so the tracer's rebinding reaches them.
"""

import dataclasses
import itertools
import math

import numpy as np

import oracle


# Row keys of oracle.check_rows and the CSV columns they are read from.
_CSV_KEYS = {
    "t": "t_gamma0",
    "chi": "chi",
    "lambda_ratio": "lambda_ratio",
    "concurrence": "concurrence",
    "mutual_info": "mutual_info_bits",
    "classical": "classical_corr_bits",
    "discord": "discord_bits",
}


def _csv_rows(names, block):
    by_name = dict(zip(names, block.T))
    return {key: by_name.get(col, np.empty(0)) for key, col in _CSV_KEYS.items()}


@dataclasses.dataclass
class Outcome:
    """Checks of one operation: per trajectory, its failures and its sample candidates."""

    fails: list  # list[list[str]], one entry per trajectory
    candidates: list  # (trajectory index, rho0, lambda_ratio, t, J, measured)


class Workload:
    name = ""
    min_ops = 1  # operations every run completes, also the exact-count prefix

    def __init__(self, ds, seed, toy, workdir):
        self.ds = ds
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.toy = toy
        self.workdir = workdir
        if toy:
            self.min_ops = min(self.min_ops, 6)

    def specs(self):
        """Endless stream of operation inputs, a pure function of the seed."""
        raise NotImplementedError

    def trajectories(self, spec):
        return 1

    def points(self, spec):
        raise NotImplementedError

    def run(self, spec):
        """The timed operation; returns what ``collect`` needs."""
        raise NotImplementedError

    def collect(self, spec, result):
        """Untimed: turn the operation's result into something ``check`` can read."""
        return result

    def check(self, spec, output):
        raise NotImplementedError

    def _trajectory_outcome(self, rho0, lam, t_grid, rows, measured, index=0):
        fails = oracle.check_rows(rho0, lam, t_grid, rows)
        cands = [(index, rho0, lam, t, j, measured) for t, j in zip(rows["t"], rows["classical"])]
        return fails, cands


class Fig2Sweep(Workload):
    """fig2 preset (PSI, r = 1, lambda/gamma0 = 0.1) on a 3-point alpha^2 axis, 101 times.

    The axis keeps both product-state endpoints; the inputs do not depend on
    the seed.  Each operation writes its CSV to a temporary file.
    """

    name = "fig2-sweep"

    def __init__(self, ds, seed, toy, workdir):
        super().__init__(ds, seed, toy, workdir)
        base = ds.figure_preset("fig2")
        grid, steps = (2, 5) if toy else (3, 101)
        self.config = dataclasses.replace(
            base, axis=dataclasses.replace(base.axis, count=grid), steps=steps
        )
        self.path = workdir / f"fig2-sweep-{seed}.csv"

    def specs(self):
        return itertools.repeat(self.config)

    def trajectories(self, spec):
        return len(spec.families) * spec.axis.count

    def points(self, spec):
        return self.trajectories(spec) * spec.steps

    def run(self, spec):
        return self.ds.run_sweep(spec, self.path)

    def collect(self, spec, result):
        text = self.path.read_text()
        self.path.unlink()
        return text

    def check(self, spec, text):
        header_fails, names, data = oracle.parse_csv(text, self.ds.CSV_COLUMNS)
        t_grid = spec.time_grid()
        fails, cands = [], []
        for k, (family, axis_value) in enumerate(itertools.product(spec.families, spec.axis.values())):
            alpha_sq, r, lam = spec.point_params(axis_value)
            block = data[k * spec.steps : (k + 1) * spec.steps]
            rows = _csv_rows(names, block)
            rho0 = oracle.family_state(family.value, alpha_sq, r)
            f, c = self._trajectory_outcome(rho0, lam, t_grid, rows, spec.measured, k)
            if block.shape[0] == spec.steps and not (
                np.all(block[:, 1] == alpha_sq) and np.all(block[:, 2] == r)
            ):
                f.append("alpha_sq or r column differs from the sweep point")
            fails.append(header_fails + f)
            cands.extend(c)
        if data.shape[0] != self.points(spec):
            fails[0].append(f"expected {self.points(spec)} rows, got {data.shape[0]}")
        return Outcome(fails, cands)


class RawGeneral(Workload):
    """``evolve --raw-state``: random full-rank non-X states, 6 times over [0, 25].

    lambda/gamma0 cycles through the oscillating regime, the monotone regime
    and the lambda/gamma0 = 2 band; the measured qubit alternates A, B.
    """

    name = "raw-general"
    min_ops = 100  # ten samples beyond the 90th percentile

    def specs(self):
        ds, rng = self.ds, self.rng
        t_grid = np.linspace(0.0, 25.0, 3 if self.toy else 6)
        for i in itertools.count():
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m = g @ g.conj().T
            m = 0.95 * m / np.trace(m).real + 0.05 * np.eye(4) / 4.0
            rho0 = 0.5 * (m + m.conj().T)
            kind = i % 3
            if kind == 0:
                lam = math.exp(rng.uniform(math.log(0.05), math.log(1.5)))
            elif kind == 1:
                lam = math.exp(rng.uniform(math.log(2.5), math.log(20.0)))
            else:
                lam = 2.0 if rng.uniform() < 0.5 else 2.0 + rng.uniform(-1e-9, 1e-9)
            yield rho0, lam, ds.Qubit.A if i % 2 == 0 else ds.Qubit.B, t_grid

    def points(self, spec):
        return spec[3].size

    def run(self, spec):
        ds = self.ds
        rho0, lam, measured, t_grid = spec
        params = ds.ReservoirParams(lambda_ratio=lam)
        records = ds.trajectory_from_state(ds.DensityMatrix(rho0), params, t_grid, measured)
        lines = [",".join(ds.CSV_COLUMNS)]
        lines.extend(ds.sweep.format_csv_rows(records, math.nan, math.nan, params))
        return "\n".join(lines) + "\n"

    def check(self, spec, text):
        rho0, lam, measured, t_grid = spec
        header_fails, names, data = oracle.parse_csv(text, self.ds.CSV_COLUMNS)
        rows = _csv_rows(names, data)
        fails, cands = self._trajectory_outcome(rho0, lam, t_grid, rows, measured)
        return Outcome([header_fails + fails], cands)


class FeatureScan(Workload):
    """Coarse trajectories (26 times) followed by the ESD, discord-zero and revival detectors.

    Family, alpha^2, r (a third of the draws within 0.02 of the Werner
    onset at 1/3) and lambda/gamma0 (half in each regime) come from the
    seed.  At least 100 trajectories run, so the 90th percentile has ten
    samples beyond it.
    """

    name = "feature-scan"
    min_ops = 100

    def specs(self):
        rng = self.rng
        steps = 6 if self.toy else 26
        for i in itertools.count():
            # Family, regime and onset draws cycle, so every seed has the same mix.
            family = ("phi", "psi")[i % 2]
            alpha_sq = rng.uniform()
            if i % 3 == 0:
                r = 1.0 / 3.0 + rng.uniform(-0.02, 0.02)
            else:
                r = rng.uniform(0.34, 1.0)
            if (i // 2) % 2 == 0:
                lam, t_max = math.exp(rng.uniform(math.log(0.05), math.log(1.5))), 25.0
            else:
                lam, t_max = math.exp(rng.uniform(math.log(2.5), math.log(20.0))), 20.0
            yield family, alpha_sq, r, lam, np.linspace(0.0, t_max, steps)

    def points(self, spec):
        return spec[4].size

    def run(self, spec):
        ds = self.ds
        family, alpha_sq, r, lam, t_grid = spec
        scenario = ds.StateFamily(ds.Family(family), alpha_sq, r)
        records = ds.evolve_trajectory(scenario, ds.ReservoirParams(lambda_ratio=lam), t_grid)
        esd = ds.detect_esd(records)
        zeros = ds.detect_discord_zeros(records)
        try:
            revival = ds.revival_amplitude(records)
        except ds.NoRevivalError:
            revival = None
        return records, esd, zeros, revival

    def check(self, spec, output):
        family, alpha_sq, r, lam, t_grid = spec
        records, esd, zeros, revival = output
        rows = {
            "t": [rec.t for rec in records],
            "concurrence": [rec.concurrence for rec in records],
            "mutual_info": [rec.mutual_info for rec in records],
            "classical": [rec.classical_corr for rec in records],
            "discord": [rec.discord for rec in records],
        }
        rho0 = oracle.family_state(family, alpha_sq, r)
        fails, cands = self._trajectory_outcome(rho0, lam, t_grid, rows, self.ds.Qubit.B)
        if esd.esd_time is not None and esd.esd_time not in t_grid:
            fails.append(f"ESD time {esd.esd_time} is not a grid time")
        if list(zeros) != sorted(zeros) or any(not t_grid[0] <= z <= t_grid[-1] for z in zeros):
            fails.append(f"discord zeros {zeros} unsorted or outside the window")
        if revival is not None and not 0.0 <= revival <= max(rows["discord"]):
            fails.append(f"revival amplitude {revival} outside [0, max discord]")
        return Outcome([fails], cands)


WORKLOADS = {w.name: w for w in (Fig2Sweep, RawGeneral, FeatureScan)}
