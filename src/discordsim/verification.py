"""Self-verification: quick oracle checks and the full acceptance battery.

Every check is a named function returning a CheckResult; the CLI ``verify``
subcommand prints them as a pass/fail table and the test suite asserts them
one by one.  The quick tier re-derives closed-form identities in seconds;
the full tier adds the nine acceptance criteria, including the slow
trajectory-level ones.  All randomness is seeded, so both tiers are
deterministic.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlations import (
    MeasurementBasis,
    brute_force_classical_correlation,
    classical_correlation,
    concurrence,
    conditional_entropy,
    mutual_information,
    quantum_discord,
    von_neumann_entropy,
)
from .reservoir import NoZerosError, ReservoirParams, chi_zeros, evaluate_chi, solve_memory_kernel
from .scenarios import Family, StateFamily, build_state
from .states import (
    DensityMatrix,
    Qubit,
    amplitude_damping_kraus,
    evolve_stack,
    partial_trace,
    pure_state,
    reduced_states,
    single_qubit_evolve,
    spectra,
    tensor,
)
from .sweep import detect_discord_zeros, detect_esd, evolve_trajectory, figure_preset, revival_amplitude, run_sweep

__all__ = ["CheckResult", "run_verification", "format_report", "QUICK_CHECKS", "ACCEPTANCE_CHECKS"]

_SEED = 20260818


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_state(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def _random_pure(rng: np.random.Generator) -> DensityMatrix:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return pure_state(v / np.linalg.norm(v))


# ---------------------------------------------------------------- quick tier


def check_amplitude_factor() -> CheckResult:
    # every probe is (error - tolerance); all must come out <= 0
    margins = []
    ts = np.linspace(0.0, 30.0, 301)
    for lam in (0.05, 0.1, 0.5, 2.0, 10.0):
        p = ReservoirParams(lambda_ratio=lam)
        margins.append(abs(evaluate_chi(p, 0.0) - 1.0) - 1e-14)
        margins.append(float(np.max(np.abs(evaluate_chi(p, ts)))) - (1.0 + 1e-12))
    # wide-reservoir limit: chi approaches exp(-t/2)
    wide = ReservoirParams(lambda_ratio=1000.0)
    margins.append(abs(evaluate_chi(wide, 1.0) - math.exp(-0.5)) - 1e-2)
    # continuity across the critical width
    for t in (0.5, 2.0, 7.0):
        lo = evaluate_chi(ReservoirParams(lambda_ratio=2.0 - 1e-12), t)
        hi = evaluate_chi(ReservoirParams(lambda_ratio=2.0 + 1e-12), t)
        margins.append(abs(lo - hi) - 1e-9)
    worst = max(margins)
    return CheckResult("amplitude-factor", worst <= 0.0, f"worst margin {worst:.2e}")


def check_zero_formula() -> CheckResult:
    p = ReservoirParams(lambda_ratio=0.1)
    zeros = chi_zeros(p, 2)
    frozen = (8.242034311692072, 22.656649994605434)
    err = max(abs(a - b) for a, b in zip(zeros, frozen))
    residual = max(abs(evaluate_chi(p, z)) for z in zeros)
    markov_raises = False
    try:
        chi_zeros(ReservoirParams(lambda_ratio=10.0), 1)
    except NoZerosError:
        markov_raises = True
    ok = err < 1e-9 and residual < 1e-12 and markov_raises
    return CheckResult("zero-formula", ok, f"formula err {err:.2e}, residual {residual:.2e}")


def check_kernel_quick() -> CheckResult:
    err = _kernel_sup_err((0.5,), np.linspace(0.0, 10.0, 10001))
    return CheckResult("kernel-quick", err < 1e-5, f"sup err {err:.2e}")


def check_bell_measures() -> CheckResult:
    bell = build_state(StateFamily(Family.PSI, 0.5, 1.0))
    c = concurrence(bell)
    mi = mutual_information(bell)
    j, _ = classical_correlation(bell)
    d = quantum_discord(bell)
    ok = abs(c - 1) < 1e-12 and abs(mi - 2) < 1e-12 and abs(j - 1) < 1e-6 and abs(d - 1) < 1e-4
    return CheckResult(
        "bell-measures", ok, f"C={c:.12f} T={mi:.12f} J={j:.12f} D={d:.12f}"
    )


def check_entropy_basics() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    errs = [
        von_neumann_entropy(_random_pure(rng)),
        abs(von_neumann_entropy(DensityMatrix(np.eye(2, dtype=complex) / 2)) - 1.0),
        abs(von_neumann_entropy(DensityMatrix(np.eye(4, dtype=complex) / 4)) - 2.0),
    ]
    ra, rb = _random_state(rng, 2), _random_state(rng, 2)
    errs.append(
        abs(
            von_neumann_entropy(tensor(ra, rb))
            - von_neumann_entropy(ra)
            - von_neumann_entropy(rb)
        )
    )
    worst = max(errs)
    return CheckResult("entropy-basics", worst < 1e-10, f"worst err {worst:.2e}")


def check_channel_quick() -> CheckResult:
    worst = _channel_violation(np.random.default_rng(_SEED + 1), 20)
    return CheckResult("channel-quick", worst < 1e-12, f"worst err {worst:.2e}")


def check_pure_discord_quick() -> CheckResult:
    worst = _pure_discord_gap(np.random.default_rng(_SEED + 2), 5)
    return CheckResult("pure-discord-quick", worst < 1e-6, f"worst |D - S(A)| {worst:.2e}")


def check_werner_values() -> CheckResult:
    errs = []
    for r in (0.0, 0.2, 1.0 / 3.0, 0.4, 0.7, 1.0):
        c = concurrence(build_state(StateFamily(Family.PSI, 0.5, r)))
        errs.append(abs(c - max(0.0, (3 * r - 1) / 2)))
    mi = mutual_information(build_state(StateFamily(Family.PSI, 0.5, 0.5)))
    errs.append(abs(mi - 0.45120505930460153))
    s1 = build_state(StateFamily(Family.PHI, 1.0 / 3.0, 1.0)).mat
    s0 = build_state(StateFamily(Family.PHI, 1.0 / 3.0, 0.0)).mat
    sh = build_state(StateFamily(Family.PHI, 1.0 / 3.0, 0.5)).mat
    errs.append(float(np.max(np.abs(sh - 0.5 * s1 - 0.5 * s0))))
    worst = max(errs)
    return CheckResult("werner-values", worst < 1e-10, f"worst err {worst:.2e}")


def check_classical_state() -> CheckResult:
    cl = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    ce = conditional_entropy(cl, MeasurementBasis(math.pi / 4, 0.0), Qubit.B)
    j, basis = classical_correlation(cl)
    d = quantum_discord(cl)
    near_axis = min(basis.theta, abs(basis.theta - math.pi / 2)) < 1e-3
    ok = abs(ce - 1.0) < 1e-9 and abs(j - 1.0) < 1e-6 and d < 1e-6 and near_axis
    return CheckResult("classical-state", ok, f"condS={ce:.9f} J={j:.9f} D={d:.2e}")


# ----------------------------------------------------------- acceptance tier


def _kernel_sup_err(lambda_ratios, t: np.ndarray) -> float:
    """Largest gap between the memory-kernel solve and the closed-form amplitude."""
    worst = 0.0
    for lam in lambda_ratios:
        p = ReservoirParams(lambda_ratio=lam)
        worst = max(worst, float(np.max(np.abs(solve_memory_kernel(p, t) - evaluate_chi(p, t)))))
    return worst


def criterion_1_kernel_oracle() -> CheckResult:
    """Closed-form amplitude vs the memory-kernel integro-differential solve."""
    worst = _kernel_sup_err((0.05, 0.1, 0.5, 2.0, 10.0), np.linspace(0.0, 25.0, 250001))
    return CheckResult("kernel-oracle-equivalence", worst <= 1e-6, f"sup err {worst:.2e} (tol 1e-6)")


def criterion_2_discord_zeros() -> CheckResult:
    """First two discord zeros against the amplitude-zero formula."""
    p = ReservoirParams(lambda_ratio=0.1)
    tn = chi_zeros(p, 2)
    recs = evolve_trajectory(
        StateFamily(Family.PSI, 0.5, 1.0), p, np.linspace(0.0, 25.0, 2501)
    )
    zeros = detect_discord_zeros(recs)
    if len(zeros) < 2:
        return CheckResult("discord-zeros", False, f"found only {len(zeros)} zeros")
    err = max(abs(zeros[0] - tn[0]), abs(zeros[1] - tn[1]))
    between = max(r.discord for r in recs if zeros[0] < r.t < zeros[1])
    ok = err <= 5e-3 and between > 1e-3
    return CheckResult(
        "discord-zeros", ok, f"max err {err:.2e} (tol 5e-3), revival {between:.4f} bits"
    )


def criterion_3_esd_dichotomy() -> CheckResult:
    """Sudden death below the half-excitation boundary, none above it."""
    p = ReservoirParams(lambda_ratio=10.0)
    grid = np.linspace(0.0, 20.0, 401)
    low = evolve_trajectory(StateFamily(Family.PSI, 0.25, 1.0), p, grid)
    high = evolve_trajectory(StateFamily(Family.PSI, 0.75, 1.0), p, grid)
    esd_low = detect_esd(low).esd_time
    esd_high = detect_esd(high).esd_time
    d_low = min(r.discord for r in low if r.t < 10.0)
    d_high = min(r.discord for r in high if r.t < 10.0)
    ok = (
        esd_low is not None
        and math.isfinite(esd_low)
        and esd_high is None
        and d_low > 1e-9
        and d_high > 1e-9
    )
    return CheckResult(
        "esd-dichotomy",
        ok,
        f"esd(0.25)={esd_low}, esd(0.75)={esd_high}, min discord {min(d_low, d_high):.2e}",
    )


def criterion_4_werner_onset() -> CheckResult:
    """Entanglement onset at purity 1/3; discord positive at tiny purity."""
    c_onset = concurrence(build_state(StateFamily(Family.PSI, 0.5, 1.0 / 3.0)))
    c_above = concurrence(build_state(StateFamily(Family.PSI, 0.5, 0.4)))
    d_tiny = quantum_discord(build_state(StateFamily(Family.PSI, 0.5, 0.05)))
    ok = c_onset < 1e-10 and c_above > 0.04 and d_tiny > 1e-4
    return CheckResult(
        "werner-onset", ok, f"C(1/3)={c_onset:.2e}, C(0.4)={c_above:.4f}, D(0.05)={d_tiny:.2e}"
    )


def criterion_5_revival_trend() -> CheckResult:
    """Discord revival amplitude grows as the reservoir narrows."""
    amps = []
    for lam in (0.05, 0.1, 0.2, 0.5):
        p = ReservoirParams(lambda_ratio=lam)
        recs = evolve_trajectory(
            StateFamily(Family.PSI, 1.0 / 3.0, 1.0), p, np.linspace(0.0, 30.0, 601)
        )
        amps.append(revival_amplitude(recs))
    ok = all(a > b for a, b in zip(amps, amps[1:]))
    return CheckResult(
        "revival-trend", ok, "amps " + ", ".join(f"{a:.4f}" for a in amps)
    )


def criterion_6_optimizer_soundness() -> CheckResult:
    """Refined classical correlation brackets the dense-grid oracle."""
    rng = np.random.default_rng(_SEED + 6)
    low_slack = math.inf
    high_slack = math.inf
    for _ in range(200):
        rho = _random_state(rng, 4)
        refined, _ = classical_correlation(rho)
        gridded = brute_force_classical_correlation(rho, 256)
        low_slack = min(low_slack, refined - (gridded - 1e-9))
        high_slack = min(high_slack, (gridded + 1e-4) - refined)
    bell = build_state(StateFamily(Family.PSI, 0.5, 1.0))
    d_bell = quantum_discord(bell)
    ok = low_slack >= 0.0 and high_slack >= 0.0 and abs(d_bell - 1.0) <= 1e-4
    return CheckResult(
        "optimizer-soundness",
        ok,
        f"slack [{low_slack:.2e}, {high_slack:.2e}], Bell D={d_bell:.6f}",
    )


def _pure_discord_gap(rng: np.random.Generator, count: int) -> float:
    """Largest |D - S| over ``count`` random pure states, S the entropy of B's marginal."""
    worst = 0.0
    for _ in range(count):
        psi = _random_pure(rng)
        gap = abs(quantum_discord(psi) - von_neumann_entropy(partial_trace(psi, Qubit.B)))
        worst = max(worst, gap)
    return worst


def criterion_7_pure_state_identity() -> CheckResult:
    """Pure-state discord equals the entanglement entropy; diagonal states have none."""
    rng = np.random.default_rng(_SEED + 7)
    worst_pure = _pure_discord_gap(rng, 100)
    worst_diag = 0.0
    for _ in range(100):
        probs = rng.dirichlet(np.ones(4))
        diag = DensityMatrix(np.diag(probs).astype(complex))
        worst_diag = max(worst_diag, quantum_discord(diag))
    ok = worst_pure <= 1e-6 and worst_diag < 1e-6
    return CheckResult(
        "pure-state-identity", ok, f"|D - S(A)| {worst_pure:.2e}, diag D {worst_diag:.2e}"
    )


def _channel_violation(rng: np.random.Generator, count: int) -> float:
    """Worst violation of the channel laws over ``count`` random states and
    amplitudes, NaN if a law reads NaN."""
    errs = [0.0]
    for _ in range(count):
        rho = _random_state(rng, 4)
        chi_a = rng.uniform(-1, 1)
        chi_b = rng.uniform(-1, 1)
        out = evolve_stack(rho, chi_a, chi_b)  # unvalidated, so a negative eigenvalue shows
        errs += [abs(np.trace(out[0]).real - 1.0), -spectra(out)[0, 0] - 1e-10]
        for q, chi in ((Qubit.A, chi_a), (Qubit.B, chi_b)):
            pair = amplitude_damping_kraus(chi)
            errs.append(np.max(np.abs(pair.k0.conj().T @ pair.k0 + pair.k1.conj().T @ pair.k1 - np.eye(2))))
            red = single_qubit_evolve(partial_trace(rho, q), chi)
            errs.append(np.max(np.abs(reduced_states(out, q)[0] - red.mat)))
    return float(np.max(errs))


def criterion_8_channel_laws() -> CheckResult:
    """Trace, completeness, positivity, and locality of the decay channel."""
    worst = _channel_violation(np.random.default_rng(_SEED + 8), 1000)
    return CheckResult("channel-laws", worst < 1e-12, f"worst violation {worst:.2e}")


def criterion_9_determinism() -> CheckResult:
    """Identical sweep configs produce byte-identical CSV files."""
    cfg = figure_preset("fig2").resized(grid=5, steps=21)
    with tempfile.TemporaryDirectory() as td:
        p1 = run_sweep(cfg, Path(td) / "run1.csv")
        p2 = run_sweep(cfg, Path(td) / "run2.csv")
        b1, b2 = p1.read_bytes(), p2.read_bytes()
    ok = b1 == b2 and len(b1) > 0
    return CheckResult("determinism", ok, f"{len(b1)} bytes, identical={b1 == b2}")


QUICK_CHECKS = (
    check_amplitude_factor,
    check_zero_formula,
    check_kernel_quick,
    check_bell_measures,
    check_entropy_basics,
    check_channel_quick,
    check_pure_discord_quick,
    check_werner_values,
    check_classical_state,
)

ACCEPTANCE_CHECKS = (
    criterion_1_kernel_oracle,
    criterion_2_discord_zeros,
    criterion_3_esd_dichotomy,
    criterion_4_werner_onset,
    criterion_5_revival_trend,
    criterion_6_optimizer_soundness,
    criterion_7_pure_state_identity,
    criterion_8_channel_laws,
    criterion_9_determinism,
)


def run_verification(level: str = "quick") -> list[CheckResult]:
    """Run the requested tier; 'full' appends the acceptance battery.  A check
    that raises gives a failed result, and the remaining checks still run."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    checks = QUICK_CHECKS + (ACCEPTANCE_CHECKS if level == "full" else ())
    return [_run_check(fn) for fn in checks]


def _run_check(fn) -> CheckResult:
    """The check's result, or a failed one naming the check and what it raised."""
    try:
        return fn()
    except Exception as exc:
        return CheckResult(fn.__name__, False, f"raised {type(exc).__name__}: {exc}")


def format_report(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}"
        for r in results
    ]
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
