"""Amplitude factor, its zeros, and the kernel solver."""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordsim import (
    NoZerosError,
    Regime,
    ReservoirParams,
    chi_zeros,
    evaluate_chi,
    regime,
    solve_memory_kernel,
)

# Vanishing times of the amplitude factor for lambda_ratio = 0.1, frozen from
# t_n = 2*(n*pi - atan(d/lambda))/d with d = sqrt(0.19) and confirmed by
# bisection on evaluate_chi.
FIRST_ZERO = 8.242034311692072
SECOND_ZERO = 22.656649994605434


def test_params_validation():
    with pytest.raises(ValueError):
        ReservoirParams(lambda_ratio=0.0)
    with pytest.raises(ValueError):
        ReservoirParams(lambda_ratio=-0.3)


@pytest.mark.parametrize("lam", [1.4e154, 1e200, 1.7e308])
def test_params_reject_spectra_too_wide_for_chi(lam):
    # Above about 1.35e154, lambda |2 - lambda| overflows and chi came out
    # as 0.5 or NaN instead of its Markov limit exp(-t/2).
    with pytest.raises(ValueError, match="1e\\+150"):
        ReservoirParams(lambda_ratio=lam)


def test_chi_at_widest_accepted_spectrum_is_markov_limit():
    params = ReservoirParams(lambda_ratio=1e150)
    for t in (0.5, 1.0, 5.0):
        assert evaluate_chi(params, t) == pytest.approx(math.exp(-0.5 * t), rel=1e-15)
    assert evaluate_chi(params, 0.0) == 1.0


def test_regime_classification():
    assert regime(ReservoirParams(lambda_ratio=0.1)) is Regime.NON_MARKOVIAN
    assert regime(ReservoirParams(lambda_ratio=1.99)) is Regime.NON_MARKOVIAN
    assert regime(ReservoirParams(lambda_ratio=2.0)) is Regime.MARKOVIAN
    assert regime(ReservoirParams(lambda_ratio=10.0)) is Regime.MARKOVIAN


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.5, 2.0, 10.0])
def test_chi_starts_at_one(lam):
    assert evaluate_chi(ReservoirParams(lambda_ratio=lam), 0.0) == pytest.approx(1.0, abs=1e-14)


def test_negative_time_rejected():
    for lam in (0.1, 10.0):
        for t in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                evaluate_chi(ReservoirParams(lambda_ratio=lam), t)


def test_chi_first_zero_frozen():
    params = ReservoirParams(lambda_ratio=0.1)
    assert abs(evaluate_chi(params, FIRST_ZERO)) < 1e-9


def test_chi_flat_spectrum_limit():
    # Very wide spectrum: decay approaches exp(-t/2) in scaled time.
    chi = evaluate_chi(ReservoirParams(lambda_ratio=1000.0), 1.0)
    assert chi == pytest.approx(math.exp(-0.5), abs=1e-2)


@pytest.mark.parametrize("lam", [0.05, 0.1, 0.5, 2.0, 10.0])
def test_chi_bounded_by_one(lam):
    params = ReservoirParams(lambda_ratio=lam)
    ts = np.linspace(0.0, 30.0, 601)
    vals = [evaluate_chi(params, t) for t in ts]
    assert max(abs(v) for v in vals) <= 1.0 + 1e-12


def test_zeros_frozen_oracle():
    zeros = chi_zeros(ReservoirParams(lambda_ratio=0.1), 2)
    assert zeros[0] == pytest.approx(FIRST_ZERO, abs=1e-9)
    assert zeros[1] == pytest.approx(SECOND_ZERO, abs=1e-9)
    params = ReservoirParams(lambda_ratio=0.1)
    for t in zeros:
        assert abs(evaluate_chi(params, t)) < 1e-9


def test_zeros_markovian_raises():
    with pytest.raises(NoZerosError):
        chi_zeros(ReservoirParams(lambda_ratio=10.0), 1)


def test_zeros_zero_count_is_empty():
    assert chi_zeros(ReservoirParams(lambda_ratio=0.1), 0) == []
    with pytest.raises(ValueError):
        chi_zeros(ReservoirParams(lambda_ratio=0.1), -1)


def test_zeros_strictly_increasing():
    zeros = chi_zeros(ReservoirParams(lambda_ratio=0.5), 5)
    assert len(zeros) == 5
    assert all(b > a for a, b in zip(zeros, zeros[1:]))


def test_sign_changes_exactly_at_zeros():
    # In the oscillatory regime the factor crosses through each vanishing
    # time with a sign change, and nowhere else.
    params = ReservoirParams(lambda_ratio=0.5)
    zeros = chi_zeros(params, 3)
    ts = np.linspace(0.0, zeros[-1] + 1.0, 4001)
    vals = np.array([evaluate_chi(params, t) for t in ts])
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    assert len(flips) == len(zeros)
    for idx, z in zip(flips, zeros):
        assert ts[idx] <= z <= ts[idx + 1]


def test_degenerate_boundary_continuity():
    lo = ReservoirParams(lambda_ratio=2.0 - 1e-6)
    mid = ReservoirParams(lambda_ratio=2.0)
    hi = ReservoirParams(lambda_ratio=2.0 + 1e-6)
    for t in np.linspace(0.0, 10.0, 101):
        c = evaluate_chi(mid, t)
        assert abs(evaluate_chi(lo, t) - c) < 1e-6
        assert abs(evaluate_chi(hi, t) - c) < 1e-6


# pi to 60 significant digits, for reducing x modulo 2 pi at 50-digit precision.
_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _cos_sinc(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin(x) / x as Taylor series in the current decimal context."""
    cos = sinc = term = Decimal(1)  # term is (-x^2)^n / (2n)!
    n = 0
    while abs(term) > Decimal("1e-60"):
        n += 1
        term *= -x * x / ((2 * n - 1) * (2 * n))
        cos += term
        sinc += term / (2 * n + 1)
    return cos, sinc


def _chi_reference(lam: float, t: float) -> float:
    """chi in 50-digit decimal arithmetic (exp, sqrt and Taylor series only).

    Below lambda_ratio = 2 it is exp(-h) (cos x + h sin(x) / x), with x
    reduced modulo 2 pi first: for x in the thousands the Taylor terms would
    grow to about e^x and cancel.  From 2 on it is written as two
    exponentials, so that exp(d t / 2) cannot overflow the decimal context
    for wide spectra.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        lam_d, t_d = Decimal(lam), Decimal(t)
        h = lam_d * t_d / 2
        if lam == 2.0:
            return float((-h).exp() * (1 + h))
        d = (lam_d * abs(lam_d - 2)).sqrt()
        x = d * t_d / 2
        if lam < 2.0:
            r = x % (2 * _PI_60)
            cos, sinc = _cos_sinc(r)
            return float((-h).exp() * (cos + h * (sinc * r / x if x else 1)))
        ratio = lam_d / d
        return float(((1 + ratio) * (x - h).exp() + (1 - ratio) * (-x - h).exp()) / 2)


@pytest.mark.parametrize(
    "lam", [2.0, 2.0 + 4.5e-16, 2.0 + 1e-12, 2.0 + 1e-9, 2.0 + 2e-9, 2.5, 10.0, 1e3, 1e4, 1e6]
)
def test_chi_accurate_at_and_above_critical_width(lam):
    # Just above lambda_ratio = 2 the two-exponential form cancels terms of
    # size lambda/d and lost up to ~1e-9 here; for wide spectra its slow
    # rate h - x cancelled two large terms and lost up to ~2e-11.
    params = ReservoirParams(lambda_ratio=lam)
    for t in np.linspace(0.0, 40.0, 161):
        assert abs(evaluate_chi(params, float(t)) - _chi_reference(lam, float(t))) < 1e-15


def test_chi_array_matches_scalar_calls():
    ts = np.linspace(0.0, 30.0, 60).reshape(3, 20)
    for lam in (0.1, 2.0, 10.0):
        params = ReservoirParams(lambda_ratio=lam)
        chis = evaluate_chi(params, ts)
        assert chis.shape == ts.shape
        assert chis.tolist() == [[evaluate_chi(params, t) for t in row] for row in ts.tolist()]
    with pytest.raises(ValueError):
        evaluate_chi(ReservoirParams(lambda_ratio=0.1), np.array([0.0, np.nan]))


def test_kernel_initial_condition():
    ts = np.linspace(0.0, 1.0, 1001)
    sol = solve_memory_kernel(ReservoirParams(lambda_ratio=0.3), ts)
    assert sol[0] == 1.0


def test_kernel_matches_chi_oscillatory():
    params = ReservoirParams(lambda_ratio=0.1)
    ts = np.linspace(0.0, 25.0, 25001)
    sol = solve_memory_kernel(params, ts)
    exact = np.array([evaluate_chi(params, t) for t in ts])
    assert np.max(np.abs(sol - exact)) < 1e-6


def test_kernel_matches_chi_overdamped():
    # The wide-spectrum kernel is stiff, so the quadratic-order quadrature
    # needs a step well below the 1e-3 contract ceiling to reach 1e-6.
    params = ReservoirParams(lambda_ratio=10.0)
    ts = np.linspace(0.0, 5.0, 20001)
    sol = solve_memory_kernel(params, ts)
    exact = np.array([evaluate_chi(params, t) for t in ts])
    assert np.max(np.abs(sol - exact)) < 1e-6


def test_kernel_step_halving_converged():
    # Halving the step changes the answer by less than 1e-8, so this step
    # is inside the quadrature's converged regime.
    params = ReservoirParams(lambda_ratio=0.5)
    coarse = solve_memory_kernel(params, np.linspace(0.0, 10.0, 20001))
    fine = solve_memory_kernel(params, np.linspace(0.0, 10.0, 40001))
    assert np.max(np.abs(coarse - fine[::2])) < 1e-8


def test_kernel_rejects_bad_grids():
    params = ReservoirParams(lambda_ratio=0.5)
    with pytest.raises(ValueError):
        solve_memory_kernel(params, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError):
        solve_memory_kernel(params, np.array([0.5, 0.4, 0.3]))
    with pytest.raises(ValueError):
        solve_memory_kernel(params, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        # step too coarse for the quadrature contract
        solve_memory_kernel(params, np.linspace(0.0, 10.0, 11))


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.01, 50.0, allow_nan=False),
    t=st.floats(0.0, 40.0, allow_nan=False),
)
def test_property_chi_stays_in_unit_band(lam, t):
    assert abs(evaluate_chi(ReservoirParams(lambda_ratio=lam), t)) <= 1.0 + 1e-12


@settings(max_examples=500, deadline=None)
@given(
    lam=st.one_of(
        st.floats(math.log(1e-6), math.log(1e6)).map(math.exp),
        st.floats(2.0 - 1e-9, 2.0 + 1e-9),
    ),
    t=st.floats(0.0, 40.0),
)
def test_property_chi_matches_reference_across_regimes(lam, t):
    # Log-uniform widths from 1e-6 to 1e6 and the lambda_ratio = 2 band,
    # against the 50-digit reference.
    chi = evaluate_chi(ReservoirParams(lambda_ratio=lam), t)
    assert abs(chi - _chi_reference(lam, t)) < 1e-15


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(math.log(1e-6), math.log(1e6)).map(math.exp),
    t=st.floats(40.0, 1e4),
)
def test_property_chi_matches_reference_at_large_times(lam, t):
    # The phase x = d t / 2 and the decay h = lambda t / 2 reach the
    # thousands, and rounding them to floats shifts chi by a few eps times x + h.
    chi = evaluate_chi(ReservoirParams(lambda_ratio=lam), t)
    x = 0.5 * math.sqrt(lam * abs(2.0 - lam)) * t
    h = 0.5 * lam * t
    assert math.isfinite(chi) and abs(chi) <= 1.0 + 1e-12
    assert abs(chi - _chi_reference(lam, t)) <= 1e-15 + 2.0 * sys.float_info.epsilon * (x + h)
