"""Exact decay amplitude for a qubit in a zero-temperature Lorentzian reservoir.

All entry points work in dimensionless time ``gamma0 * t``, so a reservoir is
fixed by its spectral width over its decay rate alone.  The central object is
the amplitude suppression factor ``chi(t)``: excited-state populations scale
as ``chi**2`` and coherences as ``chi``.  Below spectral width
``lambda = 2 * gamma0`` the reservoir memory makes ``chi`` oscillate through
discrete zeros; above it the decay is monotone.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ReservoirParams",
    "Regime",
    "NoZerosError",
    "regime",
    "evaluate_chi",
    "chi_zeros",
    "solve_memory_kernel",
]


# Above about 1.35e154, lambda |2 - lambda| in chi overflows to inf; from about
# 1e17 up, chi already equals its flat-spectrum (Markov) limit exp(-t/2) in
# double precision, so wider spectra add nothing.
_MAX_LAMBDA_RATIO = 1e150


class Regime(enum.Enum):
    MARKOVIAN = "markovian"
    NON_MARKOVIAN = "non_markovian"


@dataclass(frozen=True)
class ReservoirParams:
    """Lorentzian reservoir coupling: spectral width over decay rate,
    0 < lambda / gamma0 <= 1e150."""

    lambda_ratio: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lambda_ratio) and self.lambda_ratio > 0):
            raise ValueError(f"lambda_ratio must be positive and finite, got {self.lambda_ratio}")
        if self.lambda_ratio > _MAX_LAMBDA_RATIO:
            raise ValueError(f"lambda_ratio must be <= {_MAX_LAMBDA_RATIO:g}, got {self.lambda_ratio}")


class NoZerosError(ValueError):
    """The amplitude factor has no positive zeros in this regime."""


def regime(params: ReservoirParams) -> Regime:
    """Classify the reservoir: non-Markovian iff lambda < 2 * gamma0.

    The boundary lambda_ratio == 2 is classified Markovian by convention.
    """
    return Regime.NON_MARKOVIAN if params.lambda_ratio < 2.0 else Regime.MARKOVIAN


def evaluate_chi(params: ReservoirParams, t):
    """Amplitude factor chi at dimensionless time t = gamma0 * t_phys.

    ``t`` is a time or an array of times; an array gives an array of the
    same shape.  chi(0) = 1 and |chi| <= 1 for all t >= 0.  In the
    oscillatory regime chi goes negative between its zeros; coherences
    inherit the sign while populations (chi**2) do not.

    With h = lambda t / 2 and x = d t / 2, chi = exp(-h) (cos x + h sin(x)/x)
    below lambda = 2 and the same with cosh and sinh from 2 on; neither form
    has the factor lambda / d that diverges at lambda = 2.
    """
    if isinstance(t, np.ndarray):
        lam = params.lambda_ratio
        return np.array([_chi(lam, ti) for ti in t.ravel().tolist()]).reshape(t.shape)
    return _chi(params.lambda_ratio, t)


def _chi(lam: float, t: float) -> float:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be nonnegative and finite, got {t}")
    d = math.sqrt(lam * abs(2.0 - lam))
    h = 0.5 * lam * t
    x = 0.5 * d * t
    if lam < 2.0:
        return math.exp(-h) * (math.cos(x) + h * (math.sin(x) / x if x else 1.0))
    if x <= 1.0:
        return math.exp(-h) * (math.cosh(x) + h * (math.sinh(x) / x if x else 1.0))
    # Beyond x = 1, a sum of two decaying exponentials, so that
    # exp(-h) * cosh(x) never overflows for large lambda * t.  The slow rate
    # h - x is written as lambda t / (lambda + d), which for wide spectra
    # does not cancel two large nearly equal terms.
    ratio = lam / d
    slow = math.exp(-lam * t / (lam + d))
    return 0.5 * (1.0 + ratio) * slow + 0.5 * (1.0 - ratio) * math.exp(-x - h)


def _chi_zero_formula(params: ReservoirParams, n: int) -> float:
    lam = params.lambda_ratio
    d = math.sqrt(abs(2.0 * lam - lam * lam))
    return 2.0 * (n * math.pi - math.atan2(d, lam)) / d


def chi_zeros(params: ReservoirParams, n_max: int) -> list[float]:
    """First n_max positive zeros of chi, in dimensionless time units.

    Zeros exist only in the non-Markovian regime; indices start at n = 1
    (n = 0 would give a negative time).  Each returned time is polished by
    bisection so that |chi(t_n)| < 1e-9 holds for the evaluated function,
    not just for the arctan formula.

    Raises
    ------
    ValueError
        If n_max is negative.
    NoZerosError
        In the Markovian regime, where chi has no positive zeros.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if regime(params) is Regime.MARKOVIAN:
        raise NoZerosError(
            f"chi has no positive zeros for lambda_ratio = {params.lambda_ratio} (Markovian regime)"
        )
    zeros = []
    for n in range(1, n_max + 1):
        t_formula = _chi_zero_formula(params, n)
        zeros.append(_polish_zero(params, t_formula))
    return zeros


def _polish_zero(params: ReservoirParams, t0: float, half_width: float = 0.01) -> float:
    """Bisection refinement of a zero of chi inside [t0 - w, t0 + w]."""
    lo = max(t0 - half_width, 0.0)
    hi = t0 + half_width
    f_lo = evaluate_chi(params, lo)
    f_hi = evaluate_chi(params, hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        # Formula value already accurate to working precision.
        return t0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = evaluate_chi(params, mid)
        if f_mid == 0.0 or hi - lo < 1e-15 * max(1.0, t0):
            return mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def solve_memory_kernel(params: ReservoirParams, t_grid: np.ndarray) -> np.ndarray:
    """Numeric amplitude from the memory-kernel equation, independent of the closed form.

    Integrates dC/dt = -int_0^t F(t - s) C(s) ds with C(0) = 1 and the
    exponential kernel F(tau) = (lambda_ratio / 2) exp(-lambda_ratio tau)
    (dimensionless time).  Both the time derivative and the convolution use
    the trapezoidal rule on the supplied uniform grid; the convolution sum is
    accumulated with the kernel's semigroup property, which reproduces the
    direct trapezoidal sum exactly up to floating-point reassociation while
    costing O(n) instead of O(n^2).

    Parameters
    ----------
    t_grid : ascending, uniform, starting at 0, with step <= 1e-3.

    Returns
    -------
    Array of C values on t_grid, C[0] == 1.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1-D grid with at least two points")
    if t[0] != 0.0:
        raise ValueError(f"t_grid must start at 0, got {t[0]}")
    steps = np.diff(t)
    h = steps[0]
    if h <= 0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("t_grid must be strictly ascending with uniform step")
    if h > 1e-3 * (1 + 1e-9):
        raise ValueError(f"grid step {h} too coarse; need h <= 1e-3 in gamma0*t units")

    lam = params.lambda_ratio
    f0 = 0.5 * lam  # kernel value at zero lag
    q = math.exp(-lam * h)  # kernel decay across one step

    n = t.size
    c = np.empty(n)
    c[0] = 1.0
    # conv[k] = trapezoidal quadrature of int_0^{t_k} F(t_k - s) C(s) ds
    conv = 0.0
    # Implicit trapezoid step for the integro-differential equation:
    #   c_k = c_{k-1} - (h/2) (conv_{k-1} + conv_k),
    #   conv_k = q conv_{k-1} + (h f0 / 2) (c_k + q c_{k-1}).
    denom = 1.0 + 0.25 * h * h * f0
    c_prev = 1.0
    for k in range(1, n):
        rhs = c_prev * (1.0 - 0.25 * h * h * f0 * q) - 0.5 * h * (1.0 + q) * conv
        c_k = rhs / denom
        conv = q * conv + 0.5 * h * f0 * (c_k + q * c_prev)
        c[k] = c_k
        c_prev = c_k
    return c
