"""Entropic correlation measures and entanglement for two-qubit states.

Total correlation is the quantum mutual information; classical correlation is
the measurement-maximized information gain about one subsystem from rank-1
projective measurements on the other; their difference is the quantum
discord.  Entanglement is the spin-flip concurrence.  All entropies are in
bits (base-2 logarithms), which makes the maximally entangled pure state come
out at discord exactly 1.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .states import DensityMatrix, Qubit, partial_trace

__all__ = [
    "MeasurementBasis",
    "CorrelationRecord",
    "canonical_angles",
    "von_neumann_entropy",
    "mutual_information",
    "conditional_entropy",
    "classical_correlation",
    "brute_force_classical_correlation",
    "quantum_discord",
    "discord_from_parts",
    "concurrence",
]

_EIG_CLIP = 1e-10  # round-off negatives below this magnitude are an error
_ZERO_EIG = 1e-14  # eigenvalues/probabilities below this contribute 0 log 0 = 0
_SEED_GRID_N = 64
_NM_OPTIONS = {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 600, "maxfev": 900}


def canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Fold arbitrary real angles into theta in [0, pi/2], phi in [0, 2 pi).

    Uses the exact symmetries of the measurement family: (theta + pi, phi)
    and (pi - theta, phi + pi) label the same projector pair.
    """
    theta = math.fmod(theta, math.pi)
    if theta < 0:
        theta += math.pi
    if theta > 0.5 * math.pi:
        theta = math.pi - theta
        phi = phi + math.pi
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi < 0:
        phi += 2.0 * math.pi
    return theta, phi


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective measurement direction on one qubit.

    The two basis vectors are
    ``cos(theta)|1> + exp(i phi) sin(theta)|0>`` and
    ``exp(-i phi) sin(theta)|1> - cos(theta)|0>``.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 0.5 * math.pi:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi must lie in [0, 2 pi), got {self.phi}")

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ep = complex(math.cos(self.phi), math.sin(self.phi))
        v0 = np.array([ct, ep * st], dtype=complex)
        v1 = np.array([st / ep, -ct], dtype=complex)
        return v0, v1

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        v0, v1 = self.vectors()
        return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


@dataclass(frozen=True)
class CorrelationRecord:
    """All correlation measures of the evolved state at one time point.

    Internally consistent by construction: discord is the gap between total
    and classical correlation, every measure is nonnegative up to round-off,
    and the classical part never exceeds the total.
    """

    t: float
    concurrence: float
    mutual_info: float
    classical_corr: float
    discord: float
    argmax_basis: MeasurementBasis

    def __post_init__(self):
        if not 0.0 <= self.concurrence <= 1.0 + 1e-12:
            raise ValueError(f"concurrence out of [0, 1]: {self.concurrence}")
        if self.mutual_info < 0.0 or self.classical_corr < 0.0:
            raise ValueError("correlation measures must be nonnegative")
        if self.classical_corr > self.mutual_info + 1e-9:
            raise ValueError(
                f"classical correlation {self.classical_corr} exceeds "
                f"mutual information {self.mutual_info}"
            )
        if self.discord < -1e-9:
            raise ValueError(f"discord below round-off floor: {self.discord}")
        gap = self.mutual_info - self.classical_corr
        if abs(self.discord - gap) > 1e-9:
            raise ValueError(
                f"discord {self.discord} inconsistent with total - classical = {gap}"
            )


def _entropy_bits(eigs: np.ndarray) -> float:
    w = np.asarray(eigs, dtype=float)
    if w.min(initial=0.0) < -_EIG_CLIP:
        raise ValueError(f"negative eigenvalue {w.min():.3e} beyond tolerance")
    w = w[w > _ZERO_EIG]
    if w.size == 0:
        return 0.0
    return max(0.0, float(-np.sum(w * np.log2(w))))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho log2 rho) in bits, in [0, log2 dim]."""
    return _entropy_bits(np.linalg.eigvalsh(rho.mat))


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlation S(A) + S(B) - S(AB) in bits, >= 0.

    Subadditivity makes the true value nonnegative; round-off undershoot
    within -1e-10 is clamped to 0.
    """
    if rho.dim != 4:
        raise ValueError("mutual_information expects a 4x4 state")
    s_a = von_neumann_entropy(partial_trace(rho, Qubit.A))
    s_b = von_neumann_entropy(partial_trace(rho, Qubit.B))
    s_ab = von_neumann_entropy(rho)
    mi = s_a + s_b - s_ab
    if mi < -1e-10:
        raise ValueError(f"mutual information {mi} below round-off floor")
    return max(0.0, mi)


def _measurement_vector_grid(thetas: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both measurement vectors for flat angle arrays; shape (G, 2)."""
    ct, st = np.cos(thetas), np.sin(thetas)
    ep = np.exp(1j * phis)
    v0 = np.stack([ct.astype(complex), ep * st], axis=-1)
    v1 = np.stack([st / ep, -ct.astype(complex)], axis=-1)
    return v0, v1


def _entropy2_unnormalized(m00: np.ndarray, m11: np.ndarray, m01: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Entropy in bits of M/p for batched 2x2 Hermitian blocks with trace p."""
    safe_p = np.where(p > _ZERO_EIG, p, 1.0)
    mean = 0.5 * (m00 + m11) / safe_p
    disc = np.hypot(0.5 * (m00 - m11) / safe_p, np.abs(m01) / safe_p)
    out = np.zeros_like(safe_p)
    for lam in (mean - disc, mean + disc):
        lam_safe = np.where(lam > _ZERO_EIG, lam, 1.0)
        out -= np.where(lam > _ZERO_EIG, lam * np.log2(lam_safe), 0.0)
    return np.where(p > _ZERO_EIG, np.maximum(out, 0.0), 0.0)


class _GainEvaluator:
    """Information gain S(X) - S(X|{measurement on Y}) for one fixed state.

    Holds the state reshaped for vectorized grid evaluation and its 2x2
    blocks as plain Python complex numbers for a fast scalar path used by
    the simplex refinement (hundreds of single-point calls per state).
    """

    __slots__ = ("s_x", "rho_t", "blocks", "measured")

    def __init__(self, rho: DensityMatrix, measured: Qubit):
        if rho.dim != 4:
            raise ValueError("expected a 4x4 state")
        unmeasured = Qubit.A if measured is Qubit.B else Qubit.B
        self.s_x = von_neumann_entropy(partial_trace(rho, unmeasured))
        self.rho_t = rho.mat.reshape(2, 2, 2, 2)
        m = rho.mat
        # blocks[a][c] is the 2x2 sub-block m[2a+b, 2c+d] as scalar entries
        self.blocks = tuple(
            tuple(
                (
                    complex(m[2 * a, 2 * c]),
                    complex(m[2 * a, 2 * c + 1]),
                    complex(m[2 * a + 1, 2 * c]),
                    complex(m[2 * a + 1, 2 * c + 1]),
                )
                for c in range(2)
            )
            for a in range(2)
        )
        self.measured = measured

    def batch(self, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
        """Vectorized gain over flat angle arrays."""
        v0, v1 = _measurement_vector_grid(thetas, phis)
        if self.measured is Qubit.B:
            m0 = np.einsum("gb,abcd,gd->gac", v0.conj(), self.rho_t, v0, optimize=True)
            m1 = np.einsum("gb,abcd,gd->gac", v1.conj(), self.rho_t, v1, optimize=True)
        else:
            m0 = np.einsum("ga,abcd,gc->gbd", v0.conj(), self.rho_t, v0, optimize=True)
            m1 = np.einsum("ga,abcd,gc->gbd", v1.conj(), self.rho_t, v1, optimize=True)
        s_cond = np.zeros(thetas.shape, dtype=float)
        for m in (m0, m1):
            d00 = m[:, 0, 0].real
            d11 = m[:, 1, 1].real
            p = d00 + d11
            s_cond += p * _entropy2_unnormalized(d00, d11, m[:, 0, 1], p)
        return self.s_x - s_cond

    def scalar(self, theta: float, phi: float) -> float:
        """Single-point gain without array overhead."""
        ct, st = math.cos(theta), math.sin(theta)
        ep = complex(math.cos(phi), math.sin(phi))
        cep = ep.conjugate()
        blocks = self.blocks
        s_cond = 0.0
        for w0, w1 in ((ct + 0j, ep * st), (cep * st, -ct + 0j)):
            cw0, cw1 = w0.conjugate(), w1.conjugate()
            if self.measured is Qubit.B:
                b = blocks[0][0]
                m00 = (cw0 * (b[0] * w0 + b[1] * w1) + cw1 * (b[2] * w0 + b[3] * w1)).real
                b = blocks[1][1]
                m11 = (cw0 * (b[0] * w0 + b[1] * w1) + cw1 * (b[2] * w0 + b[3] * w1)).real
                b = blocks[0][1]
                m01 = cw0 * (b[0] * w0 + b[1] * w1) + cw1 * (b[2] * w0 + b[3] * w1)
            else:
                c00, c01 = cw0 * w0, cw0 * w1
                c10, c11 = cw1 * w0, cw1 * w1
                b00, b01 = blocks[0][0], blocks[0][1]
                b10, b11 = blocks[1][0], blocks[1][1]
                m00 = (c00 * b00[0] + c01 * b01[0] + c10 * b10[0] + c11 * b11[0]).real
                m01 = c00 * b00[1] + c01 * b01[1] + c10 * b10[1] + c11 * b11[1]
                m11 = (c00 * b00[3] + c01 * b01[3] + c10 * b10[3] + c11 * b11[3]).real
            p = m00 + m11
            if p <= _ZERO_EIG:
                continue
            mean = 0.5 * (m00 + m11) / p
            disc = math.hypot(0.5 * (m00 - m11) / p, abs(m01) / p)
            s = 0.0
            for lam in (mean - disc, mean + disc):
                if lam > _ZERO_EIG:
                    s -= lam * math.log2(lam)
            s_cond += p * max(0.0, s)
        return self.s_x - s_cond


def conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis, measured: Qubit = Qubit.B) -> float:
    """Average entropy of the unmeasured qubit after measuring the other.

    Sum of p_i * S(rho_{X|i}) over the two outcomes; outcomes with
    probability below 1e-14 contribute zero.
    """
    ev = _GainEvaluator(rho, measured)
    return ev.s_x - ev.scalar(basis.theta, basis.phi)


def brute_force_classical_correlation(
    rho: DensityMatrix, grid_n: int = 256, measured: Qubit = Qubit.B
) -> float:
    """Maximum information gain over a uniform grid of measurement angles.

    A lower bound on `classical_correlation`; used as the optimizer oracle.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n}")
    ev = _GainEvaluator(rho, measured)
    thetas = np.linspace(0.0, 0.5 * math.pi, grid_n)
    phis = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    gain = ev.batch(tt.ravel(), pp.ravel())
    return max(0.0, float(gain.max()))


def classical_correlation(
    rho: DensityMatrix, measured: Qubit = Qubit.B
) -> tuple[float, MeasurementBasis]:
    """Classical correlation: information gain maximized over projective bases.

    A coarse 64x64 angle grid seeds a Nelder-Mead refinement from the best
    three seeds; the best refined value and its (folded) measurement angles
    are returned.
    """
    ev = _GainEvaluator(rho, measured)
    thetas = np.linspace(0.0, 0.5 * math.pi, _SEED_GRID_N)
    phis = np.linspace(0.0, 2.0 * math.pi, _SEED_GRID_N, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    gain = ev.batch(tt, pp)

    order = np.argsort(gain)[::-1][:3]
    best_val = float(gain[order[0]])
    best_angles = (float(tt[order[0]]), float(pp[order[0]]))

    def neg_gain(x):
        return -ev.scalar(x[0], x[1])

    for idx in order:
        res = minimize(
            neg_gain,
            np.array([tt[idx], pp[idx]]),
            method="Nelder-Mead",
            options=_NM_OPTIONS,
        )
        if -res.fun > best_val:
            best_val = -float(res.fun)
            best_angles = (float(res.x[0]), float(res.x[1]))

    theta, phi = canonical_angles(*best_angles)
    return max(0.0, best_val), MeasurementBasis(theta, phi)


def discord_from_parts(total: float, classical: float) -> float:
    """Discord as total minus classical, with round-off within -1e-9 clipped to 0."""
    d = total - classical
    if -1e-9 <= d < 0.0:
        return 0.0
    return d


def quantum_discord(rho: DensityMatrix, measured: Qubit = Qubit.B) -> float:
    """Mutual information minus classical correlation, in bits.

    Values within -1e-9 of zero are round-off and clip to 0.
    """
    total = mutual_information(rho)
    classical, _ = classical_correlation(rho, measured)
    return discord_from_parts(total, classical)


# sigma_y in the fixed {|1>, |0>} basis order, doubled up for the spin flip.
_SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence(rho: DensityMatrix) -> float:
    """Spin-flip concurrence of a two-qubit state, in [0, 1].

    The square roots of the eigenvalues of rho rho~, rho~ = (sy x sy) rho*
    (sy x sy), are the singular values of sqrt(rho) sqrt(rho~), where
    sqrt(rho~) = (sy x sy) sqrt(rho)* (sy x sy) (Wootters, PRL 80, 2245,
    1998); entrywise conjugation is taken in the fixed basis.  Taking
    singular values avoids the square root of a spectrum that is near zero,
    which would amplify round-off to ~1e-8.
    """
    if rho.dim != 4:
        raise ValueError("concurrence expects a 4x4 state")
    w, v = np.linalg.eigh(rho.mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    s = np.linalg.svd(root @ _SPIN_FLIP @ root.conj() @ _SPIN_FLIP, compute_uv=False)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))
