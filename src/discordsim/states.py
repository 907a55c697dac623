"""Two-qubit density matrices and the amplitude-damping channel.

Basis conventions are fixed once and used everywhere: single-qubit basis
{|1>, |0>} (excited first), two-qubit basis {|11>, |10>, |01>, |00>}.
The channel applies the exact single-qubit decay map to each qubit, for a
whole array of amplitudes at once: populations scale by chi**2, coherences by
chi, with chi allowed to be negative in the oscillatory reservoir regime.
"""

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Qubit",
    "DensityMatrix",
    "KrausPair",
    "single_qubit_evolve",
    "amplitude_damping_kraus",
    "two_qubit_evolve",
    "tensor",
    "partial_trace",
    "pure_state",
]

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_POSITIVITY_TOL = 1e-10
_CHI_TOL = 1e-12


class Qubit(enum.Enum):
    A = "A"
    B = "B"


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 2x2 or 4x4 density matrix in the fixed basis order.

    Construction checks that every entry is finite, hermiticity and unit
    trace to 1e-12 and positivity to -1e-10 on the eigenvalues.  Entries are
    stored exactly as given (read-only); eigenvalue consumers clip round-off
    negatives at the point of use.
    """

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", validate_states(np.asarray(self.mat)[None])[0])

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues with (-1e-10, 0) round-off clipped to zero."""
        w = np.linalg.eigvalsh(self.mat)
        return np.clip(w, 0.0, None)


def validate_states(m) -> np.ndarray:
    """Read-only complex copy of a stack (T, n, n), n in {2, 4}, of density
    matrices, checked as `DensityMatrix` describes; the worst matrix is reported."""
    m = np.array(m, dtype=complex)
    if m.ndim != 3 or m.shape[1:] not in ((2, 2), (4, 4)):
        raise ValueError(f"density matrices must be 2x2 or 4x4, got a stack of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("density matrix has non-finite entries")
    herm_err = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
    if herm_err > _HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max asymmetry {herm_err:.3e})")
    trace_err = np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0))
    if trace_err > _TRACE_TOL:
        raise ValueError(f"trace must be 1 (off by {trace_err:.3e})")
    w_min = np.linalg.eigvalsh(m)[..., 0].min()
    if w_min < -_POSITIVITY_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w_min:.3e})")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class KrausPair:
    """Operator-sum pair for the single-qubit decay map."""

    k0: np.ndarray
    k1: np.ndarray

    def __post_init__(self):
        completeness = self.k0.conj().T @ self.k0 + self.k1.conj().T @ self.k1
        err = np.max(np.abs(completeness - np.eye(2)))
        if err > 1e-12:
            raise ValueError(f"Kraus pair is not trace preserving (defect {err:.3e})")


def _check_chi(chi) -> np.ndarray:
    chi = np.asarray(chi, dtype=float)
    bad = chi[~(np.abs(chi) <= 1.0 + _CHI_TOL)]  # also catches NaN
    if bad.size:
        raise ValueError(f"|chi| must be <= 1, got {bad[0]}")
    return np.clip(chi, -1.0, 1.0)


def pure_state(amplitudes) -> DensityMatrix:
    """Projector onto a normalized state vector (2 or 4 amplitudes)."""
    v = np.asarray(amplitudes, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def single_qubit_evolve(rho0: DensityMatrix, chi: float) -> DensityMatrix:
    """Exact single-qubit decay map.

    Excited population scales by chi**2, both coherences by chi, and the
    ground population absorbs the difference.
    """
    chi = _check_chi(chi)
    if rho0.dim != 2:
        raise ValueError("single_qubit_evolve expects a 2x2 state")
    m = rho0.mat
    out = np.array(
        [
            [m[0, 0] * chi * chi, m[0, 1] * chi],
            [m[1, 0] * chi, 1.0 - m[0, 0] * chi * chi],
        ],
        dtype=complex,
    )
    return DensityMatrix(out)


def amplitude_damping_kraus(chi: float) -> KrausPair:
    """Kraus pair realizing the decay map as a completely positive channel.

    k0 = diag(chi, 1) keeps the sign of chi so coherences flip sign with it;
    k1 transfers the lost excited population |1> -> |0>.
    """
    chi = _check_chi(chi)
    k0 = np.array([[chi, 0.0], [0.0, 1.0]], dtype=complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[1, 0] = np.sqrt(max(0.0, 1.0 - chi * chi))
    return KrausPair(k0, k1)


def evolve_stack(rho0: DensityMatrix, chi_a, chi_b) -> np.ndarray:
    """Unvalidated states (T, 4, 4): rho0 under amplitudes chi_a on qubit A, chi_b on B."""
    if rho0.dim != 4:
        raise ValueError("the two-qubit channel expects a 4x4 state")
    chi = np.stack(np.broadcast_arrays(np.atleast_1d(_check_chi(chi_a)), _check_chi(chi_b)))
    # Decay maps s[q, t, i, j, k, l] of qubits q = A, B: out[i, j] = sum s in[k, l].
    s = np.zeros(chi.shape + (2, 2, 2, 2))
    s[..., 0, 0, 0, 0] = chi * chi
    s[..., 1, 1, 0, 0] = 1.0 - chi * chi
    s[..., 0, 1, 0, 1] = chi
    s[..., 1, 0, 1, 0] = chi
    s[..., 1, 1, 1, 1] = 1.0
    rho = rho0.mat.reshape(2, 2, 2, 2)  # indices (a, b, a', b')
    return np.einsum("tacwy,tbdxz,wxyz->tabcd", s[0], s[1], rho).reshape(-1, 4, 4)


def two_qubit_evolve(rho0: DensityMatrix, chi_a: float, chi_b: float) -> DensityMatrix:
    """Independent-reservoir channel on a 4x4 state: amplitude chi_a on qubit A, chi_b on B."""
    return DensityMatrix(evolve_stack(rho0, chi_a, chi_b)[0])


def tensor(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two single-qubit states in the fixed basis order."""
    if rho_a.dim != 2 or rho_b.dim != 2:
        raise ValueError("tensor expects two 2x2 states")
    return DensityMatrix(np.kron(rho_a.mat, rho_b.mat))


def require_qubit(value, role: str) -> Qubit:
    """``value`` itself if it is a Qubit; a label or an index is an error, never a default."""
    if not isinstance(value, Qubit):
        raise TypeError(f"{role} must be a Qubit")
    return value


# Trace over the other qubit, for each kept qubit, on indices (state, a, b, a', b').
_TRACE_OUT = {Qubit.A: "nabcb->nac", Qubit.B: "nabad->nbd"}


def reduced_states(stack: np.ndarray, keep: Qubit) -> np.ndarray:
    """Reduced states (T, 2, 2) of qubit ``keep`` for a stack (T, 4, 4) of states."""
    return np.einsum(_TRACE_OUT[require_qubit(keep, "keep")], stack.reshape(-1, 2, 2, 2, 2))


def partial_trace(rho: DensityMatrix, keep: Qubit) -> DensityMatrix:
    """Reduced state of one qubit of a 4x4 state."""
    if rho.dim != 4:
        raise ValueError("partial_trace expects a 4x4 state")
    return DensityMatrix(reduced_states(rho.mat, keep)[0])
