"""Entropic correlation measures and entanglement for two-qubit states.

Total correlation is the quantum mutual information; classical correlation is
the measurement-maximized information gain about one subsystem from rank-1
projective measurements on the other; their difference is the quantum
discord.  Entanglement is the spin-flip concurrence.  All entropies are in
bits (base-2 logarithms), which makes the maximally entangled pure state come
out at discord exactly 1.

Each measure has one kernel over a stack (T, 4, 4) of states; the one-state
functions call it on a stack of one.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .states import DensityMatrix, Qubit, reduced_states, require_qubit

__all__ = [
    "MeasurementBasis",
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
# Compass refinement: a start moves only for a gain above round-off, doubling
# its step after a move and halving it after a miss; without both rules,
# near-product states close to the theta = 0 and pi/2 poles wander on
# round-off for tens of thousands of rounds.  A start stops once its step, in
# seed-grid spacings, falls below _STEP_TOL (about 2.5e-9 rad in theta).
_MIN_IMPROVEMENT = 1e-15
_STEP_TOL = 1e-7
_COMPASS = np.array(
    [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float
) * (0.5 * math.pi / (_SEED_GRID_N - 1), 2.0 * math.pi / _SEED_GRID_N)
# A round evaluates each start's next _HALVINGS step sizes step * 2**-l (those
# at or above _STEP_TOL), each l as if every smaller l had missed, and commits
# the first that moves.  Starts never interact, so each runs the trials of a
# one-step-per-round compass bit for bit, in fewer rounds; 4 was the fastest
# of 1-6 and 8 on random full-rank states.
_HALVINGS = 4
_LEVEL_SCALE = 0.5 ** np.arange(_HALVINGS)
# No evaluator call holds more (state, angle) pairs than half a seed grid, so
# peak memory does not grow with the number of states in a stack.
_PAIRS_PER_CALL = _SEED_GRID_N**2 // 2


def canonical_angles(theta, phi):
    """Fold real angles (scalars or arrays) into theta in [0, pi/2], phi in [0, 2 pi).

    Uses the exact symmetries of the measurement family: (theta + pi, phi)
    and (pi - theta, phi + pi) label the same projector pair.  The mirror
    (pi/2 - theta, phi + pi) labels it with the outcomes swapped; it is not folded.
    """
    theta = np.fmod(theta, math.pi)
    theta = np.where(theta < 0, theta + math.pi, theta)
    flip = theta > 0.5 * math.pi
    theta = np.where(flip, math.pi - theta, theta)
    phi = np.fmod(np.where(flip, phi + math.pi, phi), 2.0 * math.pi)
    phi = np.where(phi < 0, phi + 2.0 * math.pi, phi)
    return theta[()], phi[()]  # [()] turns 0-d results into scalars


def angle_rules(theta, phi):
    """The basis-angle rules, elementwise, as (passing mask, message for index k).

    theta must lie in [0, pi/2] and phi in [0, 2 pi); written as "passes",
    so NaN fails.  Scalars are checked as arrays of one.
    """
    th, ph = np.atleast_1d(theta), np.atleast_1d(phi)
    return (
        ((0.0 <= th) & (th <= 0.5 * math.pi),
         lambda k: f"theta must lie in [0, pi/2], got {th[k]}"),
        ((0.0 <= ph) & (ph < 2.0 * math.pi),
         lambda k: f"phi must lie in [0, 2 pi), got {ph[k]}"),
    )


@dataclass(frozen=True, slots=True)
class MeasurementBasis:
    """Rank-1 projective measurement direction on one qubit.

    The two basis vectors are
    ``cos(theta)|1> + exp(i phi) sin(theta)|0>`` and
    ``exp(-i phi) sin(theta)|1> - cos(theta)|0>``.
    """

    theta: float
    phi: float

    def __post_init__(self):
        for ok, message in angle_rules(self.theta, self.phi):
            if not ok[0]:
                raise ValueError(message(0))

    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ep = complex(math.cos(self.phi), math.sin(self.phi))
        v0 = np.array([ct, ep * st], dtype=complex)
        v1 = np.array([st / ep, -ct], dtype=complex)
        return v0, v1

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        v0, v1 = self.vectors()
        return np.outer(v0, v0.conj()), np.outer(v1, v1.conj())


def _xlog2x(x: np.ndarray, out: np.ndarray | None = None, keep: np.ndarray | None = None) -> np.ndarray:
    """Elementwise x log2 x, with 0 log 0 = 0 for entries below _ZERO_EIG; written
    into ``out``, with ``keep`` as the mask, when these buffers are given."""
    keep = np.greater(x, _ZERO_EIG, out=keep)
    if out is None:
        out = np.zeros(x.shape)
    else:
        out.fill(0.0)
    np.log2(x, out=out, where=keep)
    return np.multiply(out, x, out=out, where=keep)


def _entropy_bits(eigs: np.ndarray) -> np.ndarray:  # spectra along the last axis
    if eigs.min(initial=0.0) < -_EIG_CLIP:
        raise ValueError(f"negative eigenvalue {eigs.min():.3e} beyond tolerance")
    return np.maximum(0.0, -np.sum(_xlog2x(eigs), axis=-1))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho log2 rho) in bits, in [0, log2 dim]."""
    return float(_entropy_bits(np.linalg.eigvalsh(rho.mat)))


def _stack_of_one(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError("expected a 4x4 state")
    return rho.mat[None]


def mutual_information_stack(stack: np.ndarray) -> np.ndarray:
    """Total correlation S(A) + S(B) - S(AB) in bits, >= 0, of each state in a stack.

    Subadditivity makes the true value nonnegative; round-off undershoot
    within -1e-10 is clamped to 0.
    """
    s_a = _entropy_bits(np.linalg.eigvalsh(reduced_states(stack, Qubit.A)))
    s_b = _entropy_bits(np.linalg.eigvalsh(reduced_states(stack, Qubit.B)))
    mi = s_a + s_b - _entropy_bits(np.linalg.eigvalsh(stack))
    if mi.min() < -1e-10:
        raise ValueError(f"mutual information {mi.min()} below round-off floor")
    return np.maximum(0.0, mi)


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlation S(A) + S(B) - S(AB) in bits, >= 0."""
    return float(mutual_information_stack(_stack_of_one(rho))[0])


# I, sigma_x, sigma_y, sigma_z written on the basis order {|1>, |0>}, so the
# projector onto cos(theta)|1> + e^{i phi} sin(theta)|0> is (I + n.sigma)/2
# with n as in _fill_directions.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class _GainEvaluator:
    """Information gain S(X) - S(X|{measurement on Y}) for a stack of states,
    in two kernels: projector rows for the seeds and the oracles (``__call__``),
    Bloch direction rows for the compass (``gains``).

    For the projector |v><v| on Y, v = (cos theta, e^{i phi} sin theta), the
    unnormalized conditional state of X is linear in the entries
    (cos^2, cos sin e^{i phi}, its conjugate, sin^2) of conj(v) v^T, so k
    angle pairs for one state cost one (k, 4) @ (4, 4) product with the
    state regrouped as (Y row, Y column) x (X row, X column) in ``kernel``.
    The second outcome's block is the reduced state of X minus the first.

    With c[t, i, j] = Tr(rho_t sigma_i (x) sigma_j), sigma_i on X, sigma_j on
    Y and sigma_0 = I, the outcome (I + n.sigma)/2 on Y leaves X in the
    unnormalized state (m0 I + m.sigma)/4 with (m0, m) = c @ (1, n): trace
    m0/2, eigenvalues (m0 +- |m|)/4.  The other outcome is direction -n, so
    ``coef`` stacks c over c with its n columns negated and one
    (8, 4) @ (4, k) product gives both outcomes.  Luo, PRA 77, 042303 (2008);
    Girolami & Adesso, PRA 83, 052108 (2011).
    """

    __slots__ = ("s_x", "kernel", "reduced", "coef")

    def __init__(self, stack: np.ndarray, measured: Qubit):
        measures_b = require_qubit(measured, "measured") is Qubit.B
        t = stack.reshape(-1, 2, 2, 2, 2)  # indices (state, a, b, a', b')
        self.kernel = t.transpose((0, 2, 4, 1, 3) if measures_b else (0, 1, 3, 2, 4)).reshape(-1, 4, 4)
        x = reduced_states(stack, Qubit.A if measures_b else Qubit.B)
        self.reduced = x.reshape(-1, 1, 4)
        self.s_x = _entropy_bits(np.linalg.eigvalsh(x))
        c = np.einsum("tabcd,ica,jdb->tij", t, _PAULI, _PAULI).real  # sigma_i on A, sigma_j on B
        if not measures_b:
            c = c.swapaxes(1, 2)
        self.coef = np.concatenate([c, c * (1.0, -1.0, -1.0, -1.0)], axis=1)

    def __call__(self, states: np.ndarray | list[int], rows: np.ndarray) -> np.ndarray:
        """Gains (n, k) of the states with indices ``states`` for their projector rows (n, k, 4)."""
        # take() gathers small index arrays several times faster than [] indexing.
        blocks = rows @ self.kernel.take(states, axis=0)
        gain = self.s_x.take(states)[:, None] - _weighted_entropy(blocks)
        np.subtract(self.reduced.take(states, axis=0), blocks, out=blocks)  # second outcome
        return gain - _weighted_entropy(blocks)

    def gains(self, states: np.ndarray | list[int], dirs: np.ndarray, w: SimpleNamespace) -> np.ndarray:
        """Gains (n, k) of the states with indices ``states`` for their direction
        rows (n, 4, k), computed in the buffers ``w`` of a _BlochWork, which hold
        the result (``w.gain``) until their next use."""
        np.take(self.coef, states, axis=0, out=w.coef, mode="clip")  # "raise" would copy
        np.matmul(w.coef, dirs, out=w.m)
        np.square(w.m_vec, out=w.sq)
        sq_x, sq_y, sq_z = w.sq_xyz
        half_r = np.add(sq_x, sq_y, out=w.half_r)
        np.add(half_r, sq_z, out=half_r)
        np.sqrt(half_r, out=half_r)
        half_r *= 0.5
        p, e_plus, e_minus = w.terms_split  # p, e+, e- of each block: one _xlog2x call
        np.multiply(w.m_0, 0.5, out=p)
        np.add(p, half_r, out=e_plus)
        np.subtract(p, half_r, out=e_minus)
        w.eigs *= 0.5
        _xlog2x(w.terms, w.logs, w.keep)
        log_p, log_plus, log_minus = w.logs_split
        entropy = np.subtract(log_p, log_plus, out=w.entropy)  # p S(M/p) per outcome
        np.subtract(entropy, log_minus, out=entropy)
        np.maximum(entropy, 0.0, out=entropy)
        np.take(self.s_x, states, out=w.s_x, mode="clip")
        first, second = w.entropy_split
        gain = np.subtract(w.s_x_col, first, out=w.gain)
        return np.subtract(gain, second, out=gain)


class _BlochWork:
    """Buffers for the Bloch gains of up to ``size`` rows of ``d`` directions
    each, allocated once and reused by every compass round; a row is one
    start's trials at one step size.

    ``at(k)`` views the first k rows' share of each buffer shaped as a fresh
    array of the same shape would be, so rounds in place run the arithmetic of
    allocating ones bit for bit.  ``dirs`` has its row 0 preset to 1.
    """

    # Floats per row and direction; ``keep`` is the boolean mask of ``terms``.
    _SIZES = {"trial": 2, "double": 1, "s2": 1, "trig": 1, "dirs": 4, "m": 8,
              "sq": 6, "half_r": 2, "terms": 6, "logs": 6, "entropy": 2, "gain": 1}

    def __init__(self, size: int, d: int):
        self.d = d
        self.flat = {name: np.empty(size * d * n) for name, n in self._SIZES.items()}
        self.flat |= {"coef": np.empty(size * 32), "s_x": np.empty(size), "keep": np.empty(size * d * 6, bool)}
        self.flat["dirs"].reshape(size, 4, d)[:, 0] = 1.0
        self.views = {}

    def at(self, k: int) -> SimpleNamespace:
        if (w := self.views.get(k)) is None:
            d = self.d

            def view(name, *shape):
                return self.flat[name][: math.prod(shape)].reshape(shape)

            w = self.views[k] = SimpleNamespace(
                trial=view("trial", k, d, 2), double=view("double", k, d), s2=view("s2", k, d),
                trig=view("trig", k, d), dirs=view("dirs", k, 4, d), coef=view("coef", k, 8, 4),
                m=view("m", k, 8, d), half_r=view("half_r", k, 2, d), terms=view("terms", 3, k, 2, d),
                keep=view("keep", 3, k, 2, d), logs=view("logs", 3, k, 2, d),
                entropy=view("entropy", k, 2, d), s_x=view("s_x", k), gain=view("gain", k, d),
            )
            m = w.m.reshape(k, 2, 4, d)  # (row, outcome, (m0, m), direction)
            w.m_0, w.m_vec = m[:, :, 0], m[:, :, 1:]
            w.sq = view("sq", k, 2, 3, d)
            w.sq_xyz = w.sq[:, :, 0], w.sq[:, :, 1], w.sq[:, :, 2]
            w.thetas, w.phis = w.trial[..., 0], w.trial[..., 1]
            w.n_xyz = w.dirs[:, 1], w.dirs[:, 2], w.dirs[:, 3]
            w.terms_split, w.eigs, w.logs_split = tuple(w.terms), w.terms[1:], tuple(w.logs)
            w.entropy_split = w.entropy[:, 0], w.entropy[:, 1]
            w.s_x_col = w.s_x[:, None]
        return w


def _fill_directions(thetas: np.ndarray, phis: np.ndarray, w: SimpleNamespace) -> None:
    """Direction rows (1, n) into ``w.dirs`` (k, 4, d) for angle arrays (k, d) of
    any real values, n = (sin 2 theta cos phi, sin 2 theta sin phi, cos 2 theta).
    The mirror (pi/2 - theta, phi + pi) is -n."""
    n_x, n_y, n_z = w.n_xyz
    double = np.multiply(thetas, 2.0, out=w.double)
    s2 = np.sin(double, out=w.s2)
    np.multiply(s2, np.cos(phis, out=w.trig), out=n_x)
    np.multiply(s2, np.sin(phis, out=w.trig), out=n_y)
    np.cos(double, out=n_z)


def _projector_rows(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows (cos^2, cos sin e^{i phi}, conjugate, sin^2) for angle arrays of any real values."""
    ct, st = np.cos(thetas), np.sin(thetas)
    off = ct * st * np.exp(1j * phis)
    return np.stack([ct * ct, off, off.conj(), st * st], axis=-1)


def _weighted_entropy(blocks: np.ndarray) -> np.ndarray:
    """p S(M/p) in bits for 2x2 Hermitian blocks M of trace p, flattened along the last axis.

    With eigenvalues e+-, p S(M/p) = p log2 p - sum e log2 e.
    """
    d00, d11 = blocks[..., 0].real, blocks[..., 3].real
    p = d00 + d11
    half_gap = np.hypot(0.5 * (d00 - d11), np.abs(blocks[..., 1]))
    half = 0.5 * p
    terms = np.empty((3,) + p.shape)  # one _xlog2x call for all three terms
    terms[0], terms[1], terms[2] = p, half + half_gap, half - half_gap
    terms = _xlog2x(terms)
    return np.maximum(terms[0] - terms[1] - terms[2], 0.0)


def _angle_axes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Axes of the n x n grid over theta in [0, pi/2] and phi in [0, 2 pi); pair
    j of the flat grid is (thetas[j // n], phis[j % n])."""
    return np.linspace(0.0, 0.5 * math.pi, n), np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)


def _grid_rows(n: int):
    """Read-only projector rows (1, k, 4) of the flat n x n grid, in order,
    k <= _PAIRS_PER_CALL pairs at a time."""
    thetas, phis = _angle_axes(n)
    for lo in range(0, n * n, _PAIRS_PER_CALL):
        j = np.arange(lo, min(lo + _PAIRS_PER_CALL, n * n))
        rows = _projector_rows(thetas[j // n], phis[j % n])[None]
        rows.setflags(write=False)
        yield rows


# Built once per process; the grid's first chunk, theta < pi/4, holds each
# measurement once (see canonical_angles).
_SEED_ROWS = next(_grid_rows(_SEED_GRID_N))


def conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis, measured: Qubit = Qubit.B) -> float:
    """Average entropy of the unmeasured qubit after measuring the other.

    Sum of p_i * S(rho_{X|i}) over the two outcomes; eigenvalues and
    probabilities below 1e-14 contribute zero.
    """
    ev = _GainEvaluator(_stack_of_one(rho), measured)
    gain = ev([0], _projector_rows(np.array([[basis.theta]]), np.array([[basis.phi]])))
    return float(ev.s_x[0] - gain[0, 0])


def brute_force_classical_correlation(
    rho: DensityMatrix, grid_n: int = 256, measured: Qubit = Qubit.B
) -> float:
    """Maximum information gain over a uniform grid of measurement angles.

    A lower bound on `classical_correlation`; used as the optimizer oracle.
    """
    if grid_n < 8:
        raise ValueError(f"grid_n must be >= 8, got {grid_n}")
    ev = _GainEvaluator(_stack_of_one(rho), measured)
    return max(0.0, float(np.max([ev([0], rows).max() for rows in _grid_rows(grid_n)])))


def classical_correlation_stack(
    stack: np.ndarray, measured: Qubit = Qubit.B
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical correlation and the folded angles (theta, phi) of its maximizing basis,
    for each state of a stack.

    Each state's best three seeds of a 64x64 angle grid start a compass search;
    every round advances the unfinished starts of all states together, each
    by up to _HALVINGS step sizes.
    """
    ev = _GainEvaluator(stack, measured)
    n = ev.s_x.size
    order, value = np.empty((n, 3), dtype=int), np.empty((n, 3))
    for i in range(n):
        gain = ev([i], _SEED_ROWS)[0]
        top = np.argpartition(gain, -3)[-3:]
        order[i] = top[np.argsort(gain[top])[::-1]]
        value[i] = gain[order[i]]
    chunk = _PAIRS_PER_CALL // len(_COMPASS)
    work = _BlochWork(min(3 * n * _HALVINGS, chunk), len(_COMPASS))
    thetas, phis = _angle_axes(_SEED_GRID_N)
    point = np.stack([thetas[order // _SEED_GRID_N], phis[order % _SEED_GRID_N]], axis=-1).reshape(-1, 2)
    value, owner = value.ravel(), np.repeat(np.arange(n), 3)
    live, step = np.arange(3 * n), np.full(3 * n, 0.5)  # unfinished starts and their steps
    while live.size:
        levels = step[:, None] * _LEVEL_SCALE
        built = levels >= _STEP_TOL
        row_live = np.nonzero(built)[0]  # each row's start as a position in ``live``, its rows in level order
        row_start, row_step = live[row_live], levels[built]
        best, top = np.empty(row_start.size, dtype=int), np.empty(row_start.size)
        for lo in range(0, row_start.size, chunk):
            rows = slice(lo, lo + chunk)
            c = row_start[rows]
            w = work.at(c.size)
            trial = np.multiply(row_step[rows, None, None], _COMPASS, out=w.trial)
            np.add(point.take(c, axis=0)[:, None, :], trial, out=trial)
            _fill_directions(w.thetas, w.phis, w)
            trial_gain = ev.gains(owner.take(c), w.dirs, w)
            trial_gain.argmax(axis=1, out=best[rows])
            trial_gain.max(axis=1, out=top[rows])
        r = np.flatnonzero(top > value.take(row_start) + _MIN_IMPROVEMENT)
        moved = row_live[r]
        first = np.ones(r.size, dtype=bool)  # a start commits the first of its levels that moved
        np.not_equal(moved[1:], moved[:-1], out=first[1:])
        r, moved = r[first], moved[first]
        step *= 0.5**_HALVINGS
        step[moved] = 2.0 * row_step[r]
        value[live[moved]] = top[r]
        point[live[moved]] += row_step[r, None] * _COMPASS[best[r]]
        keep = step >= _STEP_TOL
        live, step = live[keep], step[keep]

    k = value.reshape(n, 3).argmax(axis=1) + np.arange(0, 3 * n, 3)
    return (np.maximum(value[k], 0.0), *canonical_angles(point[k, 0], point[k, 1]))


def classical_correlation(
    rho: DensityMatrix, measured: Qubit = Qubit.B
) -> tuple[float, MeasurementBasis]:
    """Classical correlation of one state and its maximizing measurement basis."""
    value, theta, phi = classical_correlation_stack(_stack_of_one(rho), measured)
    return float(value[0]), MeasurementBasis(float(theta[0]), float(phi[0]))


def discord_from_parts(total, classical):
    """Discord as total minus classical (scalars or arrays), with round-off
    within -1e-9 clipped to 0."""
    d = np.subtract(total, classical)
    return np.where((-1e-9 <= d) & (d < 0.0), 0.0, d)[()]


def quantum_discord(rho: DensityMatrix, measured: Qubit = Qubit.B) -> float:
    """Mutual information minus classical correlation, in bits.

    Values within -1e-9 of zero are round-off and clip to 0.
    """
    total = mutual_information(rho)
    classical, _ = classical_correlation(rho, measured)
    return float(discord_from_parts(total, classical))


# sigma_y in the fixed {|1>, |0>} basis order, doubled up for the spin flip.
_SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def concurrence_stack(stack: np.ndarray) -> np.ndarray:
    """Spin-flip concurrence, in [0, 1], of each state in a stack (T, 4, 4).

    The square roots of the eigenvalues of rho rho~, rho~ = (sy x sy) rho*
    (sy x sy), are the singular values of sqrt(rho) sqrt(rho~), where
    sqrt(rho~) = (sy x sy) sqrt(rho)* (sy x sy) (Wootters, PRL 80, 2245,
    1998); entrywise conjugation is taken in the fixed basis.  Taking
    singular values avoids the square root of a spectrum that is near zero,
    which would amplify round-off to ~1e-8.
    """
    w, v = np.linalg.eigh(stack)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    s = np.linalg.svd(root @ _SPIN_FLIP @ root.conj() @ _SPIN_FLIP, compute_uv=False)
    return np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])


def concurrence(rho: DensityMatrix) -> float:
    """Spin-flip concurrence of a two-qubit state, in [0, 1]."""
    return float(concurrence_stack(_stack_of_one(rho))[0])
