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
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .states import (
    _POSITIVITY_TOL, DensityMatrix, Qubit, is_x_stack, reduced_states, require_finite, require_qubit, spectra,
)

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

_DISCORD_TOL = 1e-9  # round-off of I - J: a discord within -this of 0 is 0
_SEED_GRID_N = 64
# Compass refinement (a pattern search; Kolda, Lewis & Torczon, SIAM Rev. 45,
# 385, 2003): a start moves only for a gain above round-off, growing its step
# after a move and shrinking it after a miss; without both rules, near-product
# states close to the theta = 0 and pi/2 poles wander on round-off for tens of
# thousands of rounds.  A start stops once its step, in seed-grid spacings,
# falls below _STEP_TOL (about 2.5e-9 rad in theta).
_MIN_IMPROVEMENT = 1e-15
_STEP_TOL = 1e-7
_COMPASS = np.array(
    [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j], dtype=float
) * (0.5 * math.pi / (_SEED_GRID_N - 1), 2.0 * math.pi / _SEED_GRID_N)
# A round evaluates each start's _HALVINGS step sizes step * 2**-l as one row of
# trials step * _MOVES, level-major, and moves to the row's best trial; of 4, 6
# and 8, 6 ran fastest on random full-rank states and as fast on X states.
_HALVINGS = 6
_LEVEL_SCALE = 0.5 ** np.arange(_HALVINGS)
_MOVES = (_LEVEL_SCALE[:, None, None] * _COMPASS).reshape(-1, 2)
# Step factors after a move at level l, and after a miss (row _HALVINGS).
_GROWTH = np.append(2.0 * _LEVEL_SCALE, 0.5**_HALVINGS)
# A start's trials point + step * _MOVES take only 2 _HALVINGS + 1 distinct
# theta and phi offsets each, 0 and +-2**-l grid spacings: the rows of _OFFSETS.
# A round takes their trig once per start, into a table of columns sin 2 theta,
# sin phi, cos 2 theta, cos phi and a constant 1, and gathers each
# trial's direction (1, cos phi, sin phi, cos 2 theta) at _TABLE_PICK and its
# sin 2 theta at _THETA_PICK.
(_THETA_OFFSETS, _THETA_PICK), (_PHI_OFFSETS, _PHI_PICK) = (np.unique(a, return_inverse=True) for a in _MOVES.T)
_OFFSETS = np.stack([_THETA_OFFSETS, _PHI_OFFSETS])
_N_OFFSETS = _OFFSETS.shape[1]
_TABLE_PICK = np.stack([np.full(len(_MOVES), 4 * _N_OFFSETS), _PHI_PICK + 3 * _N_OFFSETS,
                        _PHI_PICK + _N_OFFSETS, _THETA_PICK + 2 * _N_OFFSETS])
# No evaluator call holds more (state, angle) pairs than half the 64 x 64 grid, so
# peak memory does not grow with the number of states in a stack, and a
# workspace caches views of at most _STARTS_PER_CALL compass shapes besides
# the seeds' one.  The compass runs 128 states at a time: their 384 starts'
# coefficient rows (96 KiB) stay below glibc's 128 KiB mmap threshold, so
# compacting them maps no pages.
_PAIRS_PER_CALL = _SEED_GRID_N**2 // 2
_STARTS_PER_CALL = _PAIRS_PER_CALL // len(_MOVES)
_COMPASS_CHUNK = 128


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


def _xlog2x(
    x: np.ndarray, out: np.ndarray | None = None, drop: np.ndarray | None = None, arg: np.ndarray | None = None
) -> np.ndarray:
    """Elementwise x log2 x, with 0 log 0 = +0.0 for entries at or below 0 and
    NaN; written into ``out``, with the mask ``drop`` and the argument ``arg``
    as scratch, when these buffers are given.  ``x`` is left unchanged."""
    drop = np.logical_not(np.greater(x, 0.0, out=drop), out=drop)
    arg = np.fmax(x, drop, out=arg)  # dropped entries become 1.0, whose term is +0.0
    return np.multiply(np.log2(arg, out=out), arg, out=out)


def _entropy_bits(eigs: np.ndarray) -> np.ndarray:  # spectra along the last axis
    if eigs.min(initial=0.0) < -_POSITIVITY_TOL:
        raise ValueError(f"negative eigenvalue {eigs.min():.3e} beyond tolerance")
    return np.maximum(0.0, -np.sum(_xlog2x(eigs), axis=-1))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -Tr(rho log2 rho) in bits, in [0, log2 dim]."""
    return float(_entropy_bits(spectra(rho.mat)))


def _stack_of_one(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 4:
        raise ValueError("expected a 4x4 state")
    return rho.mat[None]


def mutual_information_stack(stack: np.ndarray) -> np.ndarray:
    """Total correlation S(A) + S(B) - S(AB) in bits, >= 0, of each state in a stack.

    Subadditivity makes the true value nonnegative; round-off undershoot
    within -1e-10 is clamped to 0.
    """
    require_finite(stack)
    s_a = _entropy_bits(spectra(reduced_states(stack, Qubit.A)))
    s_b = _entropy_bits(spectra(reduced_states(stack, Qubit.B)))
    mi = s_a + s_b - _entropy_bits(spectra(stack))
    if mi.min(initial=0.0) < -1e-10:
        raise ValueError(f"mutual information {mi.min()} below round-off floor")
    return np.maximum(0.0, mi)


def mutual_information(rho: DensityMatrix) -> float:
    """Total correlation S(A) + S(B) - S(AB) in bits, >= 0."""
    return float(mutual_information_stack(_stack_of_one(rho))[0])


# I, sigma_x, sigma_y, sigma_z written on the basis order {|1>, |0>}, so the
# projector onto cos(theta)|1> + e^{i phi} sin(theta)|0> is (I + n.sigma)/2
# with n as in _trial_directions.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


class _GainEvaluator:
    """Information gain S(X) - S(X|{measurement on Y}) for a stack of states,
    in two kernels: projector rows for the oracles (``__call__``), Bloch
    direction rows for the seeds and the compass (``gains``).

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
        self.s_x = _entropy_bits(spectra(x))
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

    @staticmethod
    def gains(coef: np.ndarray, s_x: np.ndarray, dirs: np.ndarray, w: SimpleNamespace) -> np.ndarray:
        """Gains (n, k) of n states, given as rows of ``coef`` (n, 8, 4) and of
        ``s_x`` (n,), for their direction rows (n, 4, k), or for rows (4, k)
        shared by all, computed in the buffers ``w`` of a _BlochWork, which hold
        the result (``w.gain``) until their next use."""
        np.matmul(coef, dirs, out=w.m)
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
        _xlog2x(w.terms, w.logs, w.drop, w.arg)
        log_p, log_plus, log_minus = w.logs_split
        entropy = np.subtract(log_p, log_plus, out=w.entropy)  # p S(M/p) per outcome
        np.subtract(entropy, log_minus, out=entropy)
        np.maximum(entropy, 0.0, out=entropy)
        first, second = w.entropy_split
        gain = np.subtract(s_x[:, None], first, out=w.gain)
        return np.subtract(gain, second, out=gain)


class _BlochWork:
    """Buffers for the Bloch gains of one seed-table row or of up to
    _STARTS_PER_CALL compass rows, reused by the seeds and every compass
    round; a compass row is one start's trials at all its step sizes.

    ``at(k, d)`` views the first k rows' share of each buffer shaped as a fresh
    array of the same shape would be, so rounds in place run the arithmetic of
    allocating ones bit for bit.  Views are cached per (k, d); callers keep the
    shapes few.  Each row of ``table`` ends in a preset 1.
    """

    # Floats per row and direction; ``drop`` is the boolean mask of ``terms``.
    _SIZES = {"dirs": 4, "s2": 1, "m": 8, "sq": 6, "half_r": 2, "terms": 6, "logs": 6, "arg": 6,
              "entropy": 2, "gain": 1}
    _TABLE = 4 * _N_OFFSETS + 1

    def __init__(self):
        self.flat = {name: np.empty(_PAIRS_PER_CALL * n) for name, n in self._SIZES.items()}
        self.flat |= {"drop": np.empty(_PAIRS_PER_CALL * 6, bool),
                      "angles": np.empty(_STARTS_PER_CALL * 2 * _N_OFFSETS),
                      "table": np.empty(_STARTS_PER_CALL * self._TABLE)}
        self.flat["table"].reshape(_STARTS_PER_CALL, self._TABLE)[:, -1] = 1.0
        self.views = {}

    def at(self, k: int, d: int = len(_MOVES)) -> SimpleNamespace:
        if (w := self.views.get((k, d))) is None:

            def view(name, *shape):
                return self.flat[name][: math.prod(shape)].reshape(shape)

            w = self.views[k, d] = SimpleNamespace(
                angles=view("angles", k, 2, _N_OFFSETS), table=view("table", k, self._TABLE),
                dirs=view("dirs", k, 4, d), s2=view("s2", k, d),
                m=view("m", k, 8, d), half_r=view("half_r", k, 2, d), terms=view("terms", 3, k, 2, d),
                drop=view("drop", 3, k, 2, d), logs=view("logs", 3, k, 2, d), arg=view("arg", 3, k, 2, d),
                entropy=view("entropy", k, 2, d), gain=view("gain", k, d),
            )
            m = w.m.reshape(k, 2, 4, d)  # (row, outcome, (m0, m), direction)
            w.m_0, w.m_vec = m[:, :, 0], m[:, :, 1:]
            w.sq = view("sq", k, 2, 3, d)
            w.sq_xyz = w.sq[:, :, 0], w.sq[:, :, 1], w.sq[:, :, 2]
            w.double = w.angles[:, 0]
            w.flat_angles = w.angles.reshape(k, -1)
            w.sines, w.cosines = w.table[:, : 2 * _N_OFFSETS], w.table[:, 2 * _N_OFFSETS : -1]
            w.n_xy, w.s2_col = w.dirs[:, 1:3], w.s2[:, None]
            w.terms_split, w.eigs, w.logs_split = tuple(w.terms), w.terms[1:], tuple(w.logs)
            w.entropy_split = w.entropy[:, 0], w.entropy[:, 1]
        return w


# A workspace built per call cost 13-53 us plus page faults on first touch;
# one per thread is reused by every call and never shared between threads.
_THREAD = threading.local()


def _thread_work() -> _BlochWork:
    """This thread's workspace: gain buffers one seed table wide, room for 42
    compass rows of 48 directions, about 0.73 MB; built on its first use."""
    try:
        return _THREAD.work
    except AttributeError:
        _THREAD.work = _BlochWork()
        return _THREAD.work


def _trial_directions(point: np.ndarray, step: np.ndarray, w: SimpleNamespace) -> np.ndarray:
    """Direction rows (1, n) into ``w.dirs`` (k, 4, 32) for the trials
    point + step * _MOVES of k starts at ``point`` (k, 2), any real angles, with
    n = (sin 2 theta cos phi, sin 2 theta sin phi, cos 2 theta).  Each entry
    repeats the arithmetic of the trial's own angles; the mirror
    (pi/2 - theta, phi + pi) is -n."""
    angles = np.multiply(step[:, None, None], _OFFSETS, out=w.angles)
    np.add(point[:, :, None], angles, out=angles)  # (start, (theta, phi), offset)
    np.multiply(w.double, 2.0, out=w.double)  # theta -> 2 theta
    np.sin(w.flat_angles, out=w.sines)
    np.cos(w.flat_angles, out=w.cosines)
    w.table.take(_TABLE_PICK, axis=1, out=w.dirs, mode="clip")  # "raise" would copy
    w.table.take(_THETA_PICK, axis=1, out=w.s2, mode="clip")
    np.multiply(w.n_xy, w.s2_col, out=w.n_xy)
    return w.dirs


def _projector_rows(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Rows (cos^2, cos sin e^{i phi}, conjugate, sin^2) for angle arrays of any real values."""
    ct, st = np.cos(thetas), np.sin(thetas)
    off = ct * st * np.exp(1j * phis)
    return np.stack([ct * ct, off, off.conj(), st * st], axis=-1)


def _weighted_entropy(blocks: np.ndarray) -> np.ndarray:
    """p S(M/p) in bits for 2x2 Hermitian blocks M of trace p, flattened along the last axis.

    With eigenvalues e+-, p S(M/p) = p log2 p - sum e log2 e.
    """
    eigs = spectra(blocks.reshape(blocks.shape[:-1] + (2, 2)))
    terms = _xlog2x(np.stack([blocks[..., 0].real + blocks[..., 3].real, eigs[..., 1], eigs[..., 0]]))
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


def _seed_directions() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only seed angles theta (k,) and phi (k,) and their direction rows (4, k).

    Equal-area rings on the seed grid's rows theta < pi/4 (n_z > 0): row j
    holds ceil(_SEED_GRID_N sin 2 theta_j) equally spaced azimuths, the pole
    one, so no ring is spaced more finely than the equator ring, which sets
    the widest gap, 0.0551 rad as on the grid, and each measurement is held
    once (n and -n are one measurement; see canonical_angles).
    """
    thetas = _angle_axes(_SEED_GRID_N)[0][: _SEED_GRID_N // 2]
    counts = np.maximum(1, np.ceil(_SEED_GRID_N * np.sin(2.0 * thetas)).astype(int))
    ring = np.repeat(np.arange(counts.size), counts)
    azimuth = np.arange(ring.size) - np.repeat(np.cumsum(counts) - counts, counts)
    theta, phi = thetas[ring], 2.0 * math.pi * azimuth / counts[ring]
    double = 2.0 * theta
    s2 = np.sin(double)
    table = np.stack([np.ones(phi.size), s2 * np.cos(phi), s2 * np.sin(phi), np.cos(double)])
    for a in (theta, phi, table):
        a.setflags(write=False)
    return theta, phi, table


_SEED_THETA, _SEED_PHI, _SEED_DIRS = _seed_directions()  # built once per process: 1297 seeds


def _top_seeds(ev: _GainEvaluator, work: _BlochWork) -> tuple[np.ndarray, np.ndarray]:
    """Seed indices (n, 3) of each state's three best seeds, best first, and their
    gains; one product against the whole table per state."""
    n = ev.s_x.size
    order, value = np.empty((n, 3), dtype=int), np.empty((n, 3))
    w = work.at(1, _SEED_DIRS.shape[1])
    for i in range(n):
        gain = _GainEvaluator.gains(ev.coef[i : i + 1], ev.s_x[i : i + 1], _SEED_DIRS, w)[0]
        top = np.argpartition(gain, -3)[-3:]
        order[i] = top[np.argsort(gain[top])[::-1]]
        value[i] = gain[order[i]]
    return order, value


def _compass_round(work: _BlochWork, coef: np.ndarray, s_x: np.ndarray, result: np.ndarray,
                   step: np.ndarray) -> None:
    """Advance k starts by one round, in place: their coefficient rows
    ``coef`` (k, 8, 4), S(X) ``s_x`` (k,), (theta, phi, value) rows ``result``
    (k, 3) and steps ``step`` (k,).

    A start moves to the best of all its trials when that beats its value by
    more than _MIN_IMPROVEMENT, then doubles its largest step size if one of
    that size's trials beats it too, else the best trial's step size; a start
    that does not move divides its step by 2**_HALVINGS.  Masked copies commit
    the moves from the operands that updates of the moved starts alone would
    take, so the values are the same.
    """
    point, value = result[:, :2], result[:, 2]
    picks = []
    for lo in range(0, step.size, _STARTS_PER_CALL):
        rows = slice(lo, lo + _STARTS_PER_CALL)
        w = work.at(len(step[rows]))
        gain = _GainEvaluator.gains(coef[rows], s_x[rows], _trial_directions(point[rows], step[rows], w), w)
        picks.append((gain.argmax(axis=1), gain.max(axis=1), gain[:, : len(_COMPASS)].max(axis=1)))
    best, top, wide = picks[0] if len(picks) == 1 else map(np.concatenate, zip(*picks))
    bar = value + _MIN_IMPROVEMENT
    moved = top > bar
    level = np.where(wide > bar, 0, best // len(_COMPASS))
    np.copyto(level, _HALVINGS, where=~moved)
    np.copyto(value, top, where=moved)
    np.add(point, step[:, None] * _MOVES.take(best, axis=0), out=point, where=moved[:, None])
    np.multiply(step, _GROWTH.take(level), out=step)


def _compass_starts(ev: _GainEvaluator, work: _BlochWork) -> tuple[np.ndarray, np.ndarray]:
    """Final points (3n, 2), unfolded, and values (3n,) of every compass start;
    rows 3i to 3i + 2 start at state i's three best seeds, best first.

    A chunk of states runs rounds on its unfinished starts until each start's
    step falls below _STEP_TOL; a round that stops starts writes them out and
    compacts the others' arrays.
    """
    order, value = _top_seeds(ev, work)
    final = np.stack([_SEED_THETA.take(order), _SEED_PHI.take(order), value], axis=-1).reshape(-1, 3)
    for lo in range(0, ev.s_x.size, _COMPASS_CHUNK):
        states = slice(lo, lo + _COMPASS_CHUNK)
        coef, s_x = ev.coef[states].repeat(3, axis=0), ev.s_x[states].repeat(3)  # each state's three starts
        live = np.arange(3 * lo, 3 * lo + s_x.size)
        result, step = final[live], np.full(live.size, 0.5)
        while live.size:
            _compass_round(work, coef, s_x, result, step)
            keep = step >= _STEP_TOL
            if np.count_nonzero(keep) == live.size:  # all() costs three times more
                continue
            final[live[~keep]] = result[~keep]
            kept = np.flatnonzero(keep)  # take() gathers several times faster than a boolean index
            live, coef, s_x, result, step = (a.take(kept, axis=0) for a in (live, coef, s_x, result, step))
    return final[:, :2], final[:, 2]


def conditional_entropy(rho: DensityMatrix, basis: MeasurementBasis, measured: Qubit = Qubit.B) -> float:
    """Average entropy of the unmeasured qubit after measuring the other.

    Sum of p_i * S(rho_{X|i}) over the two outcomes; eigenvalues and
    probabilities at or below 0 contribute zero.
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

    Each state's best three of 1297 seeds on equal-area rings start a compass search;
    every round moves each unfinished start of a chunk of states to its best
    trial over _HALVINGS step sizes.  The arithmetic runs in this thread's
    workspace; the results are fresh arrays.
    """
    require_finite(stack)
    point, value = _compass_starts(_GainEvaluator(stack, measured), _thread_work())
    k = value.reshape(-1, 3).argmax(axis=1) + np.arange(0, value.size, 3)
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
    return np.where((-_DISCORD_TOL <= d) & (d < 0.0), 0.0, d)[()]


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

    A stack of X states takes 2 max(0, |rho_14| - sqrt(rho_22 rho_33),
    |rho_23| - sqrt(rho_11 rho_44)) (Bellomo, Lo Franco & Compagno, PRL 99,
    160502, 2007), clipped to [0, 1].  Any other stack takes Wootters (PRL 80,
    2245, 1998): the square roots of the eigenvalues of rho rho~ are the
    singular values of sqrt(rho) sqrt(rho~), sqrt(rho~) = (sy x sy) sqrt(rho)*
    (sy x sy), with entrywise conjugation in the fixed basis.
    """
    require_finite(stack)
    if is_x_stack(stack):
        r = np.sqrt(np.maximum(stack[:, range(4), range(4)].real, 0.0))
        c = np.maximum(np.abs(stack[:, 3, 0]) - r[:, 1] * r[:, 2], np.abs(stack[:, 2, 1]) - r[:, 0] * r[:, 3])
        return np.clip(2.0 * c, 0.0, 1.0)
    w, v = np.linalg.eigh(stack)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    s = np.linalg.svd(root @ _SPIN_FLIP @ root.conj() @ _SPIN_FLIP, compute_uv=False)
    return np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])


def concurrence(rho: DensityMatrix) -> float:
    """Spin-flip concurrence of a two-qubit state, in [0, 1]."""
    return float(concurrence_stack(_stack_of_one(rho))[0])
