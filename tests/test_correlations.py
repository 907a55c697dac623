"""Entropy, mutual information, classical correlation, discord, concurrence."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discordsim import (
    DensityMatrix,
    MeasurementBasis,
    Qubit,
    brute_force_classical_correlation,
    classical_correlation,
    concurrence,
    conditional_entropy,
    mutual_information,
    partial_trace,
    pure_state,
    quantum_discord,
    tensor,
    von_neumann_entropy,
)
from discordsim import correlations
from discordsim.correlations import (
    _COMPASS,
    _MIN_IMPROVEMENT,
    _PAIRS_PER_CALL,
    _SEED_GRID_N,
    _SEED_ROWS,
    _STEP_TOL,
    _ZERO_EIG,
    _BlochWork,
    _GainEvaluator,
    _fill_directions,
    _grid_rows,
    _projector_rows,
    canonical_angles,
    classical_correlation_stack,
    concurrence_stack,
    mutual_information_stack,
)

from conftest import random_density, random_pure, random_unitary

# Frozen reference values.
# Binary entropy of 1/3: -(1/3)log2(1/3) - (2/3)log2(2/3).
H_ONE_THIRD = 0.9182958340544896
# Concurrence of the pure two-excitation superposition at weight 1/3: 2*sqrt(2)/3.
C_PURE_THIRD = 0.9428090415820634
# Mutual information of the white-noise mixture at r = 1/2, weight 1/2:
# 2 - H({(1+3r)/4, (1-r)/4 x3}) with H the Shannon entropy in bits.
MI_WERNER_HALF = 0.45120505930460153

BELL = pure_state([2**-0.5, 0.0, 0.0, 2**-0.5])  # (|11> + |00>)/sqrt(2)
CLASSICAL = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))


def psi_family_state(alpha_sq: float) -> DensityMatrix:
    # alpha|00> + sqrt(1-alpha^2)|11> in basis {|11>,|10>,|01>,|00>}
    a = math.sqrt(alpha_sq)
    return pure_state([math.sqrt(1.0 - alpha_sq), 0.0, 0.0, a])


def werner_psi(r: float) -> DensityMatrix:
    return DensityMatrix(r * BELL.mat + (1.0 - r) / 4.0 * np.eye(4))


# ---------------------------------------------------------------- entropy


def test_entropy_of_pure_states(rng):
    for _ in range(10):
        assert von_neumann_entropy(random_pure(rng, 4)) < 1e-10
    assert von_neumann_entropy(pure_state([1.0, 0.0])) == 0.0


def test_entropy_of_maximally_mixed():
    half = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    quarter = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    assert von_neumann_entropy(half) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(quarter) == pytest.approx(2.0, abs=1e-12)


def test_entropy_unitary_invariance(rng):
    for dim in (2, 4):
        rho = random_density(rng, dim)
        u = random_unitary(rng, dim)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )


def test_entropy_additive_on_products(rng):
    for _ in range(10):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = von_neumann_entropy(tensor(rho_a, rho_b))
        split = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
        assert joint == pytest.approx(split, abs=1e-10)


# ------------------------------------------------------ mutual information


def test_mutual_information_product_state(rng):
    joint = tensor(random_density(rng, 2), random_density(rng, 2))
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_bell():
    assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_werner_frozen():
    assert mutual_information(werner_psi(0.5)) == pytest.approx(
        MI_WERNER_HALF, abs=1e-12
    )


def test_mutual_information_werner_matches_spectrum():
    # White-noise mixtures of a Bell state have eigenvalues
    # {(1+3r)/4, (1-r)/4 x3} and maximally mixed marginals.
    for r in (0.2, 0.5, 0.9):
        eigs = [(1.0 + 3.0 * r) / 4.0] + [(1.0 - r) / 4.0] * 3
        expected = 2.0 + sum(x * math.log2(x) for x in eigs if x > 0)
        assert mutual_information(werner_psi(r)) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------ conditional entropy


def test_conditional_entropy_product_state(rng):
    rho_a = random_density(rng, 2)
    joint = tensor(rho_a, random_density(rng, 2))
    s_a = von_neumann_entropy(rho_a)
    for theta, phi in ((0.0, 0.0), (0.7, 1.3), (np.pi / 2, 4.0)):
        got = conditional_entropy(joint, MeasurementBasis(theta, phi), Qubit.B)
        assert got == pytest.approx(s_a, abs=1e-10)


def test_conditional_entropy_bell_computational():
    got = conditional_entropy(BELL, MeasurementBasis(0.0, 0.0), Qubit.B)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_classical_wrong_basis():
    got = conditional_entropy(CLASSICAL, MeasurementBasis(np.pi / 4, 0.0), Qubit.B)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_classical_right_basis():
    got = conditional_entropy(CLASSICAL, MeasurementBasis(0.0, 0.0), Qubit.B)
    assert got == pytest.approx(0.0, abs=1e-12)


def explicit_conditional_entropy(rho, basis, measured):
    # sum_i p_i S(rho_X|i) the long way: lift each projector to the joint
    # space, project, trace out the measured qubit, diagonalize.
    total = 0.0
    for proj in basis.projectors():
        lift = np.kron(np.eye(2), proj) if measured is Qubit.B else np.kron(proj, np.eye(2))
        post = (lift @ rho.mat @ lift).reshape(2, 2, 2, 2)
        block = np.einsum("abcb->ac", post) if measured is Qubit.B else np.einsum("abad->bd", post)
        eigs = np.linalg.eigvalsh(block)
        p = eigs.sum()
        eigs = eigs[eigs > 1e-14]
        total -= float(np.sum(eigs * np.log2(eigs / p)))
    return total


def test_conditional_entropy_matches_explicit_projection(rng):
    states = []
    for _ in range(4):
        states.append(random_density(rng, 4))
        states.append(random_pure(rng, 4))
        states.append(tensor(random_density(rng, 2), random_density(rng, 2)))
    for rho in states:
        thetas = [0.0, np.pi / 2, *rng.uniform(0.0, np.pi / 2, 3)]
        for theta in thetas:
            basis = MeasurementBasis(theta, rng.uniform(0.0, 2.0 * np.pi))
            for side in (Qubit.A, Qubit.B):
                got = conditional_entropy(rho, basis, side)
                expected = explicit_conditional_entropy(rho, basis, side)
                assert got == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------- classical correlation


def test_classical_correlation_product_state(rng):
    joint = tensor(random_density(rng, 2), random_density(rng, 2))
    value, _ = classical_correlation(joint)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_classical_correlation_bell():
    value, _ = classical_correlation(BELL)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_classical_correlation_classical_state():
    value, basis = classical_correlation(CLASSICAL)
    assert value == pytest.approx(1.0, abs=1e-9)
    # optimal measurement is the computational basis
    assert min(basis.theta, abs(basis.theta - np.pi / 2)) < 1e-4


def test_classical_correlation_measured_qubit_option():
    # The Bell state is swap-symmetric, so both choices agree.
    v_b, _ = classical_correlation(BELL, Qubit.B)
    v_a, _ = classical_correlation(BELL, Qubit.A)
    assert v_a == pytest.approx(v_b, abs=1e-9)


def test_classical_correlation_asymmetric_state(rng):
    # On a random state the two measured-side values differ in general but
    # both dominate their own brute-force grids.
    rho = random_density(rng, 4)
    for side in (Qubit.A, Qubit.B):
        refined, _ = classical_correlation(rho, side)
        grid = brute_force_classical_correlation(rho, 64, side)
        assert refined >= grid - 1e-9


@pytest.mark.parametrize("measured", ["B", "A", 1, None])
def test_measured_must_be_a_qubit(rng, measured):
    # A label or an index is not a Qubit; it must not silently mean qubit A.
    rho = random_density(rng, 4)
    calls = (
        lambda: classical_correlation(rho, measured),
        lambda: quantum_discord(rho, measured),
        lambda: conditional_entropy(rho, MeasurementBasis(0.3, 0.1), measured),
        lambda: brute_force_classical_correlation(rho, 16, measured),
    )
    for call in calls:
        with pytest.raises(TypeError, match="measured must be a Qubit"):
            call()


def test_optimizer_returns_consistent_local_maximum(rng):
    # The returned value is the gain at the returned basis, and no nearby
    # basis does better, so the argmax angles mean something.
    states = [random_density(rng, 4) for _ in range(4)] + [random_pure(rng, 4) for _ in range(4)]
    steps = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j]
    for rho in states:
        for side in (Qubit.A, Qubit.B):
            value, basis = classical_correlation(rho, side)
            s_x = von_neumann_entropy(partial_trace(rho, Qubit.A if side is Qubit.B else Qubit.B))
            assert value == pytest.approx(s_x - conditional_entropy(rho, basis, side), abs=1e-12)
            for h in (1e-3, 1e-5):
                for i, j in steps:
                    near = MeasurementBasis(*canonical_angles(basis.theta + h * i, basis.phi + h * j))
                    assert s_x - conditional_entropy(rho, near, side) <= value + 1e-12


# ------------------------------------------------------------ brute force


def test_brute_force_product_state(rng):
    joint = tensor(random_density(rng, 2), random_density(rng, 2))
    assert brute_force_classical_correlation(joint, 16) == pytest.approx(
        0.0, abs=1e-9
    )


def test_brute_force_bell_dense_grid():
    assert brute_force_classical_correlation(BELL, 256) == pytest.approx(
        1.0, abs=1e-4
    )


def test_brute_force_grid_size_validated(rng):
    with pytest.raises(ValueError):
        brute_force_classical_correlation(random_density(rng, 4), 4)


def test_brute_force_peak_memory_is_bounded(rng):
    # The 256 x 256 grid goes through the evaluator in half-seed-grid slices,
    # not as one 65 536-pair call (about 14 MB).
    rho = random_density(rng, 4)
    brute_force_classical_correlation(rho, 256)
    tracemalloc.start()
    try:
        brute_force_classical_correlation(rho, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


def test_optimizer_dominates_grid(rng):
    for _ in range(25):
        rho = random_density(rng, 4)
        refined, _ = classical_correlation(rho)
        grid = brute_force_classical_correlation(rho, 256)
        assert refined >= grid - 1e-9
        assert refined <= grid + 1e-4


# ---------------------------------------------------------------- discord


def test_discord_product_state(rng):
    joint = tensor(random_density(rng, 2), random_density(rng, 2))
    assert quantum_discord(joint) == pytest.approx(0.0, abs=1e-9)


def test_discord_bell():
    assert quantum_discord(BELL) == pytest.approx(1.0, abs=1e-4)


def test_discord_pure_state_frozen():
    assert quantum_discord(psi_family_state(1.0 / 3.0)) == pytest.approx(
        H_ONE_THIRD, abs=1e-6
    )


def test_discord_classical_state():
    assert quantum_discord(CLASSICAL) == pytest.approx(0.0, abs=1e-9)


def test_discord_equals_marginal_entropy_on_pure_states(rng):
    for _ in range(10):
        psi = random_pure(rng, 4)
        s_a = von_neumann_entropy(partial_trace(psi, Qubit.A))
        assert quantum_discord(psi) == pytest.approx(s_a, abs=1e-6)


def test_discord_zero_on_computational_diagonal(rng):
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        rho = DensityMatrix(np.diag(p).astype(complex))
        assert quantum_discord(rho) < 1e-6


# ------------------------------------------------------------- concurrence


def test_concurrence_bell():
    assert concurrence(BELL) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_pure_family():
    for alpha_sq in (0.1, 1.0 / 3.0, 0.5, 0.8):
        expected = 2.0 * math.sqrt(alpha_sq * (1.0 - alpha_sq))
        assert concurrence(psi_family_state(alpha_sq)) == pytest.approx(
            expected, abs=1e-12
        )
    assert concurrence(psi_family_state(1.0 / 3.0)) == pytest.approx(
        C_PURE_THIRD, abs=1e-12
    )


def test_concurrence_werner_onset():
    assert concurrence(werner_psi(1.0 / 3.0)) < 1e-10
    assert concurrence(werner_psi(0.4)) > 0.04
    for r in np.linspace(0.0, 1.0, 11):
        expected = max(0.0, (3.0 * r - 1.0) / 2.0)
        assert concurrence(werner_psi(r)) == pytest.approx(expected, abs=1e-10)


def test_concurrence_product_state(rng):
    joint = tensor(random_density(rng, 2), random_density(rng, 2))
    assert concurrence(joint) == pytest.approx(0.0, abs=1e-7)


def test_concurrence_local_unitary_invariance(rng):
    for _ in range(20):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)


def test_concurrence_range(rng):
    for _ in range(50):
        c = concurrence(random_density(rng, 4))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_concurrence_x_state_closed_form(rng):
    # X states: only the diagonal and the rho_14 / rho_23 coherences are
    # nonzero.  Their concurrence is 2 max(0, |rho_14| - sqrt(rho_22 rho_33),
    # |rho_23| - sqrt(rho_11 rho_44)) (Yu-Eberly; Bellomo et al., PRL 99,
    # 160502, 2007).  About a fifth of the samples put |rho_14| exactly on
    # its positivity edge sqrt(rho_11 rho_44), where the state is singular.
    for _ in range(400):
        p = rng.dirichlet(np.ones(4))
        edge14 = math.sqrt(p[0] * p[3])
        edge23 = math.sqrt(p[1] * p[2])
        c14 = min(rng.uniform(0.0, 1.25), 1.0) * edge14 * np.exp(2j * np.pi * rng.uniform())
        c23 = rng.uniform(0.0, 1.0) * edge23 * np.exp(2j * np.pi * rng.uniform())
        m = np.diag(p).astype(complex)
        m[0, 3], m[3, 0] = c14, np.conj(c14)
        m[1, 2], m[2, 1] = c23, np.conj(c23)
        expected = 2.0 * max(0.0, abs(c14) - edge23, abs(c23) - edge14)
        assert concurrence(DensityMatrix(m)) == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------ basis type


def test_basis_projectors_are_rank_one_resolution():
    for theta, phi in ((0.0, 0.0), (0.3, 2.0), (np.pi / 2, 5.9)):
        basis = MeasurementBasis(theta, phi)
        p0, p1 = basis.projectors()
        assert np.max(np.abs(p0 @ p0 - p0)) < 1e-14
        assert np.max(np.abs(p1 @ p1 - p1)) < 1e-14
        assert np.max(np.abs(p0 @ p1)) < 1e-14
        assert np.max(np.abs(p0 + p1 - np.eye(2))) < 1e-14
        assert np.trace(p0).real == pytest.approx(1.0, abs=1e-14)


def test_basis_range_validation():
    with pytest.raises(ValueError):
        MeasurementBasis(-0.1, 0.0)
    with pytest.raises(ValueError):
        MeasurementBasis(2.0, 0.0)  # > pi/2
    with pytest.raises(ValueError):
        MeasurementBasis(0.3, 6.5)  # >= 2*pi
    # the rule make_trajectory applies to its angle columns, NaN included
    with pytest.raises(ValueError, match=r"phi must lie in \[0, 2 pi\), got nan"):
        MeasurementBasis(0.3, math.nan)


def test_canonical_angles_equivalences():
    # Shifting theta by pi or reflecting theta about pi/2 with a phi flip
    # leaves the measurement unchanged; canonical form lands in range.
    for theta, phi in ((0.2, 1.0), (2.0, 4.0), (-0.4, -1.3), (4.1, 9.0)):
        ct, cp = canonical_angles(theta, phi)
        assert 0.0 <= ct <= np.pi / 2 + 1e-12
        assert 0.0 <= cp < 2.0 * np.pi
        v0 = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        w0 = np.array([np.cos(ct), np.exp(1j * cp) * np.sin(ct)])
        overlap = abs(np.vdot(v0, w0))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def _fold_reference(theta: float, phi: float) -> tuple[float, float]:
    # The fold written out one scalar at a time with math.fmod.
    theta = math.fmod(theta, math.pi)
    if theta < 0:
        theta += math.pi
    if theta > 0.5 * math.pi:
        theta, phi = math.pi - theta, phi + math.pi
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi < 0:
        phi += 2.0 * math.pi
    return theta, phi


def test_canonical_angles_arrays_match_scalar_folds(rng):
    thetas = rng.uniform(-10.0, 10.0, 2000)
    phis = rng.uniform(-20.0, 20.0, 2000)
    thetas[:4] = (0.0, np.pi / 2, np.pi, -np.pi / 2)
    ct, cp = canonical_angles(thetas, phis)
    assert ct.shape == cp.shape == thetas.shape
    assert list(zip(ct.tolist(), cp.tolist())) == [
        _fold_reference(th, ph) for th, ph in zip(thetas.tolist(), phis.tolist())
    ]
    theta, phi = canonical_angles(2.0, -1.0)
    assert isinstance(theta, float) and isinstance(phi, float)
    assert (theta, phi) == _fold_reference(2.0, -1.0)


# ------------------------------------------------------------- properties


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_measure_ordering(seed):
    rho = random_density(np.random.default_rng(seed), 4)
    total = mutual_information(rho)
    classical, _ = classical_correlation(rho)
    discord = quantum_discord(rho)
    assert -1e-9 <= classical <= total + 1e-9
    assert -1e-9 <= discord <= total + 1e-9


@settings(max_examples=20, deadline=None)
@given(
    alpha_sq=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_pure_discord_is_marginal_entropy(alpha_sq, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure(rng, 4)
    s_a = von_neumann_entropy(partial_trace(psi, Qubit.A))
    assert abs(quantum_discord(psi) - s_a) < 1e-6


# ----------------------------------------------------------- stack kernels


def test_stack_rows_match_one_state_calls(rng):
    # A compass start evaluated against another state's kernel would show
    # up here as a row that differs from its one-state call.
    states = [random_density(rng, 4) for _ in range(4)]
    states += [random_pure(rng) for _ in range(3)]
    states += [tensor(random_density(rng, 2), random_density(rng, 2)) for _ in range(3)]
    states += [CLASSICAL, BELL]
    stack = np.stack([s.mat for s in states])
    conc = concurrence_stack(stack)
    total = mutual_information_stack(stack)
    for measured in (Qubit.A, Qubit.B):
        classical, thetas, phis = classical_correlation_stack(stack, measured)
        assert classical.shape == thetas.shape == phis.shape == (len(states),)
        for k, rho in enumerate(states):
            j, basis = classical_correlation(rho, measured)
            assert abs(classical[k] - j) < 1e-12
            h_row = conditional_entropy(rho, MeasurementBasis(thetas[k], phis[k]), measured)
            assert abs(h_row - conditional_entropy(rho, basis, measured)) < 1e-12
    for k, rho in enumerate(states):
        assert abs(conc[k] - concurrence(rho)) < 1e-12
        assert abs(total[k] - mutual_information(rho)) < 1e-12


def _seed_compass_oracle(stack, measured):
    """classical_correlation_stack seeded on the full 64x64 grid, each measurement
    twice, with the seed rows rebuilt per state and per chunk."""
    ev = _GainEvaluator(stack, measured)
    n = ev.s_x.size
    thetas = np.linspace(0.0, 0.5 * math.pi, _SEED_GRID_N)
    phis = np.linspace(0.0, 2.0 * math.pi, _SEED_GRID_N, endpoint=False)
    tt, pp = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    chunks = [slice(lo, lo + _PAIRS_PER_CALL) for lo in range(0, tt.size, _PAIRS_PER_CALL)]
    order, value = np.empty((n, 3), dtype=int), np.empty((n, 3))
    for i in range(n):
        gain = np.concatenate([ev([i], _projector_rows(tt[c], pp[c])[None])[0] for c in chunks])
        order[i] = np.argsort(gain)[::-1][:3]
        value[i] = gain[order[i]]
    point = np.stack([tt[order], pp[order]], axis=-1).reshape(-1, 2)
    value, owner = value.ravel(), np.repeat(np.arange(n), 3)
    step = np.full(3 * n, 0.5)
    while (live := np.flatnonzero(step >= _STEP_TOL)).size:
        for lo in range(0, live.size, _PAIRS_PER_CALL // len(_COMPASS)):
            c = live[lo : lo + _PAIRS_PER_CALL // len(_COMPASS)]
            trial = point[c, None, :] + step[c, None, None] * _COMPASS
            trial_gain = ev(owner[c], _projector_rows(trial[..., 0], trial[..., 1]))
            best = trial_gain.argmax(axis=1)
            top = trial_gain.max(axis=1)
            moved = top > value[c] + _MIN_IMPROVEMENT
            point[c[moved]] = trial[moved, best[moved]]
            value[c[moved]] = top[moved]
            step[c] *= np.where(moved, 2.0, 0.5)
    k = value.reshape(n, 3).argmax(axis=1) + np.arange(0, 3 * n, 3)
    return (np.maximum(0.0, value[k]), *canonical_angles(point[k, 0], point[k, 1]))


def _x_state(rng):
    """Random X state with complex coherences rho_14 and rho_23."""
    p = rng.dirichlet(np.ones(4))
    m = np.diag(p).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        m[i, j] = rng.uniform() * math.sqrt(p[i] * p[j]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        m[j, i] = m[i, j].conjugate()
    return m


_STATE_KINDS = {
    "full": lambda rng: random_density(rng, 4).mat,
    "x": _x_state,
    "product": lambda rng: np.kron(random_density(rng, 2).mat, random_density(rng, 2).mat),
}


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(_STATE_KINDS)), min_size=1, max_size=30),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_cached_seed_rows_match_rebuilt_rows(kinds, measured, seed):
    # The cached seeds hold each measurement of the oracle's full grid once,
    # so the compass may start from the other mirror representative and end
    # at another argmax, but never lower.  Product states make the gain flat
    # and the top-3 seed choice tie-heavy.
    rng = np.random.default_rng(seed)
    stack = np.stack([_STATE_KINDS[kind](rng) for kind in kinds])
    value, thetas, phis = classical_correlation_stack(stack, measured)
    want = _seed_compass_oracle(stack, measured)[0]
    assert np.all(value >= want - 1e-12)
    reached = _GainEvaluator(stack, measured)(
        np.arange(len(kinds)), _projector_rows(thetas[:, None], phis[:, None])
    )[:, 0]
    assert np.max(np.abs(np.maximum(0.0, reached) - value)) <= 1e-12


def test_cached_seed_rows_cannot_be_corrupted(rng):
    assert _SEED_ROWS.shape == (1, _SEED_GRID_N**2 // 2, 4)
    # Rows are (cos^2, ., ., sin^2) of theta.
    seed_thetas = np.arctan2(np.sqrt(_SEED_ROWS[..., 3].real), np.sqrt(_SEED_ROWS[..., 0].real))
    assert seed_thetas.max() < 0.25 * math.pi
    with pytest.raises(ValueError):
        _SEED_ROWS[0, 0, 0] = 0.0
    stack = np.stack([random_density(rng, 4).mat for _ in range(5)])
    other = np.stack([random_pure(rng).mat for _ in range(3)])
    first = classical_correlation_stack(stack)
    classical_correlation_stack(other, Qubit.A)
    again = classical_correlation_stack(stack)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_seed_rows_are_the_distinct_half_of_the_mirrored_grid(rng):
    # Grid pairs (j, k) and (n - 1 - j, k + n/2 mod n) are (theta, phi) and
    # (pi/2 - theta, phi + pi): one measurement with its outcomes swapped.
    # The halved seed grid rests on this; it needs n even and a phi axis
    # without its 2 pi endpoint.
    n = _SEED_GRID_N
    full = np.concatenate(list(_grid_rows(n)), axis=1)
    assert np.array_equal(_SEED_ROWS, full[:, : n * n // 2])
    j, k = np.divmod(np.arange(n * n), n)
    mirror = (n - 1 - j) * n + (k + n // 2) % n
    stack = np.stack([random_density(rng, 4).mat for _ in range(8)])
    for measured in (Qubit.A, Qubit.B):
        ev = _GainEvaluator(stack, measured)
        for i in range(len(stack)):
            gain = ev([i], full)[0]
            assert np.max(np.abs(gain - gain[mirror])) < 1e-14


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["full", "x"]), min_size=1, max_size=8),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_bloch_gains_match_projector_rows(kinds, measured, seed):
    # The compass's direction rows n = (sin 2 theta cos phi, sin 2 theta
    # sin phi, cos 2 theta) against the seeds' and the oracle's projector
    # rows.  Real X states cannot tell the signs of n apart; full-rank states
    # and X states with complex coherences can.
    rng = np.random.default_rng(seed)
    stack = np.stack([_STATE_KINDS[kind](rng) for kind in kinds])
    thetas = rng.uniform(-7.0, 7.0, (len(kinds), 64))
    phis = rng.uniform(-10.0, 10.0, (len(kinds), 64))
    states = np.arange(len(kinds))
    ev = _GainEvaluator(stack, measured)
    w, mirror = (_BlochWork(len(kinds), 64).at(len(kinds)) for _ in range(2))
    _fill_directions(thetas, phis, w)
    got = ev.gains(states, w.dirs, w).copy()
    assert np.max(np.abs(got - ev(states, _projector_rows(thetas, phis)))) <= 1e-14
    # The mirror (pi/2 - theta, phi + pi) is the direction -n.
    _fill_directions(0.5 * math.pi - thetas, phis + math.pi, mirror)
    assert np.max(np.abs(mirror.dirs[:, 1:] + w.dirs[:, 1:])) <= 1e-14
    assert np.max(np.abs(ev.gains(states, mirror.dirs, mirror) - got)) <= 1e-14


def _allocating_bloch_gains(ev, states, dirs):
    """_GainEvaluator.gains with fresh arrays for every intermediate."""
    m = ev.coef.take(states, axis=0) @ dirs
    m = m.reshape(m.shape[0], 2, 4, m.shape[-1])
    sq = np.square(m[:, :, 1:])
    half_r = np.sqrt(sq[:, :, 0] + sq[:, :, 1] + sq[:, :, 2])
    half_r *= 0.5
    terms = np.empty((3,) + half_r.shape)
    p = np.multiply(m[:, :, 0], 0.5, out=terms[0])
    np.add(p, half_r, out=terms[1])
    np.subtract(p, half_r, out=terms[2])
    terms[1:] *= 0.5
    keep = terms > _ZERO_EIG
    logs = np.log2(terms, out=np.zeros(terms.shape), where=keep)
    terms = np.multiply(logs, terms, out=logs, where=keep)
    entropy = np.maximum(terms[0] - terms[1] - terms[2], 0.0)
    return ev.s_x.take(states)[:, None] - entropy[:, 0] - entropy[:, 1]


def _allocating_directions(thetas, phis):
    dirs = np.empty(thetas.shape[:-1] + (4,) + thetas.shape[-1:])
    double = 2.0 * thetas
    s2 = np.sin(double)
    dirs[..., 0, :] = 1.0
    np.multiply(s2, np.cos(phis), out=dirs[..., 1, :])
    np.multiply(s2, np.sin(phis), out=dirs[..., 2, :])
    np.cos(double, out=dirs[..., 3, :])
    return dirs


def _allocating_compass_oracle(stack, measured):
    """classical_correlation_stack with every compass round on fresh arrays, one
    step size per start and round, stopping at the module's _STEP_TOL."""
    ev = _GainEvaluator(stack, measured)
    n = ev.s_x.size
    order, value = np.empty((n, 3), dtype=int), np.empty((n, 3))
    for i in range(n):
        gain = ev([i], _SEED_ROWS)[0]
        top = np.argpartition(gain, -3)[-3:]
        order[i] = top[np.argsort(gain[top])[::-1]]
        value[i] = gain[order[i]]
    thetas = np.linspace(0.0, 0.5 * math.pi, _SEED_GRID_N)
    phis = np.linspace(0.0, 2.0 * math.pi, _SEED_GRID_N, endpoint=False)
    point = np.stack([thetas[order // _SEED_GRID_N], phis[order % _SEED_GRID_N]], axis=-1).reshape(-1, 2)
    value, owner = value.ravel(), np.repeat(np.arange(n), 3)
    step = np.full(3 * n, 0.5)
    while (live := np.flatnonzero(step >= correlations._STEP_TOL)).size:
        for lo in range(0, live.size, _PAIRS_PER_CALL // len(_COMPASS)):
            c = live[lo : lo + _PAIRS_PER_CALL // len(_COMPASS)]
            trial = point[c, None, :] + step[c, None, None] * _COMPASS
            dirs = _allocating_directions(trial[..., 0], trial[..., 1])
            trial_gain = _allocating_bloch_gains(ev, owner[c], dirs)
            best = trial_gain.argmax(axis=1)
            top = trial_gain.max(axis=1)
            moved = top > value[c] + _MIN_IMPROVEMENT
            point[c[moved]] = trial[moved, best[moved]]
            value[c[moved]] = top[moved]
            step[c] *= np.where(moved, 2.0, 0.5)
    k = value.reshape(n, 3).argmax(axis=1) + np.arange(0, 3 * n, 3)
    return (np.maximum(value[k], 0.0), *canonical_angles(point[k, 0], point[k, 1]))


def _classical_quantum_state(rng):
    """p |u><u| (x) |a><a| + (1 - p) |u'><u'| (x) |b><b|, u' orthogonal to u."""
    u = random_unitary(rng, 2)
    p = rng.uniform()
    return sum(
        w * np.kron(np.outer(u[:, i], u[:, i].conj()), random_pure(rng, 2).mat)
        for i, w in enumerate((p, 1.0 - p))
    )


# SWAP on the basis {|11>, |10>, |01>, |00>}: |ab> -> |ba>.
_SWAP = [0, 2, 1, 3]


@settings(max_examples=20, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["full", "x", "product", "classical-quantum"]), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_measuring_a_is_measuring_b_of_the_swapped_state(kinds, seed):
    # The measured qubit is one convention for every measure: measuring A of
    # rho is measuring B of SWAP rho SWAP, and the symmetric measures do not
    # see the swap.
    rng = np.random.default_rng(seed)
    make = {**_STATE_KINDS, "classical-quantum": _classical_quantum_state}
    stack = np.stack([make[kind](rng) for kind in kinds])
    swapped = stack[:, _SWAP][:, :, _SWAP]
    j_a = classical_correlation_stack(stack, Qubit.A)[0]
    assert np.max(np.abs(j_a - classical_correlation_stack(swapped, Qubit.B)[0])) <= 1e-12
    assert np.max(np.abs(mutual_information_stack(stack) - mutual_information_stack(swapped))) <= 1e-12
    assert np.max(np.abs(concurrence_stack(stack) - concurrence_stack(swapped))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 90),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
# A round has one row per start and step size, up to _HALVINGS rows per start.
# At n = 22 the 264 rows of the first round just cross one 256-row call; at
# n = 30 a later call boundary falls between two rows of one start; from
# n = 43 on a round spans three or more calls.
@example(n=90, measured=Qubit.A, seed=0)
@example(n=86, measured=Qubit.B, seed=1)
@example(n=22, measured=Qubit.B, seed=0)
@example(n=30, measured=Qubit.A, seed=0)
@example(n=60, measured=Qubit.B, seed=2)
def test_property_compass_workspace_matches_allocating_rounds(n, measured, seed):
    # A round holds up to 4 rows per start, one per step size, in calls of
    # up to 256 rows that reuse one workspace; from 22 states on, a round
    # first crosses a 256-row call, so a call also runs on a prefix of the
    # buffers.  The in-place arithmetic must repeat the allocating
    # one bit for bit.  Classical-quantum states leave pure conditional
    # states near their optimum, whose eigenvalues below _ZERO_EIG the masked
    # log2 must count as 0 log 0 = 0 whatever an earlier round left there.
    rng = np.random.default_rng(seed)
    kinds = {**_STATE_KINDS, "classical-quantum": _classical_quantum_state}
    stack = np.stack([kinds[kind](rng) for kind in rng.choice(sorted(kinds), n)])
    got = classical_correlation_stack(stack, measured)
    want = _allocating_compass_oracle(stack, measured)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("measured", [Qubit.A, Qubit.B])
def test_coarse_stop_tolerance_matches_allocating_rounds(monkeypatch, rng, measured):
    # At a stop tolerance of 1e-3 grid spacings most starts end unconverged,
    # so their last rounds hold fewer than _HALVINGS step sizes and a smaller
    # step that would still move.  A round that commits a step below the
    # tolerance moves a start the one-step-per-round compass has stopped.
    monkeypatch.setattr(correlations, "_STEP_TOL", 1e-3)
    kinds = {**_STATE_KINDS, "classical-quantum": _classical_quantum_state}
    stack = np.stack([kinds[kind](rng) for kind in sorted(kinds) for _ in range(8)])
    got = classical_correlation_stack(stack, measured)
    want = _allocating_compass_oracle(stack, measured)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_results_do_not_alias_the_compass_workspace(rng):
    stack = np.stack([random_density(rng, 4).mat for _ in range(4)])
    other = np.stack([_x_state(rng) for _ in range(90)])
    first = classical_correlation_stack(stack)
    kept = [a.copy() for a in first]
    classical_correlation_stack(other, Qubit.A)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
