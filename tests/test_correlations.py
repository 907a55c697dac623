"""Entropy, mutual information, classical correlation, discord, concurrence."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discordsim import (
    DensityMatrix,
    MeasurementBasis,
    Qubit,
    ReservoirParams,
    brute_force_classical_correlation,
    classical_correlation,
    concurrence,
    conditional_entropy,
    evaluate_chi,
    evolve_trajectory,
    mutual_information,
    partial_trace,
    pure_state,
    quantum_discord,
    tensor,
    von_neumann_entropy,
)
from discordsim import correlations, states
from discordsim.correlations import (
    _COMPASS,
    _MIN_IMPROVEMENT,
    _MOVES,
    _PAIRS_PER_CALL,
    _SEED_DIRS,
    _SEED_GRID_N,
    _SEED_PHI,
    _SEED_THETA,
    _STARTS_PER_CALL,
    _STEP_TOL,
    _BlochWork,
    _GainEvaluator,
    _compass_starts,
    _projector_rows,
    _thread_work,
    _top_seeds,
    _trial_directions,
    _xlog2x,
    canonical_angles,
    classical_correlation_stack,
    concurrence_stack,
    discord_from_parts,
    mutual_information_stack,
)
from discordsim.scenarios import Family, StateFamily, build_state
from discordsim.states import evolve_stack, is_x_stack, spectra

from conftest import random_density, random_pure, random_unitary
from xref import x_discord_reference, x_reference

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


def _masked_xlog2x(x):
    """x log2 x with masked ufuncs, 0 where x is at or below 0 or NaN."""
    keep = x > 0.0
    out = np.log2(x, out=np.zeros(x.shape), where=keep)
    return np.multiply(out, x, out=out, where=keep)


def test_xlog2x_matches_the_masked_form(rng):
    # Entries at or below 0, NaN and -0.0 included, must give +0.0 as the
    # masked form does, sign bit included, whatever the buffers held; the
    # smallest subnormals and the former 1e-14 cut count like any positive x.
    tiny = [np.nextafter(0.0, 1.0), 2 * np.nextafter(0.0, 1.0), np.nextafter(1e-14, 0.0), 1e-14, 1e-300]
    special = tiny + [0.0, -0.0, -1e-300, -1e-17, -1e-14, -1e-10, 1e-13, 0.5, 1.0, np.nan]
    spectra_ = rng.dirichlet(np.ones(4), 100)
    spectra_[rng.random(spectra_.shape) < 0.2] = 0.0
    x = np.concatenate([special, rng.uniform(-1e-10, 0.0, 97), 10.0 ** rng.uniform(-20.0, 0.0, 400), spectra_.ravel()])
    x = x[rng.permutation(x.size)].reshape(3, 2, -1)
    want = _masked_xlog2x(x).view(np.int64)
    kept = x.copy()
    for buffers in ((), (np.full(x.shape, np.nan),), (None, np.ones(x.shape, bool), np.full(x.shape, -1.0)),
                    (np.full(x.shape, -2.0), np.zeros(x.shape, bool), np.full(x.shape, np.nan))):
        got = _xlog2x(x, *buffers)
        assert np.array_equal(got.view(np.int64), want)
        if buffers and buffers[0] is not None:
            assert got is buffers[0]
        assert np.array_equal(x.view(np.int64), kept.view(np.int64))


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
        eigs = eigs[eigs > 0.0]
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
    rotated = []
    for _ in range(20):
        rho = random_density(rng, 4)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated.append(DensityMatrix(u @ rho.mat @ u.conj().T))
        assert concurrence(rotated[-1]) == pytest.approx(concurrence(rho), abs=1e-10)
    # Full-rank non-X states take the general path, which _wootters repeats.
    stack = np.stack([rho.mat for rho in rotated])
    assert np.max(np.abs(concurrence_stack(stack) - _wootters(stack))) <= 1e-14


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


_STACK_KERNELS = {
    "classical": classical_correlation_stack,
    "concurrence": concurrence_stack,
    "mutual_information": mutual_information_stack,
}


@pytest.mark.parametrize("name", sorted(_STACK_KERNELS))
def test_stack_kernels_reject_non_finite_states(rng, name):
    # One check per call names the first bad state.  Without it one NaN
    # gave J = 0 with no error, a NaN concurrence, a mutual-information floor
    # error or a LinAlgError, depending on the kernel and the stack's shape.
    kernel = _STACK_KERNELS[name]
    with pytest.raises(ValueError, match=r"^state 0 of the stack has a non-finite entry$"):
        kernel(np.full((1, 4, 4), np.nan))
    full = np.stack([random_density(rng, 4).mat for _ in range(4)])
    x = np.stack([_x_state(rng) for _ in range(4)])
    for stack, entry in ((full, (0, 1)), (x, (1, 1)), (x, (0, 3))):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            broken = stack.copy()
            broken[(2, 3), entry[0], entry[1]] = bad
            assert is_x_stack(broken) == (stack is x)
            with pytest.raises(ValueError, match=r"^state 2 of the stack has a non-finite entry$"):
                kernel(broken)


@pytest.mark.parametrize("name", sorted(_STACK_KERNELS))
def test_stack_kernels_give_empty_results_on_an_empty_stack(name):
    out = _STACK_KERNELS[name](np.zeros((0, 4, 4), dtype=complex))
    for a in out if isinstance(out, tuple) else (out,):
        assert a.shape == (0,)


def _grid_angles(n):
    """Flat (theta, phi) of the n x n grid, pair j = (thetas[j // n], phis[j % n])."""
    thetas = np.linspace(0.0, 0.5 * math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return tuple(a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))


def _seed_compass_oracle(stack, measured):
    """classical_correlation_stack seeded on the full 64x64 grid, which holds
    each measurement twice, as (theta, phi) and its mirror (pi/2 - theta,
    phi + pi), and the pole 64 times, with fresh arrays per state; the compass
    runs on projector rows."""
    ev = _GainEvaluator(stack, measured)
    n = ev.s_x.size
    tt, pp = _grid_angles(_SEED_GRID_N)
    dirs = _allocating_directions(tt, pp)
    order, value = np.empty((n, 3), dtype=int), np.empty((n, 3))
    for i in range(n):
        gain = _allocating_bloch_gains(ev, [i], dirs)[0]
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
    # The ring seeds cover the sphere as closely as the oracle's full grid
    # with other points, so the compass may start elsewhere and end at another
    # argmax, but never lower.  Product states make the gain flat and the
    # top-3 seed choice tie-heavy.
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
    assert _SEED_DIRS.shape == (4, 1297) and _SEED_THETA.shape == _SEED_PHI.shape == (1297,)
    # Columns are (1, n) with n_z = cos 2 theta, so theta < pi/4 means n_z > 0.
    assert np.all(_SEED_DIRS[0] == 1.0)
    assert _SEED_DIRS[3].min() > 0.0
    for table in (_SEED_DIRS, _SEED_THETA, _SEED_PHI):
        with pytest.raises(ValueError):
            table[0] = 0.0
    stack = np.stack([random_density(rng, 4).mat for _ in range(5)])
    other = np.stack([random_pure(rng).mat for _ in range(3)])
    first = classical_correlation_stack(stack)
    classical_correlation_stack(other, Qubit.A)
    again = classical_correlation_stack(stack)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def _covering_angles(dirs, points):
    """Angle (k,) from each unit direction of ``points`` (k, 3) to the nearest
    measurement of ``dirs`` (3, m), n and -n being one measurement."""
    cos = np.concatenate([np.abs(points[lo : lo + 4096] @ dirs).max(axis=1) for lo in range(0, len(points), 4096)])
    return np.arccos(np.minimum(cos, 1.0))


def test_seed_rows_are_distinct_measurements_covering_the_sphere(rng):
    # Rings on the grid's rows theta_j = j pi/126 < pi/4, ceil(64 sin 2 theta_j)
    # azimuths each and the pole once: no two seeds are one measurement, and
    # they cover the sphere as closely as the 64x64 grid does.  Both tables
    # leave their widest gap on the equator, between the last ring, pi/126
    # from it, and its mirror, half an azimuth step pi/64 from either seed.
    assert np.array_equal(_SEED_DIRS, _allocating_directions(_SEED_THETA, _SEED_PHI))
    dirs = _SEED_DIRS[1:]
    assert dirs[2].min() > 0.0 and np.count_nonzero(_SEED_THETA == 0.0) == 1
    gram = np.abs(dirs.T @ dirs)
    np.fill_diagonal(gram, 0.0)
    assert np.arccos(gram.max()) > 0.049  # the closest pair: the pole and the first ring, pi/63 apart
    radius = math.acos(math.cos(math.pi / 126) * math.cos(math.pi / 64))  # 0.05505 rad
    # A test grid over the whole sphere, polar steps pi/252 and azimuth steps
    # pi/128, holds the centres of the equator gaps.
    double, phi = (a.ravel() for a in np.meshgrid(np.linspace(0.0, math.pi, 253), np.arange(256) * math.pi / 128))
    dense = np.stack([np.sin(double) * np.cos(phi), np.sin(double) * np.sin(phi), np.cos(double)], axis=-1)
    grid = _allocating_directions(*_grid_angles(_SEED_GRID_N))[1:]
    ring_gap, grid_gap = _covering_angles(dirs, dense), _covering_angles(grid, dense)
    assert abs(ring_gap.max() - radius) <= 1e-9 and abs(grid_gap.max() - radius) <= 1e-9
    assert _covering_angles(dirs, grid.T).max() <= 0.0549
    # Half a sphere suffices: the mirror (pi/2 - theta, phi + pi) of a seed is
    # one measurement with its outcomes swapped, direction -n, with the same gain.
    rows = _projector_rows(_SEED_THETA, _SEED_PHI)[None]
    mirror = _projector_rows(0.5 * math.pi - _SEED_THETA, _SEED_PHI + math.pi)[None]
    stack = np.stack([random_density(rng, 4).mat for _ in range(8)])
    for measured in (Qubit.A, Qubit.B):
        ev = _GainEvaluator(stack, measured)
        for i in range(len(stack)):
            assert np.max(np.abs(ev([i], rows) - ev([i], mirror))) < 1e-14
            assert np.max(np.abs(ev([i], rows) - _allocating_bloch_gains(ev, [i], _SEED_DIRS))) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(_STATE_KINDS)), min_size=1, max_size=30),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_top_seed_values_match_projector_rows(kinds, measured, seed):
    # The seeds are scored on the Bloch kernel, one product against the whole
    # table per state; their best three values must be those of the seeds'
    # complex projector rows.  Which seeds they are may differ on ties, as on
    # every real X state, whose gain ignores phi.
    rng = np.random.default_rng(seed)
    stack = np.stack([_STATE_KINDS[kind](rng) for kind in kinds])
    ev = _GainEvaluator(stack, measured)
    order, value = _top_seeds(ev, _thread_work())
    rows = _projector_rows(_SEED_THETA, _SEED_PHI)[None]
    for i in range(len(kinds)):
        want = np.sort(ev([i], rows)[0])[::-1][:3]
        assert np.max(np.abs(value[i] - want)) <= 1e-14
        assert np.array_equal(value[i], _allocating_bloch_gains(ev, [i], _SEED_DIRS)[0, order[i]])


def _z_classical_quantum():
    """0.3 rho (x) |1><1| + 0.7 rho' (x) |0><0|: classical-quantum in the z basis of B."""
    rho = np.array([[0.3, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]])
    return 0.3 * np.kron(np.diag([0.6, 0.4]), np.diag([1.0, 0.0])) + 0.7 * np.kron(rho, np.diag([0.0, 1.0]))


@pytest.mark.parametrize(
    "make, measured",
    [
        (_z_classical_quantum, Qubit.B),
        (lambda: np.kron(np.diag([1.0, 0.0]), np.diag([0.2, 0.8])).astype(complex), Qubit.B),
        (lambda: _raw_general_stack(39)[5], Qubit.A),  # t = 25, J = 6.7e-5
    ],
    ids=["classical-quantum", "product", "raw-general"],
)
def test_pole_states_start_from_three_distinct_measurements(make, measured):
    # The 64x64 half-grid held the pole 64 times, so every state whose best
    # seed was the pole started all three compass starts at that one point.
    order = _top_seeds(_GainEvaluator(make()[None], measured), _thread_work())[0][0]
    assert _SEED_DIRS[3, order[0]] == 1.0
    dirs = _SEED_DIRS[1:, order]
    gram = np.abs(dirs.T @ dirs)
    assert gram[np.triu_indices(3, 1)].max() < 1.0 - 1e-6


def _edge_x_state(rng):
    """Rank-deficient X state: one or two populations zero, rho_14 on its positivity edge."""
    p = rng.dirichlet(np.ones(4))
    p[rng.choice(4, rng.integers(1, 3), replace=False)] = 0.0
    m = np.diag(p / p.sum()).astype(complex)
    m[0, 3] = math.sqrt(m[0, 0].real * m[3, 3].real) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    m[1, 2] = rng.uniform() * math.sqrt(m[1, 1].real * m[2, 2].real) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    m[3, 0], m[2, 1] = m[0, 3].conjugate(), m[1, 2].conjugate()
    return m


def _evolved_family_state(rng):
    family = StateFamily(list(Family)[rng.integers(2)], rng.uniform(), rng.uniform())
    return evolve_stack(build_state(family), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))[0]


_X_KINDS = {
    "x": _x_state,
    "edge": _edge_x_state,
    "bell": lambda rng: build_state(StateFamily(Family.PSI, 0.5, 1.0)).mat,
    "family": _evolved_family_state,
}


_ROOT_CUT = 1e-14  # the concurrence oracle's square-root cut; no entropy uses it


def _wootters(stack):
    """Wootters concurrence as concurrence_stack's general path takes it, but with
    eigenvalues of rho at or below _ROOT_CUT taken as zero.  Their square roots
    lift round-off to up to ~1e-8 on rank-2 X states with rho_22 = 0 and rho_14
    on its positivity edge, where the closed form is exact."""
    w, v = np.linalg.eigh(stack)
    root = (v * np.sqrt(np.where(w > _ROOT_CUT, w, 0.0))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    flip = correlations._SPIN_FLIP
    s = np.linalg.svd(root @ flip @ root.conj() @ flip, compute_uv=False)
    return np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])


def _x_exact(stack):
    """xref.x_reference of each X state: (concurrence, ascending spectrum, S(AB),
    S(A), S(B)) as arrays."""
    refs = [x_reference(*m[range(4), range(4)].real, m[0, 3], m[1, 2]) for m in stack]
    conc, outer, inner, s_ab, s_a, s_b = (np.array(col) for col in zip(*refs))
    return conc, np.sort(np.concatenate([outer, inner], axis=1), axis=1), s_ab, s_a, s_b


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(_X_KINDS)), min_size=1, max_size=20),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
# LAPACK's eigh + SVD Wootters concurrence, the former oracle, was 1.6e-14 off
# on row 10 of this example (|rho_14| = 1.7e-3, rho_11 = 8.4e-6); the closed
# form agrees with the 50-digit reference.
@example(
    kinds=["edge", "family", "edge", "family", "family", "family", "family", "family", "x", "edge", "family"],
    measured=Qubit.A,
    seed=121282989,
)
def test_property_x_closed_forms_match_the_general_path(kinds, measured, seed):
    # The X closed forms against the exact values of the same definitions
    # (xref, 50 decimal digits): the spectra, the entropies and the
    # concurrence.  Without the clip to [0, 1] the pure Bell-like state gives
    # C = 1.0000000000000002.
    rng = np.random.default_rng(seed)
    stack = np.stack([_X_KINDS[kind](rng) for kind in kinds])
    assert is_x_stack(stack)
    conc_ref, eigs, s_ab, s_a, s_b = _x_exact(stack)
    assert np.max(np.abs(spectra(stack) - eigs)) <= 1e-14
    s_x = s_a if measured is Qubit.B else s_b
    assert np.max(np.abs(_GainEvaluator(stack, measured).s_x - s_x)) <= 1e-14
    mi = np.maximum(s_a + s_b - s_ab, 0.0)
    assert np.max(np.abs(mutual_information_stack(stack) - mi)) <= 1e-14
    conc = concurrence_stack(stack)
    assert np.all((0.0 <= conc) & (conc <= 1.0))
    assert np.max(np.abs(conc - conc_ref)) <= 1e-14


def _tail_family_state(rng):
    """Family state deep in the vacuum tail: one amplitude chi, 1e-7 <= |chi| <= 1e-2, on both qubits."""
    family = StateFamily(list(Family)[rng.integers(2)], rng.uniform(), rng.uniform())
    chi = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -2.0)
    return evolve_stack(build_state(family), chi, chi)[0]


_J_KINDS = (_x_state, _edge_x_state, _evolved_family_state, _tail_family_state)


@settings(max_examples=10, deadline=None)
@given(measured=st.sampled_from([Qubit.A, Qubit.B]), seed=st.integers(0, 2**32 - 1))
def test_property_x_classical_correlation_matches_the_exact_reference(measured, seed):
    # J and D of one state of each kind against xref's 50-digit maximum of the
    # gain over c = n_z.
    rng = np.random.default_rng(seed)
    stack = np.stack([make(rng) for make in _J_KINDS])
    refs = [x_discord_reference(*m[range(4), range(4)].real, m[0, 3], m[1, 2], measured is Qubit.B) for m in stack]
    j_ref, d_ref = np.array(refs).T
    j = classical_correlation_stack(stack, measured)[0]
    assert np.max(np.abs(j - j_ref)) <= 1e-13
    assert np.max(np.abs(discord_from_parts(mutual_information_stack(stack), j) - d_ref)) <= 1e-13


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(list(Family)),
    alpha_sq=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    lambda_ratio=st.floats(0.01, 100.0),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    product=st.booleans(),
)
# fig1's tail (lambda/gamma0 = 10): with eigenvalues at or below 1e-14 counted
# as 0, J exceeded I there by up to 3.4e-13 and the alpha^2 = 0 product state
# gave I up to 4.6e-13.
@example(family=Family.PSI, alpha_sq=0.5, r=1.0, lambda_ratio=10.0, measured=Qubit.B, product=False)
@example(family=Family.PSI, alpha_sq=0.0, r=1.0, lambda_ratio=10.0, measured=Qubit.B, product=True)
def test_property_family_trajectories_keep_j_within_i(family, alpha_sq, r, lambda_ratio, measured, product):
    # Along a family trajectory into the vacuum tail, J stays within round-off
    # of I; a product state (alpha^2 in {0, 1}, r = 1) stays one under the
    # channel, so I, J and D stay at round-off.
    if product:
        alpha_sq, r = float(round(alpha_sq)), 1.0
    traj = evolve_trajectory(
        StateFamily(family, alpha_sq, r), ReservoirParams(lambda_ratio), np.linspace(0.0, 40.0, 401), measured
    )
    assert np.max(traj.classical_corr - traj.mutual_info) <= 5e-14
    if product:
        assert max(traj.mutual_info.max(), traj.classical_corr.max(), traj.discord.max()) <= 5e-14


@pytest.mark.parametrize("entry", range(8))
def test_one_non_x_entry_takes_the_lapack_branch(monkeypatch, rng, entry):
    stack = np.stack([_x_state(rng) for _ in range(3)])
    calls = []
    for name in ("eigvalsh", "eigh"):
        def spy(m, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    spectra(stack), concurrence_stack(stack), mutual_information_stack(stack)
    assert calls == []
    stack[1, states._NON_X[0][entry], states._NON_X[1][entry]] = 1e-20
    assert not is_x_stack(stack)
    spectra(stack), concurrence_stack(stack), mutual_information_stack(stack)
    assert calls == ["eigvalsh", "eigh", "eigvalsh"]


@settings(max_examples=25, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["full", "x"]), min_size=1, max_size=8),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_bloch_gains_match_projector_rows(kinds, measured, seed):
    # The compass's direction rows n = (sin 2 theta cos phi, sin 2 theta
    # sin phi, cos 2 theta), gathered from each start's angle tables, must be
    # those of the trials' own angles bit for bit, and their gains those of
    # the oracle's projector rows.  Starts sit at the poles and at angles
    # outside [0, pi/2] and [0, 2 pi), with steps from 1e-9 to 8.  Real X
    # states cannot tell the signs of n apart; full-rank states and X states
    # with complex coherences can.
    rng = np.random.default_rng(seed)
    k = len(kinds)
    stack = np.stack([_STATE_KINDS[kind](rng) for kind in kinds])
    point = np.stack([rng.uniform(-7.0, 7.0, k), rng.uniform(-10.0, 20.0, k)], axis=-1)
    point[rng.random(k) < 0.25, 0] = 0.0
    point[rng.random(k) < 0.25, 0] = 0.5 * math.pi
    point[-1, 0] = 0.5 * math.pi * rng.integers(2)
    step = 10.0 ** rng.uniform(-9.0, math.log10(8.0), k)
    step[0], step[-1] = 1e-9, 8.0
    w = _BlochWork().at(k)
    dirs = _trial_directions(point, step, w)
    trial = point[:, None, :] + step[:, None, None] * _MOVES
    thetas, phis = trial[..., 0], trial[..., 1]
    assert np.array_equal(dirs.view(np.int64), _allocating_directions(thetas, phis).view(np.int64))
    states = np.arange(k)
    ev = _GainEvaluator(stack, measured)
    got = ev.gains(ev.coef, ev.s_x, dirs, w).copy()
    assert np.max(np.abs(got - ev(states, _projector_rows(thetas, phis)))) <= 1e-14
    # The mirror (pi/2 - theta, phi + pi) is the direction -n.
    mirror = _allocating_directions(0.5 * math.pi - thetas, phis + math.pi)
    assert np.max(np.abs(mirror[:, 1:] + dirs[:, 1:])) <= 1e-14
    assert np.max(np.abs(ev.gains(ev.coef, ev.s_x, mirror, w) - got)) <= 1e-14


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
    keep = terms > 0.0
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


def _allocating_compass_oracle(stack, measured, advance):
    """classical_correlation_stack with every compass round on fresh arrays,
    ``advance`` taking each unfinished start one round further, until its step
    falls below the module's _STEP_TOL; after (J, theta, phi) come every start's
    raw final points (3n, 2) and values (3n,), as _compass_starts returns them."""
    ev = _GainEvaluator(stack, measured)
    n = ev.s_x.size
    order, value = np.empty((n, 3), dtype=int), np.empty((n, 3))
    for i in range(n):
        gain = _allocating_bloch_gains(ev, [i], _SEED_DIRS)[0]
        top = np.argpartition(gain, -3)[-3:]
        order[i] = top[np.argsort(gain[top])[::-1]]
        value[i] = gain[order[i]]
    point = np.stack([_SEED_THETA[order], _SEED_PHI[order]], axis=-1).reshape(-1, 2)
    value, owner = value.ravel(), np.repeat(np.arange(n), 3)
    step = np.full(3 * n, 0.5)
    while (live := np.flatnonzero(step >= correlations._STEP_TOL)).size:
        point[live], value[live], step[live] = advance(ev, owner[live], point[live], value[live], step[live])
    k = value.reshape(n, 3).argmax(axis=1) + np.arange(0, 3 * n, 3)
    return (np.maximum(value[k], 0.0), *canonical_angles(point[k, 0], point[k, 1]), point, value)


def _trial_gains(ev, owner, point, step, moves):
    """Trials (k, m, 2) point + step * moves of k starts and their gains (k, m)."""
    trial = point[:, None, :] + step[:, None, None] * moves
    return trial, _allocating_bloch_gains(ev, owner, _allocating_directions(trial[..., 0], trial[..., 1]))


def _first_hit_round(ev, owner, point, value, step):
    """One round of the one-step compass the module ran before best-trial
    rounds: the best of 8 trials at one step size moves a start and doubles
    its step; otherwise the step halves.  Kept as the reference for J."""
    trial, gain = _trial_gains(ev, owner, point, step, _COMPASS)
    best = gain.argmax(axis=1)
    top = gain.max(axis=1)
    moved = top > value + _MIN_IMPROVEMENT
    point = np.where(moved[:, None], trial[np.arange(len(best)), best], point)
    return point, np.where(moved, top, value), step * np.where(moved, 2.0, 0.5)


def _best_trial_round(ev, owner, point, value, step):
    """_compass_round on fresh arrays: the best trial of all _HALVINGS step
    sizes moves a start, which then doubles the largest step if a trial of
    that size moved it too, else the best trial's step."""
    trial, gain = _trial_gains(ev, owner, point, step, _MOVES)
    best = gain.argmax(axis=1)
    top = gain.max(axis=1)
    bar = value + _MIN_IMPROVEMENT
    moved = top > bar
    level = np.where(gain[:, : len(_COMPASS)].max(axis=1) > bar, 0, best // len(_COMPASS))
    growth = np.where(moved, 2.0 * 0.5**level, 0.5**correlations._HALVINGS)
    point = np.where(moved[:, None], trial[np.arange(len(best)), best], point)
    return point, np.where(moved, top, value), step * growth


def _assert_matches_allocating_rounds(stack, measured):
    # The folded results, then every start's raw final point and value, so
    # the two starts per state that the fold discards are compared too.
    want = _allocating_compass_oracle(stack, measured, _best_trial_round)
    for a, b in zip(classical_correlation_stack(stack, measured), want[:3]):
        assert np.array_equal(a, b)
    for a, b in zip(_compass_starts(_GainEvaluator(stack, measured), _thread_work()), want[3:]):
        assert np.array_equal(a, b)


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
# A round has one row of _HALVINGS x 8 trials per unfinished start, in calls
# of up to _STARTS_PER_CALL starts (42 at _HALVINGS = 6).  With n states the
# first round has 3n starts: at n = _STARTS_PER_CALL // 3 they fit one call,
# one state more takes two, and from 2 _STARTS_PER_CALL // 3 + 1 states on
# three.  Later rounds shrink back across these boundaries as starts finish.
# The compass runs 128 states at a time: at n = 128 all starts run one chunk,
# and at n = 129 the last state's starts run a chunk of their own.
@example(n=1, measured=Qubit.B, seed=0)
@example(n=6, measured=Qubit.A, seed=0)
@example(n=_STARTS_PER_CALL // 3, measured=Qubit.A, seed=1)
@example(n=_STARTS_PER_CALL // 3 + 1, measured=Qubit.B, seed=0)
@example(n=2 * _STARTS_PER_CALL // 3 + 1, measured=Qubit.B, seed=0)
@example(n=30, measured=Qubit.A, seed=0)
@example(n=60, measured=Qubit.B, seed=2)
@example(n=86, measured=Qubit.B, seed=1)
@example(n=90, measured=Qubit.A, seed=0)
@example(n=128, measured=Qubit.B, seed=3)
@example(n=129, measured=Qubit.A, seed=3)
def test_property_compass_workspace_matches_allocating_rounds(n, measured, seed):
    # A round holds one row of len(_MOVES) trials per start, in calls of up
    # to _STARTS_PER_CALL rows that reuse one workspace; once a round takes
    # more than one call, a call also runs on a prefix of the buffers.  The
    # in-place arithmetic must repeat the allocating one bit for bit, moves,
    # step growth and misses included.
    # Classical-quantum states leave pure conditional states near their
    # optimum, whose round-off eigenvalues at or below 0 the masked log2 must
    # count as 0 log 0 = 0 whatever an earlier round left there.
    rng = np.random.default_rng(seed)
    kinds = {**_STATE_KINDS, "classical-quantum": _classical_quantum_state}
    stack = np.stack([kinds[kind](rng) for kind in rng.choice(sorted(kinds), n)])
    _assert_matches_allocating_rounds(stack, measured)


@pytest.mark.parametrize("measured", [Qubit.A, Qubit.B])
def test_coarse_stop_tolerance_matches_allocating_rounds(monkeypatch, rng, measured):
    # At a stop tolerance of 1e-3 grid spacings most starts end unconverged,
    # and many take their last move at a step size below the tolerance, the
    # best of their row, after which they stop.
    # At 0.3 grid spacings a start stops at its first miss, so its raw final
    # value is the gain of a trial at a step of half a spacing or more, where
    # the gain is not flat: a trial angle one ulp off changes a few of 768
    # starts' values, on two compass chunks.
    kinds = {**_STATE_KINDS, "classical-quantum": _classical_quantum_state}
    for tol, per_kind in ((1e-3, 8), (0.3, 64)):
        monkeypatch.setattr(correlations, "_STEP_TOL", tol)
        stack = np.stack([kinds[kind](rng) for kind in sorted(kinds) for _ in range(per_kind)])
        _assert_matches_allocating_rounds(stack, measured)


@settings(max_examples=20, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["full", "x", "product", "classical-quantum"]), min_size=1, max_size=12),
    measured=st.sampled_from([Qubit.A, Qubit.B]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_best_trial_rounds_keep_first_hit_j(kinds, measured, seed):
    # Best-trial rounds take other paths than the one-step compass, but end
    # no lower than its J beyond round-off of the gains.
    rng = np.random.default_rng(seed)
    make = {**_STATE_KINDS, "classical-quantum": _classical_quantum_state}
    stack = np.stack([make[kind](rng) for kind in kinds])
    want = _allocating_compass_oracle(stack, measured, _first_hit_round)[0]
    assert np.all(classical_correlation_stack(stack, measured)[0] >= want - 1e-12)


def _raw_general_stack(spec):
    """The 6-point stack of trajectory ``spec`` of the raw-general benchmark
    workload at seed 1 (``RawGeneral`` in bench/workloads.py): a random
    full-rank state under lambda/gamma0 drawn by spec % 3, at t = 0, 5, ..., 25."""
    rng = np.random.default_rng([1, sum(map(ord, "raw-general"))])
    for i in range(spec + 1):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        if i % 3 == 0:
            lam = math.exp(rng.uniform(math.log(0.05), math.log(1.5)))
        elif i % 3 == 1:
            lam = math.exp(rng.uniform(math.log(2.5), math.log(20.0)))
        else:
            lam = 2.0 if rng.uniform() < 0.5 else 2.0 + rng.uniform(-1e-9, 1e-9)
    m = g @ g.conj().T
    m = 0.95 * m / np.trace(m).real + 0.05 * np.eye(4) / 4.0
    chi = evaluate_chi(ReservoirParams(lam), np.linspace(0.0, 25.0, 6))
    return evolve_stack(DensityMatrix(0.5 * (m + m.conj().T)), chi, chi)


@pytest.mark.parametrize("spec, t_index", [(732, 5), (868, 2), (1038, 1)])
def test_near_pole_flat_states_keep_first_hit_j(spec, t_index):
    # Measured A, these states have J of about 1e-11 or below, near the
    # theta = 0 pole, where the gain is flat to round-off.  Rounds that always
    # doubled the best trial's step, whatever the largest step did, ended
    # below the one-step compass by more than 1e-12 here: by 1.0e-12 and
    # 1.1e-12 on the first two at _HALVINGS = 4, by 1.1e-12 and 3.9e-12 on
    # the last two at 6.
    stack = _raw_general_stack(spec)
    j = classical_correlation_stack(stack, Qubit.A)[0]
    assert j[t_index] < 1e-10
    assert np.all(j >= _allocating_compass_oracle(stack, Qubit.A, _first_hit_round)[0] - 1e-12)


def test_best_trial_rounds_are_few_on_full_rank_states(monkeypatch):
    # 40 evolved full-rank 6-state calls, measured A and B alternately:
    # first-hit rounds took 21.9 rounds per call on average, best-trial
    # rounds 14.3.
    rounds = 0
    real = correlations._compass_round

    def counted(*args):
        nonlocal rounds
        rounds += 1
        real(*args)

    monkeypatch.setattr(correlations, "_compass_round", counted)
    rng = np.random.default_rng(27)
    t = np.linspace(0.0, 25.0, 6)
    for i in range(40):
        chi = evaluate_chi(ReservoirParams(10.0 ** rng.uniform(-1.3, 1.3)), t)
        classical_correlation_stack(evolve_stack(random_density(rng, 4), chi, chi), (Qubit.A, Qubit.B)[i % 2])
    assert rounds / 40 <= 16


def test_results_do_not_alias_the_compass_workspace(rng):
    # Each thread keeps one workspace for every call, so a call must not
    # read what an earlier one left there: classical-quantum states, whose
    # pure conditional states put round-off eigenvalues around 0 in the entropy
    # terms, then full-rank states over all _STARTS_PER_CALL rows, then the
    # first again.
    classical_quantum = np.stack([_classical_quantum_state(rng) for _ in range(4)])
    full = np.stack([random_density(rng, 4).mat for _ in range(90)])
    calls = [(classical_quantum, Qubit.B), (full, Qubit.A), (classical_quantum, Qubit.B)]
    first = classical_correlation_stack(*calls[0])
    kept = [a.copy() for a in first]
    results = [first] + [classical_correlation_stack(*call) for call in calls[1:]]
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
    for got, call in zip(results, calls):
        for a, b in zip(got, _allocating_compass_oracle(*call, _best_trial_round)):
            assert np.array_equal(a, b)


def test_threads_keep_their_own_workspace(rng):
    # Two threads run concurrently, with a short switch interval, on stacks
    # of different sizes; a shared workspace would mix their rows.
    stacks = [
        (np.stack([random_density(rng, 4).mat for _ in range(3)]), Qubit.B),
        (np.stack([_classical_quantum_state(rng) for _ in range(30)]), Qubit.A),
    ]
    want = [classical_correlation_stack(*call) for call in stacks]
    start = threading.Barrier(len(stacks), timeout=60)

    def run(call):
        start.wait()
        return [classical_correlation_stack(*call) for _ in range(5)], _thread_work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(stacks)) as pool:
            futures = [pool.submit(run, call) for call in stacks]
            done = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    works = [_thread_work()] + [work for _, work in done]
    assert len({id(work) for work in works}) == len(works)
    for (runs, _), expected in zip(done, want):
        for got in runs:
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 6, _STARTS_PER_CALL // 3, _STARTS_PER_CALL // 3 + 1, 21, 22, 101])
def test_one_seed_product_per_state_and_few_view_shapes(monkeypatch, rng, n):
    # The seeds take one product per state against the whole (4, 1297)
    # table, on the state's own coefficient rows.  Each compass call takes
    # whole starts, at most _STARTS_PER_CALL rows of len(_MOVES) directions,
    # so the workspace caches at most _STARTS_PER_CALL + 1 shapes of views.
    calls = []
    gains = _GainEvaluator.gains

    def spy(coef, s_x, dirs, w):
        calls.append((coef, s_x, dirs))
        return gains(coef, s_x, dirs, w)

    monkeypatch.setattr(_GainEvaluator, "gains", staticmethod(spy))
    stack = np.stack([random_density(rng, 4).mat for _ in range(n)])
    classical_correlation_stack(stack, Qubit.A if n % 2 else Qubit.B)
    # Seed rows (4, k) are shared by all states; compass rows are (k, 4, d).
    seeds = [(coef.shape, s_x.shape, dirs.shape) for coef, s_x, dirs in calls if dirs.ndim == 2]
    assert seeds == [((1, 8, 4), (1,), _SEED_DIRS.shape)] * n
    compass = [(coef, s_x, dirs) for coef, s_x, dirs in calls if dirs.ndim == 3]
    assert len(seeds) + len(compass) == len(calls) and compass
    d = len(_MOVES)
    assert d == 8 * correlations._HALVINGS and _STARTS_PER_CALL == _PAIRS_PER_CALL // d
    for coef, s_x, dirs in compass:
        assert 1 <= len(coef) <= _STARTS_PER_CALL and coef.shape[1:] == (8, 4) and dirs.shape == (len(coef), 4, d)
        assert s_x.shape == (len(coef),)
    shapes = {(1, _SEED_DIRS.shape[1])} | {(k, d) for k in range(1, _STARTS_PER_CALL + 1)}
    assert set(_thread_work().views) <= shapes
