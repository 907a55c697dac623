"""Density matrices, the single-qubit decay map, and the two-qubit channel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordsim import (
    DensityMatrix,
    KrausPair,
    Qubit,
    amplitude_damping_kraus,
    partial_trace,
    pure_state,
    single_qubit_evolve,
    tensor,
    two_qubit_evolve,
    von_neumann_entropy,
)
from discordsim.states import evolve_stack, validate_states

from conftest import random_density

# Single-qubit basis {|1>, |0>}: excited first.
EXCITED = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
GROUND = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3, dtype=complex) / 3.0)
    nan_coherence = np.eye(4, dtype=complex) / 4.0
    nan_coherence[0, 1] = nan_coherence[1, 0] = np.nan
    with pytest.raises(ValueError):
        DensityMatrix(nan_coherence)


def test_validate_states_checks_every_row(rng):
    good = np.stack([random_density(rng, 4).mat for _ in range(3)])
    assert not validate_states(good).flags.writeable
    for bad_row in (np.diag([1.5, 0.0, 0.0, -0.5]), 2.0 * good[0], good[0] + np.triu(np.ones((4, 4)), 1)):
        stack = good.copy()
        stack[1] = bad_row
        with pytest.raises(ValueError):
            validate_states(stack)
    with pytest.raises(ValueError):
        validate_states(good[0])  # a single matrix is not a stack


def test_density_matrix_entries_read_only():
    rho = GROUND
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 1.0


def test_single_qubit_evolve_identity(rng):
    rho = random_density(rng, 2)
    out = single_qubit_evolve(rho, 1.0)
    assert np.max(np.abs(out.mat - rho.mat)) < 1e-15


def test_single_qubit_evolve_full_decay(rng):
    rho = random_density(rng, 2)
    out = single_qubit_evolve(rho, 0.0)
    assert np.max(np.abs(out.mat - GROUND.mat)) < 1e-15


@pytest.mark.parametrize("chi", [-0.8, -0.3, 0.0, 0.5, 1.0])
def test_excited_population_scales_quadratically(chi):
    out = single_qubit_evolve(EXCITED, chi)
    assert out.mat[0, 0] == pytest.approx(chi**2, abs=1e-15)
    assert out.mat[1, 1] == pytest.approx(1.0 - chi**2, abs=1e-15)


def test_coherence_scales_linearly_with_sign():
    plus = pure_state([1.0, 1.0])  # (|1> + |0>)/sqrt(2)
    out = single_qubit_evolve(plus, -0.6)
    assert out.mat[0, 1] == pytest.approx(-0.3, abs=1e-15)


def test_chi_out_of_range_rejected(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError):
        single_qubit_evolve(rho, 1.5)
    with pytest.raises(ValueError):
        amplitude_damping_kraus(-1.01)
    with pytest.raises(ValueError):
        two_qubit_evolve(random_density(rng, 4), 0.5, 1.2)
    with pytest.raises(ValueError):
        single_qubit_evolve(rho, np.nan)


def test_kraus_identity_at_unit_chi():
    pair = amplitude_damping_kraus(1.0)
    assert np.allclose(pair.k0, np.eye(2))
    assert np.allclose(pair.k1, 0.0)


@pytest.mark.parametrize("chi", [-0.7, 0.0, 0.3])
def test_kraus_completeness(chi):
    pair = amplitude_damping_kraus(chi)
    total = pair.k0.conj().T @ pair.k0 + pair.k1.conj().T @ pair.k1
    assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_kraus_pair_validation():
    with pytest.raises(ValueError):
        KrausPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def test_kraus_equals_direct_map_on_random_inputs(rng):
    for _ in range(100):
        rho = random_density(rng, 2)
        chi = rng.uniform(-1.0, 1.0)
        pair = amplitude_damping_kraus(chi)
        via_kraus = sum(k @ rho.mat @ k.conj().T for k in (pair.k0, pair.k1))
        direct = single_qubit_evolve(rho, chi)
        assert np.max(np.abs(via_kraus - direct.mat)) < 1e-14


def _kraus_sum(rho: np.ndarray, chi_a: float, chi_b: float) -> np.ndarray:
    """Sum over i, j of (K_i x K_j) rho (K_i x K_j)^dag with the decay map's Kraus pairs."""
    pa, pb = amplitude_damping_kraus(chi_a), amplitude_damping_kraus(chi_b)
    ops = [np.kron(ki, kj) for ki in (pa.k0, pa.k1) for kj in (pb.k0, pb.k1)]
    return sum(op @ rho @ op.conj().T for op in ops)


def test_evolve_stack_rows_match_kraus_sum(rng):
    special = [-1.0, 0.0, 1.0]
    for _ in range(20):
        rho = random_density(rng, 4)
        chi_a = np.concatenate([special, special, rng.uniform(-1.0, 1.0, size=6)])
        chi_b = np.concatenate([special[::-1], rng.uniform(-1.0, 1.0, size=3), rng.uniform(-1.0, 1.0, size=6)])
        stack = evolve_stack(rho, chi_a, chi_b)
        assert stack.shape == (chi_a.size, 4, 4)
        for row, ca, cb in zip(stack, chi_a, chi_b):
            assert np.max(np.abs(row - _kraus_sum(rho.mat, ca, cb))) < 1e-14


def test_two_qubit_identity(rng):
    rho = random_density(rng, 4)
    out = two_qubit_evolve(rho, 1.0, 1.0)
    assert np.max(np.abs(out.mat - rho.mat)) < 1e-15


def test_two_qubit_full_decay_is_pure_ground(rng):
    rho = random_density(rng, 4)
    out = two_qubit_evolve(rho, 0.0, 0.0)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.max(np.abs(out.mat - expected)) < 1e-14
    assert von_neumann_entropy(out) < 1e-10


def test_two_qubit_factorizes_on_products(rng):
    for _ in range(20):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        chi_a, chi_b = rng.uniform(-1.0, 1.0, size=2)
        joint = two_qubit_evolve(tensor(rho_a, rho_b), chi_a, chi_b)
        split = tensor(
            single_qubit_evolve(rho_a, chi_a), single_qubit_evolve(rho_b, chi_b)
        )
        assert np.max(np.abs(joint.mat - split.mat)) < 1e-14


def test_tensor_basis_order():
    # |1><1| (x) |0><0| lands on |10><10|, index 1 in {|11>,|10>,|01>,|00>}.
    out = tensor(EXCITED, GROUND)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(out.mat, expected)


def test_tensor_of_maximally_mixed():
    half = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    out = tensor(half, half)
    assert np.allclose(out.mat, np.eye(4) / 4.0)


def test_partial_trace_round_trip(rng):
    for _ in range(20):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = tensor(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(joint, Qubit.A).mat - rho_a.mat)) < 1e-14
        assert np.max(np.abs(partial_trace(joint, Qubit.B).mat - rho_b.mat)) < 1e-14


def test_partial_trace_of_basis_state():
    joint = tensor(EXCITED, GROUND)
    assert np.allclose(partial_trace(joint, Qubit.A).mat, EXCITED.mat)
    assert np.allclose(partial_trace(joint, Qubit.B).mat, GROUND.mat)


@pytest.mark.parametrize("keep", ["A", "B", 1, None])
def test_partial_trace_keep_must_be_a_qubit(keep):
    # A label or an index is not a Qubit; it must not silently mean qubit B.
    rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    with pytest.raises(TypeError, match="keep must be a Qubit"):
        partial_trace(rho, keep)


def test_partial_trace_of_bell_state_is_mixed():
    bell = pure_state([0.0, 2**-0.5, 2**-0.5, 0.0])
    for keep in (Qubit.A, Qubit.B):
        assert np.allclose(partial_trace(bell, keep).mat, np.eye(2) / 2.0, atol=1e-15)


def test_channel_locality_both_orders(rng):
    for _ in range(25):
        rho = random_density(rng, 4)
        chi_a, chi_b = rng.uniform(-1.0, 1.0, size=2)
        evolved = two_qubit_evolve(rho, chi_a, chi_b)
        for keep, chi in ((Qubit.A, chi_a), (Qubit.B, chi_b)):
            reduced_then_evolved = single_qubit_evolve(partial_trace(rho, keep), chi)
            evolved_then_reduced = partial_trace(evolved, keep)
            assert (
                np.max(np.abs(reduced_then_evolved.mat - evolved_then_reduced.mat))
                < 1e-12
            )


def test_channel_preserves_state_invariants(rng):
    for _ in range(50):
        rho = random_density(rng, 4)
        chi_a, chi_b = rng.uniform(-1.0, 1.0, size=2)
        out = two_qubit_evolve(rho, chi_a, chi_b)
        m = out.mat
        assert abs(m.trace() - 1.0) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert out.eigenvalues()[0] >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    chi_a=st.floats(-1.0, 1.0, allow_nan=False),
    chi_b=st.floats(-1.0, 1.0, allow_nan=False),
)
def test_property_channel_output_is_valid_state(seed, chi_a, chi_b):
    rho = random_density(np.random.default_rng(seed), 4)
    out = two_qubit_evolve(rho, chi_a, chi_b)  # constructor re-validates
    assert abs(out.mat.trace().real - 1.0) < 1e-12
