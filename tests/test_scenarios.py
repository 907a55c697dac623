"""Initial-state construction and named sweep presets."""

from __future__ import annotations

import math

import numpy as np
import pytest

from discordsim import Family, StateFamily, build_state, figure_preset
from discordsim.sweep import PRESET_IDS


def test_family_validation():
    with pytest.raises(ValueError):
        StateFamily(Family.PSI, -0.1, 1.0)
    with pytest.raises(ValueError):
        StateFamily(Family.PSI, 1.1, 1.0)
    with pytest.raises(ValueError):
        StateFamily(Family.PHI, 0.5, -0.2)
    with pytest.raises(ValueError):
        StateFamily(Family.PHI, 0.5, 1.5)


def test_bell_corners():
    rho = build_state(StateFamily(Family.PSI, 0.5, 1.0)).mat
    # basis {|11>, |10>, |01>, |00>}: the |00>/|11> corners are indices 3, 0
    expected = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.max(np.abs(rho - expected)) < 1e-15


def test_phi_family_occupies_single_excitation_sector():
    rho = build_state(StateFamily(Family.PHI, 0.3, 1.0)).mat
    diag = np.real(np.diagonal(rho))
    assert diag[1] == pytest.approx(0.3, abs=1e-15)  # |10>
    assert diag[2] == pytest.approx(0.7, abs=1e-15)  # |01>
    assert diag[0] == diag[3] == 0.0


def test_psi_family_occupies_even_sector():
    rho = build_state(StateFamily(Family.PSI, 0.3, 1.0)).mat
    diag = np.real(np.diagonal(rho))
    assert diag[3] == pytest.approx(0.3, abs=1e-15)  # |00>
    assert diag[0] == pytest.approx(0.7, abs=1e-15)  # |11>
    assert diag[1] == diag[2] == 0.0


@pytest.mark.parametrize("family", [Family.PHI, Family.PSI])
@pytest.mark.parametrize("alpha_sq", [0.0, 0.3, 0.5, 1.0])
def test_fully_mixed_limit(family, alpha_sq):
    rho = build_state(StateFamily(family, alpha_sq, 0.0)).mat
    assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-15


def test_half_mixture_entrywise():
    alpha = math.sqrt(1.0 / 3.0)
    beta = math.sqrt(2.0 / 3.0)
    ket = np.array([0.0, alpha, beta, 0.0], dtype=complex)
    expected = 0.5 * np.outer(ket, ket.conj()) + 0.125 * np.eye(4)
    rho = build_state(StateFamily(Family.PHI, 1.0 / 3.0, 0.5)).mat
    assert np.max(np.abs(rho - expected)) < 1e-15


@pytest.mark.parametrize("family", [Family.PHI, Family.PSI])
def test_linearity_in_mixing_parameter(family):
    for alpha_sq in (0.2, 0.5, 0.9):
        pure = build_state(StateFamily(family, alpha_sq, 1.0)).mat
        mixed = build_state(StateFamily(family, alpha_sq, 0.0)).mat
        for r in (0.1, 0.36, 0.75):
            combo = r * pure + (1.0 - r) * mixed
            rho = build_state(StateFamily(family, alpha_sq, r)).mat
            assert np.max(np.abs(rho - combo)) < 1e-15


@pytest.mark.parametrize("family", [Family.PHI, Family.PSI])
def test_swap_symmetry_at_equal_weights(family):
    # Exchanging the qubits permutes basis indices 1 <-> 2.
    rho = build_state(StateFamily(family, 0.5, 0.7)).mat
    perm = [0, 2, 1, 3]
    swapped = rho[np.ix_(perm, perm)]
    assert np.max(np.abs(rho - swapped)) < 1e-15


def test_preset_fig2():
    config = figure_preset("fig2")
    assert config.families == (Family.PSI,)
    assert config.lambda_ratio == 0.1
    assert config.axis.name == "alpha_sq"
    assert (config.axis.min, config.axis.max) == (0.0, 1.0)
    assert config.t_max == 25.0
    assert config.r == 1.0


def test_preset_fig1_markovian_window():
    config = figure_preset("fig1")
    assert config.lambda_ratio == 10.0
    assert config.t_max == 20.0
    assert config.axis.name == "alpha_sq"


def test_preset_fig4_both_families():
    config = figure_preset("fig4")
    assert config.families == (Family.PHI, Family.PSI)
    assert config.axis.name == "r"
    assert (config.axis.min, config.axis.max) == (0.0, 1.0)
    assert config.alpha_sq == 0.5
    assert config.lambda_ratio == 0.1


def test_preset_fig5_memory_axis():
    config = figure_preset("fig5")
    assert config.axis.name == "lambda_ratio"
    assert (config.axis.min, config.axis.max) == (0.05, 1.0)
    assert config.r == 1.0
    assert config.alpha_sq == pytest.approx(1.0 / 3.0)


def test_preset_default_resolution():
    # Every preset samples 1001 times; the fig3 cuts have three axis points.
    assert PRESET_IDS == ("fig1", "fig2", "fig3a", "fig3b", "fig4", "fig5")
    for fid in PRESET_IDS:
        config = figure_preset(fid)
        assert config.axis.count == (3 if fid in ("fig3a", "fig3b") else 101)
        assert config.steps == 1001


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        figure_preset("fig6")
