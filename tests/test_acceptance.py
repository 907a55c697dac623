"""Acceptance battery: every release gate runs here at full resolution.

Each criterion is a self-contained check from the verification module; the
test id names the gate and the assertion message carries its measured
margin, so `pytest -v` prints one pass/fail line per criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from discordsim import Family, StateFamily, build_state
from discordsim import verification
from discordsim.verification import ACCEPTANCE_CHECKS, criterion_8_channel_laws


@pytest.mark.parametrize(
    "criterion", ACCEPTANCE_CHECKS, ids=[fn.__name__ for fn in ACCEPTANCE_CHECKS]
)
def test_acceptance(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.name}  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


@pytest.mark.parametrize("min_eig, passes", [(1e-9, True), (-1e-9, False)])
def test_channel_laws_read_the_unvalidated_spectrum(monkeypatch, min_eig, passes):
    # From a Bell state the channel gives an X state whose inner block is
    # diag(rho_22, rho_33).  Adding eps sigma_z (x) sigma_z keeps the trace and
    # both reduced states and lowers that block by eps, so its smaller
    # eigenvalue becomes min_eig and only the positivity law can notice.
    bell = build_state(StateFamily(Family.PSI, 0.5, 1.0))
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    channel = verification.evolve_stack

    def shifted_channel(rho, chi_a, chi_b):
        out = channel(rho, chi_a, chi_b)
        return out + (min(out[0, 1, 1].real, out[0, 2, 2].real) - min_eig) * zz

    monkeypatch.setattr(verification, "_random_state", lambda rng, dim: bell)
    monkeypatch.setattr(verification, "evolve_stack", shifted_channel)
    result = criterion_8_channel_laws()
    assert result.passed is passes, result.detail
