"""Initial-state families.

The simulator's initial conditions are Werner-like mixtures of one of two
Bell-like pure states with the maximally mixed state; purity r interpolates
between I/4 (r = 0) and the pure projector (r = 1).
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix

__all__ = ["Family", "StateFamily", "build_state"]


class Family(enum.Enum):
    """Which Bell-like pure state anchors the mixture.

    PHI pairs the single-excitation levels (|10> with |01>); PSI pairs the
    doubly excited level with the ground level (|00> with |11>).
    """

    PHI = "phi"
    PSI = "psi"


@dataclass(frozen=True)
class StateFamily:
    """Parameters of one Werner-like initial state.

    alpha_sq is the squared weight of the family's leading basis ket
    (|10> for PHI, |00> for PSI); r is the purity of the mixture.
    """

    family: Family
    alpha_sq: float
    r: float = 1.0

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise TypeError(f"family must be a Family, got {self.family!r}")
        if not 0.0 <= self.alpha_sq <= 1.0:
            raise ValueError(f"alpha_sq must lie in [0, 1], got {self.alpha_sq}")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")


def _pure_vector(family: Family, alpha_sq: float) -> np.ndarray:
    """Bell-like ket in the fixed basis {|11>, |10>, |01>, |00>}."""
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1.0 - alpha_sq)
    v = np.zeros(4)
    if family is Family.PHI:
        v[1] = alpha
        v[2] = beta
    else:
        v[3] = alpha
        v[0] = beta
    return v


def build_state(scenario: StateFamily) -> DensityMatrix:
    """Werner-like mixture r |xi><xi| + (1 - r)/4 I as a validated state."""
    v = _pure_vector(scenario.family, scenario.alpha_sq)
    m = scenario.r * np.outer(v, v) + (1.0 - scenario.r) / 4.0 * np.eye(4)
    return DensityMatrix(m.astype(complex))
