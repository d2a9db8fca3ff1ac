"""Triangular reversible-reaction systems and their degeneracy structure.

A system couples m species through the single reversible reaction

    alpha_1 X_1 + ... + alpha_{m-1} X_{m-1}  <->  X_m

with per-species diffusion coefficients d_i >= 0.  Species indices are
1-based throughout this module (species i lives at array position i-1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TriangularSystem",
    "DegeneracyClass",
    "DegeneracyClassification",
    "classify",
]


class DegeneracyClass(enum.Enum):
    A1 = "A1"  # d_m > 0, some other d_i = 0
    A2 = "A2"  # d_m = 0 and some other d_i = 0
    A3 = "A3"  # d_m = 0, all other d_i > 0
    NON_DEGENERATE = "NonDegenerate"


@dataclass(frozen=True)
class TriangularSystem:
    """Immutable description of one m-species triangular system.

    alpha has length m with alpha[m-1] == 1 (the product species carries
    unit stoichiometry by convention); d has length m with d[i] >= 0.
    Q = 1 + sum(alpha[:m-1]) is the regularization exponent base.
    """

    m: int
    alpha: tuple[float, ...]
    d: tuple[float, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least two species, got m={self.m}")
        if len(self.alpha) != self.m or len(self.d) != self.m:
            raise ValueError("alpha and d must have length m")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        if not all(0 <= a < np.inf for a in self.alpha):
            raise ValueError(f"alpha: stoichiometric exponents must be finite and nonnegative, got {self.alpha}")
        if self.alpha[-1] != 1.0:
            raise ValueError("alpha[m] must be exactly 1")
        if not all(0 <= x < np.inf for x in self.d):
            raise ValueError(f"d: diffusion coefficients must be finite and nonnegative, got {self.d}")

    @property
    def Q(self) -> float:
        return 1.0 + float(sum(self.alpha[: self.m - 1]))

    @property
    def reactant_alpha(self) -> np.ndarray:
        """Exponents of the m-1 reactant species as an array."""
        return np.asarray(self.alpha[: self.m - 1])


@dataclass(frozen=True)
class DegeneracyClassification:
    """Partition of species into non-diffusing (lambda1) and diffusing
    (lambda2) index sets, 1-based, plus the degeneracy class."""

    lambda1: frozenset[int]
    lambda2: frozenset[int]
    degeneracy: DegeneracyClass


def classify(system: TriangularSystem) -> DegeneracyClassification:
    """Classify by exact zero-comparison of the diffusion coefficients."""
    m = system.m
    lambda1 = frozenset(i for i in range(1, m + 1) if system.d[i - 1] == 0.0)
    lambda2 = frozenset(range(1, m + 1)) - lambda1
    if not lambda1:
        cls = DegeneracyClass.NON_DEGENERATE
    elif system.d[m - 1] > 0.0:
        cls = DegeneracyClass.A1
    elif lambda1 - {m}:
        cls = DegeneracyClass.A2
    else:
        cls = DegeneracyClass.A3
    return DegeneracyClassification(lambda1, lambda2, cls)

