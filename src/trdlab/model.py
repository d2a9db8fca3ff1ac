"""Triangular reversible-reaction systems and their degeneracy structure.

A system couples m species through the single reversible reaction

    alpha_1 X_1 + ... + alpha_{m-1} X_{m-1}  <->  X_m

with per-species diffusion coefficients d_i >= 0.  Species indices are
1-based throughout this module (species i lives at array position i-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TriangularSystem",
    "DegeneracyClass",
    "DegeneracyClassification",
    "classify",
    "sc_check",
    "triangular_domination_check",
    "quasi_positivity_check",
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
        if any(a < 0 for a in self.alpha):
            raise ValueError("stoichiometric exponents must be nonnegative")
        if self.alpha[-1] != 1.0:
            raise ValueError("alpha[m] must be exactly 1")
        if any(x < 0 for x in self.d):
            raise ValueError("diffusion coefficients must be nonnegative")

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
    m: int = field(repr=False, default=0)


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
    return DegeneracyClassification(lambda1, lambda2, cls, m=m)


def sc_check(
    system: TriangularSystem, classification: DegeneracyClassification
) -> tuple[bool, str]:
    """Stoichiometric condition on the non-diffusing species.

    Requires alpha_i >= 1 for every i in lambda1 and at least one j in
    lambda1 with alpha_j in {1} union [2, inf).  Holds automatically for
    class A3 (lambda1 = {m}, alpha_m = 1).
    """
    lam1 = sorted(classification.lambda1)
    bad = [i for i in lam1 if system.alpha[i - 1] < 1.0]
    if bad:
        return False, f"alpha below 1 on lambda1 indices {bad}"
    good = [
        j
        for j in lam1
        if system.alpha[j - 1] == 1.0 or system.alpha[j - 1] >= 2.0
    ]
    if not good:
        return False, "no lambda1 index with alpha in {1} union [2, inf)"
    return True, f"admissible lambda1 indices {good}"


def triangular_domination_check(
    system: TriangularSystem, sample_states
) -> tuple[bool, np.ndarray | None]:
    """Check P f(a) <= (1 + sum a) (1, 2, ..., 2, 0)^T componentwise.

    P is the bidiagonal matrix with ones on the diagonal and first
    subdiagonal.  Returns (False, violating_sample) on failure.
    """
    from .kinetics import raw_rate

    m = system.m
    bound_dir = np.full(m, 2.0)
    bound_dir[0] = 1.0
    bound_dir[-1] = 0.0
    for sample in sample_states:
        a = np.asarray(sample, dtype=float)
        if a.shape != (m,) or np.any(a < 0):
            raise ValueError("samples must be nonnegative m-vectors")
        f = raw_rate(system, a)
        pf = f.copy()
        pf[1:] += f[:-1]
        rhs = (1.0 + a.sum()) * bound_dir
        if np.any(pf > rhs + 1e-12 * (1.0 + np.abs(rhs))):
            return False, a
    return True, None


def quasi_positivity_check(
    system: TriangularSystem,
    boundary_samples,
    n_values=(1.0, 10.0, math.inf),
) -> bool:
    """Rates must be nonnegative for the vanished species, both for the
    raw law and for the regularized law at every n (the regularization
    divides by phi^n >= 1, which cannot change the sign)."""
    from .kinetics import RegularizedRates, raw_rate

    for sample in boundary_samples:
        a = np.asarray(sample, dtype=float)
        zero_idx = np.flatnonzero(a == 0.0)
        if zero_idx.size != 1 or np.any(a < 0):
            raise ValueError(
                "boundary samples need exactly one zero coordinate and no "
                "negative entries"
            )
        i = zero_idx[0]
        if raw_rate(system, a)[i] < 0.0:
            return False
        # phi^n >= 1 > 0: sign of the regularized rate matches the raw one,
        # still evaluate to guard the implementation
        for n in n_values:
            if RegularizedRates(system, n).rate(a)[i] < 0.0:
                return False
    return True
