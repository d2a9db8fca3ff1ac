"""Exact-rational replay of the L^p bootstrap arguments.

Each chain tracks the Lebesgue integrability of the reacting species
(`a_i`, the diffusing reactants) and of the product species (`a_m`)
through a fixed sequence of exponent-improving rules, verifying every
step with Fraction arithmetic.  No floating point is used anywhere in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = [
    "Exponent",
    "ChainStep",
    "ExponentChain",
    "kernel_time_integrable",
    "gn_identity_check",
    "ode_power_map",
    "linf_threshold",
    "replay_chain",
    "CHAIN_SCENARIOS",
]


@dataclass(frozen=True, order=False)
class Exponent:
    """A Lebesgue exponent: an exact rational >= 1 or +infinity."""

    value: Fraction | None  # None encodes +infinity

    @classmethod
    def of(cls, num, den=1) -> "Exponent":
        return cls(Fraction(num, den))

    @classmethod
    def infinity(cls) -> "Exponent":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def reciprocal(self) -> Fraction:
        return Fraction(0) if self.is_infinite else 1 / self.value

    def __post_init__(self):
        if self.value is not None and self.value < 1:
            raise ValueError(f"Lebesgue exponent must be >= 1, got {self.value}")

    def __lt__(self, other: "Exponent") -> bool:
        # p < q in the Lebesgue order, with +inf the top element
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.value < other.value

    def __le__(self, other: "Exponent") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(self.value)


def kernel_time_integrable(N: int, q: Exponent, p: Exponent) -> tuple[bool, Fraction]:
    """The Gaussian-kernel smoothing step L^q -> L^p costs a time factor
    t^(-e) with e = (N/2)(1/q - 1/p); admissible iff e < 1 exactly."""
    if p < q:
        raise ValueError("kernel smoothing cannot lose integrability (need q <= p)")
    e = Fraction(N, 2) * (q.reciprocal - p.reciprocal)
    return e < 1, e


def gn_identity_check(N: int, p: Exponent, q: Exponent, theta: Fraction) -> bool:
    """Interpolation identity 1/p = theta (1/2 - 1/N) + (1 - theta)/q."""
    theta = Fraction(theta)
    if not (0 <= theta <= 1):
        raise ValueError("theta must lie in [0, 1]")
    lhs = p.reciprocal
    rhs = theta * (Fraction(1, 2) - Fraction(1, N)) + (1 - theta) * q.reciprocal
    return lhs == rhs


def ode_power_map(p_reactant: Exponent, G: Fraction) -> Exponent:
    """Integrability the product species inherits from the reactant ODE
    bound d_t a_m <= prod a_j^{alpha_j} with every reactant in
    L^{p_reactant}: a_m lands in L^{p_reactant / G}."""
    G = Fraction(G)
    if p_reactant.is_infinite:
        return Exponent.infinity()
    if p_reactant.value < G:
        raise ValueError(f"power map needs p >= G, got p={p_reactant} < G={G}")
    return Exponent(p_reactant.value / G)


def linf_threshold(N: int, kind: str) -> Exponent:
    """Exponent beyond which the smoothing estimates reach L^infinity:
    (N+2)/2 for space-time sources, N/2 for spatial slices."""
    if kind == "spacetime":
        return Exponent(Fraction(N + 2, 2))
    if kind == "space":
        if N <= 2:
            return Exponent(Fraction(1))
        return Exponent(Fraction(N, 2))
    raise ValueError("kind must be 'space' or 'spacetime'")


@dataclass
class ChainStep:
    rule: str
    species: str  # "a_i" or "a_m"
    inputs: dict
    output: Exponent | None
    passed: bool
    witness: str

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "species": self.species,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "output": None if self.output is None else str(self.output),
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass
class ExponentChain:
    scenario: str
    dimension: int
    growth: Fraction
    steps: list[ChainStep] = field(default_factory=list)
    conclusion: str = "incomplete"  # "reached-Linf" or "stuck-at <p>"
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.conclusion == "reached-Linf" and all(s.passed for s in self.steps)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "dimension": self.dimension,
            "growth": str(self.growth),
            "steps": [s.as_dict() for s in self.steps],
            "conclusion": self.conclusion,
            "notes": self.notes,
        }


class _ChainBuilder:
    def __init__(self, scenario: str, N: int, G: Fraction):
        self.chain = ExponentChain(scenario, N, Fraction(G))
        self.N = N
        self.G = Fraction(G)

    def kernel_smoothing(self, q: Exponent, p: Exponent) -> Exponent:
        """Convolution with the heat kernel: Young pairing plus exact
        time-integrability of the kernel norm."""
        ok, e = kernel_time_integrable(self.N, q, p)
        # the kernel itself must live in some L^r with 1 + 1/p = 1/r + 1/q
        recip_r = 1 + p.reciprocal - q.reciprocal
        witness = f"e = (N/2)(1/q - 1/p) = {e} {'<' if ok else '>='} 1; 1/r = {recip_r}"
        self.chain.steps.append(
            ChainStep(
                "kernel-smoothing",
                "a_i",
                {"q": q, "p": p, "N": self.N},
                p,
                ok and recip_r >= 0,
                witness,
            )
        )
        return p

    def gn_interpolation(self, q: Exponent, p: Exponent, theta: Fraction) -> Exponent:
        ok = gn_identity_check(self.N, p, q, theta)
        witness = (
            f"1/p = {p.reciprocal} vs theta(1/2 - 1/N) + (1-theta)/q = "
            f"{Fraction(theta) * (Fraction(1, 2) - Fraction(1, self.N)) + (1 - Fraction(theta)) * q.reciprocal}"
        )
        self.chain.steps.append(
            ChainStep(
                "gn-interpolation",
                "a_i",
                {"q": q, "p": p, "theta": Fraction(theta), "N": self.N},
                p,
                ok,
                witness,
            )
        )
        return p

    def power_map(self, p: Exponent, G: Fraction | None = None) -> Exponent:
        G = self.G if G is None else Fraction(G)
        out = ode_power_map(p, G)
        self.chain.steps.append(
            ChainStep(
                "ode-power-map",
                "a_m",
                {"p_reactant": p, "G": G},
                out,
                True,
                f"a_m gains L^{out} = L^({p}/{G})",
            )
        )
        return out

    def threshold(self, p: Exponent, kind: str) -> bool:
        thr = linf_threshold(self.N, kind)
        ok = thr < p
        self.chain.steps.append(
            ChainStep(
                f"linf-threshold-{kind}",
                "a_m",
                {"p": p, "threshold": thr, "N": self.N},
                None,
                ok,
                f"{p} {'>' if ok else '<='} {thr}",
            )
        )
        return ok

    def conclude(self, reached: bool, stuck_at: Exponent):
        self.chain.conclusion = (
            "reached-Linf" if reached else f"stuck-at {stuck_at}"
        )
        return self.chain


def _chain_a3_lowdim() -> ExponentChain:
    # quadratic-type df15 system (G = 2, Q = 3): mass bound gives
    # a_m in L^1 slices; kernel smoothing with p = 4Q works in N <= 2,
    # the ODE map (conservative exponent Q) returns L^4 > (N+2)/2.
    G = Fraction(2)
    Qv = Fraction(3)  # Q = 1 + G
    b = _ChainBuilder("A3-lowdim", 2, G)
    p = Exponent(4 * Qv)
    b.kernel_smoothing(Exponent.of(1), p)
    pm = b.power_map(p, G=Qv)
    ok = b.threshold(pm, "spacetime")
    # the same source exponent also clears the N = 1 threshold 3/2
    n1 = linf_threshold(1, "spacetime")
    b.chain.steps.append(
        ChainStep(
            "linf-threshold-spacetime",
            "a_m",
            {"p": pm, "threshold": n1, "N": 1},
            None,
            n1 < pm,
            f"{pm} > {n1} (dimension 1)",
        )
    )
    return b.conclude(ok and n1 < pm, pm)


def _chain_quad_n3() -> ExponentChain:
    b = _ChainBuilder("quad-N3", 3, Fraction(2))
    # Sobolev + gradient bound give a_m in L^{N/(N-2)} = L^3 slices
    p = b.kernel_smoothing(Exponent.of(3), Exponent.infinity())
    return b.conclude(p.is_infinite and all(s.passed for s in b.chain.steps), p)


def _chain_quad_n4() -> ExponentChain:
    b = _ChainBuilder("quad-N4", 4, Fraction(2))
    p = b.kernel_smoothing(Exponent.of(2), Exponent.of(6))
    pm = b.power_map(p)  # L^3
    ok = b.threshold(pm, "space")
    if ok:
        b.kernel_smoothing(pm, Exponent.infinity())
    return b.conclude(ok, pm)


def _chain_quad_n5() -> ExponentChain:
    b = _ChainBuilder("quad-N5", 5, Fraction(2))
    p = b.kernel_smoothing(Exponent.of(5, 3), Exponent.of(50, 11))
    pm = b.power_map(p)  # 25/11
    p = b.kernel_smoothing(pm, Exponent.of(50, 3))
    pm = b.power_map(p)  # 25/3
    ok = b.threshold(pm, "space")
    if ok:
        b.kernel_smoothing(pm, Exponent.infinity())
    return b.conclude(ok, pm)


def _chain_g103_n3() -> ExponentChain:
    G = Fraction(10, 3)
    b = _ChainBuilder("G103-N3", 3, G)
    p1 = Exponent.of(234, 81)  # = 26/9, the exponent used downstream
    b.kernel_smoothing(Exponent.of(1), p1)
    # the stated gap delta = 9/243 gives 3 - 9/243 = 80/27 != 234/81;
    # both exponents are admissible, the mismatch is flagged, not fixed
    alt = Exponent.of(80, 27)
    ok_alt, e_alt = kernel_time_integrable(3, Exponent.of(1), alt)
    b.chain.notes.append(
        f"stated gap 9/243 gives 80/27, not 234/81; alternate exponent "
        f"admissible too (e = {e_alt} < 1: {ok_alt})"
    )
    p2 = b.gn_interpolation(p1, Exponent.of(39, 10), Fraction(1, 2))
    pm = b.power_map(p2)  # 117/100
    p3 = b.kernel_smoothing(pm, Exponent.of(116, 22))  # = 58/11
    pm = b.power_map(p3)  # 87/55
    ok = b.threshold(pm, "space")
    if ok:
        b.kernel_smoothing(pm, Exponent.infinity())
    return b.conclude(ok and ok_alt, pm)


CHAIN_SCENARIOS = {
    "A3-lowdim": _chain_a3_lowdim,
    "quad-N3": _chain_quad_n3,
    "quad-N4": _chain_quad_n4,
    "quad-N5": _chain_quad_n5,
    "G103-N3": _chain_g103_n3,
}


def replay_chain(scenario: str) -> ExponentChain:
    """Replay one named bootstrap argument with every step verified in
    exact rational arithmetic."""
    try:
        builder = CHAIN_SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(CHAIN_SCENARIOS)}"
        ) from None
    return builder()
