"""Pointwise integrating-factor representation and Picard iteration for a
non-diffusing species, with the factorial convergence envelope.

A degenerate species a_j at a fixed spatial point obeys

    d/dt a_j = delta1(t) [ a_m(t) - delta2(a_j) a_j delta3(t) ]

where delta1 = 1/phi^n, delta3 collects the diffusing reactants and
delta2(r) = r^(alpha_j - 1) prod_i (offset_i + r)^(alpha_i) collects the
other degenerate reactants (their values are pinned to a_j by the
constant pointwise differences offset_i = a_{i,0} - a_{j,0}).  The map takes
one node arithmetic: lift, mul, power(x, e), exp_pair(W) = (e^W, s -> e^-W s).

Beyond p ~ 20 the factorial envelope drops below float64 roundoff, so it is
certified on iterates kept in binary fixed point on Python ints: x stands for
x 2^-P, P = ceil(dps log2 10 / e) + _GUARD_BITS, e the least power in delta2
below 1 (else 1), as r^e turns an error d in r into about d^e.  Sums are
exact; a product (x y) >> P, an integer power and e^-W s as (s << P) // e^W
round down, by less than one unit 2^-P; mpmath's non-integer powers are good
to a few units of their value's last place.  e^W is the previous iterate's
times _times_exp of the increment W - W_prev, good to k = 16 units relative
at P = 286 and 20 at P = 552 (measured against mpmath's exp at P + 64 bits),
so where W >= 0 it is within p k units relative after p iterates (39 units
at p = 40 on the canonical 301-node call).  Errors are exact, rounded once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import InvariantBreach

__all__ = [
    "PointwiseInputs",
    "PicardBoundConstants",
    "integrating_factor_eval",
    "picard_iterate",
    "FixedIterate",
    "picard_iterate_mp",
    "convergence_envelope_check",
    "ode_oracle",
    "constants_for",
    "canonical_scenario",
]

_GUARD_BITS = 20  # fixed-point bits below the dps digits, for the roundings that add up along the iterates
_FLOATS = SimpleNamespace(
    lift=lambda v: v, mul=operator.mul, power=operator.pow, exp_pair=lambda W: (np.exp(W), lambda s: np.exp(-W) * s)
)


@dataclass(frozen=True)
class PointwiseInputs:
    times: np.ndarray  # uniform mesh starting at 0
    a_j0: float
    alpha_j: float
    offsets: tuple[float, ...]  # pointwise differences to the other degenerate reactants
    offset_alphas: tuple[float, ...]
    driver_am: np.ndarray
    delta1: np.ndarray  # 1/phi^n along the trajectory; ones for the limit system
    delta3: np.ndarray  # product of the diffusing reactant powers

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        for name in ("driver_am", "delta1", "delta3"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != times.shape:
                raise ValueError(f"{name} must share the time mesh")
            object.__setattr__(self, name, arr)
        names = ("times", "a_j0", "alpha_j", "offsets", "offset_alphas", "driver_am", "delta1", "delta3")
        if bad := [name for name in names if not np.isfinite(getattr(self, name)).all()]:
            raise ValueError(f"{', '.join(bad)} must be finite")
        # the model's drivers are >= 0 (1/phi^n, a product of reactant powers): with W < 0 the
        # fixed-point map, whose iterates are quotients by e^W, would lose e^|W| units
        if bad := [name for name in ("delta1", "delta3") if (getattr(self, name) < 0.0).any()]:
            raise ValueError(f"{', '.join(bad)} must be >= 0")
        if len(times) < 2 or times[0] != 0.0:
            raise ValueError("time mesh must start at 0 with at least two nodes")
        dts = np.diff(times)
        if not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
            raise ValueError("time mesh must be uniform")
        if len(self.offsets) != len(self.offset_alphas):
            raise ValueError("offsets and offset_alphas must pair up")
        if self.a_j0 < 0 or any(self.a_j0 + off < 0 for off in self.offsets):
            raise ValueError("initial values of all degenerate reactants must be >= 0")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def delta2(self, r, ar=_FLOATS):
        """delta2 at r in the arithmetic `ar`: floats, mp.mpf arrays or fixed point."""
        r = np.asarray(r)
        pos = r > 0
        base = np.where(pos, r, ar.lift(1.0))
        out = base if self.alpha_j == 2.0 else ar.power(base, self.alpha_j - 1.0)  # unit powers are exact: skipped
        out = np.where(pos | (self.alpha_j == 1.0), out, ar.lift(0.0))
        for off, a in zip(self.offsets, self.offset_alphas):
            out = ar.mul(out, ar.lift(off) + r if a == 1.0 else ar.power(ar.lift(off) + r, a))
        return out


@dataclass(frozen=True)
class PicardBoundConstants:
    C4: float  # sup bound on the iterates: a_{j,0} + T * C_tilde
    C5: float  # aggregate Lipschitz constant
    T: float

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.C4, self.C5, self.T)):
            raise ValueError("C4, C5 and T must be positive and finite")

    def envelope(self, p: int, safety: float = 1.0) -> float:
        return safety * 2.0 * self.T * self.C4 * (self.C5 * self.T) ** p / math.factorial(p)


def _cumtrapz(f: np.ndarray, half_dt, ar) -> np.ndarray:
    out = np.empty_like(f)
    out[0] = 0
    np.cumsum(ar.mul(f[1:] + f[:-1], half_dt), out=out[1:])
    return out


def _map(inputs: PointwiseInputs, a, drivers, ar):
    """The integrating-factor map, with drivers = `_drivers(inputs, ar)`, in the
    node arithmetic `ar` (see the module docstring): `_FLOATS`, object arrays of
    mp.mpf under mp.workdps, or picard_iterate_mp's fixed point."""
    am_d1, d1_d3, a0, half_dt = drivers
    W = _cumtrapz(ar.mul(inputs.delta2(a, ar), d1_d3), half_dt, ar)
    grow, decay = ar.exp_pair(W)
    # array first: mpf + ndarray would make mpmath try to convert the array
    return decay(_cumtrapz(ar.mul(am_d1, grow), half_dt, ar) + a0)


def _drivers(inputs: PointwiseInputs, ar) -> tuple:
    am, d1, d3, a0, half_dt = map(ar.lift, (inputs.driver_am, inputs.delta1, inputs.delta3, inputs.a_j0, inputs.dt / 2))
    return ar.mul(am, d1), ar.mul(d1, d3), a0, half_dt


def integrating_factor_eval(inputs: PointwiseInputs, a_j_trajectory) -> np.ndarray:
    """One application of the integrating-factor map to a candidate
    trajectory, trapezoidal quadrature for both nested integrals."""
    a = np.asarray(a_j_trajectory, dtype=float)
    if a.shape != inputs.times.shape:
        raise ValueError("trajectory must share the time mesh")
    return _map(inputs, a, _drivers(inputs, _FLOATS), _FLOATS)


def picard_iterate(inputs: PointwiseInputs, p_max: int, bound: float | None = None):
    """Iterates a_{j,0}, a_{j,1}, ..., a_{j,p_max}; the zeroth iterate is
    the constant initial value.  Raises on a C4-bound breach (driver data
    outside the regime the envelope theory covers)."""
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    iterates = [np.full_like(inputs.times, inputs.a_j0)]
    for _ in range(p_max):
        nxt = integrating_factor_eval(inputs, iterates[-1])
        if bound is not None and not nxt.max() <= bound * (1.0 + 1e-9):
            raise InvariantBreach(
                "picard-bound",
                f"iterate exceeded C4 = {bound:g} (max {nxt.max():g})",
            )
        iterates.append(nxt)
    return iterates


def _times_exp(scale, x: np.ndarray, P: int) -> np.ndarray:
    """scale e^(x 2^-P) in P-bit fixed point, rounded down, over an object
    array x of ints, all nodes at once.  A node's series runs on its |x|
    halved r times below 2^-R, R = isqrt(P), at P + r bits, until its term
    is 0 (the first term, (2^(P+r) |x| >> P+r) // 1, is |x| itself), and
    is squared back r times.  Where x < 0 scale is divided by it: the error
    stays relative, and floor division never meets a negative term (which
    would stay at -1 for ever)."""
    y = np.abs(x)
    r = np.maximum(np.array([v.bit_length() for v in y.tolist()]) - (P - math.isqrt(P)), 0)
    wp = P + r.astype(object)  # y 2^-P halved r times is y at wp bits
    s, term, k = (1 << wp) + y, y, 2
    while np.count_nonzero(term):  # a node whose term is 0 adds 0 from then on
        term = (term * y >> wp) // k
        s, k = s + term, k + 1
    for i in range(r.max()):
        sq = r > i
        s[sq] = s[sq] * s[sq] >> wp[sq]
    scale, neg, out = np.broadcast_to(scale, s.shape), x < 0, np.empty_like(s)
    out[neg] = (scale[neg] << wp[neg]) // s[neg]
    out[~neg] = (scale[~neg] * s[~neg]) >> wp[~neg]
    return out


@dataclass(frozen=True)
class FixedIterate:
    mantissas: tuple[int, ...]  # node i is mantissas[i] 2^-P exactly: picard_iterate_mp's fixed point
    P: int
    def __len__(self) -> int:
        return len(self.mantissas)


def picard_iterate_mp(inputs: PointwiseInputs, p_max: int, dps: int = 40):
    """picard_iterate's map to `dps` digits in the module docstring's fixed
    point (same mesh and trapezoidal rule), one FixedIterate per iterate, for
    the envelope certification.  One _times_exp per iterate, of every node's
    increment of W."""
    from mpmath import libmp  # here and in _exact, the certificate's only uses: no other command loads mpmath
    if bad := [name for name, v in (("p_max", p_max), ("dps", dps)) if type(v) is not int or v < 1]:
        raise ValueError(f"{' and '.join(bad)} must be positive ints; got p_max={p_max!r}, dps={dps!r}")
    root = min([1.0] + [e for e in (inputs.alpha_j - 1.0, *inputs.offset_alphas) if e > 0])  # see the module docstring
    P = math.ceil(dps * math.log2(10) / root) + _GUARD_BITS
    lift = np.frompyfunc(lambda v: libmp.to_fixed(libmp.from_float(float(v)), P), 1, 1)
    def power(x, e):  # integer powers in integers, rounded once; the others through mpmath at P bits
        if e == int(e) >= 0:
            return (x ** int(e) << P) >> (int(e) * P)
        e = libmp.from_float(e)
        return np.frompyfunc(lambda v: libmp.to_fixed(libmp.mpf_pow(libmp.from_man_exp(v, -P), e, P), P), 1, 1)(x)
    W_prev, E_prev = 0, 1 << P  # the zeroth iterate's W and e^W: one instance serves one sequence of iterates
    def exp_pair(W):  # e^W as the previous iterate's times e^(W - W_prev); e^-W s as s / e^W
        nonlocal W_prev, E_prev
        W_prev, E_prev = W, _times_exp(E_prev, W - W_prev, P)
        return E_prev, lambda s, E=E_prev: (s << P) // E
    ar = SimpleNamespace(lift=lift, mul=lambda x, y: (x * y) >> P, power=power, exp_pair=exp_pair)
    iterates, drivers = [np.full(len(inputs.times), lift(inputs.a_j0), dtype=object)], _drivers(inputs, ar)
    for _ in range(p_max):
        iterates.append(_map(inputs, iterates[-1], drivers, ar))
    return [FixedIterate(tuple(a), P) for a in iterates]


def constants_for(inputs: PointwiseInputs, c_tilde: float) -> PicardBoundConstants:
    """Bound constants with c_tilde, a bound on the drivers, standing in
    for the theory's non-constructive uniform bound; the Lipschitz
    supremum of the reactant polynomial is taken by dense sampling."""
    samples = 10001
    T = inputs.horizon
    c4 = inputs.a_j0 + T * c_tilde
    r = np.linspace(c4 / samples, c4, samples)
    base = inputs.delta2(r)
    logder = (inputs.alpha_j - 1.0) / r
    for off, a in zip(inputs.offsets, inputs.offset_alphas):
        logder = logder + a / (off + r)
    sup_zeta_prime = float(np.abs(base * logder).max())
    # the driver powers enter through delta3, which c_tilde bounds
    c5 = (1.0 + T) * c4 * c_tilde * sup_zeta_prime
    return PicardBoundConstants(C4=c4, C5=max(c5, 1e-300), T=T)


def _exact(traj) -> tuple[np.ndarray, int] | None:
    """traj as (ints, e), node i exactly ints[i] 2^e; None if an entry is not finite."""
    import mpmath as mp
    from mpmath import libmp
    if isinstance(traj, FixedIterate):
        return np.array(traj.mantissas, dtype=object), -traj.P
    raws = [x._mpf_ if type(x) is mp.mpf else libmp.from_float(float(x)) for x in traj]
    if any(raw in (libmp.finf, libmp.fninf, libmp.fnan) for raw in raws):
        return None
    e = min(exp for _, _, exp, _ in raws)
    return np.array([(-man if sign else man) << (exp - e) for sign, man, exp, _ in raws], dtype=object), e


def convergence_envelope_check(
    iterates,
    constants: PicardBoundConstants,
    reference,
    safety: float = 1.1,
) -> dict:
    """Verify sup_t |a_{j,p} - reference| <= safety * 2 T C4 (C5 T)^p / p! for
    FixedIterate, mp.mpf or float trajectories: an error is the exact sup in
    integers, rounded once to a float (NaN if an entry is not finite)."""
    results = []
    worst_p, worst_margin = None, math.inf
    if not iterates or any(len(traj) != len(reference) for traj in iterates):
        raise ValueError("need at least one iterate, each on the reference's mesh")
    ref = _exact(reference)
    for p, traj in enumerate(iterates):
        err, lifted = math.nan, _exact(traj)
        if lifted is not None and ref is not None:
            (xs, ex), (ys, ey), e = lifted, ref, min(lifted[1], ref[1], 0)
            try:  # int / int rounds once, to nearest
                err = np.abs((xs << (ex - e)) - (ys << (ey - e))).max() / (1 << -e)
            except OverflowError:  # beyond the largest float
                err = math.inf
        env = constants.envelope(p, safety)
        ok = err <= env
        margin = math.inf if err == 0.0 else env / err
        results.append({"p": p, "error": err, "envelope": env, "ok": ok})
        if not math.isnan(worst_margin) and not margin >= worst_margin:  # a NaN error is the worst
            worst_margin, worst_p = margin, p
    return {
        "passed": all(r["ok"] for r in results),
        "per_p": results,
        "worst_p": worst_p,
        "worst_margin": worst_margin,
    }


def ode_oracle(inputs: PointwiseInputs, am_fn, delta1_fn, delta3_fn) -> np.ndarray:
    """Independent adaptive Runge-Kutta integration of the same scalar
    ODE, with the drivers as functions of time."""
    from scipy.integrate import solve_ivp  # here, its only use: it pulls in scipy.sparse, .optimize and .linalg

    t = inputs.times

    def rhs(s, y):
        r = max(y[0], 0.0)
        return [delta1_fn(s) * (am_fn(s) - inputs.delta2(r) * r * delta3_fn(s))]

    sol = solve_ivp(
        rhs,
        (t[0], t[-1]),
        [inputs.a_j0],
        t_eval=t,
        rtol=1e-10,
        atol=1e-12,
        method="RK45",
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[0]


def canonical_scenario(n_points: int = 4001):
    """The pointwise scenario the demo and the acceptance suite use:
    alpha_j = 2 (admissible under the stoichiometric condition), one
    diffusing reactant with unit exponent, limit-system delta1 = 1, and
    smooth drivers bounded by 0.3 so that C5 T stays well below 2."""
    t = np.linspace(0.0, 1.0, n_points)
    am_fn = lambda s: 0.25 + 0.05 * np.exp(-s)
    a1_fn = lambda s: 0.3 - 0.1 * np.exp(-s)
    inputs = PointwiseInputs(
        times=t,
        a_j0=0.2,
        alpha_j=2.0,
        offsets=(),
        offset_alphas=(),
        driver_am=am_fn(t),
        delta1=np.ones_like(t),
        delta3=a1_fn(t),
    )
    constants = constants_for(inputs, c_tilde=0.3)
    return inputs, constants, {"am": am_fn, "delta1": lambda s: 1.0, "delta3": a1_fn}
