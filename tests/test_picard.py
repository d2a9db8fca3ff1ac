"""Integrating-factor map, Picard iteration, and the factorial envelope."""

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from oracles import picard_iterate_mpf, times_exp

from trdlab import picard
from trdlab.errors import InvariantBreach
from trdlab.picard import (
    _GUARD_BITS,
    FixedIterate,
    PicardBoundConstants,
    PointwiseInputs,
    canonical_scenario,
    constants_for,
    convergence_envelope_check,
    integrating_factor_eval,
    ode_oracle,
    picard_iterate,
    picard_iterate_mp,
)


def linear_inputs(a_j0=0.3, n_points=2001, T=1.0):
    """delta2 * delta3 == 1 and a_m == 1: the ODE is a' = 1 - a with
    closed form a(t) = 1 + (a_0 - 1) e^{-t}."""
    t = np.linspace(0.0, T, n_points)
    return PointwiseInputs(
        times=t,
        a_j0=a_j0,
        alpha_j=1.0,
        offsets=(),
        offset_alphas=(),
        driver_am=np.ones_like(t),
        delta1=np.ones_like(t),
        delta3=np.ones_like(t),
    )


def offset_inputs(n_points=101, T=1.0, alpha_j=2.0, offset_alphas=(1.0, 0.5)):
    """By default alpha_j = 2 (a unit power in delta2), non-constant delta1,
    and two offsets with exponents 1 and 1/2."""
    t = np.linspace(0.0, T, n_points)
    return PointwiseInputs(
        times=t,
        a_j0=0.2,
        alpha_j=alpha_j,
        offsets=(0.1, 0.3),
        offset_alphas=offset_alphas,
        driver_am=0.25 + 0.05 * np.exp(-t),
        delta1=1.0 / (1.0 + 0.5 * t * t),
        delta3=0.3 - 0.1 * np.exp(-t),
    )


def node(f, x):
    """f on a one-node array: numpy's exp and powers on arrays round
    unlike math.exp and Python's **."""
    return f(np.array([x]))[0]


MP_EXP = np.frompyfunc(mp.exp, 1, 1)


def per_node(pair):
    """exp_pairs(W) from pair(w) = (e^w, e^-w) on one node: e^-w s as the product e^-w * s."""
    return lambda W: [(e, lambda s, d=d: d * s) for e, d in map(pair, W)]


@per_node
def float_pair(w):
    return node(np.exp, w), node(np.exp, -w)


@per_node
def mp_pair(w):
    """The mpf oracle's pair: e^-w as the reciprocal of e^w."""
    e = node(MP_EXP, w)
    return e, 1 / e


@per_node
def mp_pair_negated(w):
    """The order before the reciprocal: a second exp at -w."""
    return node(MP_EXP, w), node(MP_EXP, -w)


def powered(v, e):
    """v**e on a one-node array."""
    return node(lambda u: u**e, v)


FLOATS = SimpleNamespace(lift=float, mul=operator.mul, halve=lambda x: x / 2, power=powered, exp_pairs=float_pair)
MPF = SimpleNamespace(lift=mp.mpf, mul=operator.mul, halve=lambda x: x / 2, power=powered, exp_pairs=mp_pair)
MPF_NEGATED = SimpleNamespace(**vars(MPF) | {"exp_pairs": mp_pair_negated})


def fixed_point(inputs, dps=80):
    """picard_iterate_mp's node arithmetic at `dps` digits: x stands for
    x 2^-P, with 1/e times the bits where delta2 has a power e below 1.
    Its exp_pairs carries each node's (w, e^w) from one iterate to the next,
    so one namespace serves one sequence of iterates."""
    root = min([1.0] + [e for e in (inputs.alpha_j - 1.0, *inputs.offset_alphas) if e > 0])
    P = math.ceil(dps * math.log2(10) / root) + _GUARD_BITS

    def power(v, e):
        """v**e: integer powers exactly, then one shift."""
        if e == int(e):
            return (v ** int(e) << P) >> (int(e) * P)
        return libmp.to_fixed(libmp.mpf_pow(libmp.from_man_exp(v, -P), libmp.from_float(e), P), P)

    carried = []  # the latest iterate's (w, e^w) per node; the zeroth's w is 0

    def exp_pairs(W):
        """e^w as the previous iterate's e^w times e^(w - w_prev); e^-w s as s / e^w."""
        carried[:] = [(w, times_exp(e, w - v, P)) for w, (v, e) in zip(W, carried or [(0, 1 << P)] * len(W))]
        return [(e, lambda s, e=e: (s << P) // e) for _, e in carried]

    return P, SimpleNamespace(
        lift=lambda v: int(math.ldexp(v, P)),  # exact: a float times a power of two
        mul=lambda x, y: (x * y) >> P,
        halve=lambda x: x >> 1,
        power=power,
        exp_pairs=exp_pairs,
    )


def reference_map(inputs, a, ar):
    """The integrating-factor map node by node, with only the driver products
    am * d1 and d1 * d3 formed first, as `_map` has them: trapezoid sums (f_i + f_{i-1}) * dt / 2
    accumulated from the left, (am * d1) * e^W and delta2 * (d1 * d3) per node.  `ar` is the node arithmetic:
    lift (float, mp.mpf under mp.workdps, or `fixed_point`'s integers), mul,
    halve, power(v, e) and exp_pairs(W), a (e^w, s -> e^-w s) per node; in
    fixed point a shift follows every product."""
    n = len(a)
    am, d1, d3 = ([ar.lift(v) for v in arr] for arr in (inputs.driver_am, inputs.delta1, inputs.delta3))
    dt, a0 = ar.lift(inputs.dt), ar.lift(inputs.a_j0)

    def delta2(r):
        out = ar.power(r if r > 0 else ar.lift(1.0), inputs.alpha_j - 1.0)
        if not (r > 0 or inputs.alpha_j == 1.0):
            out = ar.lift(0.0)
        for off, e in zip(inputs.offsets, inputs.offset_alphas):
            out = ar.mul(out, ar.power(ar.lift(off) + r, e))
        return out

    def cumtrapz(f):
        return [ar.lift(0.0)] + list(accumulate(ar.halve(ar.mul(f[i] + f[i - 1], dt)) for i in range(1, n)))

    W = cumtrapz([ar.mul(delta2(a[i]), ar.mul(d1[i], d3[i])) for i in range(n)])
    pairs = ar.exp_pairs(W)
    J = cumtrapz([ar.mul(ar.mul(am[i], d1[i]), pairs[i][0]) for i in range(n)])
    return [pairs[i][1](J[i] + a0) for i in range(n)]


def as_mpf(iterate):
    """A FixedIterate's nodes as mp.mpf, each rounded to nearest at the working precision."""
    return [mp.ldexp(x, -iterate.P) for x in iterate.mantissas]


def exact(traj):
    """A trajectory's nodes as Fractions, exactly: FixedIterate, mp.mpf or float."""
    if isinstance(traj, FixedIterate):
        return [Fraction(x, 1 << traj.P) for x in traj.mantissas]
    return [Fraction(x.man_exp[0]) * Fraction(2) ** x.man_exp[1] if type(x) is mp.mpf else Fraction(x) for x in traj]


def reference_iterates(inputs, p_max, ar):
    iterates = [[ar.lift(inputs.a_j0)] * len(inputs.times)]
    for _ in range(p_max):
        iterates.append(reference_map(inputs, iterates[-1], ar))
    return iterates


# unit and half powers, then integer powers 2 and 3 in delta2: the fixed point takes them in integers
POWERS = pytest.mark.parametrize("alpha_j, offset_alphas", [(2.0, (1.0, 0.5)), (3.0, (3.0, 1.0))])


class TestMapArithmetic:
    @POWERS
    def test_float_iterates_equal_the_reference_bit_for_bit(self, alpha_j, offset_alphas):
        inp = offset_inputs(alpha_j=alpha_j, offset_alphas=offset_alphas)
        expected = reference_iterates(inp, 10, FLOATS)
        for p, (got, want) in enumerate(zip(picard_iterate(inp, p_max=10), expected, strict=True)):
            assert got.tobytes() == np.array(want).tobytes(), p

    @POWERS
    def test_fixed_point_iterates_equal_the_integer_reference_bit_for_bit(self, alpha_j, offset_alphas):
        inp = offset_inputs(alpha_j=alpha_j, offset_alphas=offset_alphas)
        got = picard_iterate_mp(inp, p_max=6, dps=80)
        P, fixed = fixed_point(inp)
        expected = reference_iterates(inp, 6, fixed)
        assert all(type(x) is int for mine in got for x in mine.mantissas)
        # every integer, guard bits included, at the map's own P
        assert got == [FixedIterate(tuple(want), P) for want in expected]
        assert [len(mine) for mine in got] == [len(inp.times)] * 7

    def test_mpf_oracle_equals_the_reference_at_80_digits(self):
        inp = offset_inputs()
        got = picard_iterate_mpf(inp, p_max=6, dps=80)
        with mp.workdps(80):  # repr prints as many digits as the working precision holds
            expected = reference_iterates(inp, 6, MPF)
            for p, (mine, want) in enumerate(zip(got, expected, strict=True)):
                assert repr(mine) == repr(want), p

    def test_mp_reciprocal_stays_within_1e_76_of_a_second_exp(self):
        inp = offset_inputs()
        got = picard_iterate_mp(inp, p_max=6, dps=80)
        with mp.workdps(80):
            negated = reference_iterates(inp, 6, MPF_NEGATED)
            pairs = [(x, y) for mine, want in zip(got, negated, strict=True) for x, y in zip(as_mpf(mine), want)]
            worst = max(abs(x - y) / abs(y) for x, y in pairs)
        assert worst <= mp.mpf("1e-76")

    def test_envelope_report_is_the_same_under_both_orders(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        with mp.workdps(80):
            negated = reference_iterates(inp, 40, MPF_NEGATED)
        reports = [
            convergence_envelope_check(iterates[:26], constants, iterates[-1], safety=1.1)
            for iterates in (picard_iterate_mp(inp, p_max=40, dps=80), negated)
        ]
        assert reports[0] == reports[1]
        assert reports[0]["passed"]

    def test_envelope_report_equals_the_mpf_oracle_s(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        reports = [
            convergence_envelope_check(iterates[:26], constants, iterates[-1], safety=1.1)
            for iterates in (picard_iterate_mp(inp, p_max=40, dps=80), picard_iterate_mpf(inp, p_max=40, dps=80))
        ]
        assert reports[0] == reports[1]

    def test_mp_map_takes_one_exp_per_node(self, monkeypatch):
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.append((name, np.shape(args[1]))) or real(*args))

        for owner, name in ((picard, "_times_exp"), (libmp.libelefun, "exp_fixed"), (mp, "exp")):
            counting(owner, name)
        inp = offset_inputs()
        picard_iterate_mp(inp, p_max=3)
        assert calls == [("_times_exp", inp.times.shape)] * 3  # one call an iterate, over every node; no mpmath exp

    @pytest.mark.parametrize("p_max, dps", [(0, 40), (-1, 40), (2.5, 40), (True, 40), (3, 0), (3, -5), (3, 2.5), (3, None)])
    def test_rejects_a_p_max_or_dps_that_is_not_a_positive_int(self, p_max, dps):
        inp = offset_inputs(n_points=11)
        with pytest.raises(ValueError, match="^dps must" if p_max == 3 else "^p_max must"):
            picard_iterate_mp(inp, p_max=p_max, dps=dps)


@st.composite
def pointwise_inputs(draw):
    """alpha_j in {1, 1.5, 2, 3}, up to two offsets with exponents in
    {1, 1/2, 2}, non-constant delta1 and smooth drivers on [0, 1]."""
    n = draw(st.integers(3, 25))
    t = np.linspace(0.0, 1.0, n)
    unit = st.floats(0.0, 1.0)
    offsets = draw(st.lists(st.tuples(unit, st.sampled_from([1.0, 0.5, 2.0])), max_size=2))
    c = draw(st.lists(unit, min_size=5, max_size=5))
    return PointwiseInputs(
        times=t,
        a_j0=c[0],
        alpha_j=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
        offsets=tuple(off for off, _ in offsets),
        offset_alphas=tuple(e for _, e in offsets),
        driver_am=c[1] * (1.0 + np.sin(3.0 * t)),
        delta1=1.0 / (1.0 + c[2] * t * t) + 0.1 * c[3] * np.cos(5.0 * t),
        delta3=c[4] * np.exp(-t),
    )


def tiny_root_inputs(alpha_j, offsets, offset_alphas):
    """a_j0 = 1e-100 under a power 1/2 in delta2: at dps digits of fixed
    point alone a_j0 would be 0, and delta2 off by its square root, 1e-50."""
    t = np.linspace(0.0, 1.0, 5)
    return PointwiseInputs(t, 1e-100, alpha_j, offsets, offset_alphas, np.ones_like(t), 1.0 / (1.0 + t * t), np.exp(-t))


def stiff_inputs(am, alpha_j, a_j0, delta3):
    """Constant drivers on 51 nodes of [0, 1] and delta1 = 1: with alpha_j = 1,
    delta2 = 1 and W = delta3 t."""
    t = np.linspace(0.0, 1.0, 51)
    return PointwiseInputs(t, a_j0, alpha_j, (), (), np.full_like(t, am), np.ones_like(t), np.full_like(t, delta3))


def spy_on_exp_pairs(monkeypatch):
    """The list that collects (W, e^W), the integers of each iterate that
    picard_iterate_mp makes, where its map takes them from its arithmetic's exp_pair."""
    seen, real_map = [], picard._map

    def spying_map(inputs, a, drivers, ar):
        def spy(W):
            pair = ar.exp_pair(W)
            seen.append((W, pair[0]))
            return pair

        return real_map(inputs, a, drivers, SimpleNamespace(**vars(ar) | {"exp_pair": spy}))

    monkeypatch.setattr(picard, "_map", spying_map)
    return seen


def assert_within_1e_76_of_the_oracle(inp, p_max):
    got = picard_iterate_mp(inp, p_max=p_max, dps=80)
    want = picard_iterate_mpf(inp, p_max=p_max, dps=80)
    with mp.workdps(80):
        for mine, ref in zip(got, want, strict=True):
            scale = max(1, max(abs(y) for y in ref))
            assert max(abs(x - y) for x, y in zip(as_mpf(mine), ref, strict=True)) <= mp.mpf("1e-76") * scale


class TestFixedPointAgainstTheMpfOracle:
    @given(pointwise_inputs(), st.integers(1, 4))
    @example(tiny_root_inputs(1.5, (), ()), 3)
    @example(tiny_root_inputs(1.0, (0.0,), (0.5,)), 3)
    @settings(max_examples=100, deadline=None)
    def test_iterates_lie_within_1e_76_of_the_oracle(self, inp, p_max):
        assert_within_1e_76_of_the_oracle(inp, p_max)

    @pytest.mark.parametrize("k", [40.0, 80.0])
    def test_iterates_lie_within_1e_76_of_the_oracle_where_w_reaches_k(self, k, monkeypatch):
        """e^-W s with s of size e^W: one unit of a reciprocal e^-W would
        have cost e^k units (1.3e-69 at k = 40, 1.0e-52 at k = 80)."""
        inp = stiff_inputs(k, 1.0, 0.2, k)
        seen = spy_on_exp_pairs(monkeypatch)
        assert_within_1e_76_of_the_oracle(inp, p_max=2)
        W, _ = seen[-1]
        assert math.ldexp(W[-1], -fixed_point(inp)[0]) == pytest.approx(k)

    def test_increments_of_w_that_change_sign_stay_within_1e_76_of_the_oracle(self, monkeypatch):
        """alpha_j = 2: W follows the iterates, which overshoot and undershoot
        in turn, so W - W_prev alternates in sign, by more than 40 at first:
        a reciprocal e^-40 held to one unit would cost e^40 units."""
        inp = stiff_inputs(40.0, 2.0, 0.5, 20.0)
        seen = spy_on_exp_pairs(monkeypatch)
        assert_within_1e_76_of_the_oracle(inp, p_max=12)
        P = fixed_point(inp)[0]
        steps = [int(W[-1] - V[-1]) for (V, _), (W, _) in zip(seen, seen[1:])]
        assert all(x * y < 0 for x, y in zip(steps, steps[1:]))
        assert min(steps[:2]) < -(40 << P) and max(steps[:2]) > 40 << P


def units_off(got, scale, x, P):
    """|got - scale e^(x 2^-P)| in units 2^-P of max(1, the exact value), the
    exp taken by mpmath at P + 64 bits; got, scale and x stand for times 2^-P."""
    wp = P + 64
    exact = libmp.mpf_mul(libmp.from_man_exp(scale, -P), libmp.mpf_exp(libmp.from_man_exp(x, -P), wp), wp)
    err = libmp.mpf_abs(libmp.mpf_sub(libmp.from_man_exp(got, -P), exact, wp))
    return math.ldexp(libmp.to_float(libmp.mpf_div(err, max(exact, libmp.fone, key=libmp.to_float), 53)), P)


class TestTimesExp:
    """picard._times_exp, the 80-digit map's fixed-point exp, against mpmath's
    exp.  P = 286 is the map's at 80 digits, P = 552 with a power 1/2 in
    delta2; scale 2^P is the plain exp, and e^40 a carried e^W."""

    @staticmethod
    def arguments(P):
        """zero, +-1, the reduction edge +-1 and 400 seeded x, as an object array; scales 2^P and e^40."""
        edge = 1 << (P - math.isqrt(P))  # x 2^-P = 2^-isqrt(P): the largest argument the series takes unhalved
        xs = [0, 1, -1] + [sign * (edge + d) for sign in (1, -1) for d in (-1, 0, 1)]
        rng = random.Random(P)
        xs += [rng.randrange(-80 << P, (80 << P) + 1) for _ in range(400)]
        return np.array(xs, dtype=object), (1 << P, libmp.to_fixed(libmp.mpf_exp(libmp.from_int(40), P), P))

    @pytest.mark.parametrize("P, k", [(286, 16), (552, 20)])
    def test_within_k_units_of_mpf_exp(self, P, k):
        xs, scales = self.arguments(P)
        for scale in scales:
            got = picard._times_exp(scale, xs, P)
            assert max(units_off(e, scale, x, P) for e, x in zip(got, xs, strict=True)) <= k

    @pytest.mark.parametrize("P", [286, 552])
    def test_every_node_is_the_scalar_loop_s_bit_for_bit(self, P):
        xs, scales = self.arguments(P)
        for scale in scales:
            got = picard._times_exp(np.full(len(xs), scale, dtype=object), xs, P)
            want = [times_exp(scale, x, P) for x in xs]
            assert got.dtype == object and got.shape == xs.shape and list(got) == want
            assert [picard._times_exp(scale, xs[i : i + 1], P)[0] for i in range(len(xs))] == want  # each node alone

    def test_e_w_after_40_iterates_is_within_40_k_units_of_mpf_exp(self, monkeypatch):
        """Each iterate's e^W is the previous one's times _times_exp: k units
        relative at most per iterate, as W >= 0 (measured: 39 units)."""
        inp, _, _ = canonical_scenario(n_points=301)
        seen = spy_on_exp_pairs(monkeypatch)
        picard_iterate_mp(inp, p_max=40, dps=80)
        P = fixed_point(inp)[0]
        W, E = seen[-1]
        assert len(seen) == 40
        assert max(units_off(e, 1 << P, w, P) for w, e in zip(W, E)) <= 40 * 16


class TestPointwiseInputs:
    def test_rejects_nonuniform_mesh(self):
        t = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            PointwiseInputs(t, 0.1, 1.0, (), (), np.ones(3), np.ones(3), np.ones(3))

    def test_rejects_negative_initial_data(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            PointwiseInputs(t, -0.1, 1.0, (), (), np.ones(5), np.ones(5), np.ones(5))
        with pytest.raises(ValueError):
            PointwiseInputs(t, 0.1, 1.0, (-0.5,), (1.0,), np.ones(5), np.ones(5), np.ones(5))

    def test_rejects_mesh_mismatch(self):
        t = np.linspace(0, 1, 5)
        with pytest.raises(ValueError):
            PointwiseInputs(t, 0.1, 1.0, (), (), np.ones(4), np.ones(5), np.ones(5))

    @pytest.mark.parametrize("field", ["times", "a_j0", "driver_am", "delta1", "delta3", "offsets"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_data(self, field, bad):
        t = np.linspace(0, 1, 5)
        data = {"times": t, "a_j0": 0.1, "alpha_j": 1.0, "offsets": (0.2,), "offset_alphas": (1.0,)}
        data |= {name: np.ones(5) for name in ("driver_am", "delta1", "delta3")}
        if field == "times":
            data["times"] = np.append(t[:-1], bad)
        elif field == "a_j0":
            data["a_j0"] = bad
        elif field == "offsets":
            data["offsets"] = (bad,)
        else:
            data[field][2] = bad
        with pytest.raises(ValueError, match="finite"):
            PointwiseInputs(**data)

    @pytest.mark.parametrize("field", ["delta1", "delta3"])
    @pytest.mark.parametrize("k", [-5.0, -40.0])
    def test_rejects_a_negative_driver_naming_it(self, field, k):
        # the model's drivers are >= 0; with W < 0 the fixed-point map, whose
        # iterates are quotients by e^W, would lose e^|W| units (1.3e-69 at -40)
        t = np.linspace(0.0, 1.0, 51)
        drivers = {name: np.ones_like(t) for name in ("driver_am", "delta1", "delta3")} | {field: np.full_like(t, k)}
        with pytest.raises(ValueError, match=rf"^{field} must be >= 0"):
            PointwiseInputs(t, 0.2, 1.0, (), (), **drivers)

    def test_zero_drivers_are_accepted(self):
        t = np.linspace(0.0, 1.0, 5)
        inp = PointwiseInputs(t, 0.2, 1.0, (), (), np.ones(5), np.zeros(5), np.full(5, -0.0))
        assert_within_1e_76_of_the_oracle(inp, p_max=2)

    def test_delta2_offsets_and_exponents(self):
        t = np.linspace(0, 1, 3)
        inp = PointwiseInputs(t, 0.2, 2.0, (0.5,), (1.5,), np.ones(3), np.ones(3), np.ones(3))
        r = 0.3
        assert inp.delta2(r) == pytest.approx(r ** 1.0 * (0.5 + r) ** 1.5)


class TestIntegratingFactor:
    def test_no_dynamics_keeps_the_constant(self):
        t = np.linspace(0, 1, 101)
        zeros = np.zeros_like(t)
        inp = PointwiseInputs(t, 0.7, 1.0, (), (), zeros, zeros + 1.0, zeros)
        out = integrating_factor_eval(inp, np.full_like(t, 0.7))
        np.testing.assert_allclose(out, 0.7, atol=1e-14)

    def test_linear_problem_closed_form(self):
        inp = linear_inputs(a_j0=0.3)
        exact = 1.0 + (0.3 - 1.0) * np.exp(-inp.times)
        # the map applied to the exact solution reproduces it (fixed point)
        out = integrating_factor_eval(inp, exact)
        np.testing.assert_allclose(out, exact, atol=1e-7)

    def test_converged_iterate_satisfies_the_ode(self):
        inp = linear_inputs(n_points=4001)
        limit = picard_iterate(inp, p_max=30)[-1]
        t = inp.times
        lhs = np.gradient(limit, t)
        rhs = inp.driver_am - inp.delta2(limit) * limit * inp.delta3
        # drop the endpoints (one-sided differences)
        assert np.abs(lhs[2:-2] - rhs[2:-2]).max() < 1e-6


class TestPicardIteration:
    def test_fixed_point_input_keeps_iterates_identical(self):
        # equilibrium drivers: a_j0 = a_m / (delta2 * delta3) = 1
        t = np.linspace(0, 1, 201)
        inp = PointwiseInputs(t, 1.0, 1.0, (), (), np.ones_like(t), np.ones_like(t), np.ones_like(t))
        iters = picard_iterate(inp, p_max=4)
        # identical up to the trapezoidal quadrature defect of the map
        for traj in iters[1:]:
            np.testing.assert_allclose(traj, iters[0], atol=1e-5)

    def test_iterates_nonnegative(self):
        inp, constants, _ = canonical_scenario(n_points=801)
        for traj in picard_iterate(inp, p_max=8, bound=constants.C4):
            assert traj.min() >= 0.0

    def test_successive_differences_decay_factorially(self):
        inp, constants, _ = canonical_scenario(n_points=2001)
        iters = picard_iterate(inp, p_max=8)
        diffs = [np.abs(b - a).max() for a, b in zip(iters[:-1], iters[1:])]
        # each difference should shrink at least geometrically with the
        # growing factorial denominator
        for a, b in zip(diffs[:-1], diffs[1:]):
            assert b < 0.5 * a

    def test_bound_breach_raises(self):
        inp = linear_inputs()
        with pytest.raises(InvariantBreach):
            picard_iterate(inp, p_max=3, bound=0.5)  # limit approaches 1 > 0.5

    def test_nan_iterate_breaches_the_bound(self):
        # W reaches 1e6: exp(-W) underflows to 0 and exp(W) overflows, and
        # 0 * inf is NaN from the second node on
        t = np.linspace(0, 1, 11)
        inp = PointwiseInputs(t, 1.0, 1.0, (), (), np.ones_like(t), np.ones_like(t), np.full_like(t, 1e6))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvariantBreach, match="nan"):
            picard_iterate(inp, p_max=1, bound=2.0)

    def test_final_iterate_matches_adaptive_oracle(self):
        inp, constants, fns = canonical_scenario(n_points=4001)
        last = picard_iterate(inp, p_max=25, bound=constants.C4)[-1]
        oracle = ode_oracle(inp, am_fn=fns["am"], delta1_fn=fns["delta1"], delta3_fn=fns["delta3"])
        assert np.abs(last - oracle).max() < 1e-6


class TestEnvelope:
    def test_p0_bound_exceeds_the_trajectory_diameter(self):
        inp, constants, _ = canonical_scenario(n_points=801)
        iters = picard_iterate(inp, p_max=3)
        rep = convergence_envelope_check(iters[:1], constants, iters[-1])
        assert rep["per_p"][0]["envelope"] >= 2.0 * constants.T * constants.C4

    def test_linear_problem_envelope_holds(self):
        inp = linear_inputs(n_points=1001)
        constants = constants_for(inp, c_tilde=1.0)
        iters = picard_iterate(inp, p_max=10)
        rep = convergence_envelope_check(iters, constants, iters[-1])
        checked = [r for r in rep["per_p"] if r["envelope"] > 1e-13]
        assert all(r["ok"] for r in checked)

    def test_canonical_envelope_in_arbitrary_precision(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        assert constants.C5 * constants.T <= 2.0
        iters = picard_iterate_mp(inp, p_max=40, dps=80)
        rep = convergence_envelope_check(iters[:16], constants, iters[-1], safety=1.1)
        assert rep["passed"], rep
        # the errors really are sub-float64 past p ~ 12
        assert rep["per_p"][15]["error"] < 1e-25

    def test_errors_are_the_exact_differences_rounded_once(self):
        """Fixed and float iterates against a fixed reference; float(Fraction) is int / int, rounded once."""
        inp, constants, _ = canonical_scenario(n_points=301)
        iters = picard_iterate_mp(inp, p_max=30, dps=80)[:26] + picard_iterate(inp, p_max=2)
        rep = convergence_envelope_check(iters, constants, iters[25])
        ref = exact(iters[25])
        want = [float(max(abs(x - y) for x, y in zip(exact(traj), ref))) for traj in iters]
        assert [row["error"] for row in rep["per_p"]] == want
        assert 0.0 < want[24] < 1e-30 and want[26] > 1e-3

    @pytest.mark.parametrize("case", ["fixed at dps 40", "mpf at dps 80"])
    def test_errors_against_a_dps_80_reference_are_exact_differences_rounded_once(self, case):
        inp, constants, _ = canonical_scenario(n_points=301)
        reference = picard_iterate_mp(inp, p_max=30, dps=80)[-1]
        if case == "fixed at dps 40":  # P = 153 against the reference's 286: one shift aligns them
            iters = picard_iterate_mp(inp, p_max=25, dps=40)
            assert (iters[0].P, reference.P) == (153, 286)
        else:
            iters = picard_iterate_mpf(inp, p_max=25, dps=80)
        rep = convergence_envelope_check(iters, constants, reference)
        ref = exact(reference)
        want = [float(max(abs(x - y) for x, y in zip(exact(traj), ref))) for traj in iters]
        assert [row["error"] for row in rep["per_p"]] == want
        assert rep["passed"] and 0.0 < want[-1] < 1e-30

    def test_constants_require_positive_values(self):
        with pytest.raises(ValueError):
            PicardBoundConstants(C4=0.0, C5=1.0, T=1.0)

    @pytest.mark.parametrize("c4, c5, T", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.inf)])
    def test_constants_reject_non_finite_values(self, c4, c5, T):
        with pytest.raises(ValueError):
            PicardBoundConstants(C4=c4, C5=c5, T=T)

    @pytest.mark.parametrize("cut", ["reference", "iterate"])
    def test_rejects_iterates_off_the_reference_mesh(self, cut):
        inp, constants, _ = canonical_scenario(n_points=301)
        iters = picard_iterate(inp, p_max=3)
        reference = iters[-1][:5] if cut == "reference" else iters[-1]
        if cut == "iterate":
            iters[1] = iters[1][:3]
        with pytest.raises(ValueError, match="mesh"):
            convergence_envelope_check(iters, constants, reference)

    def test_rejects_an_empty_iterate_list(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        with pytest.raises(ValueError, match="at least one iterate"):
            convergence_envelope_check([], constants, picard_iterate(inp, p_max=1)[-1])

    def test_nan_error_fails_the_check(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        iters = picard_iterate(inp, p_max=3)
        broken = iters[1].copy()
        broken[150] = math.nan  # not the first node, which max() would keep
        rep = convergence_envelope_check([iters[0], broken], constants, iters[-1])
        assert math.isnan(rep["per_p"][1]["error"])
        assert rep["per_p"][1]["ok"] is False
        assert rep["passed"] is False
        assert rep["worst_p"] == 1 and math.isnan(rep["worst_margin"])  # not the passing iterate 0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, mp.mpf("nan"), mp.mpf("inf")], ids=repr)
    @pytest.mark.parametrize("where", ["iterate", "reference"])
    def test_a_non_finite_entry_gives_a_nan_error_that_fails(self, bad, where):
        inp, constants, _ = canonical_scenario(n_points=301)
        iters = picard_iterate_mp(inp, p_max=3, dps=40)
        nodes = as_mpf(iters[1])
        nodes[150] = bad
        checked, reference = {"iterate": ([iters[0], nodes, iters[2]], iters[3]), "reference": (iters[:3], nodes)}[where]
        rep = convergence_envelope_check(checked, constants, reference)
        errors = [row["error"] for row in rep["per_p"]]
        assert [math.isnan(err) for err in errors] == ([False, True, False] if where == "iterate" else [True] * 3)
        assert rep["passed"] is False
        assert rep["worst_p"] == (1 if where == "iterate" else 0) and math.isnan(rep["worst_margin"])

    def test_an_error_beyond_the_floats_reads_inf_and_fails(self):
        _, constants, _ = canonical_scenario(n_points=301)
        rep = convergence_envelope_check([np.array([0.0, 1.7e308])], constants, np.array([0.0, -1.7e308]))
        assert rep["per_p"][0]["error"] == math.inf and rep["passed"] is False


class TestCanonicalScenario:
    def test_constants_frozen(self):
        _, constants, _ = canonical_scenario()
        assert constants.C4 == pytest.approx(0.5)
        assert constants.C5 == pytest.approx(0.3)
        assert constants.T == 1.0

    def test_drivers_bounded_by_ctilde(self):
        inp, _, _ = canonical_scenario()
        assert inp.driver_am.max() <= 0.3
        assert inp.delta3.max() <= 0.3
