"""Integrating-factor map, Picard iteration, and the factorial envelope."""

import math
from itertools import accumulate

import mpmath as mp
import numpy as np
import pytest

from trdlab.errors import InvariantBreach
from trdlab.picard import (
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


def offset_inputs(n_points=101, T=1.0):
    """alpha_j = 2 (a unit power in delta2), non-constant delta1, and two
    offsets with exponents 1 and 1/2."""
    t = np.linspace(0.0, T, n_points)
    return PointwiseInputs(
        times=t,
        a_j0=0.2,
        alpha_j=2.0,
        offsets=(0.1, 0.3),
        offset_alphas=(1.0, 0.5),
        driver_am=0.25 + 0.05 * np.exp(-t),
        delta1=1.0 / (1.0 + 0.5 * t * t),
        delta3=0.3 - 0.1 * np.exp(-t),
    )


def node(f, x):
    """f on a one-node array: numpy's exp and powers on arrays round
    unlike math.exp and Python's **."""
    return f(np.array([x]))[0]


MP_EXP = np.frompyfunc(mp.exp, 1, 1)


def float_pair(w):
    return node(np.exp, w), node(np.exp, -w)


def mp_pair(w):
    """The 80-digit map's pair: e^-w as the reciprocal of e^w."""
    e = node(MP_EXP, w)
    return e, 1 / e


def mp_pair_negated(w):
    """The order before the reciprocal: a second exp at -w."""
    return node(MP_EXP, w), node(MP_EXP, -w)


def reference_map(inputs, a, lift, exp_pair):
    """The integrating-factor map node by node, in the operation order it
    had before its loop invariants were hoisted: trapezoid sums (f_i + f_{i-1}) * dt / 2 accumulated
    from the left, am * d1 * e^W per node.  Each power is taken on a
    one-node array; `lift` is float, or mp.mpf under mp.workdps, and
    exp_pair(w) gives (e^w, e^-w) at one node."""
    n = len(a)
    am, d1, d3 = ([lift(v) for v in arr] for arr in (inputs.driver_am, inputs.delta1, inputs.delta3))
    dt, a0 = lift(inputs.dt), lift(inputs.a_j0)

    def delta2(r):
        out = node(lambda v: v ** (inputs.alpha_j - 1.0), r if r > 0 else 1.0)
        if not (r > 0 or inputs.alpha_j == 1.0):
            out = 0.0
        for off, e in zip(inputs.offsets, inputs.offset_alphas):
            out = out * node(lambda v: v**e, off + r)
        return out

    def cumtrapz(f):
        return [0.0] + list(accumulate((f[i] + f[i - 1]) * dt / 2 for i in range(1, n)))

    W = cumtrapz([d1[i] * delta2(a[i]) * d3[i] for i in range(n)])
    pairs = [exp_pair(w) for w in W]
    J = cumtrapz([am[i] * d1[i] * pairs[i][0] for i in range(n)])
    return [pairs[i][1] * (J[i] + a0) for i in range(n)]


def reference_iterates(inputs, p_max, lift, exp_pair):
    iterates = [[lift(inputs.a_j0)] * len(inputs.times)]
    for _ in range(p_max):
        iterates.append(reference_map(inputs, iterates[-1], lift, exp_pair))
    return iterates


class TestMapArithmetic:
    def test_float_iterates_equal_the_reference_bit_for_bit(self):
        inp = offset_inputs()
        expected = reference_iterates(inp, 10, float, float_pair)
        for p, (got, want) in enumerate(zip(picard_iterate(inp, p_max=10), expected, strict=True)):
            assert got.tobytes() == np.array(want).tobytes(), p

    def test_mp_iterates_equal_the_reference_at_80_digits(self):
        inp = offset_inputs()
        got = picard_iterate_mp(inp, p_max=6, dps=80)
        with mp.workdps(80):  # repr prints as many digits as the working precision holds
            expected = reference_iterates(inp, 6, mp.mpf, mp_pair)
            for p, (mine, want) in enumerate(zip(got, expected, strict=True)):
                assert repr(mine) == repr(want), p

    def test_mp_reciprocal_stays_within_1e_76_of_a_second_exp(self):
        inp = offset_inputs()
        got = picard_iterate_mp(inp, p_max=6, dps=80)
        with mp.workdps(80):
            negated = reference_iterates(inp, 6, mp.mpf, mp_pair_negated)
            worst = max(abs(x - y) / abs(y) for mine, want in zip(got, negated, strict=True) for x, y in zip(mine, want))
        assert worst <= mp.mpf("1e-76")

    def test_envelope_report_is_the_same_under_both_orders(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        with mp.workdps(80):
            negated = reference_iterates(inp, 40, mp.mpf, mp_pair_negated)
        reports = [
            convergence_envelope_check(iterates[:26], constants, iterates[-1], safety=1.1)
            for iterates in (picard_iterate_mp(inp, p_max=40, dps=80), negated)
        ]
        assert reports[0] == reports[1]
        assert reports[0]["passed"]

    def test_mp_map_takes_one_exp_per_node(self, monkeypatch):
        exp, calls = mp.exp, []

        def counting_exp(x):
            calls.append(x)
            return exp(x)

        monkeypatch.setattr(mp, "exp", counting_exp)
        inp = offset_inputs()
        picard_iterate_mp(inp, p_max=3)
        assert len(calls) == 3 * len(inp.times)


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

    def test_constants_require_positive_values(self):
        with pytest.raises(ValueError):
            PicardBoundConstants(C4=0.0, C5=1.0, T=1.0)

    @pytest.mark.parametrize("c4, c5, T", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.inf)])
    def test_constants_reject_non_finite_values(self, c4, c5, T):
        with pytest.raises(ValueError):
            PicardBoundConstants(C4=c4, C5=c5, T=T)

    def test_nan_error_fails_the_check(self):
        inp, constants, _ = canonical_scenario(n_points=301)
        iters = picard_iterate(inp, p_max=3)
        broken = iters[1].copy()
        broken[150] = math.nan  # not the first node, which max() would keep
        rep = convergence_envelope_check([iters[0], broken], constants, iters[-1])
        assert math.isnan(rep["per_p"][1]["error"])
        assert rep["per_p"][1]["ok"] is False
        assert rep["passed"] is False


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
