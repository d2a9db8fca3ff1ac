"""Rate law, regularization factor, and scalar kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import log_inequality_slack, phi_n
from trdlab.kinetics import entropy_kernel, phi, reactant_product
from trdlab.model import TriangularSystem

SYS3 = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(1.0, 1.0, 0.0))


class TestPhi:
    def test_unit_state_value(self):
        # Q = 3, so phi = 1 + 3^5 / 1 = 244 at the all-ones state
        assert phi_n(SYS3, 1.0, np.array([1.0, 1.0, 1.0])) == 244.0

    def test_limit_system_is_identically_one(self):
        assert phi_n(SYS3, math.inf, np.array([2.0, 3.0, 4.0])) == 1.0
        batch = np.ones((3, 5))
        np.testing.assert_array_equal(phi_n(SYS3, math.inf, batch), np.ones(5))

    def test_scales_inversely_with_n(self):
        a = np.array([1.0, 1.0, 1.0])
        assert phi_n(SYS3, 10.0, a) == pytest.approx(1.0 + 243.0 / 10.0)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            phi_n(SYS3, 0.0, np.array([1.0, 1.0, 1.0]))

    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_always_at_least_one(self, a1, a2, a3):
        assert phi_n(SYS3, 3.0, np.array([a1, a2, a3])) >= 1.0


class TestReactantProduct:
    def test_spectator_exponent_uses_zero_power_convention(self):
        # alpha_1 = 0: a_1 = 0 must contribute a unit factor, not zero
        assert reactant_product(np.array([0.0, 1.0]), np.array([0.0, 2.0])) == 2.0

    def test_batch_evaluation_matches_loop(self):
        alpha = np.array([1.5, 2.0])
        batch = np.random.default_rng(3).uniform(0.0, 4.0, size=(2, 7))
        full = reactant_product(alpha, batch)
        for k in range(7):
            assert full[k] == reactant_product(alpha, batch[:, k])

    def test_a_cells_product_does_not_depend_on_its_batch(self):
        # numpy squares, or takes the root for, a scalar exponent of 2 or 1/2,
        # or one broadcast over an array too large to buffer, and rounds
        # differently from its power on a small array
        alpha = np.array([2.0, 0.5, 2.71])
        reactants = np.random.default_rng(4).uniform(0.0, 5.0, size=(3, 2, 5000))
        whole = reactant_product(alpha, reactants)
        assert reactant_product(alpha, reactants[:, 1, :300]).tobytes() == whole[1, :300].tobytes()
        cells = [reactant_product(alpha, reactants[:, 0, k]) for k in range(300)]
        assert np.array(cells).tobytes() == whole[0, :300].tobytes()


class TestWorkArrays:
    """With a `work` dict, the product and phi land in its arrays, bit for
    bit as they were without them."""

    def test_product_and_phi_match_the_fresh_evaluation(self):
        rng = np.random.default_rng(6)
        state = rng.uniform(0.0, 5.0, size=(4, 3, 50))
        state[:, 0, :5] = 0.0
        n = np.array([1.0, 10.0, math.inf]).reshape(3, 1)
        work = {}
        for alpha, Q in (([2.0, 0.5, 2.71], 6.21), ([1.0, 0.0, 1.0], 3.0)):
            for _ in range(2):  # made, then reused
                prod = reactant_product(np.array(alpha), state[:-1], work)
                assert prod.tobytes() == oracles.reactant_product(np.array(alpha), state[:-1]).tobytes()
                total = state.sum(axis=0)
                assert phi(Q, n, total, work).tobytes() == oracles.phi(Q, n, total).tobytes()

    def test_exponent_arrays_are_made_once_per_value_and_shape(self):
        work = {}
        reactants = np.full((2, 7), 2.0)
        reactant_product(np.array([3.0, 0.5]), reactants, work)
        exponents = {name: work[name] for name in work if name.startswith("exponent")}
        assert sorted(exponents) == ["exponent 0.5", "exponent 3.0"]
        assert reactant_product(np.array([3.0, 0.5]), reactants, work)[0] == 8.0 * math.sqrt(2.0)
        assert all(work[name] is a for name, a in exponents.items())
        # another exponent at the same position gets its own array
        assert reactant_product(np.array([2.0, 0.5]), reactants, work)[0] == 4.0 * math.sqrt(2.0)


class TestRateLaw:
    def test_g_is_net_rate_over_phi(self):
        # a_m - a_1 a_2 = 3 - 1, phi = 1 + 5.5^5 / 5; phi = 1 in the limit system
        a = np.array([2.0, 0.5, 3.0])
        assert oracles.rate_g(SYS3, 5.0, a) == pytest.approx(2.0 / (1.0 + 5.5**5 / 5.0))
        assert oracles.rate_g(SYS3, math.inf, np.array([2.0, 3.0, 1.0])) == 1.0 - 6.0

    def test_equilibrium_state_has_zero_rate(self):
        for n in (1.0, math.inf):
            assert oracles.rate_g(SYS3, n, np.array([2.0, 3.0, 6.0])) == 0.0


class TestEntropyKernel:
    @pytest.mark.parametrize(
        "a, expected",
        [(0.0, 1.0), (1.0, 0.0), (math.e, 1.0)],
    )
    def test_pinned_values(self, a, expected):
        assert entropy_kernel(a) == pytest.approx(expected)

    @given(st.floats(0.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, a):
        assert entropy_kernel(a) >= 0.0

    @given(
        st.floats(0.0, 50.0),
        st.floats(0.0, 50.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_convex(self, a, b, lam):
        mid = entropy_kernel(lam * a + (1.0 - lam) * b)
        chord = lam * entropy_kernel(a) + (1.0 - lam) * entropy_kernel(b)
        assert mid <= chord + 1e-9 * (1.0 + abs(chord))

    def test_array_input(self):
        vals = entropy_kernel(np.array([0.0, 1.0, math.e]))
        np.testing.assert_allclose(vals, [1.0, 0.0, 1.0], atol=1e-14)


class TestLogInequality:
    def test_frozen_slack_value(self):
        # kappa=2, x=4, y=1: RHS = 2 + (1/ln 2)(-3) ln(1/4) = 8, slack 4
        assert log_inequality_slack(4.0, 1.0, 2.0) == pytest.approx(4.0)

    @given(
        st.floats(1e-6, 1e3),
        st.floats(1e-6, 1e3),
        st.floats(1.0 + 1e-6, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_slack_never_negative(self, x, y, kappa):
        assert log_inequality_slack(x, y, kappa) >= -1e-9 * (x + y)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_inequality_slack(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            log_inequality_slack(1.0, 1.0, 1.0)
