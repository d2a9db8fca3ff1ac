"""Exact-rational exponent arithmetic and the five replayed chains."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import holder_conjugate, young_convolution
from trdlab.bootstrap import (
    CHAIN_SCENARIOS,
    Exponent,
    gn_identity_check,
    kernel_time_integrable,
    linf_threshold,
    ode_power_map,
    replay_chain,
)

fractions_ge_1 = st.fractions(min_value=1, max_value=100)


class TestExponent:
    def test_ordering_with_infinity_on_top(self):
        assert Exponent.of(2) < Exponent.of(3) < Exponent.infinity()
        assert not Exponent.infinity() < Exponent.infinity()
        assert Exponent.of(5, 2) <= Exponent.of(5, 2)

    def test_reciprocal(self):
        assert Exponent.of(4).reciprocal == Fraction(1, 4)
        assert Exponent.infinity().reciprocal == 0

    def test_rejects_sub_lebesgue_values(self):
        with pytest.raises(ValueError):
            Exponent.of(1, 2)

    def test_string_forms(self):
        assert str(Exponent.of(87, 55)) == "87/55"
        assert str(Exponent.infinity()) == "inf"


class TestHolderYoung:
    @pytest.mark.parametrize(
        "p, expected",
        [
            (Exponent.of(2), Exponent.of(2)),
            (Exponent.of(3), Exponent.of(3, 2)),
            (Exponent.of(1), Exponent.infinity()),
            (Exponent.infinity(), Exponent.of(1)),
        ],
    )
    def test_conjugates(self, p, expected):
        assert holder_conjugate(p) == expected

    @given(st.fractions(min_value=Fraction(11, 10), max_value=50))
    @settings(max_examples=80, deadline=None)
    def test_conjugate_is_an_involution(self, p):
        e = Exponent(p)
        assert holder_conjugate(holder_conjugate(e)) == e

    def test_young_identity_exact(self):
        # 1 + 1/p = 1/q + 1/r
        p = young_convolution(Exponent.of(3, 2), Exponent.of(3, 2))
        assert p == Exponent.of(3)

    def test_young_with_l1_is_neutral(self):
        assert young_convolution(Exponent.of(1), Exponent.of(7, 2)) == Exponent.of(7, 2)

    def test_young_rejects_inadmissible_pairs(self):
        with pytest.raises(ValueError):
            young_convolution(Exponent.of(3), Exponent.of(4))


class TestKernelSmoothing:
    @pytest.mark.parametrize(
        "N, q, p, expected_e",
        [
            (4, Exponent.of(2), Exponent.of(6), Fraction(2, 3)),
            (5, Exponent.of(5, 3), Exponent.of(50, 11), Fraction(19, 20)),
            (3, Exponent.of(3), Exponent.infinity(), Fraction(1, 2)),
            (3, Exponent.of(117, 100), Exponent.of(58, 11), Fraction(4513, 4524)),
        ],
    )
    def test_frozen_time_exponents(self, N, q, p, expected_e):
        ok, e = kernel_time_integrable(N, q, p)
        assert e == expected_e
        assert ok

    def test_barely_inadmissible(self):
        # e = (3/2)(1 - 1/3) = 1 exactly: not integrable
        ok, e = kernel_time_integrable(3, Exponent.of(1), Exponent.of(3))
        assert e == 1
        assert not ok

    def test_rejects_integrability_loss(self):
        with pytest.raises(ValueError):
            kernel_time_integrable(3, Exponent.of(4), Exponent.of(2))


class TestGNAndPowerMap:
    def test_frozen_interpolation_identity(self):
        # 1/p = 10/39 splits as (1/2)(1/2 - 1/3) + (1/2)(9/26): exactly
        # 10/39 = 1/12 + 81/468
        assert Fraction(10, 39) == Fraction(1, 12) + Fraction(81, 468)
        assert gn_identity_check(3, Exponent.of(39, 10), Exponent.of(26, 9), Fraction(1, 2))

    def test_interpolation_identity_is_exact_not_approximate(self):
        assert not gn_identity_check(3, Exponent.of(4), Exponent.of(26, 9), Fraction(1, 2))

    @pytest.mark.parametrize(
        "p, G, expected",
        [
            (Exponent.of(12), Fraction(3), Exponent.of(4)),
            (Exponent.of(6), Fraction(2), Exponent.of(3)),
            (Exponent.of(39, 10), Fraction(10, 3), Exponent.of(117, 100)),
            (Exponent.of(58, 11), Fraction(10, 3), Exponent.of(87, 55)),
        ],
    )
    def test_power_map_division(self, p, G, expected):
        assert ode_power_map(p, G) == expected

    def test_power_map_needs_enough_integrability(self):
        with pytest.raises(ValueError):
            ode_power_map(Exponent.of(3, 2), Fraction(2))

    @pytest.mark.parametrize(
        "N, kind, expected",
        [
            (3, "spacetime", Exponent.of(5, 2)),
            (1, "spacetime", Exponent.of(3, 2)),
            (4, "space", Exponent.of(2)),
            (5, "space", Exponent.of(5, 2)),
        ],
    )
    def test_thresholds(self, N, kind, expected):
        assert linf_threshold(N, kind) == expected


class TestChains:
    @pytest.mark.parametrize("name", sorted(CHAIN_SCENARIOS))
    def test_every_scenario_reaches_linf(self, name):
        chain = replay_chain(name)
        assert chain.passed, chain.as_dict()
        assert chain.conclusion == "reached-Linf"

    def test_a_failing_chain_names_the_exponent_it_stopped_at(self, monkeypatch):
        from trdlab import bootstrap

        # a threshold above every exponent: quad-N4's L^3 product no longer clears it
        monkeypatch.setattr(bootstrap, "linf_threshold", lambda N, kind: Exponent.of(100))
        chain = replay_chain("quad-N4")
        assert not chain.passed
        assert chain.conclusion == "stuck-at 3"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            replay_chain("quad-N17")

    def test_a3_chain_exceeds_both_thresholds(self):
        chain = replay_chain("A3-lowdim")
        thresholds = [s for s in chain.steps if s.rule.startswith("linf-threshold")]
        assert len(thresholds) == 2
        assert all(s.passed for s in thresholds)
        # the product species ends in L^4 after the exponent division
        assert str([s for s in chain.steps if s.rule == "ode-power-map"][0].output) == "4"

    def test_g103_final_exponent_clears_three_halves(self):
        chain = replay_chain("G103-N3")
        power_steps = [s for s in chain.steps if s.rule == "ode-power-map"]
        assert str(power_steps[-1].output) == "87/55"
        assert Fraction(87, 55) > Fraction(3, 2)

    def test_g103_flags_the_gap_mismatch(self):
        chain = replay_chain("G103-N3")
        assert any("80/27" in note for note in chain.notes)

    def test_quad_n5_intermediate_exponents(self):
        chain = replay_chain("quad-N5")
        outputs = [str(s.output) for s in chain.steps if s.output is not None]
        assert "50/11" in outputs
        assert "25/11" in outputs
        assert "25/3" in outputs

    def test_serialization_is_json_friendly(self):
        import json

        payload = {n: replay_chain(n).as_dict() for n in CHAIN_SCENARIOS}
        text = json.dumps(payload)
        assert "87/55" in text
