"""System definition and degeneracy classification."""

import numpy as np
import pytest

from trdlab.model import DegeneracyClass, TriangularSystem, classify


def three_species(d):
    return TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=d)


class TestTriangularSystem:
    def test_q_counts_reactant_stoichiometry(self):
        sys3 = three_species((1.0, 1.0, 1.0))
        assert sys3.Q == 3.0
        sys4 = TriangularSystem(m=4, alpha=(1.5, 2.0, 1.0, 1.0), d=(0.0, 0.0, 1.0, 1.0))
        assert sys4.Q == 5.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=1, alpha=(1.0,), d=(1.0,)),
            dict(m=3, alpha=(1.0, 1.0), d=(1.0, 1.0, 1.0)),  # wrong alpha length
            dict(m=3, alpha=(1.0, 1.0, 2.0), d=(1.0, 1.0, 1.0)),  # alpha_m != 1
            dict(m=3, alpha=(-1.0, 1.0, 1.0), d=(1.0, 1.0, 1.0)),
            dict(m=3, alpha=(1.0, 1.0, 1.0), d=(1.0, -0.5, 1.0)),
        ],
    )
    def test_constructor_rejects_malformed_systems(self, kwargs):
        with pytest.raises(ValueError):
            TriangularSystem(**kwargs)

    def test_reactant_alpha_excludes_product(self):
        sys4 = TriangularSystem(m=4, alpha=(1.5, 2.0, 1.0, 1.0), d=(0.0, 0.0, 1.0, 1.0))
        np.testing.assert_array_equal(sys4.reactant_alpha, [1.5, 2.0, 1.0])


class TestClassification:
    @pytest.mark.parametrize(
        "d, expected",
        [
            ((1.0, 1.0, 1.0), DegeneracyClass.NON_DEGENERATE),
            ((0.0, 1.0, 1.0), DegeneracyClass.A1),
            ((0.0, 0.0, 1.0), DegeneracyClass.A1),
            ((0.0, 1.0, 0.0), DegeneracyClass.A2),
            ((0.0, 0.0, 0.0), DegeneracyClass.A2),
            ((1.0, 1.0, 0.0), DegeneracyClass.A3),
        ],
    )
    def test_three_species_classes(self, d, expected):
        cls = classify(three_species(d))
        assert cls.degeneracy is expected

    def test_index_sets_partition_species(self):
        cls = classify(three_species((0.0, 1.0, 0.0)))
        assert cls.lambda1 == {1, 3}
        assert cls.lambda2 == {2}
        assert cls.lambda1 | cls.lambda2 == {1, 2, 3}
        assert not cls.lambda1 & cls.lambda2

