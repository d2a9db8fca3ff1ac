"""The public value types reject NaN, and infinity where a value must be
finite, with a ValueError whose message starts with the field's name."""

import math

import numpy as np
import pytest

from trdlab.grid import Grid
from trdlab.kernel import KernelSpec
from trdlab.model import TriangularSystem
from trdlab.picard import PointwiseInputs
from trdlab.stepper import StepperConfig


def pointwise(**bad):
    t = np.linspace(0.0, 1.0, 5)
    data = dict(times=t, a_j0=0.2, alpha_j=2.0, offsets=(0.1,), offset_alphas=(1.0,))
    data |= {name: np.ones(5) for name in ("driver_am", "delta1", "delta3")}
    return PointwiseInputs(**(data | bad))


CASES = [
    pytest.param("alpha_j", lambda v: pointwise(alpha_j=v), id="PointwiseInputs.alpha_j"),
    pytest.param("offset_alphas", lambda v: pointwise(offset_alphas=(v,)), id="PointwiseInputs.offset_alphas"),
    pytest.param("dt", lambda v: StepperConfig(dt=v), id="StepperConfig.dt"),
    pytest.param("alpha", lambda v: TriangularSystem(m=3, alpha=(v, 1.0, 1.0), d=(1.0,) * 3), id="TriangularSystem.alpha"),
    pytest.param("d", lambda v: TriangularSystem(m=3, alpha=(1.0,) * 3, d=(1.0, v, 1.0)), id="TriangularSystem.d"),
    pytest.param("d", lambda v: KernelSpec(d=v), id="KernelSpec.d"),
    pytest.param("lengths", lambda v: KernelSpec(d=1.0, lengths=(v,)), id="KernelSpec.lengths"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field, make", CASES)
def test_rejects_non_finite_value_naming_the_field(field, make, bad):
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        make(bad)


# the counts: a float (16.7 cells made 16), a NaN, a bool, a string or a count below 1 is refused
@pytest.mark.parametrize(
    "field, make, bad",
    [
        pytest.param("record_every", lambda v: StepperConfig(dt=0.1, record_every=v), 0, id="record_every=0"),
        pytest.param("record_every", lambda v: StepperConfig(dt=0.1, record_every=v), -1, id="record_every=-1"),
        pytest.param("truncation", lambda v: KernelSpec(d=1.0, truncation=v), 2.5, id="truncation=2.5"),
        pytest.param("truncation", lambda v: KernelSpec(d=1.0, truncation=v), True, id="truncation=True"),
        pytest.param("cells", lambda v: Grid((1.0, 1.0), (8, v)), 16.7, id="cells=16.7"),
        pytest.param("cells", lambda v: Grid((1.0, 1.0), (8, v)), 16.0, id="cells=16.0"),
        pytest.param("cells", lambda v: Grid((1.0, 1.0), (8, v)), math.nan, id="cells=nan"),
        pytest.param("cells", lambda v: Grid((1.0, 1.0), (8, v)), True, id="cells=True"),
        pytest.param("cells", lambda v: Grid((1.0, 1.0), (8, v)), "16", id="cells=str"),
    ],
)
def test_rejects_a_count_that_is_not_an_int_of_at_least_one(field, make, bad):
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        make(bad)


def test_grid_takes_numpy_integer_counts():
    assert Grid((1.0, 1.0), (np.int64(4), 5)).cells == (4, 5)
