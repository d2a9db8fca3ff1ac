"""The study layer: restriction of a fine mesh onto the coarse one, the
checks of every study level before the first runs, the step counts of the
dt levels, and the orders of the sups over the records."""

import math
from dataclasses import replace

import numpy as np
import pytest

from trdlab.errors import ConfigError
from trdlab.grid import Grid
from trdlab.presets import preset_config
from trdlab.runner import _dt_levels, _restrict, dt_order_study, run_levels, study_mesh


@pytest.mark.parametrize("cells", [(4, 3), (3, 2, 2)], ids=["2d", "3d"])
def test_restriction_returns_the_block_constants(cells):
    # dyadic values, so every sum and half below is exact
    rng = np.random.default_rng(3)
    coarse = rng.integers(8, 24, (2, *cells)) / 16.0
    fine = coarse
    for axis in range(1, coarse.ndim):
        fine = fine.repeat(2, axis=axis)
    noise = rng.integers(-4, 5, fine.shape) / 64.0
    blocks = noise.reshape(noise.shape[:1] + sum(((c, 2) for c in cells), ()))
    blocks = blocks - blocks.mean(axis=tuple(range(2, blocks.ndim, 2)), keepdims=True)  # zero mean per block
    assert np.abs(blocks).max() > 0.0
    assert np.array_equal(_restrict(fine + blocks.reshape(fine.shape)), coarse)


def test_a_mesh_level_its_grid_refuses_is_a_config_error_at_the_grid(tmp_path):
    # Grid accepts 2 cells of 2e-154, but at 4 cells (2 / h)^2 overflows
    config = replace(preset_config("df15-a1"), grid=Grid((4e-154,), (2,)))
    with pytest.raises(ConfigError, match=r"^\$\.grid: "):
        study_mesh(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_each_dt_level_takes_twice_the_steps_of_the_one_before():
    # t_final / dt = 3.5, which `run` rounds to 4 steps; halving dt alone gives 7 and 14 steps
    config = replace(preset_config("df15-a1"), t_final=0.07, n_values=(math.inf,))
    configs = _dt_levels(config, "lie", 3)
    assert [run_levels(cfg, (math.inf,))[0].final_state.step_count for cfg in configs] == [4, 8, 16]
    assert dt_order_study(config, "lie")["dt_base"] == 0.07 / 4


# at T = 10 every preset still moves; on df15-a3 the mesh levels agree to roundoff, so its order in h is null
SUP_ORDER_BANDS = {"spatial": (1.8, 2.2), "dt_lie": (0.9, 1.1), "dt_strang": (1.8, 2.2)}


@pytest.fixture(scope="module", params=["df15-a1", "df15-a2", "df15-a3"])
def sup_orders(request, tmp_path_factory):
    """A preset's study-mesh at T = 10: the one sup order of each study."""
    table = study_mesh(replace(preset_config(request.param), t_final=10.0), tmp_path_factory.mktemp("study"))
    return request.param, {study: table[study]["sup_orders"] for study in SUP_ORDER_BANDS}


@pytest.mark.parametrize("study", list(SUP_ORDER_BANDS))
def test_sup_orders_over_the_records_match_the_schemes(sup_orders, study):
    preset, orders = sup_orders
    if (preset, study) == ("df15-a3", "spatial"):
        assert orders[study] == [None]
    else:
        low, high = SUP_ORDER_BANDS[study]
        assert low <= orders[study][0] <= high and len(orders[study]) == 1
