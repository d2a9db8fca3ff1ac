"""The study layer: restriction of a fine mesh onto the coarse one, and
the checks of every study level before the first runs."""

from dataclasses import replace

import numpy as np
import pytest

from trdlab.errors import ConfigError
from trdlab.grid import Grid
from trdlab.presets import preset_config
from trdlab.runner import _restrict, study_mesh


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
    # Grid accepts 2 cells of 1e-154, but at 4 cells 1 / h^2 overflows
    config = replace(preset_config("df15-a1"), grid=Grid((2e-154,), (2,)))
    with pytest.raises(ConfigError, match=r"^\$\.grid: "):
        study_mesh(config, tmp_path / "out")
    assert not (tmp_path / "out").exists()
