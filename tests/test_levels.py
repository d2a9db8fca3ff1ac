"""One batched run over an n list against each n-level run alone: the
levels share only the state array, so every number must agree bit for
bit, and every gate must hold, and breach, per level."""

import math
from dataclasses import replace

import numpy as np
import pytest

import trdlab.stepper as stepper_module
from trdlab.config import parse_config
from trdlab.errors import InvariantBreach
from trdlab.fields import FieldSet
from trdlab.grid import Grid
from trdlab.model import TriangularSystem
from trdlab.presets import PRESETS, preset_config
from trdlab.runner import run_levels
from trdlab.stepper import ModalDiffusion, StepperConfig, diffusion_substep, run

SYS3 = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(1.0, 1.0, 0.0))

GRID_2D = {
    "label": "grid-2d-small",
    "system": {"m": 3, "alpha": [1.0, 1.0, 1.0], "d": [0.0, 1.0, 1.0]},
    "grid": {"lengths": [1.0, 0.75], "cells": [16, 12]},
    "initial": [
        {"kind": "cosine", "base": 1.0, "amplitude": 0.2, "modes": [1, 1]},
        {"kind": "cosine", "base": 1.0, "amplitude": 0.1, "modes": [2, 1]},
        {"kind": "cosine", "base": 0.5, "amplitude": 0.3, "modes": [1, 2]},
    ],
    "stepper": {"dt": 0.01, "splitting": "strang", "record_every": 5},
    "n_values": [10, "inf"],
    "t_final": 0.2,
}

GRID_3D = {
    **GRID_2D,
    "label": "grid-3d-small",
    "grid": {"lengths": [1.0, 0.75, 0.5], "cells": [8, 6, 5]},
    "initial": [
        {"kind": "cosine", "base": 1.0, "amplitude": 0.2, "modes": [1, 1, 1]},
        {"kind": "cosine", "base": 1.0, "amplitude": 0.1, "modes": [1, 1, 1]},
        {"kind": "cosine", "base": 0.5, "amplitude": 0.3, "modes": [1, 1, 1]},
    ],
}


def short_preset(name, splitting):
    """The preset cut to T = 0.2 (10 steps), recording every 4 steps."""
    config = preset_config(name)
    stepper = replace(config.stepper, splitting=splitting, record_every=4)
    return replace(config, stepper=stepper, t_final=0.2)


def assert_same_run(got, alone):
    assert got.final_state.time == alone.final_state.time
    assert got.final_state.step_count == alone.final_state.step_count
    assert got.final_state.fields.values.tobytes() == alone.final_state.fields.values.tobytes()
    assert len(got.records) == len(alone.records) > 1
    for a, b in zip(got.records, alone.records):
        assert [repr(v) for v in a.csv_row()] == [repr(v) for v in b.csv_row()]
    assert got.clamp_count == alone.clamp_count
    assert repr(got.clamp_worst) == repr(alone.clamp_worst)


class TestBatchedEqualsAlone:
    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets(self, name, splitting):
        config = short_preset(name, splitting)
        batched = run_levels(config, config.n_values)
        assert len(batched) == len(config.n_values) == 5
        for n, got in zip(config.n_values, batched):
            assert_same_run(got, run_levels(config, [n])[0])

    @pytest.mark.parametrize("raw", [GRID_2D, GRID_3D], ids=["2d", "3d"])
    def test_strang_two_levels(self, raw):
        config = parse_config(raw)
        batched = run_levels(config, config.n_values)
        assert batched[0].final_state.fields.values.shape == (3,) + config.grid.shape
        for n, got in zip(config.n_values, batched):
            assert_same_run(got, run_levels(config, [n])[0])
        # the levels really differ: the regularization slows n = 10
        assert not np.array_equal(batched[0].final_state.fields.values, batched[1].final_state.fields.values)

    def test_exponents_two_and_one_half_on_a_large_grid(self):
        # two levels of 2,500 cells: the batch is too large for numpy to
        # buffer a broadcast exponent, each level alone is not
        system = TriangularSystem(m=3, alpha=(2.0, 0.5, 1.0), d=(1.0, 0.0, 1.0))
        grid = Grid((1.0,), (2500,))
        x = grid.axis_centers(0)
        vals = np.stack([1.0 + 0.3 * np.cos(math.pi * x), np.full(2500, 0.8), 0.5 + 0.2 * np.cos(2 * math.pi * x)])
        fs = FieldSet(system, grid, vals)
        cfg = StepperConfig(dt=0.01, record_every=2)
        levels = [10.0, math.inf]
        for n, got in zip(levels, run(fs, cfg, levels, t_final=0.04)):
            assert_same_run(got, run(fs, cfg, [n], t_final=0.04)[0])

    def test_clamp_counts_are_per_level(self):
        # the 64-cell point mass: the transform leaves roundoff negatives
        grid = Grid((1.0,), (64,))
        vals = np.ones((3, 64))
        vals[0] = 0.0
        vals[0, 32] = 100.0
        fs = FieldSet(SYS3, grid, vals)
        cfg = StepperConfig(dt=1e-4, record_every=1)
        levels = [1.0, math.inf]
        batched = run(fs, cfg, levels, t_final=3e-4)
        for n, got in zip(levels, batched):
            alone = run(fs, cfg, [n], t_final=3e-4)[0]
            assert alone.clamp_count > 0
            assert_same_run(got, alone)


class TestGatesPerLevel:
    def test_a_breach_at_one_level_names_its_n(self, monkeypatch):
        real = stepper_module._reaction_substep

        def corrupt_n10(fields, n, dt, theta=1.0, work=None):
            out = real(fields, n, dt, theta, work)
            out.values[0, n[:, 0] == 10.0, 3] = -1e-6
            return out

        monkeypatch.setattr(stepper_module, "_reaction_substep", corrupt_n10)
        config = short_preset("df15-a1", "lie")
        with pytest.raises(InvariantBreach) as info:
            run_levels(config, config.n_values)
        assert info.value.kind == "positivity"
        assert info.value.details["n"] == 10.0
        assert "at n=10:" in str(info.value)
        # the other four levels, without n = 10, pass the same gate
        others = [n for n in config.n_values if n != 10.0]
        assert len(run_levels(config, others)) == 4

    def test_residual_threshold_is_each_levels_own(self):
        # a corrupted eigenvalue trips the gate on data of amplitude 1; a
        # second level of amplitude 1e8 must not loosen that level's gate
        grid = Grid((1.0,), (32,))
        lam = grid.laplacian_eigenvalues[0].copy()
        lam[3] *= 1.0 + 1e-2
        grid.__dict__["laplacian_eigenvalues"] = (lam,)
        u = 1.0 + 0.5 * np.cos(3 * math.pi * grid.axis_centers(0))
        vals = np.stack([np.stack([u, np.full(32, 1e8)])] * 3)
        modal = ModalDiffusion(SYS3.d, grid, 0.01, 0.5)
        with pytest.raises(InvariantBreach) as info:
            diffusion_substep(FieldSet(SYS3, grid, vals), modal)
        assert info.value.kind == "linear-solver"
        assert info.value.details["level"] == 0
        # the large level alone passes
        diffusion_substep(FieldSet(SYS3, grid, vals[:, 1:].copy()), modal)
