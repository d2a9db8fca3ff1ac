"""Splitting integrator: reaction solve, implicit diffusion, and full runs."""

import math
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import oracles
from oracles import constant_state, integrate, laplacian_matrix, reaction_cell_solve
from trdlab.config import build_initial, parse_config
from trdlab.diagnostics import DiagnosticsTracker, entropy
from trdlab.errors import InvariantBreach
from trdlab.fields import FieldSet
from trdlab.grid import Grid
from trdlab.model import TriangularSystem
from trdlab.presets import preset_config
from trdlab.stepper import (
    ModalDiffusion,
    SimulationState,
    StepperConfig,
    _rate_at,
    _reaction_substep,
    _residual,
    _solve_reaction_newton,
    diffusion_substep,
    run,
    step,
    time_steps,
)

SYS3 = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(1.0, 1.0, 0.0))
SYS2 = TriangularSystem(m=2, alpha=(1.0, 1.0), d=(1.0, 1.0))


class TestReactionCellSolve:
    def test_equilibrium_cell_is_a_fixed_point(self):
        out = reaction_cell_solve(SYS3, math.inf, np.array([2.0, 3.0, 6.0]), dt=10.0)
        np.testing.assert_allclose(out, [2.0, 3.0, 6.0], atol=1e-10)

    def test_two_species_linear_closed_form(self):
        # m=2, cell (1,1): x' = (2 - x) - x, so x(t) = 1 and stays there;
        # from (1.5, 0.5): sigma = 2, x(t) = 1 - 0.5 e^{-2t}
        state = np.array([1.5, 0.5])
        dt, t_final = 1e-4, 1.0
        for _ in range(round(t_final / dt)):
            state = reaction_cell_solve(SYS2, math.inf, state, dt)
        expected = 1.0 - 0.5 * math.exp(-2.0 * t_final)
        assert state[1] == pytest.approx(expected, abs=5e-4)

    def test_sigma_conserved_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cell = rng.uniform(0.0, 5.0, size=3)
            out = reaction_cell_solve(SYS3, math.inf, cell, dt=0.37)
            sigma = cell[:2] + cell[2]
            # the solve stores fl(sigma - a_m); adding a_m back lands within one ulp
            np.testing.assert_array_equal(out[:2], sigma - out[2])
            assert np.all(np.abs(out[:2] + out[2] - sigma) <= np.spacing(sigma))

    def test_output_stays_in_the_invariant_box(self):
        rng = np.random.default_rng(5)
        for dt in (1e-3, 0.1, 10.0):
            for _ in range(20):
                cell = rng.uniform(0.0, 8.0, size=3)
                out = reaction_cell_solve(SYS3, math.inf, cell, dt)
                assert np.all(out >= 0.0)
                assert out[2] <= min(cell[0] + cell[2], cell[1] + cell[2]) + 1e-12

    def test_quadratic_equilibrium_root(self):
        # sigma = (2, 2): long-time limit of a_m is the root of (2-x)^2 = x
        state = np.array([2.0, 2.0, 0.0])
        for _ in range(300):
            state = reaction_cell_solve(SYS3, math.inf, state, dt=0.1)
        assert state[2] == pytest.approx(1.0, abs=1e-8)

    def test_regularized_rates_slow_the_dynamics(self):
        cell = np.array([2.0, 2.0, 0.0])
        fast = reaction_cell_solve(SYS3, math.inf, cell, dt=0.1)
        slow = reaction_cell_solve(SYS3, 1.0, cell, dt=0.1)
        assert 0.0 < slow[2] < fast[2]

    def test_rejects_negative_cell(self):
        with pytest.raises(ValueError):
            reaction_cell_solve(SYS3, math.inf, np.array([-0.1, 1.0, 1.0]), 0.1)


CELLS = 4


@st.composite
def reaction_problems(draw):
    """A reaction substep on CELLS cells: spectator (zero) or non-integer
    exponents, concentrations in [0, 5] (vacuum included), so a random
    sigma_j = a_j + a_m per reactant and cell, and a random dt, theta and
    regularization level."""
    m = draw(st.integers(2, 4))
    exponent = st.one_of(st.just(0.0), st.floats(0.1, 3.0).filter(lambda a: a != int(a)))
    alpha = tuple(draw(exponent) for _ in range(m - 1)) + (1.0,)
    vals = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=m * CELLS, max_size=m * CELLS))).reshape(m, CELLS)
    dt = draw(st.floats(1e-4, 10.0))
    theta = draw(st.sampled_from([1.0, 0.5]))
    n = draw(st.sampled_from([1.0, 100.0, math.inf]))
    return TriangularSystem(m=m, alpha=alpha, d=(0.0,) * m), vals, dt, theta, n


class TestReactionSolveProperties:
    @given(reaction_problems())
    @settings(max_examples=300, deadline=None)
    def test_conserves_sigma_and_lands_on_a_root_in_the_box(self, problem):
        system, vals, dt, theta, n = problem
        m, alpha, Q = system.m, system.reactant_alpha, system.Q
        sigma, x0 = vals[:-1] + vals[-1], vals[-1]
        x, clamped = _solve_reaction_newton(x0, sigma, alpha, m, Q, n, dt, theta=theta)
        hi = sigma.min(axis=0)
        assert np.all((0.0 <= x) & (x <= hi))

        # the substep keeps sigma and moves only x: its reactant rows are
        # sigma - x and its product row is x, bit for bit, so a pair sum
        # a_j + a_m is sigma_j up to the rounding of that one subtraction
        out = _reaction_substep(FieldSet(system, Grid((1.0,), (CELLS,)), vals), n, dt, theta)
        np.testing.assert_array_equal(out.values[-1], x)
        np.testing.assert_array_equal(out.values[:-1], sigma - x)
        assert np.all(np.abs(out.values[:-1] + out.values[-1] - sigma) <= np.spacing(sigma))

        # where the bracket did not clamp, x is a root of the theta-scheme
        # residual: within the solver's tolerance, or, where the slope times
        # one ulp of x exceeds that tolerance, the closest float to a sign change
        g0 = _rate_at(x0, sigma, alpha, m, Q, n)[0] if theta < 1.0 else 0.0
        args = (x0, sigma, alpha, m, Q, n, dt, theta, g0)
        r = _residual(x, *args)[0]
        below = _residual(np.nextafter(x, -np.inf), *args)[0]
        above = _residual(np.nextafter(x, np.inf), *args)[0]
        converged = np.abs(r) <= 1e-14 * (1.0 + np.abs(x0) + dt)
        sign_change = (np.minimum(below, above) <= 0.0) & (np.maximum(below, above) >= 0.0)
        assert np.all(clamped | converged | sign_change)

        # the merged rate law: the orbit form is -g of kinetics at (sigma - x, x)
        g = oracles.rate_g(system, n, np.concatenate([sigma - x, x[None]]))
        np.testing.assert_allclose(_rate_at(x, sigma, alpha, m, Q, n)[0], -g, rtol=1e-12, atol=1e-12)


    def test_cell_below_double_precision_resolution_stops_at_a_one_ulp_bracket(self, monkeypatch):
        # beside its vanishing factor (sigma_1 - x ~ 5e-9, exponent 0.135)
        # the residual's slope times one ulp of x exceeds the solver's
        # tolerance; without a stop rule this one cell ran all 200 iterations
        import trdlab.stepper as stepper_module

        system = TriangularSystem(m=3, alpha=(0.135, 2.71, 1.0), d=(0.0, 0.0, 0.0))
        sigma = np.stack([np.full(128, 1.0), np.full(128, 2.0)])
        x0 = np.full(128, 0.5)
        sigma[:, 0], x0[0] = (0.795, 4.118), 0.792
        calls = []
        real = stepper_module._residual
        monkeypatch.setattr(stepper_module, "_residual", lambda *a: calls.append(1) or real(*a))
        alpha, Q, dt = system.reactant_alpha, system.Q, 0.0019
        x, clamped = _solve_reaction_newton(x0, sigma, alpha, 3, Q, math.inf, dt)
        # every evaluation goes through _residual: the stacked one for the
        # bracket ends and the start, then at least one in the loop
        assert 2 <= len(calls) <= 64
        assert not clamped.any()
        args = (x0[:1], sigma[:, :1], alpha, 3, Q, math.inf, dt, 1.0, 0.0)
        below, above = (real(np.nextafter(x[:1], to), *args)[0][0] for to in (-np.inf, np.inf))
        r = real(x[:1], *args)[0][0]
        assert min(below, r) <= 0.0 <= max(r, above)


ORACLE_CELLS = 8


@st.composite
def oracle_problems(draw, path):
    """`reaction_problems` on ORACLE_CELLS cells, extended: a draw on one
    path of the solve, "backward-euler" (theta = 1, every exponent > 0,
    unit and integer ones included), "spectator" (theta = 1, some exponent
    0) or "trapezoidal" (theta = 1/2); n a scalar, an all-inf array or a
    per-cell mix; and vacuum cells, wholly or in one species."""
    m = draw(st.integers(2, 4))
    positive = st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.1, 3.0))
    exponent = positive if path == "backward-euler" else st.one_of(st.just(0.0), positive)
    alpha = [draw(exponent) for _ in range(m - 1)]
    if path == "spectator":
        alpha[draw(st.integers(0, m - 2))] = 0.0
    cells = ORACLE_CELLS * m
    vals = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=cells, max_size=cells))).reshape(m, ORACLE_CELLS)
    for c in draw(st.lists(st.integers(0, ORACLE_CELLS - 1), max_size=3)):
        vals[:, c] = 0.0
    for c in draw(st.lists(st.integers(0, ORACLE_CELLS - 1), max_size=3)):
        vals[draw(st.integers(0, m - 1)), c] = 0.0
    levels = st.sampled_from([1.0, 10.0, math.inf])
    n = draw(st.one_of(
        st.sampled_from([1.0, 100.0, math.inf]),
        st.just(np.full(ORACLE_CELLS, math.inf)),
        st.lists(levels, min_size=ORACLE_CELLS, max_size=ORACLE_CELLS).map(np.array),
    ))
    dt = draw(st.floats(1e-4, 10.0))
    system = TriangularSystem(m=m, alpha=tuple(alpha) + (1.0,), d=(0.0,) * m)
    return system, vals, dt, 0.5 if path == "trapezoidal" else 1.0, n


class TestReactionSolveOracle:
    """The solve with its shortcuts and work arrays against the solve
    without them (`oracles._solve_reaction_newton`), bit for bit."""

    @pytest.mark.parametrize("path", ["backward-euler", "spectator", "trapezoidal"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_unshortcut_solve_bit_for_bit(self, path, data):
        system, vals, dt, theta, n = data.draw(oracle_problems(path))
        sigma, x0 = vals[:-1] + vals[-1], vals[-1]
        args = (x0, sigma, system.reactant_alpha, system.m, system.Q, n, dt, theta)
        x_ref, clamped_ref = oracles._solve_reaction_newton(*args)
        work = {}
        for _ in range(2):  # fresh work arrays, then the same ones again
            x, clamped = _solve_reaction_newton(*args, work)
            assert x.tobytes() == x_ref.tobytes()
            assert clamped.tobytes() == clamped_ref.tobytes()
        if path == "backward-euler":
            assert not clamped.any()

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_one_work_dict_serves_solves_of_finite_and_infinite_n(self, data):
        # as one dict serves a run's blocks of a size, level-major: g0 is g's row
        # where some n is finite, net's where every n is inf, and the loop reads it
        work = {}
        for path, n in [("trapezoidal", 10.0), ("trapezoidal", math.inf), ("spectator", 10.0), ("trapezoidal", math.inf),
                        ("trapezoidal", 10.0)]:
            system, vals, dt, theta, _ = data.draw(oracle_problems(path))
            args = (vals[-1], vals[:-1] + vals[-1], system.reactant_alpha, system.m, system.Q, n, dt, theta)
            x_ref, clamped_ref = oracles._solve_reaction_newton(*args)
            x, clamped = _solve_reaction_newton(*args, work)
            assert x.tobytes() == x_ref.tobytes()
            assert clamped.tobytes() == clamped_ref.tobytes()

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_one_workspace_serves_blocks_of_finite_mixed_and_infinite_n(self, theta):
        # as a run's blocks of one size take them, with the m4 preset's exponents 1.5 and 2.0: the arrays are
        # bound once, and each block's n and inputs overwrite what the one before left in them
        alpha, cells, work, workspace = np.array([1.5, 2.0, 1.0]), 2 * ORACLE_CELLS, {}, None
        rng = np.random.default_rng(22)
        levels = (np.full(cells, 10.0), np.repeat([1.0, math.inf], ORACLE_CELLS), np.full(cells, math.inf))
        for dt in (0.05, 5.0):
            for n in levels:
                vals = rng.uniform(0.0, 3.0, size=(4, cells))
                vals[:, 0], vals[rng.integers(3), 1] = 0.0, 0.0  # vacuum, wholly and in one species
                args = (vals[-1], vals[:-1] + vals[-1], alpha, 4, 1.0 + alpha.sum(), n, dt, theta)
                x_ref, clamped_ref = oracles._solve_reaction_newton(*args)
                x, clamped = _solve_reaction_newton(*args, work)
                assert x.tobytes() == x_ref.tobytes()
                assert clamped.tobytes() == clamped_ref.tobytes()
                workspace = workspace or work[cells]
                assert work[cells] is workspace and x is workspace.x

    def test_a_run_steps_as_the_unshortcut_solve_does(self, monkeypatch):
        # every shortcut at work in a run: Lie and Strang, finite and infinite n
        import trdlab.stepper as stepper_module

        system = TriangularSystem(m=3, alpha=(0.5, 2.0, 1.0), d=(1.0, 0.5, 0.0))
        grid = Grid((1.0,), (64,))
        x = grid.centers()[0]
        initial = FieldSet(system, grid, np.stack([1.0 + 0.5 * np.cos(math.pi * x), np.full_like(x, 0.5), 0.2 + x]))
        levels = [1.0, math.inf]
        for splitting in ("lie", "strang"):
            config = StepperConfig(dt=0.05, splitting=splitting)
            fast = run(initial, config, levels, t_final=0.5)
            with monkeypatch.context() as patch:
                patch.setattr(stepper_module, "_solve_reaction_newton", lambda *a: oracles._solve_reaction_newton(*a[:8]))
                slow = run(initial, config, levels, t_final=0.5)
            for a, b in zip(fast, slow):
                assert a.final_state.fields.values.tobytes() == b.final_state.fields.values.tobytes()


@st.composite
def start_bound_edges(draw):
    """Trapezoidal problems at the edges of the start's bound on ORACLE_CELLS
    cells: theta = 1/2, every exponent in (0, 3], n in {1, 10, inf} (scalar
    or per cell), near-vacuum reactants, and dt up to 10, drawn to put one
    cell's upper or lower end residual within a few ulps of 0 where such a
    dt exists."""
    m = draw(st.integers(2, 4))
    alpha = np.array([draw(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.05, 3.0))) for _ in range(m - 1)])
    x0 = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=ORACLE_CELLS, max_size=ORACLE_CELLS)))
    reactants = draw(st.lists(st.lists(st.one_of(st.floats(0.0, 5.0), st.integers(1, 300).map(lambda k: 10.0**-k)),
                                       min_size=ORACLE_CELLS, max_size=ORACLE_CELLS), min_size=m - 1, max_size=m - 1))
    sigma = np.array(reactants) + x0
    levels = st.sampled_from([1.0, 10.0, math.inf])
    n = draw(st.one_of(levels, st.lists(levels, min_size=ORACLE_CELLS, max_size=ORACLE_CELLS).map(np.array)))
    # the dt that zeroes r = (end - x0) - dt (g(end) + g0) / 2 in cell c, nudged by a few ulps
    c, upper = draw(st.integers(0, ORACLE_CELLS - 1)), draw(st.booleans())
    n_c = n if np.ndim(n) == 0 else n[c : c + 1]
    end = sigma[:, c].min() if upper else 0.0
    Q = 1.0 + float(alpha.sum())  # as TriangularSystem.Q
    g_end, g0 = (_rate_at(np.array([v]), sigma[:, c : c + 1], alpha, m, Q, n_c)[0][0] for v in (end, x0[c]))
    dt = (end - x0[c]) / (0.5 * g_end + 0.5 * g0) if 0.5 * g_end + 0.5 * g0 != 0.0 else math.nan
    if 0.0 < dt <= 10.0:
        for _ in range(abs(ulps := draw(st.integers(-4, 4)))):
            dt = float(np.nextafter(dt, math.copysign(math.inf, ulps)))
    else:
        dt = draw(st.floats(1e-4, 10.0))
    return x0, sigma, alpha, m, Q, n, dt


class TestReactionStartBound:
    """Under the trapezoidal rule the ends are evaluated only on the cells
    that the start's own numbers cannot clear."""

    @given(start_bound_edges())
    @settings(max_examples=250, deadline=None)
    def test_matches_the_unshortcut_solve_at_the_bound_edges(self, problem):
        x0, sigma, alpha, m, Q, n, dt = problem
        args = (x0, sigma, alpha, m, Q, n, dt, 0.5)
        with np.errstate(all="ignore"):
            x_ref, clamped_ref = oracles._solve_reaction_newton(*args)
        x, clamped = _solve_reaction_newton(*args)
        assert x.tobytes() == x_ref.tobytes()
        assert clamped.tobytes() == clamped_ref.tobytes()

    @staticmethod
    def stacked_calls(monkeypatch, *args):
        """The solve of `args`, with the shapes of x in every residual call that evaluates a stack of bracket ends."""
        import trdlab.stepper as stepper_module

        shapes, real = [], stepper_module._residual
        monkeypatch.setattr(stepper_module, "_residual", lambda x, *a: shapes.append(x.shape) or real(x, *a))
        result = _solve_reaction_newton(*args)
        return result, [shape for shape in shapes if shape != args[0].shape]

    def test_a_block_with_no_candidate_evaluates_no_end(self, monkeypatch):
        # a grid-2d-like block: unit exponents, no vacuum, a short trapezoidal step
        grid = Grid((1.0, 1.0), (32, 32))
        x, y = grid.centers()
        a1, a2 = 1.0 + 0.2 * np.cos(math.pi * x), 1.0 + 0.1 * np.cos(2 * math.pi * y)
        x0 = (0.5 + 0.3 * np.cos(math.pi * x) * np.cos(2 * math.pi * y)).ravel()
        sigma = np.stack([a1.ravel(), a2.ravel()]) + x0
        for n in (10.0, math.inf):
            (x_new, clamped), stacked = self.stacked_calls(monkeypatch, x0, sigma, np.ones(2), 3, 3.0, n, 0.01, 0.5)
            assert stacked == [] and not clamped.any()
            x_ref, _ = oracles._solve_reaction_newton(x0, sigma, np.ones(2), 3, 3.0, n, 0.01, 0.5)
            assert x_new.tobytes() == x_ref.tobytes()

    def test_only_the_open_cells_evaluate_their_ends(self, monkeypatch):
        # the middle cell's trapezoidal overshoot clamps it at min sigma; the outer ones, at equilibrium (g0 = 0),
        # are cleared
        x0, sigma = np.array([1.0, 0.0, 1.0]), np.array([[2.0, 1e-4, 3.0], [2.0, 2.0, 1.5]])
        (x, clamped), stacked = self.stacked_calls(monkeypatch, x0, sigma, np.ones(2), 3, 3.0, math.inf, 5.0, 0.5)
        assert stacked == [(2, 1)] and clamped.tolist() == [False, True, False] and x[1] == 1e-4

    def test_a_spectator_evaluates_every_end(self, monkeypatch):
        x0, sigma = np.array([0.5, 0.0, 1.0]), np.array([[1.5, 1e-4, 2.0], [1.5, 2.0, 2.0]])
        _, stacked = self.stacked_calls(monkeypatch, x0, sigma, np.array([0.0, 1.0]), 3, 2.0, math.inf, 0.1, 1.0)
        assert stacked == [(2, 3)]


class TestBlockedReactionSubstep:
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_blocks_equal_one_whole_array_solve(self, monkeypatch, theta):
        # two levels of 64 x 70 cells: 8,960 cells, three blocks, the last partial
        import trdlab.stepper as stepper_module

        system = TriangularSystem(m=3, alpha=(0.135, 2.71, 1.0), d=(0.0, 0.0, 0.0))
        grid = Grid((1.0, 1.0), (64, 70))
        vals = np.random.default_rng(8).uniform(0.0, 3.0, size=(3, 2, 64, 70))
        # in the second level, so in the last block: the cell below double
        # precision resolution, and a cell whose trapezoidal residual has no
        # sign change in its bracket
        vals[:, 1, 60, 5] = (0.795 - 0.792, 4.118 - 0.792, 0.792)
        vals[:, 1, 63, 69] = (1e-4, 2.0, 0.0)
        n = np.array([10.0, math.inf]).reshape(2, 1, 1)
        dt, alpha, Q = 0.0019, system.reactant_alpha, system.Q
        sigma = vals[:-1] + vals[-1]
        x, clamped = _solve_reaction_newton(vals[-1], sigma, alpha, 3, Q, n, dt, theta)

        blocks = []
        real = stepper_module._solve_reaction_newton
        monkeypatch.setattr(stepper_module, "_solve_reaction_newton", lambda *a: blocks.append(real(*a)) or blocks[-1])
        out = _reaction_substep(FieldSet(system, grid, vals), n, dt, theta)
        sizes = [b[0].size for b in blocks]
        assert len(sizes) >= 3 and sum(sizes) == x.size and sizes[-1] < sizes[0]
        assert out.values[-1].tobytes() == x.tobytes()
        assert out.values[:-1].tobytes() == (sigma - x).tobytes()
        assert np.concatenate([b[1] for b in blocks]).tobytes() == clamped.tobytes()
        # theta = 1/2 clamps both cells at their upper bracket end
        assert clamped[1, 63, 69] == clamped[1, 60, 5] == (theta == 0.5)
        if theta == 1.0:
            # the first cell stopped at a one-ulp bracket short of the tolerance
            args = (vals[-1, 1, 60, 5:6], sigma[:, 1, 60, 5:6], alpha, 3, Q, math.inf, dt)
            at = x[1, 60, 5:6]
            r, below, above = (_residual(v, *args)[0][0] for v in (at, np.nextafter(at, -1.0), np.nextafter(at, 9.0)))
            assert abs(r) > 1e-14 * (1.0 + 0.792 + dt)
            assert min(below, r) <= 0.0 <= max(r, above)


class TestDiffusionSubstep:
    def test_constant_fields_unchanged(self):
        grid = Grid((1.0,), (32,))
        fs = constant_state(SYS3, grid, (1.0, 2.0, 3.0))
        out = diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, 0.1))
        # exact up to the sparse solver's roundoff
        np.testing.assert_allclose(out.values, fs.values, rtol=0.0, atol=1e-13)

    def test_cosine_mode_decay_factor(self):
        grid = Grid((1.0,), (64,))
        h = grid.h[0]
        x = grid.axis_centers(0)
        u = 1.0 + 0.25 * np.cos(math.pi * x)
        fs = FieldSet(SYS3, grid, np.stack([u, np.ones(64), np.ones(64)]))
        dt = 0.01
        out = diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, dt))
        lam = (2.0 - 2.0 * math.cos(math.pi * h)) / h**2  # discrete eigenvalue
        expected = 1.0 + 0.25 / (1.0 + dt * lam) * np.cos(math.pi * x)
        np.testing.assert_allclose(out.values[0], expected, atol=1e-10)

    def test_mass_conserved(self):
        grid = Grid((1.0, 1.0), (12, 10))
        rng = np.random.default_rng(2)
        vals = rng.uniform(0.5, 2.0, size=(3,) + grid.shape)
        fs = FieldSet(SYS3, grid, vals)
        out = diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, 0.05))
        for i in (1, 2):
            before = integrate(grid, fs.values[i - 1])
            after = integrate(grid, out.values[i - 1])
            assert after == pytest.approx(before, rel=1e-10)

    def test_degenerate_species_untouched(self):
        grid = Grid((1.0,), (16,))
        rng = np.random.default_rng(9)
        vals = rng.uniform(0.0, 1.0, size=(3, 16))
        fs = FieldSet(SYS3, grid, vals.copy())
        out = diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, 0.3))
        np.testing.assert_array_equal(out.values[2], vals[2])  # d_3 = 0

    def test_positivity_preserved(self):
        grid = Grid((1.0,), (64,))
        vals = np.zeros((3, 64))
        vals[0, 32] = 100.0  # near-point mass
        vals[1] = 1.0
        vals[2] = 1.0
        out = diffusion_substep(FieldSet(SYS3, grid, vals), ModalDiffusion(SYS3.d, grid, 1e-4))
        assert out.values.min() >= 0.0

    def test_crank_nicolson_is_second_order_on_one_mode(self):
        grid = Grid((1.0,), (64,))
        h = grid.h[0]
        x = grid.axis_centers(0)
        u = 1.0 + 0.25 * np.cos(math.pi * x)
        fs = FieldSet(SYS3, grid, np.stack([u, np.ones(64), np.ones(64)]))
        lam = (2.0 - 2.0 * math.cos(math.pi * h)) / h**2
        dt = 0.01
        out = diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, dt, 0.5))
        factor = (1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)
        expected = 1.0 + 0.25 * factor * np.cos(math.pi * x)
        np.testing.assert_allclose(out.values[0], expected, atol=1e-10)


# distinct diffusivities, so one substep covers several values of dt * d;
# the diffusing species are contiguous in one system and not in the other
SYS_D = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.5, 2.0, 0.0))
SYS_GAP = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.5, 0.0, 2.0))
ORACLE_GRIDS = [Grid((1.0,), (32,)), Grid((1.0, 1.0), (12, 12)), Grid((1.0, 2.0), (12, 10))]


def dense_theta_step(grid, u, c, theta):
    """(I - theta c L) sol = (I + (1 - theta) c L) u by a dense solve."""
    lap = laplacian_matrix(grid).toarray()
    eye = np.eye(lap.shape[0])
    rhs = (eye + (1.0 - theta) * c * lap) @ u.ravel()
    return np.linalg.solve(eye - theta * c * lap, rhs).reshape(grid.shape)


class TestDiffusionOracle:
    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("dt", [1e-3, 0.05, 1.0])
    @pytest.mark.parametrize("system", [SYS_D, SYS_GAP], ids=["contiguous", "gap"])
    def test_matches_dense_solve(self, grid, theta, dt, system):
        # rough data well away from zero: at large dt * d / h^2 Crank-Nicolson
        # flips the sign of the rough modes, and a negative output would
        # (rightly) raise a positivity breach
        vals = np.random.default_rng(7).uniform(1.0, 3.0, size=(3,) + grid.shape)
        out = diffusion_substep(FieldSet(system, grid, vals.copy()), ModalDiffusion(system.d, grid, dt, theta))
        tol = 1e-12 * (1.0 + np.abs(vals).max())
        for i, d in enumerate(system.d):
            if d == 0.0:
                np.testing.assert_array_equal(out.values[i], vals[i])
            else:
                expected = dense_theta_step(grid, vals[i], dt * d, theta)
                np.testing.assert_allclose(out.values[i], expected, rtol=0.0, atol=tol)

    def test_no_diffusing_species_is_the_identity(self):
        frozen = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.0, 0.0, 0.0))
        vals = np.random.default_rng(2).uniform(size=(3, 8))
        grid = Grid((1.0,), (8,))
        out = diffusion_substep(FieldSet(frozen, grid, vals.copy()), ModalDiffusion(frozen.d, grid, 0.1))
        np.testing.assert_array_equal(out.values, vals)

    def test_2d_point_mass_stays_nonnegative(self):
        grid = Grid((1.0, 1.0), (32, 32))
        vals = np.ones((3,) + grid.shape)
        vals[0] = 0.0
        vals[0, 16, 16] = 100.0
        fs = FieldSet(SYS3, grid, vals)
        out = diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, 1e-4))
        assert out.values.min() >= 0.0
        assert integrate(grid, out.values[0]) == pytest.approx(integrate(grid, fs.values[0]), rel=1e-12)

    def test_roundoff_negatives_are_clamped_and_counted(self):
        grid = Grid((1.0,), (64,))
        vals = np.ones((3, 64))
        vals[0] = 0.0
        vals[0, 32] = 100.0
        modal = ModalDiffusion(SYS3.d, grid, 1e-4)
        out = diffusion_substep(FieldSet(SYS3, grid, vals), modal)
        assert out.values.min() >= 0.0
        assert modal.clamp_count == np.count_nonzero(out.values[0] == 0.0) > 0
        assert -StepperConfig.positivity_tol <= modal.clamp_worst < 0.0

    def test_run_reports_the_substep_clamps(self):
        grid = Grid((1.0,), (64,))
        vals = np.ones((3, 64))
        vals[0] = 0.0
        vals[0, 32] = 100.0
        result = run(FieldSet(SYS3, grid, vals), StepperConfig(dt=1e-4), [math.inf], t_final=1e-4)[0]
        assert result.clamp_count > 0
        assert -1e-12 <= result.clamp_worst < 0.0

    def test_the_clamp_tally_is_what_every_positivity_check_saw(self, monkeypatch):
        import trdlab.stepper as stepper_module

        real, seen = stepper_module._clamp_positivity, []

        def spy(fields, modal):
            total, counts, worst = real(fields, modal)
            seen.append((counts.copy(), worst.copy()))
            return total, counts, worst

        monkeypatch.setattr(stepper_module, "_clamp_positivity", spy)
        grid = Grid((1.0,), (64,))
        vals = np.ones((3, 64))
        vals[0] = 0.0
        vals[0, 32] = 100.0
        levels = [1.0, math.inf]
        cfg = StepperConfig(dt=1e-4, splitting="strang")
        results = run(FieldSet(SYS3, grid, vals), cfg, levels, t_final=3e-4)
        assert len(seen) == 1 + 3 * 3  # the initial state, then two half diffusions and the step's end per step
        for b, result in enumerate(results):
            assert result.clamp_count == sum(int(counts[b]) for counts, _ in seen) > 0
            assert repr(result.clamp_worst) == repr(min(float(worst[b]) for _, worst in seen))
            assert result.clamp_worst < 0.0

    def test_large_negative_input_still_breaches(self):
        grid = Grid((1.0,), (16,))
        vals = np.ones((3, 16))
        vals[0] = 0.0
        vals[0, 3] = -1e-6
        with pytest.raises(InvariantBreach) as info:
            diffusion_substep(FieldSet(SYS3, grid, vals), ModalDiffusion(SYS3.d, grid, 1e-4))
        assert info.value.kind == "positivity"

    # the last case is the grid-2d benchmark's Strang half step (dt = 0.01,
    # d = 1), where the operator norm 1 + max|c lambda| is about 656
    @pytest.mark.parametrize(
        "lengths, cells, rel, dt",
        [((1.0,), (32,), 1e-2, 0.01), ((1.0, 2.0), (12, 10), 1e-2, 0.01), ((1.0, 1.0), (128, 128), 1e-6, 0.005)],
    )
    def test_corrupted_eigenvalue_trips_the_residual_gate(self, lengths, cells, rel, dt):
        grid = Grid(lengths, cells)  # its own instance: the cached table is overwritten
        lam = [v.copy() for v in grid.laplacian_eigenvalues]
        lam[0][3] *= 1.0 + rel
        grid.__dict__["laplacian_eigenvalues"] = tuple(lam)
        x = grid.axis_centers(0).reshape((-1,) + (1,) * (grid.dimension - 1))
        u = np.broadcast_to(1.0 + 0.5 * np.cos(3 * math.pi * x), grid.shape)
        fs = FieldSet(SYS3, grid, np.stack([u, u, u]))
        with pytest.raises(InvariantBreach) as info:
            diffusion_substep(fs, ModalDiffusion(SYS3.d, grid, dt, 0.5))
        assert info.value.kind == "linear-solver"

    def test_corrupted_mode_zero_trips_the_mass_guard(self):
        grid = Grid((1.0,), (16,))
        lam = grid.laplacian_eigenvalues[0].copy()
        lam[0] = -1e-9
        grid.__dict__["laplacian_eigenvalues"] = (lam,)
        with pytest.raises(InvariantBreach) as info:
            ModalDiffusion(SYS3.d, grid, 0.01)
        assert info.value.kind == "linear-solver"

    @pytest.mark.parametrize("cells", [2048, 8192])
    def test_fine_crank_nicolson_grid_passes_the_gate(self, cells):
        # c max|lambda| ~ 8e4 and 1.3e6: the transform's roundoff, amplified
        # by the stencil, must stay inside the gate's roundoff allowance
        grid = Grid((1.0,), (cells,))
        x = grid.axis_centers(0)
        vals = np.stack([1.0 + 0.3 * np.cos(math.pi * x), 0.5 + 0.2 * np.cos(2 * math.pi * x), x])
        out = diffusion_substep(FieldSet(SYS3, grid, vals), ModalDiffusion(SYS3.d, grid, 0.01, 0.5))
        factor = (1.0 - 0.005 * math.pi**2) / (1.0 + 0.005 * math.pi**2)
        np.testing.assert_allclose(out.values[0], 1.0 + 0.3 * factor * np.cos(math.pi * x), atol=1e-5)


class TestStepAndRun:
    def _constant_setup(self, data=(2.0, 2.0, 0.0), cells=8):
        grid = Grid((1.0,), (cells,))
        return constant_state(SYS3, grid, data)

    def test_zero_data_is_a_fixed_point(self):
        grid = Grid((1.0,), (16,))
        fs = constant_state(SYS3, grid, (0.0, 0.0, 0.0))
        result = run(fs, StepperConfig(dt=0.05), [math.inf], t_final=1.0)[0]
        np.testing.assert_array_equal(result.final_state.fields.values, 0.0)

    def test_time_steps_round_the_ratio_and_refuse_one_past_every_float(self):
        assert time_steps(0.0, 0.05) == (0, 0.05)
        assert time_steps(1.0, 0.3) == (3, 1.0 / 3)
        assert time_steps(0.01, 1.0) == (1, 0.01)  # at least one step
        with pytest.raises(ValueError, match="past every float"):
            time_steps(1e300, 1e-10)

    def test_t_final_zero_returns_initial(self):
        fs = self._constant_setup()
        result = run(fs, StepperConfig(dt=0.05), [math.inf], t_final=0.0)[0]
        assert result.final_state.time == 0.0
        np.testing.assert_array_equal(result.final_state.fields.values, fs.values)

    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    def test_a_vanished_reactant_and_product_leave_only_diffusion(self, splitting):
        # criterion 8's spatial scenario: sigma_1 = a_1 + a_4 = 0 brackets the reaction extent in [0, 0]
        config = oracles.at_rest_config(splitting)
        initial = build_initial(config)
        result = run(initial, config.stepper, [math.inf], config.t_final)[0]
        n_steps = round(config.t_final / config.stepper.dt)
        theta, substeps = (0.5, 2) if splitting == "strang" else (1.0, 1)
        modal = ModalDiffusion(initial.system.d, initial.grid, theta * (config.t_final / n_steps), theta)
        fields = initial
        for _ in range(substeps * n_steps):
            fields = diffusion_substep(fields, modal)
        assert result.final_state.step_count == n_steps
        assert result.final_state.fields.values.tobytes() == fields.values.tobytes()

    def test_constant_run_matches_ode_oracle(self):
        # spatially constant data: the full scheme reduces to the cell ODE
        fs = self._constant_setup((1.0, 2.0, 0.5))
        dt = 0.005
        result = run(fs, StepperConfig(dt=dt), [math.inf], t_final=2.0)[0]

        def rhs(t, y):
            g = y[2] * 0 + (y[2] - y[0] * y[1])
            return [g, g, -g]

        sol = solve_ivp(rhs, (0, 2.0), [1.0, 2.0, 0.5], rtol=1e-10, atol=1e-12)
        final = result.final_state.fields.values[:, 0]
        np.testing.assert_allclose(final, sol.y[:, -1], atol=5.0 * dt)

    def test_entropy_monotone_along_run(self):
        grid = Grid((1.0,), (32,))
        x = grid.axis_centers(0)
        vals = np.stack(
            [1.0 + 0.5 * np.cos(math.pi * x), 1.0 - 0.5 * np.cos(math.pi * x), 0.2 + 0 * x]
        )
        fs = FieldSet(SYS3, grid, vals)
        result = run(fs, StepperConfig(dt=0.01, record_every=5), [math.inf], t_final=2.0)[0]
        entropies = [r.entropy for r in result.records]
        assert all(b <= a + 1e-10 for a, b in zip(entropies[:-1], entropies[1:]))
        assert entropies[-1] < entropies[0]

    def test_equilibrium_is_stationary(self):
        grid = Grid((1.0,), (16,))
        fs = constant_state(SYS3, grid, (2.0, 3.0, 6.0))
        state = SimulationState(0.0, fs)
        out = step(state, StepperConfig(dt=0.1), math.inf, ModalDiffusion(SYS3.d, grid, 0.1), {})
        np.testing.assert_allclose(out.fields.values, fs.values, atol=1e-9)

    def test_a2_pointwise_sum_invariant(self):
        # d_1 = d_3 = 0: a_1 + a_3 is constant in every cell
        sys_a2 = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.0, 1.0, 0.0))
        grid = Grid((1.0,), (32,))
        x = grid.axis_centers(0)
        vals = np.stack([1.0 + 0 * x, 1.0 + 0.3 * np.cos(math.pi * x), 0.5 + 0 * x])
        fs = FieldSet(sys_a2, grid, vals)
        ref = vals[0] + vals[2]
        result = run(fs, StepperConfig(dt=0.02), [math.inf], t_final=5.0)[0]
        final = result.final_state.fields.values
        np.testing.assert_allclose(final[0] + final[2], ref, atol=1e-12)
        assert max(r.a2_sum_dev for r in result.records) <= 1e-12

    def test_degenerate_pair_difference_invariant(self):
        sys_pair = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.0, 0.0, 1.0))
        grid = Grid((1.0,), (32,))
        x = grid.axis_centers(0)
        vals = np.stack([1.2 + 0 * x, 0.8 + 0 * x, 0.5 + 0.2 * np.cos(math.pi * x)])
        fs = FieldSet(sys_pair, grid, vals)
        result = run(fs, StepperConfig(dt=0.02), [math.inf], t_final=5.0)[0]
        assert max(r.degenerate_pair_dev for r in result.records) <= 1e-10

    def test_pair_mass_conserved_over_run(self):
        grid = Grid((1.0,), (32,))
        x = grid.axis_centers(0)
        vals = np.stack(
            [1.0 + 0.3 * np.cos(math.pi * x), 1.0 + 0 * x, 0.5 - 0.2 * np.cos(math.pi * x)]
        )
        fs = FieldSet(SYS3, grid, vals)
        result = run(fs, StepperConfig(dt=0.02), [math.inf], t_final=5.0)[0]
        assert max(r.pair_mass_drift_rel for r in result.records) <= 1e-8

    def test_strang_beats_lie_on_smooth_run(self):
        fs = self._constant_setup((1.0, 2.0, 0.5))

        def final_error(splitting, dt):
            cfg = StepperConfig(dt=dt, splitting=splitting)
            coarse = run(fs, cfg, [math.inf], t_final=1.0)[0].final_state.fields.values
            ref_cfg = StepperConfig(dt=dt / 16, splitting=splitting)
            ref = run(fs, ref_cfg, [math.inf], t_final=1.0)[0].final_state.fields.values
            return np.abs(coarse - ref).max()

        assert final_error("strang", 0.02) < final_error("lie", 0.02)

    def test_halving_dt_halves_lie_error(self):
        fs = self._constant_setup((1.0, 2.0, 0.5))
        ref = run(fs, StepperConfig(dt=0.02 / 16), [math.inf], t_final=1.0)[0].final_state.fields.values

        def err(dt):
            out = run(fs, StepperConfig(dt=dt), [math.inf], t_final=1.0)[0].final_state.fields.values
            return np.abs(out - ref).max()

        ratio = err(0.02) / err(0.01)
        assert 1.7 <= ratio <= 2.4

    @pytest.mark.parametrize("n_values", [[], [0.0], [-1.0], [math.nan], [10.0, -1.0]])
    def test_rejects_n_values_that_are_empty_or_not_positive(self, n_values):
        with pytest.raises(ValueError, match="^n_values"):
            run(self._constant_setup(), StepperConfig(dt=0.05), n_values, t_final=0.1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=-0.1)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, splitting="trotter-kato")

    def test_positivity_breach_aborts(self):
        grid = Grid((1.0,), (8,))
        vals = np.full((3, 8), 1.0)
        vals[0, 0] = -1e-6  # well below the clamp tolerance
        fs = FieldSet(SYS3, grid, vals)
        with pytest.raises(InvariantBreach):
            run(fs, StepperConfig(dt=0.1), [math.inf], t_final=1.0)

    @pytest.mark.parametrize("species, bad", [(0, math.inf), (2, math.nan), (2, math.inf)])
    def test_non_finite_cell_breaches_within_one_step(self, species, bad):
        # inf in a diffusing species turns its modes to NaN; inf in the frozen
        # product makes the pair-mass drift NaN.  Every gate must fail on NaN,
        # which no comparison x > limit does
        grid = Grid((1.0,), (16,))
        vals = np.ones((3, 16))
        vals[species, 5] = bad
        with pytest.raises(InvariantBreach, match="at n=10: "):
            run(FieldSet(SYS3, grid, vals), StepperConfig(dt=0.05), [10.0, math.inf], t_final=0.05)

    def test_nan_diffusion_residual_breaches(self):
        grid = Grid((1.0,), (16,))
        vals = np.ones((3, 16))
        vals[1, 7] = math.nan
        with pytest.raises(InvariantBreach) as info:
            diffusion_substep(FieldSet(SYS3, grid, vals), ModalDiffusion(SYS3.d, grid, 0.01))
        assert info.value.kind == "linear-solver"

    def test_entropy_of_split_step_never_increases(self):
        grid = Grid((1.0,), (32,))
        x = grid.axis_centers(0)
        vals = np.stack(
            [2.0 + np.cos(math.pi * x), 2.0 - np.cos(2 * math.pi * x), 0.1 + 0 * x]
        )
        state = SimulationState(0.0, FieldSet(SYS3, grid, vals))
        cfg = StepperConfig(dt=0.05)
        modal, work = ModalDiffusion(SYS3.d, grid, cfg.dt), {}
        prev = entropy(state.fields)
        for _ in range(40):
            state = step(state, cfg, math.inf, modal, work)
            now = entropy(state.fields)
            assert now <= prev + 1e-10
            prev = now


def mol_config(cells: tuple, dt: float = 0.05, splitting: str = "lie"):
    """A frozen reactant and a squared one (m = 3, alpha = (1, 2, 1), d = (0, 1, 1)) on the unit box of
    `cells`, with cosine data that vary along every axis, run to T = 0.5 at n = 10 and the limit."""
    modes = [[1], [2], [1]] if len(cells) == 1 else [[1, 1], [2, 0, 1], [1]]
    shapes = [(1.0, 0.3), (1.0, 0.2), (0.5, 0.1)]
    return parse_config({
        "system": {"m": 3, "alpha": [1, 2, 1], "d": [0.0, 1.0, 1.0]},
        "grid": {"lengths": [1.0] * len(cells), "cells": list(cells)},
        "initial": [{"kind": "cosine", "base": b, "amplitude": a, "modes": k} for (b, a), k in zip(shapes, modes)],
        "stepper": {"dt": dt, "splitting": splitting, "record_every": 1000},
        "n_values": [10, "inf"],
        "t_final": 0.5,
    })


@cache
def mol_reference(cells: tuple, n: float) -> np.ndarray:
    return oracles.method_of_lines(mol_config(cells), n)


class TestAgainstTheMethodOfLines:
    """The whole stepper against a Radau solve of the same system discretized in space alone, which shares
    no code with it, so a step that converges to other equations fails.  The orders take criterion 8's
    bands on the finest of dt = 0.05 halved three times; each finest error stays under twice its measured
    value (lie 1.27e-4, 1.68e-3 on 16 cells and 1.30e-4, 1.81e-3 on 4^3 at n = 10, inf; strang 1.29e-6,
    3.45e-5 and 1.45e-6, 2.95e-5)."""

    @pytest.mark.parametrize(
        "cells, splitting, bounds",
        [
            ((16,), "lie", (2.6e-4, 3.4e-3)),
            ((4, 4, 4), "lie", (2.6e-4, 3.6e-3)),
            ((16,), "strang", (2.6e-6, 6.9e-5)),
            ((4, 4, 4), "strang", (2.9e-6, 5.9e-5)),
        ],
        ids=["lie-1d", "lie-3d", "strang-1d", "strang-3d"],
    )
    def test_errors_against_the_oracle_fall_at_the_schemes_order(self, cells, splitting, bounds):
        errors = []
        for k in range(4):
            config = mol_config(cells, 0.05 / 2**k, splitting)
            results = run(build_initial(config), config.stepper, config.n_values, config.t_final)
            errors.append([np.abs(r.final_state.fields.values - mol_reference(cells, n)).max()
                           for r, n in zip(results, config.n_values)])
        for n, coarse, finest, bound in zip((10, math.inf), errors[-2], errors[-1], bounds):
            ratio = coarse / finest
            assert (math.log2(ratio) >= 0.8 if splitting == "lie" else 3.2 <= ratio <= 4.8), (n, ratio)
            assert finest < bound, (n, finest)


# the grid-2d benchmark's shape: a frozen reactant, two n-levels, 128 x 128
SYS_FROZEN = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.0, 1.0, 1.0))
GRID_128 = Grid((1.0, 1.0), (128, 128))
LEVELS = [10.0, math.inf]
STRANG = StepperConfig(dt=0.01, splitting="strang")


def frozen_state(levels: int) -> FieldSet:
    x, y = GRID_128.centers()
    cx, cy = np.cos(math.pi * x), np.cos(math.pi * y)
    base = np.stack([1.0 + 0.2 * cx * cy, 1.0 + 0.1 * np.cos(2 * math.pi * x) * cy, 0.5 + 0.3 * cx * np.cos(2 * math.pi * y)])
    # the levels differ, so a level mixed up with another shows
    return FieldSet(SYS_FROZEN, GRID_128, np.stack([base * (1.0 + 0.1 * b) for b in range(levels)], axis=1))


def level_n(levels: int) -> np.ndarray:
    return np.reshape(LEVELS[:levels], (-1, 1, 1))


def traced_peak(call) -> int:
    """Peak bytes that `call` allocates, counting what it returns."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSteadyWorkArrays:
    """A run keeps the state-sized work arrays of its per-step path, so a
    step allocates little beyond the state it returns, and what it returns
    is never overwritten later."""

    def test_diffusion_substep_allocates_about_its_result(self):
        fs = frozen_state(2)
        modal = ModalDiffusion(SYS_FROZEN.d, GRID_128, 0.5 * STRANG.dt, 0.5)
        for _ in range(2):
            diffusion_substep(fs, modal)
        assert traced_peak(lambda: diffusion_substep(fs, modal)) <= 1.5 * fs.values.nbytes

    @pytest.mark.parametrize("case", ["strang-128x128", "lie-5x128", "m4-preset-5x128"])
    def test_reaction_substep_allocates_little_beyond_its_result(self, case):
        # n per cell, as `run` passes it; a warmed substep reuses the blocks'
        # temporaries in its work dict, so it allocates about the state it returns
        if case == "strang-128x128":
            fs, levels, theta, limit = frozen_state(2), [10.0, math.inf], 0.5, 2.0
        elif case == "m4-preset-5x128":
            # the preset's batch: the state it returns, numpy's buffer for the reactants' broadcast subtraction
            # and a few small arrays; one more workspace array (5,120 bytes) would cross the limit
            config = preset_config("m4-a1-noninteger")
            initial, levels, theta, limit = build_initial(config), config.n_values, 1.0, 2.0
            fs = FieldSet(initial.system, initial.grid, np.repeat(initial.values[:, None], len(levels), axis=1))
        else:
            system = TriangularSystem(m=3, alpha=(0.5, 2.0, 1.0), d=(1.0, 1.0, 0.0))
            vals = np.random.default_rng(4).uniform(0.0, 2.0, size=(3, 5, 128))
            fs, levels, theta, limit = FieldSet(system, Grid((1.0,), (128,)), vals), [1.0, 10.0, 100.0, 1e3, math.inf], 1.0, 6.0
        cells = fs.values[0, 0].size
        n = np.repeat(levels, cells).reshape(fs.values.shape[1:])
        work = {}
        for _ in range(2):
            _reaction_substep(fs, n, STRANG.dt, theta, work)
        assert traced_peak(lambda: _reaction_substep(fs, n, STRANG.dt, theta, work)) <= limit * fs.values.nbytes

    def test_accumulate_allocates_under_one_and_a_half_states(self):
        fs = frozen_state(2)
        tracker = DiagnosticsTracker(level_n(2), FieldSet(SYS_FROZEN, GRID_128, fs.values[:, 0]))
        for _ in range(2):
            tracker.accumulate(fs, STRANG.dt)
        assert traced_peak(lambda: tracker.accumulate(fs, STRANG.dt)) <= 1.5 * fs.values.nbytes

    def test_returned_states_are_not_overwritten_by_later_steps(self):
        state = SimulationState(0.0, frozen_state(2))
        modal, work = ModalDiffusion(SYS_FROZEN.d, GRID_128, 0.5 * STRANG.dt, 0.5), {}
        kept = []
        for _ in range(4):
            state = step(state, STRANG, level_n(2), modal, work)
            kept.append((state.fields, state.fields.values.copy()))
        for fields, snapshot in kept:
            assert fields.values.tobytes() == snapshot.tobytes()

    def test_emitted_records_are_not_overwritten_by_later_steps(self, monkeypatch):
        emitted = []
        observe = DiagnosticsTracker.observe

        def keep(self, *args):
            rec = observe(self, *args)
            emitted.append((rec, np.array(rec.csv_row()), rec.dissipation_gradient, rec.dissipation_reaction))
            return rec

        monkeypatch.setattr(DiagnosticsTracker, "observe", keep)
        initial = FieldSet(SYS_FROZEN, GRID_128, frozen_state(1).values[:, 0])
        results = run(initial, replace(STRANG, record_every=1), LEVELS, t_final=4 * STRANG.dt)
        # both levels at t = 0 and after each of the four steps
        assert len(emitted) == sum(len(r.records) for r in results) == 2 * 5
        for rec, row, grad, reac in emitted:
            assert np.array(rec.csv_row()).tobytes() == row.tobytes()
            assert (rec.dissipation_gradient, rec.dissipation_reaction) == (grad, reac)

    def test_modal_reused_across_batch_sizes_matches_a_fresh_one(self):
        reused = ModalDiffusion(SYS_FROZEN.d, GRID_128, 0.5 * STRANG.dt, 0.5)
        for levels in (2, 1, 2):
            fs = frozen_state(levels)
            fresh = ModalDiffusion(SYS_FROZEN.d, GRID_128, 0.5 * STRANG.dt, 0.5)
            assert diffusion_substep(fs, reused).values.tobytes() == diffusion_substep(fs, fresh).values.tobytes()


# the presets' shape: five n-levels of 128 cells, 640 cells per species, so
# the diagnostics take windows of six states (4096 // 640)
PRESET_GRID = Grid((1.0,), (128,))
PRESET_LEVELS = [1.0, 10.0, 100.0, 1e3, math.inf]
PRESET_LIE = StepperConfig(dt=0.02, record_every=25)


def preset_state() -> FieldSet:
    x = PRESET_GRID.axis_centers(0)
    return FieldSet(SYS3, PRESET_GRID, np.stack([1.5 + 0.4 * np.cos(math.pi * x), 1.2 + 0 * x, 0.6 - 0.3 * np.cos(2 * math.pi * x)]))


class TestDiagnosticsWindow:
    """`run` passes the diagnostics over windows of consecutive states; a
    window of one state, which a record after every step forces, is the
    per-step pass that every result must equal."""

    def test_window_sizes_follow_the_reaction_block(self):
        result = run(preset_state(), PRESET_LIE, PRESET_LEVELS, t_final=13 * PRESET_LIE.dt)[0]
        assert sorted(result.tracker.work) == [1, 6]  # windows 6, 6, 1: the last step closes one
        # grid-2d's 32,768-cell state has no room: it is passed as it is, one state a window
        result = run(frozen_state(1).level(0), STRANG, LEVELS, t_final=2 * STRANG.dt)[0]
        assert sorted(result.tracker.work) == [1]

    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    def test_windows_leave_every_record_bit(self, splitting):
        cfg = replace(PRESET_LIE, splitting=splitting, record_every=5)
        windowed = run(preset_state(), cfg, PRESET_LEVELS, t_final=17 * cfg.dt)
        per_step = run(preset_state(), replace(cfg, record_every=1), PRESET_LEVELS, t_final=17 * cfg.dt)
        for w, s in zip(windowed, per_step):
            kept = [rec for rec in s.records if any(rec.time == r.time for r in w.records)]
            assert [r.time for r in kept] == [r.time for r in w.records]
            for a, b in zip(w.records, kept):
                assert np.array(a.csv_row()).tobytes() == np.array(b.csv_row()).tobytes()
                assert (a.dissipation_gradient, a.dissipation_reaction) == (b.dissipation_gradient, b.dissipation_reaction)

    @pytest.mark.parametrize("rise, negative", [(3, None), (3, 5), (1, 6), (8, 11)])
    def test_an_entropy_rise_in_a_window_is_the_breach_a_per_step_pass_reports(self, monkeypatch, rise, negative):
        import trdlab.stepper as stepper_module

        real = stepper_module.step

        def corrupted(state, *args):
            new = real(state, *args)
            if new.step_count == rise:
                new.fields.values[:, 1] *= 1.5  # level n = 10 gains entropy
            if new.step_count == negative:
                new.fields.values[0, 3, 7] = -1.0  # and a later step of the window breaches positivity
            return new

        monkeypatch.setattr(stepper_module, "step", corrupted)
        breaches = []
        for record_every in (25, 1):
            with pytest.raises(InvariantBreach) as info:
                run(preset_state(), replace(PRESET_LIE, record_every=record_every), PRESET_LEVELS, t_final=1.0)
            breaches.append((info.value.kind, str(info.value), info.value.details))
        assert breaches[0] == breaches[1]
        assert breaches[0][0] == "entropy" and breaches[0][2]["n"] == 10.0
        assert f"t={rise * PRESET_LIE.dt:.6g}" in breaches[0][1]
