"""Entropy, dissipation, norms, masses, and the report-style estimates."""

import math

import numpy as np
import pytest

import oracles
from oracles import constant_state
from trdlab.diagnostics import (
    DiagnosticsTracker,
    dissipation,
    entropy,
    entropy_balance_check,
    lp_norms,
    m2_bound,
)
from trdlab.fields import FieldSet
from trdlab.grid import Grid
from trdlab.model import TriangularSystem
from trdlab.stepper import StepperConfig, run

SYS3 = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(1.0, 1.0, 0.0))
GRID = Grid((1.0,), (32,))


class TestEntropy:
    def test_vanishes_at_the_all_ones_state(self):
        fs = constant_state(SYS3, GRID, (1.0, 1.0, 1.0))
        assert entropy(fs) == pytest.approx(0.0, abs=1e-14)

    def test_unit_kernel_at_e(self):
        # kernel(e) = 1 per species, weights alpha = (1,1,1), |Omega| = 1
        fs = constant_state(SYS3, GRID, (math.e, math.e, math.e))
        assert entropy(fs) == pytest.approx(3.0)

    def test_vacuum_state_value(self):
        # kernel(0) = 1: E = sum(alpha) |Omega|
        fs = constant_state(SYS3, GRID, (0.0, 0.0, 0.0))
        assert entropy(fs) == pytest.approx(3.0)

    def test_weights_scale_with_alpha(self):
        system = TriangularSystem(m=3, alpha=(2.0, 3.0, 1.0), d=(1.0, 1.0, 1.0))
        fs = constant_state(system, GRID, (0.0, 0.0, 0.0))
        assert entropy(fs) == pytest.approx(6.0)

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            vals = rng.uniform(0.0, 5.0, size=(3, 32))
            assert entropy(FieldSet(SYS3, GRID, vals)) >= 0.0


class TestDissipation:
    def test_equilibrium_state_dissipates_nothing(self):
        fs = constant_state(SYS3, GRID, (2.0, 3.0, 6.0))
        total, grad, reac = dissipation(fs, math.inf)
        assert total == pytest.approx(0.0, abs=1e-12)
        assert grad == 0.0

    def test_reaction_term_positive_off_equilibrium(self):
        fs = constant_state(SYS3, GRID, (2.0, 2.0, 1.0))
        total, grad, reac = dissipation(fs, math.inf)
        # x = 4, y = 1: (y - x) ln(y/x) = 3 ln 4 > 0
        assert reac == pytest.approx(3.0 * math.log(4.0))
        assert grad == 0.0

    def test_gradient_term_positive_for_nonuniform_diffusers(self):
        x = GRID.axis_centers(0)
        vals = np.stack([1.0 + 0.5 * np.cos(math.pi * x), np.ones(32), np.ones(32)])
        total, grad, reac = dissipation(FieldSet(SYS3, GRID, vals), math.inf)
        assert grad > 0.0

    def test_finite_at_vacuum(self):
        fs = constant_state(SYS3, GRID, (2.0, 2.0, 0.0))
        total, grad, reac = dissipation(fs, math.inf)
        assert math.isfinite(total)
        assert reac > 0.0

    def test_regularization_scales_the_reaction_term(self):
        fs = constant_state(SYS3, GRID, (2.0, 2.0, 1.0))
        _, _, reac_limit = dissipation(fs, math.inf)
        _, _, reac_reg = dissipation(fs, 1.0)
        phi = 1.0 + 5.0**5.0  # (2+2+1)^(Q+2)
        assert reac_reg == pytest.approx(reac_limit / phi)


    def test_work_arrays_leave_every_bit(self):
        # the reaction part from the tracker's work arrays, against the rate
        # law's fresh evaluation; non-unit exponents and mixed levels
        system = TriangularSystem(m=4, alpha=(0.5, 2.0, 1.3, 1.0), d=(1.0, 0.5, 0.0, 1.0))
        vals = np.random.default_rng(12).uniform(0.0, 3.0, size=(4, 2, 32))
        fs = FieldSet(system, GRID, vals)
        n = np.array([10.0, math.inf]).reshape(2, 1)
        x = oracles.reactant_product(system.reactant_alpha, vals[:-1])
        y = vals[-1]
        term = (y - x) * np.log(np.maximum(y, 1e-30) / np.maximum(x, 1e-30)) / oracles.phi(system.Q, n, vals.sum(axis=0))
        expected = GRID.cell_sum(term) * GRID.cell_measure
        work = {}
        for _ in range(2):
            assert dissipation(fs, n, work)[2].tobytes() == expected.tobytes()


class TestNorms:
    def test_constant_field_norms(self):
        fs = constant_state(SYS3, GRID, (2.0, 3.0, 4.0))
        norms = lp_norms(fs, (1.0, 2.0, math.inf))
        np.testing.assert_allclose(norms[1.0], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(norms[2.0], [2.0, 3.0, 4.0])
        np.testing.assert_allclose(norms[math.inf], [2.0, 3.0, 4.0])

    def test_holder_ordering_on_probability_domain(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0.0, 3.0, size=(3, 32))
        norms = lp_norms(FieldSet(SYS3, GRID, vals), (1.0, 2.0, 4.0, math.inf))
        for i in range(3):
            assert norms[1.0][i] <= norms[2.0][i] + 1e-12
            assert norms[2.0][i] <= norms[4.0][i] + 1e-12
            assert norms[4.0][i] <= norms[math.inf][i] + 1e-12

    def test_rejects_sub_lebesgue_exponent(self):
        fs = constant_state(SYS3, GRID, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            lp_norms(fs, (0.5,))


class TestM2Bound:
    def test_formula(self):
        system = TriangularSystem(m=3, alpha=(2.0, 1.0, 1.0), d=(1.0, 1.0, 1.0))
        val = m2_bound(system, e0=3.0, domain_measure=1.0)
        assert val == pytest.approx(2.0 * math.e**2 + 2.0 * 3.0)

    def test_l1_norms_stay_below_bound_on_a_run(self):
        x = GRID.axis_centers(0)
        vals = np.stack(
            [1.0 + 0.5 * np.cos(math.pi * x), 1.0 - 0.5 * np.cos(math.pi * x), 0.3 + 0 * x]
        )
        result = run(FieldSet(SYS3, GRID, vals), StepperConfig(dt=0.02), [math.inf], t_final=3.0)[0]
        assert not any(r.m2_flag for r in result.records)
        for rec in result.records:
            assert rec.l1.max() <= rec.m2


class TestTrackerAndBalance:
    def _run(self, t_final=3.0):
        x = GRID.axis_centers(0)
        vals = np.stack(
            [1.0 + 0.4 * np.cos(math.pi * x), 1.2 + 0 * x, 0.4 - 0.2 * np.cos(math.pi * x)]
        )
        return run(
            FieldSet(SYS3, GRID, vals),
            StepperConfig(dt=0.01, record_every=20),
            [math.inf],
            t_final=t_final,
            p_values=(4.0,),
        )[0]

    def test_entropy_balance_holds(self):
        result = self._run()
        report = entropy_balance_check(result.records, tol=1e-3)
        assert report["ok"], report

    def test_spacetime_norms_monotone_in_time(self):
        result = self._run()
        series = [r.st_lp[4.0] for r in result.records]
        for a, b in zip(series[:-1], series[1:]):
            assert np.all(b >= a - 1e-12)

    def test_dissipation_never_negative_along_run(self):
        result = self._run()
        assert min(r.dissipation for r in result.records) >= -1e-12

    def test_duality_constant_is_finite(self):
        # smallest C with ||a_3||_{L^4(Omega_t)} <= C (1 + ||a_1||_{L^4(Omega_t)}) over the run
        records = self._run().records
        fitted_c = max(float(r.st_lp[4.0][2] / (1.0 + r.st_lp[4.0][0])) for r in records)
        assert 0.0 <= fitted_c < math.inf

    def test_l1_product_growth_is_affine(self):
        # near equilibrium the running space-time integral of
        # a_i^2 + a_i a_m grows linearly in T
        result = self._run(t_final=6.0)
        tail = result.records[len(result.records) // 2 :]
        ts = np.array([r.time for r in tail])
        vs = np.array([r.l1_product[0] for r in tail])
        c1, c0 = np.polyfit(ts, vs, 1)
        residual = np.abs(vs - (c0 + c1 * ts)).max() / (abs(c0) + abs(c1) * ts.max())
        assert residual <= 0.05, (c0, c1, residual)

    def test_balance_check_detects_violations(self):
        result = self._run()
        rec = result.records[-1]
        rec.entropy = result.records[0].e0 * 2.0 + 1.0  # corrupt
        report = entropy_balance_check(result.records, tol=1e-3)
        assert not report["ok"]

    def test_a_start_at_equilibrium_passes_the_balance(self):
        # E(0) = 0: the roundoff in the dissipation integral (about 1e-33)
        # is within the same 1e-12 floor as the monotonicity term
        system = TriangularSystem(m=3, alpha=(1.0, 1.0, 1.0), d=(0.0, 1.0, 1.0))
        fs = constant_state(system, Grid((1.0,), (8,)), (1.0, 1.0, 1.0))
        levels = [1.0, 10.0, math.inf]
        for result in run(fs, StepperConfig(dt=0.1), levels, t_final=0.2):
            assert result.tracker.e0 == 0.0
            assert entropy_balance_check(result.records, result.entropy_tol)["ok"]
            result.records[-1].diss_integral += 1e-9  # an excess the floor must not hide
            assert not entropy_balance_check(result.records, result.entropy_tol)["ok"]


# spectator exponent alpha_1 = 0, exponents 2 and 1/2, a species without diffusion
SYS_SPECTATOR = TriangularSystem(m=4, alpha=(0.0, 2.0, 0.5, 1.0), d=(1.0, 0.0, 0.5, 1.0))
WINDOW_LEVELS = (1.0, 10.0, math.inf)


class TestWindowedPass:
    """`accumulate` over k states stacked along the level axis is k
    passes over one state each, to the bit."""

    @pytest.mark.parametrize("grid", [Grid((1.0,), (16,)), Grid((1.0, 0.5), (6, 5)), Grid((1.0, 1.0, 2.0), (4, 3, 5))],
                             ids=["1d", "2d", "3d"])
    def test_one_pass_over_k_states_equals_k_passes(self, grid):
        rng = np.random.default_rng(7)
        B, m = len(WINDOW_LEVELS), SYS_SPECTATOR.m
        states = rng.uniform(0.0, 2.0, size=(7, m, B) + grid.shape)
        states[2, 1, 0].flat[0] = states[4, 3, 2].flat[-1] = 0.0  # vacuum cells
        n = np.repeat(WINDOW_LEVELS, math.prod(grid.shape)).reshape((B,) + grid.shape)
        initial = FieldSet(SYS_SPECTATOR, grid, states[0, :, 0])
        single, windowed = (DiagnosticsTracker(n, initial, p_values=(2.0, 3.5)) for _ in range(2))
        rows, dt = [], 0.03
        for s in states:
            rows.append(single.accumulate(FieldSet(SYS_SPECTATOR, grid, s), dt))
            assert rows[-1].shape == (1, B)
        done = 0
        for k in (3, 1, 3):  # a window size again after another, so its work dict is reused
            stacked = np.concatenate(states[done : done + k], axis=1)
            got = windowed.accumulate(FieldSet(SYS_SPECTATOR, grid, stacked), dt)
            assert got.tobytes() == np.concatenate(rows[done : done + k]).tobytes()
            done += k
        assert sorted(windowed.work) == [1, 3]
        assert windowed.entropy.tobytes() == single.entropy.tobytes()
        assert windowed.dissipation.tobytes() == single.dissipation.tobytes()
        assert windowed.diss_integral.tobytes() == single.diss_integral.tobytes()
        assert windowed._l1prod_accum.tobytes() == single._l1prod_accum.tobytes()
        for p in (2.0, 3.5):
            assert windowed._st_accum[p].tobytes() == single._st_accum[p].tobytes()
