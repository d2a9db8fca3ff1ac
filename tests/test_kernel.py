"""Neumann heat kernel series, Gaussian bound, and smoothing probes."""

import math

import numpy as np
import pytest

import oracles
from oracles import broadcast_pair_table, laplacian_matrix
from trdlab import kernel
from trdlab.kernel import (
    KernelSpec,
    gaussian_bound_fit,
    heat_kernel_eval,
    kernel_tail_bound,
    mass_conservation_check,
    semigroup_check,
    smoothing_probe,
    smoothing_threshold,
)
from trdlab.stepper import ModalDiffusion

SPEC = KernelSpec(d=1.0, lengths=(1.0,), truncation=200)


def assert_is_the_oracle_march(traj, march):
    # the power sums round otherwise than the step-by-step march: measured at most 1.2e-16 (1 + max|traj|) apart
    assert traj.shape == march.shape
    assert np.abs(traj - march).max() <= 1e-13 * (1.0 + np.abs(traj).max())


class TestKernelSeries:
    def test_long_time_limit_is_uniform(self):
        val = heat_kernel_eval(SPEC, 50.0, 0.3, 0.8)
        assert val == pytest.approx(1.0, abs=1e-12)  # 1/L with L = 1

    def test_symmetry_in_x_and_y(self):
        for t in (0.01, 0.1, 1.0):
            a = heat_kernel_eval(SPEC, t, 0.2, 0.7)
            b = heat_kernel_eval(SPEC, t, 0.7, 0.2)
            assert a == pytest.approx(b, abs=1e-14)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel_eval(SPEC, 0.0, 0.1, 0.2)

    def test_positive_at_moderate_times(self):
        xs = np.linspace(0.0, 1.0, 21)
        vals = heat_kernel_eval(SPEC, 0.01, xs[:, None], xs[None, :])
        assert vals.min() > 0.0

    def test_tail_bound_decreases_in_time(self):
        bounds = [kernel_tail_bound(SPEC, t) for t in (1e-4, 1e-3, 1e-2)]
        assert bounds[0] > bounds[1] > bounds[2]
        assert bounds[0] < 1e-10  # K = 200 resolves t = 1e-4 easily

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan])
    def test_tail_bound_refuses_a_time_that_is_not_positive(self, t):
        with pytest.raises(ValueError, match="t > 0"):
            kernel_tail_bound(KernelSpec(d=1.0), t)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(d=0.0)
        with pytest.raises(ValueError):
            KernelSpec(d=1.0, truncation=0)
        with pytest.raises(ValueError):
            KernelSpec(d=1.0, lengths=(-1.0,))
        with pytest.raises(ValueError, match="^lengths"):
            KernelSpec(d=1.0, lengths=(1.0, 2.0))  # one interval only


class TestConservationAndSemigroup:
    def test_mass_conserved_at_sampled_times(self):
        out = mass_conservation_check(
            SPEC,
            t_values=np.array([1e-4, 1e-3, 1e-2, 1e-1]),
            x_values=np.array([0.0, 0.25, 0.5, 1.0]),
        )
        assert out["max_defect"] <= 1e-8

    def test_mass_defect_is_a_running_max_over_every_pair(self):
        # one matrix product sums the modes in another order than the per-pair broadcast: measured 1.1e-16 apart
        ts, xs, n_quad = [1e-3, 1e-2, 0.5], [0.0, 0.3, 1.0], 512
        z = (np.arange(n_quad) + 0.5) / n_quad
        worst = 0.0
        for t in ts:
            for x in xs:
                worst = max(worst, abs(float(np.sum(heat_kernel_eval(SPEC, t, x, z)) * (1.0 / n_quad)) - 1.0))
        assert abs(mass_conservation_check(SPEC, ts, xs)["max_defect"] - worst) <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("t_values", [[math.nan], [1e-3, math.nan, 1e-2]])
    def test_a_nan_time_gives_a_nan_mass_defect(self, t_values):
        # a running max(worst, defect) from 0 skips NaN and reported 0.0, which passes `<= tol`
        assert math.isnan(mass_conservation_check(SPEC, t_values, [0.0, 0.5])["max_defect"])

    def test_semigroup_composition(self):
        out = semigroup_check(SPEC, t=0.01, s=0.02)
        assert out["max_defect"] <= 1e-6

    @pytest.mark.parametrize("spec", [SPEC, KernelSpec(d=0.5, lengths=(2.0,), truncation=60)])
    def test_semigroup_defect_equals_a_loop_over_every_pair(self, spec):
        t, s, n_quad = 0.01, 0.02, 512
        L = spec.lengths[0]
        z = (np.arange(n_quad) + 0.5) * (L / n_quad)
        worst = 0.0
        for x in np.linspace(0.0, L, 9):
            for y in np.linspace(0.0, L, 9):
                left = heat_kernel_eval(spec, t, float(x), z)
                right = heat_kernel_eval(spec, s, z, float(y))
                composed = float(np.sum(left * right) * (L / n_quad))
                worst = max(worst, abs(composed - float(heat_kernel_eval(spec, t + s, float(x), float(y)))))
        assert semigroup_check(spec, t, s)["max_defect"] == worst

    def test_a_nan_time_gives_a_nan_semigroup_defect(self):
        # a NaN defect fails every `<= tol` verdict; a running max that skips NaN would report 0
        assert math.isnan(semigroup_check(SPEC, t=math.nan, s=0.02)["max_defect"])

    def test_semigroup_builds_its_quadrature_table_once(self, monkeypatch):
        cosines, sizes = kernel._cosines, []

        def recording(spec, L, x):
            sizes.append(np.size(x))
            return cosines(spec, L, x)

        monkeypatch.setattr(kernel, "_cosines", recording)
        semigroup_check(SPEC, t=0.01, s=0.02)
        assert sizes.count(512) == 1


class TestGaussianBound:
    def test_fit_is_finite_and_stable(self):
        fit = gaussian_bound_fit(SPEC)
        assert fit["passed"], fit
        assert math.isfinite(fit["C_H"])
        assert fit["rel_change"] <= 0.2

    def test_fitted_constant_dominates_free_space(self):
        # at x = y the kernel behaves like (4 pi d t)^{-1/2} plus image
        # corrections, so C_H can never undercut that factor
        fit = gaussian_bound_fit(SPEC)
        assert fit["C_H"] >= fit["free_space_floor"]

    def test_kernel_nonnegative_over_fit_samples(self):
        fit = gaussian_bound_fit(SPEC)
        assert fit["min_kernel_value"] >= -1e-10

    @pytest.mark.parametrize("spec", [SPEC, KernelSpec(d=0.5, lengths=(2.0,), truncation=60)])
    def test_matrix_product_series_matches_the_broadcast_sum(self, spec, monkeypatch):
        gemm = kernel._pair_table
        samples = []

        def recording(spec, L, t, c):
            vals = gemm(spec, L, t, c)
            samples.append((vals, broadcast_pair_table(spec, L, t, c)))
            return vals

        monkeypatch.setattr(kernel, "_pair_table", recording)
        fit = gaussian_bound_fit(spec)
        assert len(samples) == 24 + 48  # every sample time of the coarse and the fine fit
        for vals, want in samples:
            assert np.abs(vals - want).max() <= 1e-13 * np.abs(want).max()
        monkeypatch.setattr(kernel, "_pair_table", broadcast_pair_table)
        reference = gaussian_bound_fit(spec)
        for key in ("C_H", "C_H_coarse", "rel_change", "passed"):
            assert fit[key] == reference[key], key


class TestSmoothing:
    @pytest.mark.parametrize(
        "p, N, expected",
        [
            (1.0, 1, 3.0),  # 3p/(3-2p) at p=1, N=1
            (1.0, 2, 2.0),
            (2.0, 1, math.inf),  # p > (N+2)/2
            (2.0, 2, math.inf),  # boundary case p = (N+2)/2
            (1.5, 2, 6.0),
        ],
    )
    def test_threshold_formula(self, p, N, expected):
        assert smoothing_threshold(p, N) == expected

    def test_constant_source_closed_form(self):
        # theta == 1 keeps only the constant mode: psi(t) = t exactly for
        # the backward-Euler march, so the sup ratio is t_final
        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid((1.0,), (32,))
        traj = _solve_sourced_heat(ModalDiffusion((1.0,), grid, 0.01), grid, np.ones(grid.shape), dt=0.01, n_steps=50)
        np.testing.assert_allclose(traj[-1], 0.5, atol=1e-10)

    @pytest.mark.parametrize("lengths, cells", [((1.0,), (40,)), ((1.0, 2.0), (12, 10))])
    def test_sourced_heat_matches_lu_march(self, lengths, cells):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid(lengths, cells)
        source = np.random.default_rng(3).uniform(-1.0, 1.0, size=grid.shape)
        d, dt, n_steps = 0.7, 0.004, 60
        traj = _solve_sourced_heat(ModalDiffusion((d,), grid, dt), grid, source, dt, n_steps)
        lap = laplacian_matrix(grid)
        lu = splu((sp.identity(lap.shape[0], format="csc") - dt * d * lap).tocsc())
        psi = np.zeros(lap.shape[0])
        expected = [psi]
        for _ in range(n_steps):
            psi = lu.solve(psi + dt * source.ravel())
            expected.append(psi)
        expected = np.stack(expected).reshape(traj.shape)
        np.testing.assert_allclose(traj, expected, rtol=0.0, atol=1e-12 * (1.0 + np.abs(expected).max()))

    @pytest.mark.parametrize(
        "lengths, cells, k, rel, dt", [((1.0,), (32,), 2, 1e-2, 0.01), ((1.0, 1.0), (128, 128), 1, 1e-5, 0.005)]
    )
    def test_sourced_heat_residual_gate_is_live(self, lengths, cells, k, rel, dt):
        from trdlab.errors import InvariantBreach
        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid(lengths, cells)
        lam = [v.copy() for v in grid.laplacian_eigenvalues]
        lam[0][k] *= 1.0 + rel
        grid.__dict__["laplacian_eigenvalues"] = tuple(lam)
        source = np.cos(k * math.pi * grid.centers()[0])
        with pytest.raises(InvariantBreach) as info:
            _solve_sourced_heat(ModalDiffusion((1.0,), grid, dt), grid, source, dt=dt, n_steps=5)
        assert info.value.kind == "linear-solver"

    def test_sourced_heat_nan_source_breaches(self):
        from trdlab.errors import InvariantBreach
        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid((1.0,), (16,))
        source = np.ones(grid.shape)
        source[4] = math.nan
        with pytest.raises(InvariantBreach):
            _solve_sourced_heat(ModalDiffusion((1.0,), grid, 0.01), grid, source, dt=0.01, n_steps=3)

    @pytest.mark.parametrize(
        "lengths, cells, d, dt, n_steps",
        [((1.0,), (40,), 0.7, 0.004, 60), ((1.0, 2.0), (12, 10), 1.0, 0.004, 60), ((1.0,), (128,), 1.0, 1e-3, 500)],
    )
    def test_sourced_heat_is_the_oracle_march_to_roundoff(self, lengths, cells, d, dt, n_steps):
        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid(lengths, cells)
        source = np.random.default_rng(3).uniform(-1.0, 1.0, size=grid.shape)
        traj = _solve_sourced_heat(ModalDiffusion((d,), grid, dt), grid, source, dt, n_steps)
        assert_is_the_oracle_march(traj, oracles._solve_sourced_heat(grid, d, source, dt, n_steps))

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
    @pytest.mark.parametrize("shape", [(64,), (128,), (16, 12)])
    def test_a_held_source_has_the_norm_of_its_broadcast_in_one_pass(self, p, shape):
        # the probe's denominator: the source is the same at each of the n_steps states
        theta = np.random.default_rng(11).uniform(-1.0, 1.0, size=shape)
        n_steps, dt, h = 500, 1e-3, 1.0 / math.prod(shape)
        one_pass = kernel._spacetime_norm(theta[None], p, n_steps * dt, h)
        broadcast = kernel._spacetime_norm(np.broadcast_to(theta, (n_steps,) + shape), p, dt, h)
        if math.isinf(p):
            assert one_pass == broadcast == np.abs(theta).max()
        else:
            assert abs(one_pass - broadcast) <= 1e-14 * broadcast

    def test_sourced_heat_reuses_its_work_arrays(self):
        # the probe's trials share one modal per mesh: a warmed march makes no
        # trajectory-sized array, and its trajectory is the fresh one's; what
        # it allocates is numpy's buffers for the stencil's strided slices
        import tracemalloc

        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid((1.0,), (128,))
        source = np.random.default_rng(5).uniform(-1.0, 1.0, size=grid.shape)
        fresh = _solve_sourced_heat(ModalDiffusion((1.0,), grid, 1e-3), grid, source, 1e-3, 500)
        modal = ModalDiffusion((1.0,), grid, 1e-3)
        _solve_sourced_heat(modal, grid, source, 1e-3, 500)
        tracemalloc.start()
        try:
            traj = _solve_sourced_heat(modal, grid, source, 1e-3, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.tobytes() == fresh.tobytes()
        assert peak <= 0.5 * traj.nbytes

    @pytest.mark.parametrize("lengths, cells", [((1.0,), (40,)), ((1.0, 2.0), (12, 10))])
    def test_a_batched_march_is_the_oracle_march_of_each_trial_to_roundoff(self, lengths, cells):
        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid(lengths, cells)
        sources = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3,) + grid.shape)
        d, dt, n_steps = 0.7, 0.004, 60
        trajs = _solve_sourced_heat(ModalDiffusion((d,), grid, dt), grid, sources, dt, n_steps)
        assert trajs.shape == (n_steps + 1, 3) + grid.shape
        for b, source in enumerate(sources):
            assert_is_the_oracle_march(trajs[:, b], oracles._solve_sourced_heat(grid, d, source, dt, n_steps))

    def test_each_trial_of_a_batch_has_its_own_gate_limit(self):
        # the perturbed trial's residual lies above its own limit, 1e-10 (1 + max|u|), but below
        # the limit a gate shared with a large trial would allow, scaled by that trial's max|u|
        from trdlab.errors import InvariantBreach
        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid((1.0, 1.0), (128, 128))
        lam = [v.copy() for v in grid.laplacian_eigenvalues]
        lam[0][1] *= 1.0 + 1e-5
        grid.__dict__["laplacian_eigenvalues"] = tuple(lam)
        perturbed = np.cos(math.pi * grid.centers()[0])
        sources = np.stack([perturbed, np.full(grid.shape, 1e4)])
        with pytest.raises(InvariantBreach) as info:
            _solve_sourced_heat(ModalDiffusion((1.0,), grid, 0.005), grid, sources, dt=0.005, n_steps=5)
        assert info.value.kind == "linear-solver"

    def test_a_warmed_batched_march_allocates_nothing_trajectory_sized(self):
        import tracemalloc

        from trdlab.grid import Grid
        from trdlab.kernel import _solve_sourced_heat

        grid = Grid((1.0,), (128,))
        sources = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3,) + grid.shape)
        modal = ModalDiffusion((1.0,), grid, 1e-3)
        fresh = _solve_sourced_heat(modal, grid, sources, 1e-3, 500).copy()
        tracemalloc.start()
        try:
            trajs = _solve_sourced_heat(modal, grid, sources, 1e-3, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trajs.tobytes() == fresh.tobytes()
        assert peak <= 0.5 * trajs[:, 0].nbytes

    @pytest.mark.parametrize(
        "field, value",
        [
            ("s", 0.0),
            ("s", -2.0),
            ("s", math.nan),
            ("s", -math.inf),
            ("t_final", -1.0),
            ("t_final", 0.0),
            ("t_final", math.nan),
            ("t_final", math.inf),
            ("dt", 0.0),
            ("dt", -1e-3),
            ("dt", math.nan),
            ("dt", math.inf),
            ("trials", 0),
            ("trials", 2.0),
            ("trials", True),
        ],
    )
    def test_probe_rejects_malformed_input_naming_the_field(self, field, value):
        # keyword by keyword, so that test_imports' scan of the calls still sees which defaults are set
        args = {"s": 4.0, "t_final": 0.5, "dt": 1e-3, "trials": 2, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            smoothing_probe(
                SPEC, p=2.0, s=args["s"], dimension=1, trials=args["trials"], cells=16,
                t_final=args["t_final"], dt=args["dt"],
            )

    def test_probe_ratios_stable_below_threshold(self):
        report = smoothing_probe(SPEC, p=2.0, s=4.0, dimension=1, trials=4, cells=32)
        assert report["passed"], report
        assert report["s"] < report["threshold"]

    def test_sup_norm_probe_above_spacetime_threshold(self):
        # N = 1: p = 2 > 3/2, so even s = inf stays bounded
        report = smoothing_probe(SPEC, p=2.0, s=math.inf, dimension=1, trials=4, cells=32)
        assert report["passed"], report
