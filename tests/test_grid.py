"""Finite-volume grids, the Neumann Laplacian, and quadratures."""

import math

import numpy as np
import pytest

from oracles import integrate, laplacian_matrix, slice_laplacian
from trdlab.grid import Grid, gradient_energy


class TestGridGeometry:
    def test_cell_sizes_and_measures(self):
        g = Grid(lengths=(2.0,), cells=(8,))
        assert g.h == (0.25,)
        assert g.cell_measure == 0.25
        assert g.measure == 2.0

    def test_2d_measures(self):
        g = Grid(lengths=(1.0, 2.0), cells=(4, 8))
        assert g.cell_measure == pytest.approx(0.25 * 0.25)
        assert g.measure == 2.0

    def test_centers_are_cell_midpoints(self):
        g = Grid(lengths=(1.0,), cells=(4,))
        np.testing.assert_allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lengths=(1.0,), cells=(1,)),
            dict(lengths=(-1.0,), cells=(4,)),
            dict(lengths=(), cells=()),
            dict(lengths=(1.0, 1.0), cells=(4,)),
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)


class TestLaplacian:
    def test_matrix_is_symmetric_with_zero_row_sums(self):
        for g in (Grid((1.0,), (16,)), Grid((1.0, 2.0), (6, 9))):
            A = laplacian_matrix(g)
            assert abs(A - A.T).max() == 0.0
            np.testing.assert_allclose(np.asarray(A.sum(axis=1)).ravel(), 0.0, atol=1e-12)

    def test_constant_field_is_harmonic(self):
        g = Grid((1.0,), (32,))
        lap = g.laplacian(np.full(g.shape, 3.7))
        np.testing.assert_allclose(lap, 0.0, atol=1e-12)

    def test_stencil_matches_matrix(self):
        g = Grid((1.0, 1.0), (5, 7))
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.shape)
        via_stencil = g.laplacian(u)
        via_matrix = (laplacian_matrix(g) @ u.ravel()).reshape(g.shape)
        np.testing.assert_allclose(via_stencil, via_matrix, atol=1e-12)

    def test_laplacian_integrates_to_zero(self):
        g = Grid((1.0,), (64,))
        u = np.cos(np.pi * g.axis_centers(0)) ** 3 + 0.5
        total = integrate(g, g.laplacian(u))
        assert abs(total) < 1e-12

    def test_cosine_eigenfunction(self):
        # cos(k pi x / L) at cell centers is an exact eigenvector of the
        # mirrored-ghost Laplacian with eigenvalue (2 cos(k pi h / L) - 2)/h^2
        g = Grid((1.0,), (40,))
        h = g.h[0]
        k = 3
        u = np.cos(k * math.pi * g.axis_centers(0))
        lam = (2.0 * math.cos(k * math.pi * h) - 2.0) / h**2
        np.testing.assert_allclose(laplacian_matrix(g) @ u, lam * u, atol=1e-10)


class TestDctDiagonalisation:
    GRIDS = [
        Grid((1.0,), (16,)),
        Grid((1.0, 1.0), (8, 8)),
        Grid((1.0, 2.0), (6, 9)),
        Grid((1.0, 2.0, 0.5), (6, 5, 4)),
    ]

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_modes_are_eigenvectors_of_the_matrix(self, g):
        # every DCT-II mode is an eigenvector of the sparse Neumann matrix
        # with the tabulated eigenvalue
        n = int(np.prod(g.shape))
        modes = g.from_modes(np.eye(n).reshape((n,) + g.shape)).reshape(n, n)
        lam = g.mode_eigenvalues().ravel()
        applied = (laplacian_matrix(g) @ modes.T).T
        np.testing.assert_allclose(applied, lam[:, None] * modes, atol=1e-9 * np.abs(lam).max())

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_transform_is_orthonormal(self, g):
        u = np.random.default_rng(4).standard_normal((3,) + g.shape)
        coeffs = g.to_modes(u)
        np.testing.assert_allclose(g.from_modes(coeffs), u, atol=1e-13)
        np.testing.assert_allclose(np.sum(coeffs**2), np.sum(u**2), rtol=1e-13)

    def test_mode_zero_eigenvalue_is_exactly_zero(self):
        for g in self.GRIDS:
            assert g.mode_eigenvalues()[(0,) * g.dimension] == 0.0

    @pytest.mark.parametrize("g", GRIDS[2:], ids=lambda g: "x".join(map(str, g.cells)))
    def test_batched_stencil_matches_matrix_row_by_row(self, g):
        u = np.random.default_rng(1).standard_normal((2, 3) + g.shape)
        batched = g.laplacian(u)
        for idx in np.ndindex(2, 3):
            via_matrix = (laplacian_matrix(g) @ u[idx].ravel()).reshape(g.shape)
            np.testing.assert_allclose(batched[idx], via_matrix, atol=1e-12)

    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_work_arrays_give_the_fresh_results_bit_for_bit(self, g):
        # the in-place transforms and the stencil into given arrays, as a
        # run's diffusion substep calls them, over stale contents
        u = np.random.default_rng(2).standard_normal((2, 3) + g.shape)
        work = u.copy()
        g.to_modes(work, overwrite_x=True)
        assert work.tobytes() == g.to_modes(u).tobytes()
        g.from_modes(work, overwrite_x=True)
        assert work.tobytes() == g.from_modes(g.to_modes(u)).tobytes()
        out, flux = np.full_like(u, np.nan), np.full_like(u, np.nan)
        assert g.laplacian(u, out=out, flux=flux) is out
        assert out.tobytes() == g.laplacian(u).tobytes()


class TestStencilOracle:
    """`Grid.laplacian`, on contiguous offset faces over the flattened grid
    axes, against the per-axis slice stencil it replaced, bit for bit."""

    GRIDS = [
        Grid((1.0,), (2,)),
        Grid((2.0,), (33,)),
        Grid((1.0, 0.7), (2, 2)),
        Grid((1.0, 3.0), (7, 2)),
        Grid((0.3, 1.0), (2, 9)),
        Grid((1.0, 1.0), (128, 128)),
        Grid((1.0, 1.0, 1.0), (2, 2, 2)),
        Grid((0.5, 1.0, 2.0), (3, 5, 2)),
        Grid((1.0, 2.0, 3.0), (4, 9, 7)),
    ]

    @staticmethod
    def field(g, batch, seed):
        """Normal values at scales from 1e-300 to 1e300, with signed zeros, infinities and NaNs sprinkled in."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(batch + g.shape) * 10.0 ** rng.choice([-300, -5, 0, 5, 300], size=batch + g.shape)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        at = rng.random(u.shape) < 0.1
        u[at] = rng.choice(specials, size=np.count_nonzero(at))
        return u

    @pytest.mark.parametrize("batch", [(), (3,), (2, 1)], ids=str)
    @pytest.mark.parametrize("g", GRIDS, ids=lambda g: "x".join(map(str, g.cells)))
    def test_matches_the_slice_stencil_bit_for_bit(self, g, batch):
        u = self.field(g, batch, sum(g.cells) + len(batch))
        with np.errstate(invalid="ignore", over="ignore"):
            expected = slice_laplacian(g, u).tobytes()
            assert g.laplacian(u).tobytes() == expected
            for stale in (np.nan, -0.0, np.inf):  # over stale out and flux contents
                out, flux = np.full_like(u, stale), np.full_like(u, -stale)
                assert g.laplacian(u, out=out, flux=flux) is out
                assert out.tobytes() == expected
            # strided values are read as they are; only out must be contiguous
            wide = np.repeat(u, 2, axis=-1)[..., ::2]
            assert g.laplacian(wide).tobytes() == expected

    def test_a_strided_out_is_refused_on_a_multi_axis_grid(self):
        g = Grid((1.0, 1.0), (4, 6))
        with pytest.raises(ValueError, match="C-contiguous"):
            g.laplacian(np.ones(g.shape), out=np.empty((4, 12))[:, ::2])

    def test_cell_strides_are_the_flattened_axis_strides(self):
        g = Grid((1.0, 1.0, 1.0), (3, 5, 2))
        assert g.cell_strides == tuple(s // 8 for s in np.empty(g.shape).strides) == (10, 2, 1)


class TestQuadratures:
    def test_integrate_constant(self):
        g = Grid((2.0, 3.0), (10, 12))
        assert integrate(g, np.full(g.shape, 1.5)) == pytest.approx(9.0)

    @pytest.mark.parametrize(
        "g, slope",
        [(Grid((1.0,), (50,)), (1.0,)), (Grid((1.0, 2.0, 0.5), (10, 12, 6)), (1.0, 2.0, -3.0))],
        ids=["1d", "3d"],
    )
    def test_gradient_energy_of_linear_profile(self, g, slope):
        # u = slope . x: |grad u|^2 = |slope|^2 everywhere, so the integral
        # is |slope|^2 times the measure (1 on (0, 1), 14 on the 3D box),
        # and the boundary half-cell extension keeps the discrete value exact
        u = sum(c * x for c, x in zip(slope, g.centers()))
        expected = sum(c * c for c in slope) * g.measure
        assert gradient_energy(g, u) == pytest.approx(expected, rel=1e-12)

    def test_gradient_energy_of_constant_is_zero(self):
        g = Grid((1.0, 1.0), (8, 8))
        assert gradient_energy(g, np.full(g.shape, 4.2)) == 0.0

    def test_weighted_form_matches_sqrt_substitution(self):
        g = Grid((1.0,), (32,))
        u = 1.0 + 0.5 * np.cos(np.pi * g.axis_centers(0))
        direct = 4.0 * gradient_energy(g, np.sqrt(u))
        assert gradient_energy(g, u, weighted=True) == pytest.approx(direct)

    def test_weighted_form_tolerates_vacuum(self):
        g = Grid((1.0,), (16,))
        u = np.zeros(16)
        u[8:] = 1.0
        val = gradient_energy(g, u, weighted=True)
        assert math.isfinite(val) and val > 0.0

    def test_weighted_form_rejects_negative_fields(self):
        g = Grid((1.0,), (8,))
        with pytest.raises(ValueError):
            gradient_energy(g, np.linspace(-1, 1, 8), weighted=True)

    def test_gradient_energy_converges_second_order(self):
        # smooth profile: discrete energy approaches the analytic value
        exact = math.pi**2 / 2.0  # integral of |d/dx cos(pi x)|^2 on (0,1)
        errs = []
        # coarse levels sit near a sign change of two competing O(h^2)
        # terms, so measure the order well inside the asymptotic regime
        for n in (128, 256, 512):
            g = Grid((1.0,), (n,))
            u = np.cos(math.pi * g.axis_centers(0))
            errs.append(abs(gradient_energy(g, u) - exact))
        order = math.log2(errs[1] / errs[2])
        assert errs[0] > errs[1] > errs[2]
        assert order == pytest.approx(2.0, abs=0.5)
