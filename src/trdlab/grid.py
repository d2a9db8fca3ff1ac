"""Cell-centered finite-volume grids on boxes of any dimension with
homogeneous Neumann boundary (mirror ghost cells).

The discrete Laplacian is symmetric with zero row sums, so constants are
harmonic and the cell sum of laplacian(u) vanishes to roundoff.  The
orthonormal DCT-II diagonalises it exactly: along an axis of N cells of
width h, mode k samples cos(k pi x / L) at the cell centres and has
eigenvalue -(2/h sin(pi k / 2N))^2 (G. Strang, "The Discrete Cosine
Transform", SIAM Review 41, 1999).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
# the same pocketfft transforms as scipy.fft's, without its backend
# dispatch, which costs as much as a whole 128-cell transform
from scipy.fftpack import dct, idct

__all__ = ["Grid", "work_array"]


@dataclass(frozen=True)
class Grid:
    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in self.cells):
            raise ValueError(f"cells must be integers, got {tuple(self.cells)!r}")
        object.__setattr__(self, "cells", tuple(int(v) for v in self.cells))
        if not self.lengths or len(self.lengths) != len(self.cells):
            raise ValueError("need one length and one cell count per axis, and at least one axis")
        if any(v <= 0 for v in self.lengths):
            raise ValueError("lengths must be positive")
        if any(n < 2 for n in self.cells):
            raise ValueError("need at least 2 cells per axis")
        # sum (2/h)^2 bounds the largest Laplacian eigenvalue; finite, it keeps 1/h^2, the stencil's divisor, finite
        if not (all(0.0 < h * h < np.inf for h in self.h) and sum((2.0 / h) * (2.0 / h) for h in self.h) < np.inf
                and 0.0 < reduce(float.__mul__, self.h) and reduce(float.__mul__, self.lengths) < np.inf):
            raise ValueError(f"lengths give cells {self.h} whose h^2, sum (2/h)^2 or measure is not positive and finite")

    @cached_property
    def dimension(self) -> int:
        return len(self.lengths)

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @cached_property
    def cell_measure(self) -> float:
        return float(np.prod(self.h))

    @property
    def measure(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.h[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def centers(self):
        """Cell-center coordinate arrays, broadcastable to `shape`."""
        return tuple(np.meshgrid(*map(self.axis_centers, range(self.dimension)), indexing="ij"))

    @cached_property
    def laplacian_eigenvalues(self) -> tuple[np.ndarray, ...]:
        """Per-axis eigenvalues -(2/h sin(pi k / 2N))^2, k = 0..N-1; mode 0
        (the constants) has eigenvalue exactly 0."""
        return tuple(
            -((2.0 / h) * np.sin(np.pi * np.arange(n) / (2 * n))) ** 2
            for n, h in zip(self.cells, self.h)
        )

    def mode_eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalue of every tensor-product mode, shaped like
        the grid."""
        return reduce(np.add.outer, self.laplacian_eigenvalues)

    def to_modes(self, values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Orthonormal DCT-II coefficients of `values` over its trailing
        grid axes; leading axes are batch axes.  With overwrite_x, every
        pass runs in place in `values`."""
        for axis in range(-self.dimension, 0):
            values = dct(values, norm="ortho", axis=axis, overwrite_x=overwrite_x)
        return values

    def from_modes(self, coeffs: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Inverse of `to_modes` (the transform is orthonormal)."""
        for axis in range(-self.dimension, 0):
            coeffs = idct(coeffs, norm="ortho", axis=axis, overwrite_x=overwrite_x)
        return coeffs

    @cached_property
    def cell_strides(self) -> tuple[int, ...]:
        """Each axis's stride in cells over the flattened grid axes."""
        return tuple(reduce(int.__mul__, self.cells[k + 1 :], 1) for k in range(self.dimension))

    def laplacian(self, values: np.ndarray, out: np.ndarray | None = None, flux: np.ndarray | None = None):
        """Neumann Laplacian of `values` over its trailing grid axes, as
        zero-flux face differences; leading axes are batch axes.  `out`
        (C-contiguous) receives it, and `flux` is a work array holding offset
        faces: each axis's faces are one difference over the flattened grid axes,
        at an offset of its stride in cells, with those that wrap past its
        last cell zeroed, which adds a +0.0 that changes no bit of `out`."""
        out = np.empty_like(values) if out is None else out
        lap, flux = out, np.empty_like(values) if flux is None else flux
        if self.dimension > 1:
            if not out.flags.c_contiguous:
                raise ValueError("the Laplacian's out must be C-contiguous")
            flat = values.shape[: values.ndim - self.dimension] + (-1,)
            values, lap, flux = values.reshape(flat), out.reshape(flat), flux.reshape(flat)
        lap.fill(0.0)
        for k, (h, s) in enumerate(zip(self.h, self.cell_strides)):
            f = np.subtract(values[..., s:], values[..., :-s], out=flux[..., :-s])
            f *= 1.0 / h**2
            if k:
                flux.reshape(flux.shape[:-1] + (-1, self.cells[k], s))[..., -1, :] = 0.0
            lap[..., :-s] += f
            lap[..., s:] -= f
        return out

    def cell_sum(self, values: np.ndarray) -> np.ndarray:
        """Sum over the trailing grid axes, per index of the leading ones."""
        return values.reshape(values.shape[: values.ndim - self.dimension] + (-1,)).sum(axis=-1)


def work_array(work: dict | None, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """Array `name` of the dict `work`, made anew when the shape asked for changes or `work` is None."""
    work = {} if work is None else work
    a = work.get(name)
    if a is None or a.shape != shape:
        a = work[name] = np.empty(shape, dtype)
    return a


def _face_gradient_energy(values: np.ndarray, grid: Grid, work: dict | None):
    """Sum of squared face-centered differences, with the boundary half
    cells carrying the nearest interior face gradient (keeps linear
    profiles exact despite the missing boundary faces); one sum per
    leading index."""
    total = 0.0
    for axis in range(values.ndim - grid.dimension, values.ndim):
        before = (slice(None),) * axis
        hi = values[before + (slice(1, None),)]
        sq = np.subtract(hi, values[before + (slice(None, -1),)], out=work_array(work, f"faces{axis}", hi.shape))
        sq /= grid.h[axis - values.ndim]
        sq *= sq
        w = grid.cell_sum(sq)
        first = grid.cell_sum(sq[before + (slice(None, 1),)])
        last = grid.cell_sum(sq[before + (slice(-1, None),)])
        total += (w + 0.5 * first + 0.5 * last) * grid.cell_measure
    return total


def gradient_energy(grid: Grid, u: np.ndarray, weighted: bool = False, work: dict | None = None):
    """Discrete integral of |grad u|^2 for values u on grid, whose leading
    axes, if any, are n-levels; with weighted=True computes 4 |grad sqrt(u)|^2,
    the vacuum-safe form of |grad u|^2 / u.  A float for one field, one
    value per level for a batch; temporaries in `work`."""
    if not weighted:
        return per_level(_face_gradient_energy(u, grid, work))
    if np.less(u, 0.0, out=work_array(work, "negative", u.shape, bool)).any():
        raise ValueError("weighted gradient energy needs a nonnegative field")
    return per_level(4.0 * _face_gradient_energy(np.sqrt(u, out=work_array(work, "sqrt", u.shape)), grid, work))


def per_level(value):
    """A float for a single level's reduction, else the per-level array."""
    return float(value) if np.ndim(value) == 0 else value
