"""Reference implementations the tests check trdlab against, the sparse
Neumann Laplacian matrix among them, and state helpers that the package
itself does not need."""

from __future__ import annotations

import math
from functools import cache, reduce

import numpy as np
import scipy.sparse as sp

from trdlab.fields import FieldSet
from trdlab.grid import Field, Grid
from trdlab.kernel import KernelSpec
from trdlab.model import TriangularSystem


@cache
def laplacian_matrix(grid: Grid) -> sp.csr_matrix:
    """Sparse Neumann Laplacian acting on flattened fields: the
    Kronecker sum of the per-axis operators, last axis fastest."""
    mats = []
    for n, h in zip(grid.cells, grid.h):
        main = np.full(n, -2.0)
        main[0] = main[-1] = -1.0
        off = np.ones(n - 1)
        mats.append(sp.diags([off, main, off], [-1, 0, 1]) / h**2)
    # kronsum(A, B) = kron(I, A) + kron(B, I) puts A on the fast axis
    return reduce(sp.kronsum, mats[::-1]).tocsr()


def neumann_laplacian(field: Field) -> Field:
    """Second-order central differences with mirrored ghost cells."""
    return Field(field.grid, field.grid.laplacian(field.values))


def integrate(field: Field) -> float:
    """Midpoint quadrature: sum of cell values times the cell measure."""
    return float(field.values.sum() * field.grid.cell_measure)


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def constant_state(system: TriangularSystem, grid: Grid, state) -> FieldSet:
    """The FieldSet with the species values `state` in every cell."""
    state = np.asarray(state, dtype=float)
    vals = np.broadcast_to(state.reshape((system.m,) + (1,) * grid.dimension), (system.m,) + grid.shape).copy()
    return FieldSet(system, grid, vals)


def species(fields: FieldSet, i: int) -> Field:
    """Field of species i (1-based)."""
    return Field(fields.grid, fields.values[i - 1])


def broadcast_pair_table(spec: KernelSpec, L: float, t: float, c: np.ndarray) -> np.ndarray:
    """The cosine series at time t over every pair of points with cosine
    table c (points x modes), as the (n, n, K) product summed over the
    mode axis: the Gaussian fit's series before it was a matrix product."""
    k = np.arange(1, spec.truncation + 1)
    decay = np.exp(-spec.d * (k * math.pi / L) ** 2 * t)
    return 1.0 / L + (2.0 / L) * np.sum(decay * c[:, None, :] * c[None, :, :], axis=-1)
