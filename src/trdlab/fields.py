"""Per-species concentration fields on one grid at one time level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid
from .model import TriangularSystem

__all__ = ["FieldSet"]


@dataclass
class FieldSet:
    """Concentrations stacked along the leading species axis:
    values.shape == (m,) + grid.shape, or (m, B) + grid.shape for B
    n-levels advanced together."""

    system: TriangularSystem
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.system.m,) + self.grid.shape
        shape = self.values.shape
        if shape[:1] + shape[-self.grid.dimension :] != expected or len(shape) - len(expected) not in (0, 1):
            raise ValueError(f"expected values of shape {expected}, or with a level axis second, got {shape}")

    def level(self, b: int) -> "FieldSet":
        """Level b of a batch, as a contiguous copy."""
        return FieldSet(self.system, self.grid, np.ascontiguousarray(self.values[:, b]))

    @classmethod
    def constant(cls, system: TriangularSystem, grid: Grid, state) -> "FieldSet":
        state = np.asarray(state, dtype=float)
        vals = np.broadcast_to(
            state.reshape((system.m,) + (1,) * grid.dimension),
            (system.m,) + grid.shape,
        ).copy()
        return cls(system, grid, vals)

    def species(self, i: int) -> Field:
        """Field of species i (1-based)."""
        return Field(self.grid, self.values[i - 1])

    def copy(self) -> "FieldSet":
        return FieldSet(self.system, self.grid, self.values.copy())

    def min_value(self) -> float:
        return float(self.values.min())
