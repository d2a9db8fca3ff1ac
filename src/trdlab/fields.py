"""Per-species concentration fields on one grid at one time level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
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

    def min_value(self) -> float:
        return float(self.values.min())
