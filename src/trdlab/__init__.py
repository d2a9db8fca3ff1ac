"""Numerical laboratory for degenerate triangular reaction-diffusion
systems: regularized simulation, entropy/conservation verification,
pointwise Picard iteration, heat-kernel estimates, and exact-rational
L^p bootstrap chains.
"""

from .errors import ConfigError, InvariantBreach
from .fields import FieldSet
from .grid import Grid
from .model import DegeneracyClass, TriangularSystem, classify
from .stepper import StepperConfig, run

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegeneracyClass",
    "FieldSet",
    "Grid",
    "InvariantBreach",
    "StepperConfig",
    "TriangularSystem",
    "classify",
    "run",
]
