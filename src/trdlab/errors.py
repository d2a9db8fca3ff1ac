"""Structured errors shared across the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class InvariantBreach(RuntimeError):
    """A hard run invariant (positivity, mass, entropy, pointwise pair)
    was violated beyond tolerance."""

    def __init__(self, kind: str, message: str, details: dict | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind, self.message, self.details = kind, message, details or {}

    def at_n(self, n: float) -> "InvariantBreach":
        """The same breach, naming the regularization level n it happened at."""
        return InvariantBreach(self.kind, f"at n={n:g}: {self.message}", {**self.details, "n": n})
