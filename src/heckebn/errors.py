"""Shared exception types.

Every precondition failure raises a subclass of HeckeError so the CLI can map
"the question does not apply here" (InapplicableError and its subclasses) to
its own exit code, distinct from genuine computation failures.
"""

from __future__ import annotations


class HeckeError(Exception):
    """Base class for all package-specific errors."""


class InapplicableError(HeckeError):
    """A well-formed question whose preconditions fail at these parameters."""


class InapplicablePrimeError(InapplicableError):
    """Prime-field certificate requested at a prime the method cannot use."""

    def __init__(self, k: int, g: int, reason: str):
        self.k = k
        self.g = g
        self.reason = reason
        super().__init__(f"k={k}, g={g}: {reason}")


class NegativeExpectedDimensionError(InapplicableError):
    """Pairing requested where the expected dimension is negative."""

    def __init__(self, g: int, k: int, expected_dim: int):
        self.g = g
        self.k = k
        self.expected_dim = expected_dim
        super().__init__(
            f"g={g}, k={k}: expected dimension {expected_dim} is negative"
        )
