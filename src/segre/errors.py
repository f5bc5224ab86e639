"""Exception hierarchy for manifold loading and theorem verification."""

from __future__ import annotations


class SegreError(Exception):
    """Base class for all engine-level failures."""


class ManifoldError(SegreError):
    """A manifold definition could not be loaded."""


class GenericityError(ManifoldError):
    """The defining functions fail the rank-d condition on the Z-differentials at 0."""


class SplitError(ManifoldError):
    """The requested or derived (z, w) coordinate split is unusable."""


class RealityError(ManifoldError):
    """The defining ideal is not closed under the conjugation involution."""

    def __init__(self, message: str, witness: str = ""):
        super().__init__(message)
        self.witness = witness


class ConfigError(SegreError, ValueError):
    """A run option is out of range."""


class InconclusiveError(SegreError):
    """A computation could not certify its result at the configured bounds."""


class InternalConsistencyError(SegreError):
    """A proved identity failed inside the engine; indicates a bug or truncation artifact."""
