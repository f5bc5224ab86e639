"""The settings a command takes from its options, each default decided here.

``ORDER_LADDER`` is no setting: every rank is read at kappa plus each of its
steps, and every manifold is loaded at kappa plus the last (``top_order``).
The rank certificates' other constants live in ``rank``; a run chooses only
their seed.
"""

from __future__ import annotations

from typing import Optional

from .errors import ConfigError
from .record import Record

DEFAULT_SEED = 0x5E62E
ORDER_LADDER = (0, 4, 8)


def top_order(kappa: int) -> int:
    """The order a manifold is loaded at, the highest a run at ``kappa`` reads."""
    return kappa + ORDER_LADDER[-1]


class RunConfig(Record):
    """Resolved defaults: J_max falls back to d + 2, bracket depth and degree
    bound to values derived from the truncation order.  Out-of-range values
    raise ``ConfigError`` before any work starts."""

    kappa: int = 8
    J_max: Optional[int] = None
    bracket_depth: Optional[int] = None
    degree_bound: Optional[int] = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.kappa < 2:
            raise ConfigError("kappa must be at least 2")
        if self.J_max is not None and self.J_max < 2:
            raise ConfigError("J_max must be at least 2")
        if self.bracket_depth is not None and self.bracket_depth < 1:
            raise ConfigError("bracket depth must be at least 1")
        if self.degree_bound is not None and not 1 <= self.degree_bound <= self.kappa // 2:
            raise ConfigError(f"degree bound must lie in 1..kappa/2 = {self.kappa // 2}")

    def resolve_jmax(self, d: int) -> int:
        return self.J_max if self.J_max is not None else d + 2

    def resolve_depth(self) -> int:
        return self.bracket_depth if self.bracket_depth is not None else self.kappa

    def resolve_degree(self) -> int:
        if self.degree_bound is not None:
            return self.degree_bound
        return min(4, self.kappa // 2)
