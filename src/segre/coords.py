"""Coordinate conventions shared across the engine.

Every manifold-level object lives in one of three rings, all derived from the
dimensions (N, d, n = N - d):

  ambient ring, 2N variables:  z_1..z_n, w_1..w_d, ch_1..ch_n, ta_1..ta_d
      (the first N slots are the Z-block, the last N the conjugate block;
       the sigma involution swaps the halves)
  graph ring, n + N variables: z_1..z_n, ch_1..ch_n, ta_1..ta_d
      (the source of the graph map Q; its conjugate is read in the
       slot order ch, z, w)
  raw ring, 2N variables:      Z_1..Z_N, ze_1..ze_N
      (defining functions as the user wrote them, before the coordinate
       split into (z, w) is chosen)

Keeping all index arithmetic here is deliberate: block-slot mistakes are the
one class of bug the rest of the engine cannot catch locally.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .record import Record


class Dims(Record):
    """Dimension data of a generic manifold: ambient N, codimension d."""

    N: int
    d: int

    def __post_init__(self):
        if self.d < 1 or self.N <= self.d:
            raise ValueError(f"need N > d >= 1, got N={self.N}, d={self.d}")

    @property
    def n(self) -> int:
        return self.N - self.d

    @property
    def ambient_arity(self) -> int:
        return 2 * self.N

    @property
    def graph_arity(self) -> int:
        return self.n + self.N

    # -- ambient slots -------------------------------------------------

    def z(self, i: int) -> int:
        return i

    def w(self, l: int) -> int:
        return self.n + l

    def ch(self, i: int) -> int:
        return self.N + i

    def ta(self, l: int) -> int:
        return self.N + self.n + l

    # -- graph-ring slots (z, ch, ta) -----------------------------------

    def gz(self, i: int) -> int:
        return i

    def gch(self, i: int) -> int:
        return self.n + i

    def gta(self, l: int) -> int:
        return 2 * self.n + l

    # -- name tables -----------------------------------------------------

    def ambient_names(self) -> List[str]:
        return (
            [f"z{i + 1}" for i in range(self.n)]
            + [f"w{l + 1}" for l in range(self.d)]
            + [f"ch{i + 1}" for i in range(self.n)]
            + [f"ta{l + 1}" for l in range(self.d)]
        )

    def graph_names(self) -> List[str]:
        return (
            [f"z{i + 1}" for i in range(self.n)]
            + [f"ch{i + 1}" for i in range(self.n)]
            + [f"ta{l + 1}" for l in range(self.d)]
        )

    def z_names(self) -> List[str]:
        return [f"z{i + 1}" for i in range(self.n)] + [f"w{l + 1}" for l in range(self.d)]

    def raw_names(self) -> List[str]:
        return [f"Z{c + 1}" for c in range(self.N)] + [f"ze{c + 1}" for c in range(self.N)]

    # -- ring-to-ring assignments -----------------------------------------

    def graph_to_ambient(self) -> List[int]:
        """map_vars assignment embedding the graph ring into the ambient ring."""
        return (
            [self.z(i) for i in range(self.n)]
            + [self.ch(i) for i in range(self.n)]
            + [self.ta(l) for l in range(self.d)]
        )

    def raw_to_ambient(self, w_columns: Sequence[int]) -> List[Optional[int]]:
        """Assignment for the raw (Z, ze) ring once the w-columns are chosen.

        ``w_columns`` lists the d indices of Z-coordinates that become w,
        in increasing order; the conjugate block follows the same split.
        """
        w_cols = list(w_columns)
        z_cols = [c for c in range(self.N) if c not in w_cols]
        assignment: List[Optional[int]] = [0] * (2 * self.N)
        for i, c in enumerate(z_cols):
            assignment[c] = self.z(i)
            assignment[self.N + c] = self.ch(i)
        for l, c in enumerate(w_cols):
            assignment[c] = self.w(l)
            assignment[self.N + c] = self.ta(l)
        return assignment


def block_names(prefix: str, blocks: int, size: int) -> List[str]:
    """Names for iterated-source rings: t1, t2, ... or t1_1, t1_2, ... per block."""
    if size == 1:
        return [f"{prefix}{b + 1}" for b in range(blocks)]
    return [f"{prefix}{b + 1}_{i + 1}" for b in range(blocks) for i in range(size)]
