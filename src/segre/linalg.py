"""Exact linear algebra over the Gaussian rationals, on one sparse echelon.

Every elimination of the engine goes through ``Echelon``: sparse rows
{key: GaussianRational} with orderable keys, each stored row scaled to 1 at
its pivot, the row's least key.  Dense matrices enter as rows keyed by column
index.  The kernel search transposes its sparse columns into rows keyed by
descending column index, eliminates them sparsest first and reads the kernel
off the reduced echelon form: one vector per free column.  (The valuation
pivoting of ``rank._eliminate`` works over Q(i)[eps]/(eps^(K+1)) and stays
apart.)
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from .series import ZERO, ONE, GaussianRational

Matrix = List[List[GaussianRational]]
Row = Dict[Hashable, GaussianRational]


def _subtract(target: Row, factor: GaussianRational, row: Row) -> None:
    """target -= factor * row in place, dropping the entries that cancel."""
    for key, value in row.items():
        old = target.get(key)
        new = -(factor * value) if old is None else old - factor * value
        if new:
            target[key] = new
        else:
            del target[key]


class Echelon:
    """Sparse rows in echelon form over orderable keys, indexed by pivot.

    Each stored row is 1 at its pivot, its least key, and 0 at the pivots of
    the rows stored before it.  A nonzero combination of the rows is nonzero
    at the least pivot it uses, so the remainder of a vector that is 0 at
    every pivot is unique, whatever order the pivots are cleared in.
    """

    def __init__(self):
        self.rows: Dict[Hashable, Row] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Mapping[Hashable, GaussianRational]) -> Row:
        """The remainder of ``vec`` against the stored rows: 0 at every pivot.

        Pivots present are cleared in ascending order from a heap; a row's
        keys are at or above its pivot, so each pivot is cleared once.
        """
        rows = self.rows
        rest = {key: value for key, value in vec.items() if value}
        heap = [key for key in rest if key in rows]
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            factor = rest.get(pivot)
            if factor is not None:
                row = rows[pivot]
                # the pivots this subtraction brings in
                for key in [key for key in row if key not in rest and key in rows]:
                    heappush(heap, key)
                _subtract(rest, factor, row)
        return rest

    def add(self, vec: Mapping[Hashable, GaussianRational]) -> bool:
        """Store the remainder of ``vec`` if it is nonzero; True when the span grew."""
        return self.push(self.reduce(vec))

    def push(self, rest: Row) -> bool:
        """Store ``rest``, already 0 at every pivot, if it is nonzero; True when the span grew."""
        if not rest:
            return False
        pivot = min(rest)
        inv = rest[pivot].inverse()
        self.rows[pivot] = {key: value * inv for key, value in rest.items()}
        return True

    def reduced(self) -> List[Row]:
        """The stored rows in reduced row echelon form, sorted by pivot.

        From the highest pivot down, each row subtracts the finished rows of the pivots it holds.
        """
        done: Dict[Hashable, Row] = {}
        for pivot in sorted(self.rows, reverse=True):
            row = dict(self.rows[pivot])
            for key in sorted((key for key in row if key in done), reverse=True):
                _subtract(row, row[key], done[key])
            done[pivot] = row
        return [done[pivot] for pivot in sorted(done)]


def rank_with_pivots(matrix: Sequence[Sequence[GaussianRational]]) -> Tuple[int, List[int], List[int]]:
    """Exact rank plus the row and column indices of the pivot positions.

    The pivot rows/columns (both sorted) index an invertible r x r submatrix
    of the input.
    """
    echelon = Echelon()
    pivot_rows = [index for index, row in enumerate(matrix) if echelon.add(dict(enumerate(row)))]
    return len(pivot_rows), pivot_rows, sorted(echelon.rows)


def rank(matrix: Sequence[Sequence[GaussianRational]]) -> int:
    return rank_with_pivots(matrix)[0]


def invert(matrix: Sequence[Sequence[GaussianRational]]) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(matrix)
    echelon = Echelon()
    for i, row in enumerate(matrix):
        echelon.add({**dict(enumerate(row)), n + i: ONE})
    reduced = echelon.reduced()
    # a pivot at or past n is a row of [A | I] whose A-part reduced to zero
    if [min(row) for row in reduced] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(n + col, ZERO) for col in range(n)] for row in reduced]


def sparse_kernel(columns: Sequence[Mapping]) -> List[dict]:
    """The kernel of sparsely given columns, in reduced row echelon form.

    Each column is a dict mapping orderable row keys to nonzero entries.  The
    result holds one vector {column index: coefficient} per free column f,
    sorted by f: 1 at f, its least index, 0 at the other free columns, and at
    each pivot column p > f minus the entry at f of the reduced row with
    pivot p.  This is the unique reduced row echelon basis of the kernel,
    with pivots at least indices.

    The matrix is eliminated by rows, each row keyed by -index so that every
    pivot is its row's highest column, and sparsest row first (Markowitz
    1957): a short row brings few keys into the rows reduced after it.
    """
    rows: Dict[Hashable, Row] = {}
    for index, column in enumerate(columns):
        for key, value in column.items():
            rows.setdefault(key, {})[-index] = value
    echelon = Echelon()
    for row in sorted(rows.values(), key=len):
        echelon.add(row)
    kernel = {free: {free: ONE} for free in range(len(columns)) if -free not in echelon.rows}
    for pivot, row in zip(sorted(echelon.rows), echelon.reduced()):
        for key, value in row.items():
            if key != pivot:  # a free column: the reduced row is 0 at every other pivot
                kernel[-key][-pivot] = -value
    return list(kernel.values())
