"""Exact linear algebra against the cofactor oracle, on random Q(i) matrices.

The matrices are up to 5 x 5 with many zero entries; half of them are
products through a narrower inner dimension, so low ranks are common.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from segre import linalg
from segre.series import ONE, ZERO, GaussianRational

from oracles import (
    brute_force_rank,
    carried_kernel,
    constant_rank,
    d_const,
    d_det,
    first_invertible_columns,
    sparse_rref,
)

_scalar = st.builds(
    lambda re, im, den: GaussianRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 3),
)
_entry = st.one_of(st.just(ZERO), _scalar)


def matmul(a, b):
    inner = len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@st.composite
def matrices(draw, square=False):
    n_rows = draw(st.integers(1, 5))
    n_cols = n_rows if square else draw(st.integers(1, 5))

    def block(rows, cols):
        return [[draw(_entry) for _ in range(cols)] for _ in range(rows)]

    if draw(st.booleans()):
        return block(n_rows, n_cols)
    inner = draw(st.integers(1, min(n_rows, n_cols)))
    return matmul(block(n_rows, inner), block(inner, n_cols))


def minors_rank(matrix) -> int:
    return brute_force_rank([[d_const(0, value) for value in row] for row in matrix])


@given(matrices())
def test_rank_against_minors(matrix):
    assert linalg.rank(matrix) == minors_rank(matrix) == constant_rank(matrix)


@given(matrices())
def test_rank_with_pivots_cites_an_invertible_minor(matrix):
    r, rows, cols = linalg.rank_with_pivots(matrix)
    assert r == len(rows) == len(cols) == minors_rank(matrix)
    assert rows == sorted(set(rows)) and cols == sorted(set(cols))
    if r:
        assert d_det([[d_const(0, matrix[i][j]) for j in cols] for i in rows])


@st.composite
def z_differentials(draw):
    """A d x N matrix, N <= 7, whose columns are often zero or a multiple of an earlier one."""
    d = draw(st.integers(1, 4))
    N = draw(st.integers(d + 1, 7))
    columns = []
    for _ in range(N):
        kind = draw(st.sampled_from(["zero", "repeat", "fresh"] if columns else ["zero", "fresh"]))
        if kind == "zero":
            columns.append([ZERO] * d)
        elif kind == "repeat":
            factor = draw(_scalar)
            columns.append([factor * entry for entry in draw(st.sampled_from(columns))])
        else:
            columns.append([draw(_scalar) for _ in range(d)])
    return [[column[row] for column in columns] for row in range(d)]


@given(z_differentials())
def test_the_pivot_columns_are_the_first_invertible_columns(linear):
    # the greedy column basis of one elimination is the lexicographically
    # first basis (Edmonds 1971): a rho load's w-columns
    rank, _, pivots = linalg.rank_with_pivots(linear)
    expected = first_invertible_columns(linear, len(linear))
    assert (tuple(pivots) if rank == len(linear) else None) == expected


@given(matrices(square=True))
def test_invert(matrix):
    n = len(matrix)
    if minors_rank(matrix) < n:
        with pytest.raises(ValueError):
            linalg.invert(matrix)
        return
    inverse = linalg.invert(matrix)
    identity = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    assert matmul(matrix, inverse) == identity == matmul(inverse, matrix)


def _columns(matrix):
    return [{(i,): row[c] for i, row in enumerate(matrix) if row[c]} for c in range(len(matrix[0]))]


def assert_rref(reduced, n_cols):
    """Pivots strictly ascending, each row 1 at its pivot, its least key, and absent elsewhere."""
    pivots = [min(row) for row in reduced]
    assert pivots == sorted(set(pivots))
    for row, pivot in zip(reduced, pivots):
        assert all(row.values())
        assert row[pivot] == ONE
        assert all(pivot not in other for other in reduced if other is not row)
        assert all(0 <= key < n_cols for key in row)


@given(matrices())
def test_sparse_kernel(matrix):
    n_cols = len(matrix[0])
    columns = _columns(matrix)
    kernel = linalg.sparse_kernel(columns)
    assert len(kernel) == n_cols - minors_rank(matrix)
    assert_rref(kernel, n_cols)
    for combination in kernel:
        for row in matrix:
            assert sum((value * row[c] for c, value in combination.items()), ZERO) == ZERO
    # the reduced row echelon basis is unique: term for term the oracle's
    assert kernel == sparse_rref(carried_kernel(columns))


def test_sparse_kernel_of_zero_columns():
    assert linalg.sparse_kernel([{}, {}, {}]) == [{0: ONE}, {1: ONE}, {2: ONE}]
    assert linalg.sparse_kernel([]) == []
    two = GaussianRational(2)
    # column 1 is zero, column 2 is twice column 0
    columns = [{"a": ONE, "b": ONE}, {}, {"a": two, "b": two}]
    assert linalg.sparse_kernel(columns) == [{0: ONE, 2: GaussianRational(Fraction(-1, 2))}, {1: ONE}]
    assert linalg.sparse_kernel(columns) == sparse_rref(carried_kernel(columns))


@given(matrices())
def test_sparse_rref(matrix):
    n_cols = len(matrix[0])
    reduced = sparse_rref([{c: v for c, v in enumerate(row) if v} for row in matrix])
    assert_rref(reduced, n_cols)
    dense = [[row.get(c, ZERO) for c in range(n_cols)] for row in reduced]
    # same row space: neither side adds rank to the other
    assert len(reduced) == minors_rank(matrix) == minors_rank(matrix + dense)


@given(matrices())
def test_echelon_add_reports_growth(matrix):
    echelon = linalg.Echelon()
    for k, row in enumerate(matrix):
        grew = echelon.add(dict(enumerate(row)))
        assert grew == (minors_rank(matrix[: k + 1]) > minors_rank(matrix[:k]))
        assert echelon.reduce(dict(enumerate(row))) == {}
    assert len(echelon) == minors_rank(matrix)
