"""Certified generic rank of formal mappings over the fraction field.

The rank of a matrix of truncated series is the largest s such that some
s x s minor is nonzero as a series.  The engine reports a certified lower
bound in two phases: a randomized screen evaluates the matrix at integer
points and takes exact constant ranks (cheap, and by the usual polynomial
identity-testing argument very unlikely to undershoot), then the screened
minor is re-expanded symbolically in truncated arithmetic; a nonzero
truncated determinant forces a nonzero true determinant because truncation
is a quotient homomorphism.  A final climb checks that every (r+1)-minor
vanishes modulo the truncation order, which doubles as the fallback when the
screen was unlucky.

Because a minor could first become nonzero beyond the truncation order, the
certificate also reports stability: the rank is recomputed with the order
escalated twice, and ``stable`` records that nothing moved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .config import RankOptions
from .errors import InternalConsistencyError
from .expressions import GenericManifold
from .maps import SegreMapping
from .series import FormalMap, GaussianRational, TruncatedSeries

Matrix = List[List[TruncatedSeries]]


def jacobian(mapping: FormalMap) -> Matrix:
    """The m x p matrix of partial derivatives; entries valid one order lower."""
    return [
        [component.partial(col) for col in range(mapping.source_arity)]
        for component in mapping.components
    ]


@dataclass(frozen=True)
class RankCertificate:
    """A certified lower bound on generic rank with its witnessing minor.

    ``witness_exponent``/``witness_value`` cite a nonzero coefficient of the
    symbolically expanded minor; re-expanding the cited minor in truncated
    arithmetic reproduces it exactly (see ``verify``).  ``stable`` means the
    rank survived two truncation-order escalations unchanged.
    """

    rank: int
    minor_rows: Tuple[int, ...]
    minor_cols: Tuple[int, ...]
    witness_exponent: Optional[Tuple[int, ...]]
    witness_value: Optional[GaussianRational]
    kappa_used: int
    stable: bool

    def verify(self, matrix: Matrix) -> bool:
        if self.rank == 0:
            return all(entry.is_zero() for row in matrix for entry in row)
        det = minor_determinant(matrix, self.minor_rows, self.minor_cols)
        return det.coefficient(self.witness_exponent) == self.witness_value


def minor_determinant(matrix: Matrix, rows: Sequence[int], cols: Sequence[int]) -> TruncatedSeries:
    """Exact truncated determinant of the cited submatrix.

    Cofactor expansion along the column with the most zero entries keeps the
    work proportional to the sparsity actually present.
    """
    rows = list(rows)
    cols = list(cols)
    if len(rows) != len(cols) or not rows:
        raise ValueError("minor needs equally many, and at least one, rows and columns")

    def expand(r: Tuple[int, ...], c: Tuple[int, ...]) -> TruncatedSeries:
        if len(r) == 1:
            return matrix[r[0]][c[0]]
        zero_counts = [sum(1 for i in r if matrix[i][j].is_zero()) for j in c]
        pivot = max(range(len(c)), key=lambda j: zero_counts[j])
        col = c[pivot]
        rest_cols = c[:pivot] + c[pivot + 1 :]
        total: Optional[TruncatedSeries] = None
        for position, i in enumerate(r):
            entry = matrix[i][col]
            if entry.is_zero():
                continue
            rest_rows = r[:position] + r[position + 1 :]
            term = entry * expand(rest_rows, rest_cols)
            if (position + pivot) % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            kappa = min(matrix[i][j].kappa for i in r for j in c)
            return TruncatedSeries.zero(matrix[r[0]][c[0]].arity, kappa)
        return total

    return expand(tuple(rows), tuple(cols))


def _screen(matrix: Matrix, options: RankOptions, rng: random.Random):
    """Evaluate at random integer points; return candidate minors, best first."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    arity = matrix[0][0].arity if matrix and matrix[0] else 0
    candidates = []
    for _ in range(options.trials):
        point = []
        for _ in range(arity):
            value = 0
            while value == 0:
                value = rng.randint(-options.value_bound, options.value_bound)
            point.append(GaussianRational(value))
        constant = [[matrix[i][j].evaluate(point) for j in range(n_cols)] for i in range(n_rows)]
        r, pivot_rows, pivot_cols = linalg.rank_with_pivots(constant)
        if r:
            candidates.append((r, tuple(pivot_rows), tuple(sorted(pivot_cols))))
    candidates.sort(key=lambda item: -item[0])
    return candidates


def _certified_rank(matrix: Matrix, options: RankOptions, rng: random.Random):
    """Largest s with a nonzero truncated s-minor, plus the witnessing minor."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    bound = min(n_rows, n_cols)
    rank = 0
    rows: Tuple[int, ...] = ()
    cols: Tuple[int, ...] = ()
    witness: Optional[Tuple[Tuple[int, ...], GaussianRational]] = None

    for cand_rank, cand_rows, cand_cols in _screen(matrix, options, rng):
        if cand_rank <= rank:
            break
        det = minor_determinant(matrix, cand_rows, cand_cols)
        if not det.is_zero():
            rank, rows, cols = cand_rank, cand_rows, cand_cols
            witness = det.leading_term()
            break

    while rank < bound:
        found = None
        for row_set in combinations(range(n_rows), rank + 1):
            for col_set in combinations(range(n_cols), rank + 1):
                det = minor_determinant(matrix, row_set, col_set)
                if not det.is_zero():
                    found = (row_set, col_set, det)
                    break
            if found:
                break
        if found is None:
            break
        rows, cols = found[0], found[1]
        witness = found[2].leading_term()
        rank += 1
    return rank, rows, cols, witness


def _exact_entry_builder(matrix: Matrix) -> Callable[[int], Matrix]:
    """Escalation builder that treats the given entries as exact polynomials."""

    def build(kappa: int) -> Matrix:
        return [[entry.with_order(kappa) for entry in row] for row in matrix]

    return build


def generic_rank(
    matrix: Optional[Matrix] = None,
    *,
    builder: Optional[Callable[[int], Matrix]] = None,
    kappa: Optional[int] = None,
    options: Optional[RankOptions] = None,
) -> RankCertificate:
    """Certified generic rank with two truncation-order escalations.

    ``builder(kappa)`` must return the matrix recomputed at that order, with
    higher orders refining lower ones (rebuilding from the manifold source
    does this).  When only a plain matrix is given, its entries are treated
    as exact polynomial data, which holds for every matrix this engine
    constructs from parsed polynomial input.
    """
    options = options or RankOptions()
    if builder is None:
        if matrix is None:
            raise ValueError("need a matrix or a builder")
        builder = _exact_entry_builder(matrix)
        if kappa is None:
            kappa = min(entry.kappa for row in matrix for entry in row)
    if kappa is None:
        raise ValueError("builder form needs an explicit base truncation order")

    results = []
    for step in range(options.escalations + 1):
        level = kappa + step * options.escalation_step
        work = builder(level)
        if not work or not work[0]:
            results.append((level, 0, (), (), None))
            continue
        rng = random.Random(options.seed * 1000003 + level)
        rank, rows, cols, witness = _certified_rank(work, options, rng)
        results.append((level, rank, rows, cols, witness))

    ranks = [r for _, r, _, _, _ in results]
    if any(b < a for a, b in zip(ranks, ranks[1:])):
        raise InternalConsistencyError(
            f"certified rank decreased under order escalation: {ranks}"
        )
    final = max(ranks)
    stable = all(r == final for r in ranks)
    level, rank, rows, cols, witness = next(res for res in results if res[1] == final)
    return RankCertificate(
        rank=rank,
        minor_rows=rows,
        minor_cols=cols,
        witness_exponent=witness[0] if witness else None,
        witness_value=witness[1] if witness else None,
        kappa_used=level,
        stable=stable,
    )


def rank_along(
    mapping: FormalMap,
    locus: FormalMap,
    options: Optional[RankOptions] = None,
    builder: Optional[Callable[[int], Matrix]] = None,
    kappa: Optional[int] = None,
) -> RankCertificate:
    """Generic rank of the Jacobian composed with a parametrized locus.

    The locus must map its parameters into the mapping's source with zero
    constant terms; the rank is then taken in the parameter variables.
    """
    if locus.target_arity != mapping.source_arity:
        raise ValueError("locus must map into the source of the mapping")
    for component in locus.components:
        if component.constant_term():
            raise ValueError("locus components must vanish at the origin")
    if builder is None:
        composed = [[entry.compose(locus) for entry in row] for row in jacobian(mapping)]
        return generic_rank(composed, kappa=kappa, options=options)
    return generic_rank(builder=builder, kappa=kappa, options=options)


@dataclass(frozen=True)
class RankProfile:
    """Ranks of the iterated mappings together with the stabilization index."""

    ranks: Tuple[int, ...]
    k0: int
    J: int
    certificates: Tuple[RankCertificate, ...]
    stable: bool

    def rank_at(self, j: int) -> int:
        return self.ranks[j - 1]

    @property
    def rank_at_k0(self) -> int:
        return self.ranks[self.k0 - 1]


def rank_profile(
    manifold: GenericManifold,
    J_max: Optional[int] = None,
    options: Optional[RankOptions] = None,
    segre: Optional[SegreMapping] = None,
) -> RankProfile:
    """Certified ranks of v^1 .. v^J with detection of the stabilization index.

    Requires J_max >= d + 2 so the first repeated value is observable; the
    monotone and strict-increase laws are validated and any violation is
    reported as an internal-consistency error (it would indicate a
    truncation artifact, not a property of the manifold).  ``segre`` is the
    run's mapping of this manifold; the escalated orders are taken from it
    (``SegreMapping.at_kappa``), so a caller that passes its own mapping
    shares the lifted iterates.  Without one, a mapping is built here.
    """
    dims = manifold.dims
    if J_max is None:
        J_max = dims.d + 2
    if J_max < dims.d + 2:
        raise ValueError(f"J_max must be at least d + 2 = {dims.d + 2}")
    options = options or RankOptions()
    if segre is None:
        segre = SegreMapping(manifold)

    certificates = []
    for j in range(1, J_max + 1):
        certificates.append(
            generic_rank(
                builder=lambda kappa, j=j: jacobian(segre.at_kappa(kappa).v(j)),
                kappa=manifold.kappa,
                options=options,
            )
        )
    ranks = tuple(cert.rank for cert in certificates)

    if ranks[0] != dims.n:
        raise InternalConsistencyError(f"rank of v^1 is {ranks[0]}, expected n = {dims.n}")
    if any(b < a for a, b in zip(ranks, ranks[1:])):
        raise InternalConsistencyError(f"ranks not monotone: {ranks}")
    if ranks[-1] > dims.N:
        raise InternalConsistencyError(f"rank exceeds N: {ranks}")
    k0 = next((j for j in range(1, J_max) if ranks[j - 1] == ranks[j]), None)
    if k0 is None:
        raise InternalConsistencyError(f"stabilization not observed up to J_max={J_max}: {ranks}")
    if any(ranks[j] != ranks[k0 - 1] for j in range(k0, J_max)):
        raise InternalConsistencyError(f"ranks move again after stabilizing: {ranks}")
    if any(ranks[j - 1] >= ranks[j] for j in range(1, k0)):
        raise InternalConsistencyError(f"ranks not strictly increasing before k0: {ranks}")
    if k0 > dims.d + 1:
        raise InternalConsistencyError(f"stabilization index {k0} exceeds d + 1 = {dims.d + 1}")
    return RankProfile(
        ranks=ranks,
        k0=k0,
        J=J_max,
        certificates=tuple(certificates),
        stable=all(cert.stable for cert in certificates),
    )
