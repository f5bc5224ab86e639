"""Certified generic rank of formal mappings over the fraction field.

The rank of a matrix of truncated series is the largest s such that some
s x s minor is nonzero as a series.  It is certified on random lines
x = eps * x0, which map series modulo degree > K (K the smallest entry
order) onto Q(i)[eps]/(eps^(K+1)); a minor nonzero on a line is nonzero as
a series, so the lower bound is exact.  Only tightness is randomized: by the
Schwartz-Zippel lemma (Schwartz 1980; Zippel 1979) a line misses a nonzero
minor with probability at most K / (2 * VALUE_BOUND), and each certificate
draws up to TRIALS lines, stopping at full rank: min(rows, cols) or a
proven ``Lines.ceiling``, where the bound is 0.  Because a minor could first
become nonzero beyond the truncation order, the rank is read at every order of
``config.ORDER_LADDER`` (kappa, kappa + 4, kappa + 8), and ``stable``
records that nothing moved.  Each line is eliminated once, at the top order:
over the discrete valuation ring Q(i)[eps]/(eps^(K+1)) the pivot valuations
of a least-valuation elimination never decrease and the first s of them sum
to the valuation of the s-th determinantal divisor (the Smith form), so
every lower order keeps the longest pivot prefix its order allows.

A matrix is read only on lines (``Lines``): a given one by evaluation
(``on_line``), the iterates' Jacobians in forward mode (``SegreMapping.on_line``),
and theta^j, phi^j and the mirror locus off those rows by the chain rule
(Griewank & Walther, *Evaluating Derivatives*, 2008).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import config
from .errors import InternalConsistencyError
from .maps import Matrix, SegreMapping
from .record import Record
from .series import GaussianRational, TruncatedSeries, on_line

Pivot = Tuple[int, int, int, GaussianRational]

# lines per certificate, and the bound on their integer coordinates
TRIALS = 3
VALUE_BOUND = 1 << 16


class RankCertificate(Record):
    """A certified lower bound on generic rank, witnessed on a line.

    On the line x = eps * ``line_point``, modulo eps^(K+1), the minor on
    ``minor_rows`` x ``minor_cols`` has lowest term ``witness_value`` *
    eps^``witness_exponent``.  ``error_bound`` bounds the chance that a
    larger minor was missed at ``kappa_used``: (K / (2 VALUE_BOUND))^TRIALS,
    or 0 at full rank, min(rows, cols) or the proven ``Lines.ceiling``, where
    none exists.  The line is one of those drawn at the top order of the
    ladder, and the minor is the pivot prefix that its elimination keeps at
    ``kappa_used``.  ``stable``: no order of the ladder changed it.
    """

    rank: int
    minor_rows: Tuple[int, ...]
    minor_cols: Tuple[int, ...]
    line_point: Tuple[int, ...]
    witness_exponent: Optional[int]
    witness_value: Optional[GaussianRational]
    error_bound: Fraction
    kappa_used: int
    stable: bool


def minor_determinant(matrix: Matrix, rows: Sequence[int], cols: Sequence[int]) -> TruncatedSeries:
    """Exact truncated determinant of the cited submatrix, by cofactor expansion."""
    rows, cols = list(rows), list(cols)
    if len(rows) != len(cols) or not rows:
        raise ValueError("minor needs equally many, and at least one, rows and columns")
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    kappa = min(matrix[i][j].kappa for i in rows for j in cols)
    total = TruncatedSeries.zero(matrix[rows[0]][cols[0]].arity, kappa)
    for position, i in enumerate(rows):
        entry = matrix[i][cols[0]]
        if entry:
            term = entry * minor_determinant(matrix, rows[:position] + rows[position + 1 :], cols[1:])
            total = total - term if position % 2 else total + term
    return total


def _order(matrix: Matrix) -> int:
    return min(entry.kappa for row in matrix for entry in row)


def _on_line(matrix: Matrix, point: Sequence[int], order: int) -> Matrix:
    """Every entry restricted to x = eps * point: univariate, modulo eps^(order + 1)."""
    flat = iter(on_line([entry for row in matrix for entry in row], point, order))
    return [[next(flat) for _ in row] for row in matrix]


class Lines(Record):
    """A matrix of series in ``arity`` variables, read only on lines: ``at(point)``
    is its restriction to x = eps * point, modulo eps^(order + 1), whose rank
    is at most ``ceiling`` on every line when one is proven."""

    rows: int
    cols: int
    arity: int
    order: int
    at: Callable[[Sequence[int]], Matrix]
    ceiling: Optional[int] = None


def lines(matrix: Matrix) -> Lines:
    if not matrix or not matrix[0]:
        return Lines(len(matrix), 0, 0, 0, None)
    order = _order(matrix)
    return Lines(len(matrix), len(matrix[0]), matrix[0][0].arity, order, lambda point: _on_line(matrix, point, order))


def iterate_lines(segre: SegreMapping, j: int, level: int) -> Lines:
    """J v^j at order ``level``, read on lines by ``SegreMapping.on_line``."""
    cols = j * segre.dims.n
    return Lines(segre.dims.N, cols, cols, level - 1, lambda point: segre.on_line(point, level)[j][1])


def _block(rows: Matrix, cols: int, order: int, conjugate: bool = False) -> Matrix:
    """Line rows of J v^k, conjugated when asked (p is real, so that commutes),
    padded with zero columns."""
    zero = TruncatedSeries.zero(1, order)
    return [[e.conjugate() if conjugate else e for e in row] + [zero] * (cols - len(row)) for row in rows]


def theta_lines(segre: SegreMapping, j: int, level: int) -> Lines:
    """J theta^j for theta^j = (v^(j+1) o S, conj v^j), j >= 1, by the chain rule:
    S adds t^(j-1) to t^(j+1) (nothing for j = 1), so the top rows on x = eps * p
    are J v^(j+1) on the line through S p, times S; S p and p share the first j blocks.

    Its ceiling is 2N - d = dim M_C: the w-part of v^(j+1) is Q, or solves
    rho, at (t^(j+1), conj v^j), so Jrho(theta^j) J theta^j = 0 on each line
    to its order.  rho's w-differential B is a unit, so the w-rows of
    J theta^j are -B^-1 times the other rows combined: J theta^j factors
    through 2N - d rows, and every larger minor vanishes (Cauchy-Binet)."""
    n = segre.dims.n
    last, fold, cols, order = j * n, (j - 2) * n, (j + 1) * n, level - 1  # fold: the first column of block j-1

    def at(point):
        shifted = list(point[:last]) + [x + point[fold + i] if j >= 2 else x for i, x in enumerate(point[last:])]
        steps = segre.on_line(shifted, level)
        top = _block(steps[j + 1][1], cols, order)
        for row in top if j >= 2 else ():
            row[fold : last - n] = [a + b for a, b in zip(row[fold : last - n], row[last:])]
        return top + _block(steps[j][1], cols, order, conjugate=True)

    return Lines(2 * segre.dims.N, cols, cols, order, at, 2 * segre.dims.N - segre.dims.d)


def phi_lines(segre: SegreMapping, j: int, level: int) -> Lines:
    """J phi^j for phi^j = (v^(j-1), conj v^j), j >= 1, with v^0 = 0.

    Its ceiling is 2N - d as for ``theta_lines``: phi^j lies in M_C by the
    reality identity, which the load checked at the top order, the highest
    order a line is read at."""
    cols, order = j * segre.dims.n, level - 1

    def at(point):
        steps = segre.on_line(point, level)
        return _block(steps[j - 1][1], cols, order) + _block(steps[j][1], cols, order, conjugate=True)

    return Lines(2 * segre.dims.N, cols, cols, order, at, 2 * segre.dims.N - segre.dims.d)


def _divide(series: TruncatedSeries, divisor: TruncatedSeries, v: int) -> TruncatedSeries:
    """Univariate series / divisor, where the divisor has valuation v and eps^v
    divides the series; the quotient is exact to the shared order minus v."""
    kappa = min(series.kappa, divisor.kappa) - v
    out = {}
    for k in range(kappa + 1):
        total = series.coefficient((k + v,))
        for (j,), c in divisor.terms.items():
            if v < j <= k + v and k + v - j in out:
                total = total - c * out[k + v - j]
        if total:
            out[k] = total / divisor.coefficient((v,))
    return TruncatedSeries(1, kappa, {(k,): c for k, c in out.items()})


def _eliminate(lines: Matrix) -> List[Pivot]:
    """Pivots (row, column, valuation, lowest coefficient) of elimination over
    Q(i)[eps]/(eps^(K+1)), K the entries' order: the Smith form over a
    discrete valuation ring.

    A pivot of least valuation v divides its whole row, so the Schur
    complement a_ij - a_i,pc * (a_pr,j / a_pr,pc) is exact modulo
    eps^(K-v+1): all that later minors can use.  The pivot count is the
    largest s with an s-minor nonzero modulo eps^(K+1).
    """
    work = {(i, j): entry for i, row in enumerate(lines) for j, entry in enumerate(row) if entry}
    pivots: List[Pivot] = []
    while work:
        v, pr, pc = min((entry.order(), i, j) for (i, j), entry in work.items())
        pivot = work.pop((pr, pc))
        pivots.append((pr, pc, v, pivot.coefficient((v,))))
        order = pivot.kappa - v
        ratios = {j: _divide(entry, pivot, v) for (i, j), entry in work.items() if i == pr}
        column = {i: entry for (i, j), entry in work.items() if j == pc}
        rest = {(i, j): entry.truncate(order) for (i, j), entry in work.items() if i != pr and j != pc}
        for i, below in column.items():
            for j, ratio in ratios.items():
                rest[(i, j)] = rest.get((i, j), TruncatedSeries.zero(1, order)) - below * ratio
        work = {key: entry for key, entry in rest.items() if entry}
    return pivots


def _witness(pivots: List[Pivot]) -> Tuple[int, GaussianRational]:
    """Lowest term of the minor on the sorted pivot rows and columns: the product
    of the pivots, signed by the parity of the two sorting permutations."""
    rows, cols, valuations, leads = zip(*pivots)
    swaps = sum(s[b] > s[a] for s in (rows, cols) for a in range(len(s)) for b in range(a))
    value = GaussianRational(-1 if swaps % 2 else 1)
    for lead in leads:
        value = value * lead
    return sum(valuations), value


def _modulo(pivots: List[Pivot], order: int) -> List[Pivot]:
    """The pivots of the same elimination modulo eps^(order + 1): the longest
    prefix whose valuations sum to at most ``order``.  The valuations never
    decrease, and the first s sum to the valuation of the s-th determinantal
    divisor, so the truncated matrix's elimination is exactly this prefix."""
    total = 0
    for count, (_, _, v, _) in enumerate(pivots):
        total += v
        if total > order:
            return pivots[:count]
    return pivots


def _certified_ranks(matrix: Lines, rng: random.Random, levels: Sequence[int]) -> List[RankCertificate]:
    """The most pivots over up to TRIALS random lines at every level, with
    their certificates, all read off one elimination per line at the top
    level; lines are drawn until every level has full rank, min(rows, cols,
    ceiling), or TRIALS are.  A line above the ceiling raises."""
    if not matrix.rows or not matrix.cols:
        return [RankCertificate(0, (), (), (), None, None, Fraction(0), level, True) for level in levels]
    orders = [matrix.order - (levels[-1] - level) for level in levels]
    full = min(bound for bound in (matrix.rows, matrix.cols, matrix.ceiling) if bound is not None)
    best: List[Optional[Tuple[Tuple[int, ...], List[Pivot]]]] = [None] * len(levels)
    for _ in range(TRIALS):
        point = tuple(rng.choice((-1, 1)) * rng.randint(1, VALUE_BOUND) for _ in range(matrix.arity))
        pivots = _eliminate(matrix.at(point))
        if len(pivots) > full:
            raise InternalConsistencyError(f"rank {len(pivots)} on a line exceeds the proven ceiling {full}")
        for k, order in enumerate(orders):
            kept = _modulo(pivots, order)
            if best[k] is None or len(kept) > len(best[k][1]):
                best[k] = (point, kept)
        if all(len(kept) == full for _, kept in best):
            break
    certificates = []
    for (point, pivots), order, level in zip(best, orders, levels):
        exponent, value = _witness(pivots) if pivots else (None, None)
        error = Fraction(0) if len(pivots) == full else Fraction(order, 2 * VALUE_BOUND) ** TRIALS
        rows, cols = tuple(sorted(p[0] for p in pivots)), tuple(sorted(p[1] for p in pivots))
        certificates.append(RankCertificate(len(pivots), rows, cols, point, exponent, value, error, level, True))
    return certificates


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
    seed: int,
) -> RankCertificate:
    """Certified generic rank at every order of ``config.ORDER_LADDER``.

    ``builder(kappa)`` must return the matrix at that order, or its
    ``Lines``, with higher orders refining lower ones.  It is called once,
    at the top order of the ladder, whose line generator (seeded from
    ``seed`` and that order) draws the lines.  Each line is eliminated once
    at the top order and read at every order of the ladder (``_modulo``).
    A lower order keeps a pivot prefix of the same eliminations, so its
    rank is at most the top order's, which is the final rank; the lowest
    order at the final rank gives the certificate.  When only a
    plain matrix is given, its entries are treated as exact polynomial
    data, which holds for every matrix this engine constructs from parsed
    polynomial input.
    """
    if builder is None:
        if matrix is None:
            raise ValueError("need a matrix or a builder")
        builder = _exact_entry_builder(matrix)
        if kappa is None:
            kappa = _order(matrix)
    if kappa is None:
        raise ValueError("builder form needs an explicit base truncation order")

    levels = [kappa + step for step in config.ORDER_LADDER]
    built = builder(levels[-1])
    built = built if isinstance(built, Lines) else lines(built)
    certificates = _certified_ranks(built, random.Random(seed * 1000003 + levels[-1]), levels)

    ranks = [cert.rank for cert in certificates]
    final = ranks[-1]
    first = next(cert for cert in certificates if cert.rank == final)
    return first.replace(stable=all(r == final for r in ranks))


class RankProfile(Record):
    """Ranks of the iterated mappings together with the stabilization index."""

    ranks: Tuple[int, ...]
    k0: int
    certificates: Tuple[RankCertificate, ...]
    stable: bool

    def rank_at(self, j: int) -> int:
        return self.ranks[j - 1]

    @property
    def rank_at_k0(self) -> int:
        return self.ranks[self.k0 - 1]

    def finite_type(self, N: int) -> bool:
        """Finite type by the rank route: Rk v^k0 = N."""
        return self.rank_at_k0 == N

    def moved_reason(self) -> Optional[str]:
        """Each rank that moved under order escalation, or None when none did."""
        moved = [
            f"Rk v^{j} = {cert.rank} from order {cert.kappa_used}"
            for j, cert in enumerate(self.certificates, start=1)
            if not cert.stable
        ]
        return f"ranks moved under order escalation ({', '.join(moved)})" if moved else None


def rank_profile(segre: SegreMapping, J_max: int, seed: int) -> RankProfile:
    """Certified ranks of v^1 .. v^J with detection of the stabilization index.

    Requires J_max >= d + 2 so the first repeated value is observable; the
    monotone and strict-increase laws are validated and any violation is
    reported as an internal-consistency error (it would indicate a
    truncation artifact, not a property of the manifold).  ``segre`` is the
    run's mapping of the manifold; each certificate reads J v^j on lines
    from it at the top order (``iterate_lines``), so the later phases share
    its top order's outer series and line evaluations.
    """
    dims = segre.dims
    if J_max < dims.d + 2:
        raise ValueError(f"J_max must be at least d + 2 = {dims.d + 2}")

    certificates = []
    for j in range(1, J_max + 1):
        certificates.append(
            generic_rank(
                builder=lambda level, j=j: iterate_lines(segre, j, level),
                kappa=segre.kappa,
                seed=seed,
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
        certificates=tuple(certificates),
        stable=all(cert.stable for cert in certificates),
    )
