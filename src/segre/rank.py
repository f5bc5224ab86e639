"""Certified generic rank of formal mappings over the fraction field.

The rank of a matrix of truncated series is the largest s such that some
s x s minor is nonzero as a series.  It is certified on random lines
x = eps * x0, which map series modulo degree > K (K the smallest entry
order) onto Q(i)[eps]/(eps^(K+1)); a minor nonzero on a line is nonzero as
a series, so the lower bound is exact.  Only tightness is randomized: by the
Schwartz-Zippel lemma (Schwartz 1980; Zippel 1979) a line misses a nonzero
minor with probability at most K / (2 * VALUE_BOUND), and each certificate
draws up to TRIALS lines, stopping at full rank, min(rows, cols), where the
bound is 0.  Because a minor could first become nonzero beyond the
truncation order, the rank is read at every order of ``config.ORDER_LADDER``
(kappa, kappa + 4, kappa + 8), and ``stable`` records that nothing moved.  Each line is eliminated once, at the top order:
over the discrete valuation ring Q(i)[eps]/(eps^(K+1)) the pivot valuations
of a least-valuation elimination never decrease and the first s of them sum
to the valuation of the s-th determinantal divisor (the Smith form), so
every lower order keeps the longest pivot prefix its order allows.

A matrix is read only on lines (``Lines``), at the top order of the ladder:
the iterates' Jacobians in forward mode (``SegreMapping.on_line``), and the
mirror locus off those rows through a linear map.  The ranks of theta^j and
phi^j are read off the iterates' certificates (``orbit.verify_all``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import config
from .errors import InternalConsistencyError
from .maps import Matrix, SegreMapping
from .record import Record
from .series import GaussianRational, TruncatedSeries

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
    or 0 at full rank, min(rows, cols), where none exists.  The line is one of those drawn at the top order of the
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


class Lines(Record):
    """A matrix of series in ``arity`` variables, read only on lines: ``at(point)``
    is its restriction to x = eps * point, modulo eps^(order + 1)."""

    rows: int
    cols: int
    arity: int
    order: int
    at: Callable[[Sequence[int]], Matrix]


def iterate_lines(segre: SegreMapping, j: int) -> Lines:
    """J v^j at the top order, read on lines by ``SegreMapping.on_line``."""
    cols = j * segre.dims.n
    return Lines(segre.dims.N, cols, cols, segre.top.kappa - 1, lambda point: segre.on_line(point)[j][1])


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


def _exact_entry_builder(matrix: Matrix) -> Callable[[int], Matrix]:
    """The given entries as exact polynomials at any order.  No engine code
    calls it: the name is kept only for the benchmark tracer
    (``bench/spans.py``) and goes with ROADMAP item 8 step 2."""

    def build(kappa: int) -> Matrix:
        return [[entry.with_order(kappa) for entry in row] for row in matrix]

    return build


def generic_rank(lines: Lines, *, kappa: int, seed: int) -> RankCertificate:
    """Certified generic rank at every order kappa + step of ``config.ORDER_LADDER``.

    ``lines`` is the matrix at the top order of the ladder, whose line
    generator (seeded from ``seed`` and that order) draws up to TRIALS
    lines, until every order has full rank, min(rows, cols).  Each line is
    eliminated once at the top order and read at every order of the ladder
    (``_modulo``).  A lower order keeps a pivot prefix of the same
    eliminations, so its rank is at most the top order's, which is the final
    rank; the lowest order at the final rank gives the certificate.
    """
    levels = [kappa + step for step in config.ORDER_LADDER]
    if not lines.rows or not lines.cols:
        return RankCertificate(0, (), (), (), None, None, Fraction(0), levels[0], True)
    rng = random.Random(seed * 1000003 + levels[-1])
    orders = [lines.order - (levels[-1] - level) for level in levels]
    full = min(lines.rows, lines.cols)
    best: List[Optional[Tuple[Tuple[int, ...], List[Pivot]]]] = [None] * len(levels)
    for _ in range(TRIALS):
        point = tuple(rng.choice((-1, 1)) * rng.randint(1, VALUE_BOUND) for _ in range(lines.arity))
        pivots = _eliminate(lines.at(point))
        for k, order in enumerate(orders):
            kept = _modulo(pivots, order)
            if best[k] is None or len(kept) > len(best[k][1]):
                best[k] = (point, kept)
        if all(len(kept) == full for _, kept in best):
            break
    final = len(best[-1][1])
    k = next(k for k, (_, kept) in enumerate(best) if len(kept) == final)
    point, pivots = best[k]
    exponent, value = _witness(pivots) if pivots else (None, None)
    error = Fraction(0) if final == full else Fraction(orders[k], 2 * VALUE_BOUND) ** TRIALS
    rows, cols = tuple(sorted(p[0] for p in pivots)), tuple(sorted(p[1] for p in pivots))
    stable = all(len(kept) == final for _, kept in best)
    return RankCertificate(final, rows, cols, point, exponent, value, error, levels[k], stable)


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
    monotone and stabilization laws are validated and any violation is
    reported as an internal-consistency error (it would indicate a missed
    line or a truncation artifact, not a property of the manifold).  ``segre`` is the
    run's mapping of the manifold; each certificate reads J v^j on lines
    from it at the top order (``iterate_lines``), so the later phases share
    its top order's outer series and line evaluations.
    """
    dims = segre.dims
    if J_max < dims.d + 2:
        raise ValueError(f"J_max must be at least d + 2 = {dims.d + 2}")

    certificates = [generic_rank(iterate_lines(segre, j), kappa=segre.kappa, seed=seed) for j in range(1, J_max + 1)]
    ranks = tuple(cert.rank for cert in certificates)

    # three laws need no check.  Rk v^1 = n: on every line the z-rows of
    # J v^1 are the identity block that ``_line_step`` writes, in n columns.
    # Rk v^j <= N: an elimination keeps at most min(rows, cols) pivots, and
    # J v^j has N rows.  A strict increase before k0: k0 is the first repeat
    # of ranks that the next line checks to be monotone
    if any(b < a for a, b in zip(ranks, ranks[1:])):
        raise InternalConsistencyError(f"ranks not monotone: {ranks}")
    k0 = next((j for j in range(1, J_max) if ranks[j - 1] == ranks[j]), None)
    if k0 is None:
        raise InternalConsistencyError(f"stabilization not observed up to J_max={J_max}: {ranks}")
    if any(ranks[j] != ranks[k0 - 1] for j in range(k0, J_max)):
        raise InternalConsistencyError(f"ranks move again after stabilizing: {ranks}")
    if k0 > dims.d + 1:
        raise InternalConsistencyError(f"stabilization index {k0} exceeds d + 1 = {dims.d + 1}")
    return RankProfile(
        ranks=ranks,
        k0=k0,
        certificates=tuple(certificates),
        stable=all(cert.stable for cert in certificates),
    )
