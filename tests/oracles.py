"""Independent dense oracles for the engine's sparse truncated arithmetic.

Everything here is deliberately naive: dense dictionaries without truncation,
recursive cofactor determinants over full polynomials, and bracket expansion
of complete (not left-normed) word sets.  Expected values in the tests are
computed with these oracles and compared against the engine, so the two
implementations share no code paths beyond the scalar type.  Two
exceptions sit on top of the same series composition: the graph oracle, the
degree-by-degree implicit function theorem, checks the Newton lifting of
``solve_graph``; and the multivariate route (``line_jacobian``,
``multivariate_matrices``, ``jacobian_along`` and ``rank_along``) builds the
iterates in all their variables, differentiates them and only then restricts
to a line, where the engine evaluates them on the line in forward mode.  The
kernel oracle (``carried_kernel``, then ``sparse_rref``) shares
``linalg.Echelon`` with the engine but reaches the kernel by another route:
it carries each column's combination along, where the engine eliminates the
transposed rows and reads the kernel off their reduced form.  The one-shot
kernel (``one_shot_kernel_series``) is the orbit kernel search without its
early stop: every monomial up to the bound at once, enumerated by filtering
a dense exponent box (``graded_lex_monomials``).  The split oracle
(``first_invertible_columns``) finds the w-columns of a rho load by their
definition, over every column subset, where the load reads them off one
elimination's pivots.  The generic pushforward residual
(``pushforward_residuals_for``) differentiates f o theta for arbitrary test
functions f (``random_ambient_polynomial``), where the engine checks the 2N
coordinate functions alone.
The ideal membership test (``ideal_member``) substitutes the graph, as the
load's own checks do; no command needs it, because the load's gates imply
every membership that the phases use.  They imply the collapse identities
of the iterates and the chain identities of T^k too, which the run no
longer checks: ``collapse_failures`` and ``chain_pair_failures`` check them
by substitution and composition.  ``mirror_parametrization`` is the
mirror pattern as a linear map, and ``mirror_restriction`` restricts the
doubled iterate to it, whose vanishing the engine proves.
``linear_coordinate_change`` makes the inputs of the invariance checks: the
same manifold in other linear coordinates, loaded through the rho route.
Last, the small multivariate helpers that no command needs (``jacobian``,
``identity_map``, ``homogeneous_part``, ``evaluate``, ``sigma_field`` and
``on_line``, which restricts series to a line for the multivariate route),
the certified rank of a plain matrix (``matrix_rank``, read on lines by
``matrix_lines``) and the rank certificate checker ``verify_certificate``
live here, not in the engine.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, product
from math import gcd
from operator import getitem, mul
from typing import Dict, List, Optional, Sequence, Tuple

from segre import DEFAULT_SEED, GenericManifold, generic_rank, linalg, manifold_from_rho_series
from segre.fields import FormalVectorField
from segre.maps import SegreMapping, make_T
from segre.implicit import GraphForm
from segre.orbit import _mirror_pattern
from segre.config import top_order
from segre.rank import Lines, RankCertificate, _eliminate, _witness
from segre.series import (
    FormalMap,
    GaussianRational,
    SeriesError,
    TruncatedSeries,
    ZERO,
    _reduced,
    _series,
    as_coeff,
    compose_many,
    unit_exponent,
)

Dense = Dict[Tuple[int, ...], GaussianRational]


def d_zero() -> Dense:
    return {}


def d_const(arity: int, value: GaussianRational) -> Dense:
    return {(0,) * arity: value} if value else {}


def d_var(arity: int, index: int) -> Dense:
    exp = [0] * arity
    exp[index] = 1
    return {tuple(exp): GaussianRational(1)}


def d_add(a: Dense, b: Dense) -> Dense:
    out = dict(a)
    for exp, coeff in b.items():
        new = out.get(exp, ZERO) + coeff
        if new:
            out[exp] = new
        else:
            out.pop(exp, None)
    return out


def d_neg(a: Dense) -> Dense:
    return {exp: -coeff for exp, coeff in a.items()}


def d_sub(a: Dense, b: Dense) -> Dense:
    return d_add(a, d_neg(b))


def d_mul(a: Dense, b: Dense) -> Dense:
    out: Dense = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            new = out.get(exp, ZERO) + ca * cb
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
    return out


def d_pow(a: Dense, exponent: int) -> Dense:
    arity = len(next(iter(a))) if a else 0
    result = d_const(arity, GaussianRational(1))
    for _ in range(exponent):
        result = d_mul(result, a)
    return result


def d_compose(f: Dense, inner: Sequence[Dense], source_arity: int) -> Dense:
    out: Dense = {}
    for exp, coeff in f.items():
        term = d_const(source_arity, coeff)
        for i, e in enumerate(exp):
            if e:
                term = d_mul(term, d_pow(inner[i], e))
        out = d_add(out, term)
    return out


def d_diff(a: Dense, index: int) -> Dense:
    out: Dense = {}
    for exp, coeff in a.items():
        k = exp[index]
        if not k:
            continue
        new_exp = exp[:index] + (k - 1,) + exp[index + 1 :]
        out[new_exp] = coeff * GaussianRational(k)
    return out


def d_truncate(a: Dense, kappa: int) -> Dense:
    return {exp: coeff for exp, coeff in a.items() if sum(exp) <= kappa}


def d_eval(a: Dense, point: Sequence[GaussianRational]) -> GaussianRational:
    total = ZERO
    for exp, coeff in a.items():
        term = coeff
        for value, e in zip(point, exp):
            for _ in range(e):
                term = term * value
        total = total + term
    return total


def to_series(a: Dense, arity: int, kappa: int) -> TruncatedSeries:
    return TruncatedSeries(arity, kappa, a)


def from_series(series: TruncatedSeries) -> Dense:
    return dict(series.terms)


def ambient_names(dims) -> List[str]:
    """The ambient ring's variable names, in slot order: z, w, ch, ta."""
    return dims.z_names() + [f"ch{i + 1}" for i in range(dims.n)] + [f"ta{l + 1}" for l in range(dims.d)]


# ---------------------------------------------------------------------------
# rank oracle: all minors, dense determinants, no truncation
# ---------------------------------------------------------------------------


def d_det(matrix: List[List[Dense]]) -> Dense:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    out: Dense = {}
    for row in range(size):
        entry = matrix[row][0]
        if not entry:
            continue
        minor = [
            [matrix[r][c] for c in range(1, size)] for r in range(size) if r != row
        ]
        term = d_mul(entry, d_det(minor))
        if row % 2:
            term = d_neg(term)
        out = d_add(out, term)
    return out


def first_invertible_columns(matrix: Sequence[Sequence[GaussianRational]], size: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first ``size`` columns whose minor over all rows
    has a nonzero cofactor determinant, or None: every column subset tried in
    ``combinations`` order, C(N, size) determinants at worst."""
    for cols in combinations(range(len(matrix[0])), size):
        if d_det([[d_const(0, row[c]) for c in cols] for row in matrix]):
            return cols
    return None


def brute_force_rank(matrix: List[List[Dense]]) -> int:
    """Largest s such that some s x s minor has a nonzero dense determinant."""
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if matrix else 0
    for size in range(min(n_rows, n_cols), 0, -1):
        for rows in combinations(range(n_rows), size):
            for cols in combinations(range(n_cols), size):
                sub = [[matrix[r][c] for c in cols] for r in rows]
                if d_det(sub):
                    return size
    return 0


def constant_rank(vectors: Sequence[Sequence[GaussianRational]]) -> int:
    """Rank of a constant matrix without elimination.

    Rows are kept greedily: a row joins when some maximal minor of the kept
    rows plus it has a nonzero cofactor determinant, i.e. when it is
    independent of them, so the kept rows end up a basis of the row space.
    """
    kept: List[List[Dense]] = []
    for row in dict.fromkeys(tuple(v) for v in vectors if any(v)):
        trial = kept + [[d_const(0, value) for value in row]]
        if len(trial) > len(row):
            break
        if any(
            d_det([[entries[c] for c in cols] for entries in trial])
            for cols in combinations(range(len(row)), len(trial))
        ):
            kept = trial
    return len(kept)


def carried_kernel(columns: Sequence[Dict]) -> List[Dict]:
    """Kernel vectors of sparse columns by carrying each column's combination along.

    Columns are reduced in order against the independent ones seen so far,
    their combination carried under the keys (1, column index) after the
    entries' keys (0, row key).  Every column that reduces to zero yields one
    kernel vector {column index: coefficient}: the column minus its
    combination of the earlier independent columns, so it is 1 at its
    highest index.  A basis of the kernel, not in reduced form.
    """
    echelon = linalg.Echelon()
    kernel: List[Dict] = []
    for index, column in enumerate(columns):
        vec = {(0, key): value for key, value in column.items()}
        vec[(1, index)] = GaussianRational(1)
        rest = echelon.reduce(vec)
        if min(rest)[0] == 0:
            echelon.push(rest)
        else:
            kernel.append({key: value for (_, key), value in rest.items()})
    return kernel


def sparse_rref(rows: Sequence[Dict]) -> List[Dict]:
    """Reduced row echelon form of sparse rows keyed by orderable column keys."""
    echelon = linalg.Echelon()
    for row in rows:
        echelon.add(row)
    return echelon.reduced()


def graded_lex_monomials(arity: int, max_degree: int) -> List[Tuple[int, ...]]:
    """Every exponent tuple with 1 <= total degree <= max_degree, sorted by
    total degree and then by the tuple: all of the dense box, filtered."""
    box = product(range(max_degree + 1), repeat=arity)
    return sorted((exp for exp in box if 1 <= sum(exp) <= max_degree), key=lambda exp: (sum(exp), exp))


def one_shot_kernel_series(
    components: Sequence[TruncatedSeries], arity: int, max_degree: int, kappa: int
) -> Tuple[List[TruncatedSeries], int, int]:
    """Kernel of f -> f(components) over every polynomial f with 1 <= deg f <= max_degree at once.

    The search the orbit kernels made before they went degree by degree:
    every monomial composed in one ``compose_many`` and eliminated in one
    ``linalg.sparse_kernel``.  Returns the kernel elements as series of
    order ``kappa``, ``max_degree`` and the number of kernel elements with
    nonzero linear part, as ``orbit._kernel_series`` does.
    """
    monomials = graded_lex_monomials(arity, max_degree)
    outers = [TruncatedSeries(arity, kappa, {exp: GaussianRational(1)}) for exp in monomials]
    images = compose_many(outers, FormalMap(list(components)))
    kernel = linalg.sparse_kernel([image.terms for image in images])
    linear_rank = sum(1 for row in kernel if min(row) < arity)
    series = [TruncatedSeries(arity, kappa, {monomials[c]: value for c, value in row.items()}) for row in kernel]
    return series, max_degree, linear_rank


# ---------------------------------------------------------------------------
# bracket oracle: all words, dense coefficients
# ---------------------------------------------------------------------------

DenseField = List[Dense]  # one dense coefficient per ambient variable


def d_apply(field: DenseField, f: Dense) -> Dense:
    out: Dense = {}
    for index, coeff in enumerate(field):
        if coeff:
            out = d_add(out, d_mul(coeff, d_diff(f, index)))
    return out


def d_bracket(x: DenseField, y: DenseField) -> DenseField:
    return [d_sub(d_apply(x, b), d_apply(y, a)) for a, b in zip(x, y)]


def dense_hull_dimension(generators: Sequence[DenseField], arity: int, max_length: int) -> int:
    """Span at 0 of ALL bracket words (every tree shape) up to a length.

    Exponential in the length; usable only at desk scale, which is the point.
    Unlike the engine this neither truncates nor restricts to left-normed
    words, so it is a genuinely independent route to the hull dimension.
    """
    by_length: Dict[int, List[DenseField]] = {1: list(generators)}
    for length in range(2, max_length + 1):
        words: List[DenseField] = []
        for split in range(1, length):
            for left in by_length[split]:
                for right in by_length[length - split]:
                    words.append(d_bracket(left, right))
        by_length[length] = words
    vectors = [
        [coeff.get((0,) * arity, ZERO) for coeff in field]
        for words in by_length.values()
        for field in words
    ]
    return constant_rank(vectors)


# ---------------------------------------------------------------------------
# graph oracle: the degree-by-degree implicit function theorem
# ---------------------------------------------------------------------------


def degree_by_degree_graph(rho: FormalMap, dims, kappa: int) -> List[TruncatedSeries]:
    """Q with rho(z, Q(z, ch, ta), ch, ta) = 0, one homogeneous degree at a time.

    Each degree-k part of Q is one linear solve against the constant matrix
    of w-differentials at 0, after substituting the parts below degree k:
    kappa ever larger compositions, where ``solve_graph`` lifts by Newton
    steps.  It uses the engine's series and ``linalg.invert``, not a dense
    oracle, because the composition itself is what both routes share.
    """
    d = dims.d
    matrix = [
        [rho.component(j).coefficient(unit_exponent(dims.ambient_arity, dims.w(l))) for l in range(d)]
        for j in range(d)
    ]
    inverse = linalg.invert(matrix)
    arity = dims.graph_arity
    q_components = [TruncatedSeries.zero(arity, kappa) for _ in range(d)]
    zs = [TruncatedSeries.variable(arity, kappa, dims.gz(i)) for i in range(dims.n)]
    chs = [TruncatedSeries.variable(arity, kappa, dims.gch(i)) for i in range(dims.n)]
    tas = [TruncatedSeries.variable(arity, kappa, dims.gta(l)) for l in range(d)]
    for degree in range(1, kappa + 1):
        # the degree-k part of the residual only depends on the solution
        # below degree k, so the whole step can run in the order-k quotient
        inner = FormalMap([*zs, *[q.truncate(degree) for q in q_components], *chs, *tas])
        composed = compose_many(list(rho.components), inner)
        residual = [homogeneous_part(composed[j], degree) for j in range(d)]
        for l in range(d):
            correction = TruncatedSeries.zero(arity, kappa)
            for m in range(d):
                if inverse[l][m]:
                    correction = correction + residual[m].with_order(kappa).scale(inverse[l][m])
            q_components[l] = q_components[l] - correction
    return q_components


def ideal_member(g: TruncatedSeries, graph: GraphForm) -> bool:
    """Membership of g(Z, zeta) in the truncated ideal of the manifold:
    g(z, Q(z, ch, ta), ch, ta) = 0 modulo degree > valid_order, exact because
    w - Q generates the ideal freely."""
    if g.arity != graph.dims.ambient_arity:
        raise ValueError("ideal membership expects a series in the ambient ring")
    return g.compose(graph.membership_map()).is_zero()


# ---------------------------------------------------------------------------
# the pushforward identities for arbitrary test functions
# ---------------------------------------------------------------------------


def random_ambient_polynomial(dims, kappa: int, rng: random.Random) -> TruncatedSeries:
    """A sparse random polynomial test function on the ambient ring: 1 to 4
    terms of degree <= 3 with Gaussian integer coefficients of height 4."""
    arity = dims.ambient_arity
    terms = {}
    for _ in range(rng.randint(1, 4)):
        degree = rng.randint(0, 3)
        exp = [0] * arity
        for _ in range(degree):
            exp[rng.randrange(arity)] += 1
        coeff = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
        if coeff:
            terms[tuple(exp)] = coeff
    return TruncatedSeries(arity, kappa, terms)


def pushforward_residuals_for(gamma, theta_phis, fields_l, fields_lt, fs) -> List[List[List[TruncatedSeries]]]:
    """d/dt_l (f o theta) - (Lt_l f) o theta along theta's last block, and the
    same for phi with L_l, for each test function f in ``fs``: for each pair,
    one residual list per test function, theta's directions before phi's."""
    n = gamma.dims.n
    out = []
    for pair in theta_phis:
        residuals: List[List[TruncatedSeries]] = [[] for _ in fs]
        maps = [(pair.theta, pair.j, fields_lt)]
        if pair.phi is not None:
            maps.append((pair.phi, pair.j - 1, fields_l))
        for mapping, block, fields in maps:
            for own, f in zip(residuals, fs):
                composed = f.compose(mapping)
                for l, field in enumerate(fields):
                    lhs, right = composed.partial(block * n + l), field.apply(f).compose(mapping)
                    own.append(lhs.truncate(min(lhs.kappa, right.kappa)) - right)
        out.append(residuals)
    return out


# ---------------------------------------------------------------------------
# the collapse and chain identities, which the load's gates imply
# ---------------------------------------------------------------------------


def _assignment_drop_first(n: int, j: int) -> List[Optional[int]]:
    """t^1 -> 0, t^b -> t^(b-1): source j blocks, target j-1 blocks."""
    assignment: List[Optional[int]] = [None] * n
    for b in range(1, j):
        assignment.extend(range((b - 1) * n, b * n))
    return assignment


def _assignment_fold_last(n: int, j: int) -> List[Optional[int]]:
    """t^j -> t^(j-2), other blocks fixed: source j blocks, target j-1 blocks."""
    assignment: List[Optional[int]] = []
    for b in range(1, j):
        assignment.extend(range((b - 1) * n, b * n))
    assignment.extend(range((j - 3) * n, (j - 2) * n))
    return assignment


def collapse_failures(gamma: SegreMapping, j: int) -> List[str]:
    """The collapse identities of v^j that fail, as series identities modulo
    truncation: killing the first block drops the iterate by one (j >= 2),
    and identifying the last block with block j-2 drops it by two (j >= 3)."""
    n, mapping = gamma.dims.n, gamma.v(j)
    failed = []
    if j >= 2:
        dropped = mapping.map_vars((j - 1) * n, _assignment_drop_first(n, j))
        if not dropped.equals_mod(gamma.v(j - 1)):
            failed.append("zero-first-block")
    if j >= 3:
        reflected = mapping.map_vars((j - 1) * n, _assignment_fold_last(n, j))
        if not reflected.equals_mod(gamma.v(j - 2).extend((j - 1) * n)):
            failed.append("reflection")
    return failed


def chain_generator_pairs(k: int) -> Tuple[Tuple[Optional[int], Optional[int]], ...]:
    """The (Z-side, zeta-side) chain-slot pairs receiving the defining
    functions along the k-fold chain; None is the zero slot closing the chain."""
    pairs: List[Tuple[Optional[int], Optional[int]]] = [(0, 1 if k > 1 else None)]
    for g in range(1, k):
        a = 2 * ((g + 1) // 2)
        b = 2 * (g // 2) + 1
        pairs.append((a if a < k else None, b if b < k else None))
    return tuple(pairs)


def chain_pair_failures(gamma: SegreMapping, k: int) -> List[Tuple[Optional[int], Optional[int]]]:
    """The pairs of ``chain_generator_pairs(k)`` that some defining function
    does not annihilate under T^k, read slot by slot (N components each) off
    ``make_T``'s assembly."""
    N, rho = gamma.dims.N, list(gamma.manifold.rho.components)
    chain = make_T(gamma, k)
    slots = [list(chain.components[s * N : (s + 1) * N]) for s in range(k)]
    zero_block = [TruncatedSeries.zero(chain.source_arity, gamma.kappa)] * N
    failed = []
    for a, b in chain_generator_pairs(k):
        inner = FormalMap([*(zero_block if a is None else slots[a]), *(zero_block if b is None else slots[b])])
        if not all(image.is_zero() for image in compose_many(rho, inner)):
            failed.append((a, b))
    return failed


# the multivariate route to the rank matrices
# ---------------------------------------------------------------------------


def line_jacobian(segre: SegreMapping, j: int, point: Sequence[int]):
    """J v^j on x = eps * point: v^j built at the mapping's order, differentiated, restricted."""
    return matrix_on_line(jacobian(segre.v(j)), point, segre.kappa - 1)


def multivariate_matrices(manifold, level: int, k0: int) -> List[List[List[TruncatedSeries]]]:
    """J v^j for j = 1..k0+1, then J v^(2 k0) along the mirror locus, all
    built from the manifold rebuilt at order ``level``."""
    segre = SegreMapping(manifold.at_kappa(level))
    matrices = [jacobian(segre.v(j)) for j in range(1, k0 + 2)]
    locus = mirror_parametrization(manifold.dims, k0, level)
    return matrices + [jacobian_along(segre.v(2 * k0), locus)]


def mirror_parametrization(dims, k0: int, kappa: int) -> FormalMap:
    """The linear map of s-blocks onto t-blocks that realizes the mirror pattern."""
    source = k0 * dims.n
    return FormalMap(
        TruncatedSeries.zero(source, kappa) if s is None else TruncatedSeries.variable(source, kappa, s)
        for s in _mirror_pattern(dims, k0)
    )


def mirror_restriction(segre: SegreMapping, k0: int) -> FormalMap:
    """v^(2 k0) on the mirror pattern, by monomial substitution; ``mirror_sigma``
    proves that it vanishes and composes nothing."""
    return segre.v(2 * k0).map_vars(k0 * segre.dims.n, _mirror_pattern(segre.dims, k0))


def jacobian_along(mapping: FormalMap, locus: FormalMap) -> List[List[TruncatedSeries]]:
    """The Jacobian of ``mapping`` with every entry composed along ``locus``, in one call."""
    rows = jacobian(mapping)
    images = iter(compose_many([entry for row in rows for entry in row], locus))
    return [[next(images) for _ in row] for row in rows]


def rank_along(mapping: FormalMap, locus: FormalMap):
    """Generic rank of the Jacobian composed with a parametrized locus.

    The locus must map its parameters into the mapping's source with zero
    constant terms; the rank is then taken in the parameter variables.  The
    engine's mirror certificate reads the same matrix on lines instead.
    """
    if locus.target_arity != mapping.source_arity:
        raise ValueError("locus must map into the source of the mapping")
    for component in locus.components:
        if component.constant_term():
            raise ValueError("locus components must vanish at the origin")
    return matrix_rank(jacobian_along(mapping, locus))


def linear_coordinate_change(
    manifold: GenericManifold,
    matrix: Sequence[Sequence[GaussianRational]],
) -> GenericManifold:
    """The same manifold, defined in new coordinates Z' = A Z (the oracle of
    the invariance checks: ranks and finite type must not move).

    The defining functions, at the top order of the ladder as it reads when
    called (``config.top_order``), are pulled back through the inverse
    linear map (with the conjugate matrix acting on the conjugate block) and
    reloaded through the rho route, so the coordinate split is re-derived.
    """
    dims = manifold.dims
    kappa_master = top_order(manifold.kappa)
    inverse = linalg.invert(matrix)
    high = manifold.at_kappa(kappa_master)

    # ambient -> raw relabeling that undoes the load-time split
    w_cols = list(manifold.w_columns)
    z_cols = [c for c in range(dims.N) if c not in w_cols]
    assignment: List[Optional[int]] = [0] * dims.ambient_arity
    for i, c in enumerate(z_cols):
        assignment[dims.z(i)] = c
        assignment[dims.ch(i)] = dims.N + c
    for l, c in enumerate(w_cols):
        assignment[dims.w(l)] = c
        assignment[dims.ta(l)] = dims.N + c
    raw = [component.map_vars(dims.ambient_arity, assignment) for component in high.rho.components]

    arity = dims.ambient_arity
    substitution: List[TruncatedSeries] = []
    for c in range(dims.N):
        series = TruncatedSeries.zero(arity, kappa_master)
        for b in range(dims.N):
            if inverse[c][b]:
                series = series + TruncatedSeries.variable(arity, kappa_master, b).scale(inverse[c][b])
        substitution.append(series)
    for c in range(dims.N):
        series = TruncatedSeries.zero(arity, kappa_master)
        for b in range(dims.N):
            value = inverse[c][b].conjugate()
            if value:
                series = series + TruncatedSeries.variable(arity, kappa_master, dims.N + b).scale(value)
        substitution.append(series)
    inner = FormalMap(substitution)
    transformed = compose_many(raw, inner)
    # the substitution acts by H on the holomorphic block and conj(H) on the
    # conjugate block, so it commutes with the conjugation involution and
    # reality is inherited: the load gate passes
    return manifold_from_rho_series(dims, transformed, manifold.kappa, label=f"{manifold.label}'")


# ---------------------------------------------------------------------------
# multivariate helpers that no command needs
# ---------------------------------------------------------------------------


def matrix_order(matrix: List[List[TruncatedSeries]]) -> int:
    """The smallest order of the matrix's entries."""
    return min(entry.kappa for row in matrix for entry in row)


def on_line(series: Sequence[TruncatedSeries], point: Sequence[int], order: int) -> list:
    """Each series restricted to the line x = eps * point: univariate, modulo eps^(order + 1).

    The coefficient of eps^k is the sum of c_a * point^a over |a| = k, so
    each series takes one pass over its terms with integer power tables of
    the point, over one common denominator, and one division per power of
    eps.  The results equal ``compose_many`` onto the map eps -> eps * point.
    """
    powers = []
    for x in point:
        row = [1]
        for _ in range(order):
            row.append(row[-1] * x)
        powers.append(row)
    results = []
    for entry in series:
        if entry.arity != len(powers):
            raise SeriesError(f"point of length {len(powers)} for a series in {entry.arity} variables")
        kappa = min(entry.kappa, order)
        kept = []
        den = 1
        for exp, coeff in entry.terms.items():
            degree = sum(exp)
            if degree <= kappa:
                kept.append((degree, reduce(mul, map(getitem, powers, exp), 1), coeff))
                if den % coeff._d:
                    den = den // gcd(den, coeff._d) * coeff._d
        re, im = [0] * (kappa + 1), [0] * (kappa + 1)
        for degree, value, coeff in kept:
            value *= den // coeff._d
            re[degree] += coeff._a * value
            im[degree] += coeff._b * value
        terms = {(k,): _reduced(re[k], im[k], den) for k in range(kappa + 1) if re[k] or im[k]}
        results.append(_series(1, kappa, terms))
    return results


def matrix_on_line(matrix: List[List[TruncatedSeries]], point: Sequence[int], order: int):
    """Every entry restricted to x = eps * point: univariate, modulo eps^(order + 1)."""
    flat = iter(on_line([entry for row in matrix for entry in row], point, order))
    return [[next(flat) for _ in row] for row in matrix]


def matrix_lines(matrix: List[List[TruncatedSeries]], order: int) -> Lines:
    """The entries as exact polynomials at ``order``, read on lines."""
    exact = [[entry.with_order(order) for entry in row] for row in matrix]
    return Lines(
        len(matrix), len(matrix[0]), matrix[0][0].arity, order, lambda point: matrix_on_line(exact, point, order)
    )


def matrix_rank(matrix: List[List[TruncatedSeries]], seed: int = DEFAULT_SEED) -> RankCertificate:
    """``generic_rank`` of a plain matrix whose entries are exact polynomials,
    as every matrix built from parsed polynomial input is: read at the top
    order of the ladder above the entries' order, which is its kappa."""
    kappa = matrix_order(matrix)
    return generic_rank(matrix_lines(matrix, top_order(kappa)), kappa=kappa, seed=seed)


def jacobian(mapping: FormalMap) -> List[List[TruncatedSeries]]:
    """The m x p matrix of partial derivatives; entries valid one order lower."""
    return [[component.partial(col) for col in range(mapping.source_arity)] for component in mapping.components]


def identity_map(arity: int, kappa: int) -> FormalMap:
    return FormalMap([TruncatedSeries.variable(arity, kappa, i) for i in range(arity)])


def homogeneous_part(series: TruncatedSeries, degree: int) -> TruncatedSeries:
    return TruncatedSeries(series.arity, series.kappa, {e: c for e, c in series.terms.items() if sum(e) == degree})


def evaluate(series: TruncatedSeries, point: Sequence) -> GaussianRational:
    """Exact value of the truncated polynomial representative at ``point``."""
    return d_eval(from_series(series), [as_coeff(value) for value in point])


def sigma_field(x: FormalVectorField, block: int) -> FormalVectorField:
    """Conjugation involution on fields: swap the coefficient blocks and apply
    sigma, which sends the conjugate directions to the holomorphic ones and back."""
    coefficients = {(slot + block) % x.arity: c.sigma(block) for slot, c in x.coefficients.items()}
    return FormalVectorField(x.arity, x.valid_order, coefficients)


def verify_certificate(cert: RankCertificate, matrix: List[List[TruncatedSeries]]) -> bool:
    """Recompute the cited minor on the cited line: one univariate determinant."""
    if cert.rank == 0:
        return all(entry.is_zero() for row in matrix for entry in row)
    rows, cols, point = cert.minor_rows, cert.minor_cols, cert.line_point
    in_range = all(0 <= i < len(matrix) for i in rows) and all(0 <= j < len(matrix[0]) for j in cols)
    if not (len(rows) == len(cols) == cert.rank and in_range and len(point) == matrix[0][0].arity):
        return False
    pivots = _eliminate(matrix_on_line([[matrix[i][j] for j in cols] for i in rows], point, matrix_order(matrix)))
    return len(pivots) == cert.rank and _witness(pivots) == (cert.witness_exponent, cert.witness_value)
