"""Certified generic rank: examples, brute-force oracle, profiles, determinism."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import (
    DEFAULT_SEED,
    FormalMap,
    SegreMapping,
    TruncatedSeries,
    gauss,
    generic_rank,
    minor_determinant,
    rank_profile,
)
from segre.config import ORDER_LADDER
from segre.expressions import ManifoldSpec, load_manifold
from segre.errors import InternalConsistencyError
from segre.rank import TRIALS, VALUE_BOUND, lines

from conftest import (
    count_loads,
    default_profile,
    load_fixture,
    random_real_rho_manifold,
    random_rigid_manifold,
    working_order_only,
)
from oracles import (
    brute_force_rank,
    evaluate,
    from_series,
    homogeneous_part,
    identity_map,
    jacobian,
    rank_along,
    verify_certificate,
)


def random_poly_matrix(rng, n_rows, n_cols, arity=2, kappa=6):
    out = []
    for _ in range(n_rows):
        row = []
        for _ in range(n_cols):
            terms = {}
            for _ in range(rng.randint(0, 2)):
                exp = [0] * arity
                for _ in range(rng.randint(0, 2)):
                    exp[rng.randrange(arity)] += 1
                value = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                if value:
                    terms[tuple(exp)] = value
            row.append(TruncatedSeries(arity, kappa, terms))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------


def test_jacobian_identity():
    identity = identity_map(2, 5)
    matrix = jacobian(identity)
    assert matrix[0][0].constant_term() == gauss(1)
    assert matrix[0][1].is_zero()
    assert matrix[1][0].is_zero()
    assert matrix[1][1].constant_term() == gauss(1)


def test_jacobian_h_v2(manifold_h):
    gamma = SegreMapping(manifold_h)
    matrix = jacobian(gamma.v(2))
    # rows (0, 1) and (2i t2, 2i t1) by hand
    assert matrix[0][0].is_zero()
    assert matrix[0][1].constant_term() == gauss(1)
    assert matrix[1][0].terms == {(0, 1): gauss(0, 2)}
    assert matrix[1][1].terms == {(1, 0): gauss(0, 2)}


def test_jacobian_constant_component_gives_zero_row():
    mapping = FormalMap([TruncatedSeries.variable(2, 5, 0), TruncatedSeries.zero(2, 5)])
    matrix = jacobian(mapping)
    assert all(entry.is_zero() for entry in matrix[1])


# ---------------------------------------------------------------------------
# generic rank
# ---------------------------------------------------------------------------


def test_generic_rank_h_v2(manifold_h):
    gamma = SegreMapping(manifold_h)
    cert = generic_rank(jacobian(gamma.v(2)), seed=DEFAULT_SEED)
    assert cert.rank == 2
    assert cert.stable
    # the full 2x2 minor has determinant -2i t2
    det = minor_determinant(jacobian(gamma.v(2)), cert.minor_rows, cert.minor_cols)
    assert det.terms == {(0, 1): gauss(0, -2)}
    assert verify_certificate(cert, jacobian(gamma.v(2)))


def test_generic_rank_zero_matrix():
    matrix = [[TruncatedSeries.zero(2, 5) for _ in range(3)] for _ in range(2)]
    cert = generic_rank(matrix, seed=DEFAULT_SEED)
    assert cert.rank == 0
    assert cert.stable
    assert cert.witness_exponent is None


def test_generic_rank_l4_v2(manifold_l4):
    gamma = SegreMapping(manifold_l4)
    matrix = jacobian(gamma.v(2))
    # rows (0, 1) and (4i t1 t2^2, 4i t1^2 t2) by hand
    assert matrix[1][0].terms == {(1, 2): gauss(0, 4)}
    cert = generic_rank(matrix, seed=DEFAULT_SEED)
    assert cert.rank == 2
    det = minor_determinant(matrix, (0, 1), (0, 1))
    assert det.terms == {(1, 2): gauss(0, -4)}


def test_generic_rank_matches_brute_force_oracle():
    rng = random.Random(31)
    for _ in range(50):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        matrix = random_poly_matrix(rng, n_rows, n_cols)
        dense = [[from_series(e) for e in row] for row in matrix]
        assert generic_rank(matrix, seed=DEFAULT_SEED).rank == brute_force_rank(dense)


# entries of total degree <= 3, so every minor of a 4x4 matrix lies below order 12
_entry = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda exp: sum(exp) <= 3),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
    max_size=3,
).map(lambda terms: TruncatedSeries(2, 12, {exp: gauss(*c) for exp, c in terms.items()}))


@st.composite
def _poly_matrices(draw):
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
    return [[draw(_entry) for _ in range(n_cols)] for _ in range(n_rows)]


@given(_poly_matrices())
def test_generic_rank_property_against_oracle(matrix):
    with working_order_only():
        cert = generic_rank(matrix, seed=DEFAULT_SEED)
    dense = [[from_series(e) for e in row] for row in matrix]
    assert cert.rank == brute_force_rank(dense)
    assert verify_certificate(cert, matrix)
    if cert.rank:
        # the witness is the lowest term of the cofactor-expanded minor on the line
        det = minor_determinant(matrix, cert.minor_rows, cert.minor_cols)
        on_line = [evaluate(homogeneous_part(det, k), cert.line_point) for k in range(cert.witness_exponent + 1)]
        assert on_line == [gauss(0)] * cert.witness_exponent + [cert.witness_value]


def _diagonal(a, b, kappa):
    """diag(x1^a, x2^b): its only nonzero 2-minor is x1^a x2^b, of degree a + b."""
    return [
        [TruncatedSeries(2, kappa, {(a, 0): 1}), TruncatedSeries.zero(2, kappa)],
        [TruncatedSeries.zero(2, kappa), TruncatedSeries(2, kappa, {(0, b): 1})],
    ]


def _cancelling(kappa):
    """[[x1, x2], [x1, x2 + x1^3]]: every entry has valuation 1, the minor is x1^4."""
    return [
        [TruncatedSeries(2, kappa, {(1, 0): 1}), TruncatedSeries(2, kappa, {(0, 1): 1})],
        [TruncatedSeries(2, kappa, {(1, 0): 1}), TruncatedSeries(2, kappa, {(0, 1): 1, (3, 0): 1})],
    ]


@pytest.mark.parametrize(
    "matrix, rank, exponent",
    [
        (_diagonal(2, 3, 5), 2, 5),  # the minor has degree exactly K: it counts
        (_diagonal(3, 3, 5), 1, 3),  # degree K + 1: it does not
        (_cancelling(4), 2, 4),  # first pivot has valuation 1, the complement cancels to x1^3
        (_cancelling(3), 1, 1),
    ],
    ids=["degree-K", "degree-K-plus-1", "positive-valuation", "positive-valuation-short"],
)
def test_generic_rank_at_the_truncation_order(matrix, rank, exponent):
    with working_order_only():
        cert = generic_rank(matrix, seed=DEFAULT_SEED)
    assert cert.rank == rank
    assert cert.witness_exponent == exponent
    assert verify_certificate(cert, matrix)


def test_generic_rank_determinism(manifold_h):
    gamma = SegreMapping(manifold_h)
    matrix = jacobian(gamma.v(2))
    first = generic_rank(matrix, seed=123)
    second = generic_rank(matrix, seed=123)
    assert first == second
    # a different seed may pick a different witness but the same rank
    assert generic_rank(matrix, seed=321).rank == first.rank


def test_certified_rank_monotone_in_order():
    # a matrix whose only minor first becomes nonzero past order 3
    full = TruncatedSeries(1, 8, {(5,): 1})
    low = [[full.truncate(3)]]
    high = [[full]]
    with working_order_only():
        assert generic_rank(low, seed=DEFAULT_SEED).rank == 0
        assert generic_rank(high, seed=DEFAULT_SEED).rank == 1


def test_certificate_escalation_detects_instability():
    # truncated entry that becomes nonzero only past the base order
    entry = TruncatedSeries(1, 8, {(6,): 1})
    base = [[entry.truncate(3).with_order(3)]]

    def builder(kappa):
        return [[entry.truncate(min(8, kappa)).with_order(kappa)]]

    cert = generic_rank(builder=builder, kappa=3, seed=DEFAULT_SEED)
    assert cert.rank == 1
    assert not cert.stable
    assert generic_rank(base, seed=DEFAULT_SEED).rank == 0


# univariate entries at order 8 with valuations up to 10, so that some vanish at every order
_line_entry = st.dictionaries(
    st.integers(0, 10), st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any), max_size=3
).map(lambda terms: TruncatedSeries(1, 8, {(k,): gauss(*c) for k, c in terms.items() if k <= 8}))


@st.composite
def _line_matrices(draw):
    """Matrices over Q(i)[eps]/(eps^9); a product through a narrower inner
    dimension is rank-deficient."""
    n_rows, n_cols, inner = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if inner >= min(n_rows, n_cols):
        return [[draw(_line_entry) for _ in range(n_cols)] for _ in range(n_rows)]
    left = [[draw(_line_entry) for _ in range(inner)] for _ in range(n_rows)]
    right = [[draw(_line_entry) for _ in range(n_cols)] for _ in range(inner)]
    return [
        [sum((left[i][k] * right[k][j] for k in range(inner)), TruncatedSeries.zero(1, 8)) for j in range(n_cols)]
        for i in range(n_rows)
    ]


@given(_line_matrices())
def test_every_lower_order_is_a_pivot_prefix_of_the_top_elimination(matrix):
    from segre.rank import _eliminate, _modulo, _witness

    top = _eliminate(matrix)
    for order in range(9):
        direct = _eliminate([[entry.truncate(order) for entry in row] for row in matrix])
        kept = _modulo(top, order)
        assert [p[:3] for p in kept] == [p[:3] for p in direct], order
        assert (_witness(kept) if kept else None) == (_witness(direct) if direct else None), order


def _x(kappa, *exponents):
    return TruncatedSeries(2, kappa, {exponent: 1 for exponent in exponents})


_DEFICIENT = [[_x(5, (1, 0)), _x(5, (0, 1))], [_x(5, (1, 0)), _x(5, (0, 1))]]


@pytest.mark.parametrize(
    "matrix, kappa, ceiling, rank, drawn",
    [
        ([[_x(5, (1, 0)), _x(5, (0, 0))], [_x(5, (0, 0)), _x(5, (0, 1))]], 5, None, 2, 1),
        (_DEFICIENT, 5, None, 1, TRIALS),
        # full rank from order 7 up only: the working order keeps drawing
        ([[TruncatedSeries(1, 8, {(6,): 1})]], 3, None, 1, TRIALS),
        # a proven ceiling below min(rows, cols) is full rank
        (_DEFICIENT, 5, 1, 1, 1),
    ],
    ids=["full-rank", "rank-deficient", "full-at-the-top-only", "rank-deficient-at-its-ceiling"],
)
def test_lines_are_drawn_until_every_order_has_full_rank(matrix, kappa, ceiling, rank, drawn):
    points, levels = [], []

    def builder(level):
        levels.append(level)
        built = lines([[entry.with_order(level) for entry in row] for row in matrix])
        return built.replace(at=lambda point: points.append(point) or built.at(point), ceiling=ceiling)

    cert = generic_rank(builder=builder, kappa=kappa, seed=DEFAULT_SEED)
    assert levels == [kappa + ORDER_LADDER[-1]]
    assert (cert.rank, len(points)) == (rank, drawn)
    # a plain matrix's order is its level
    full = rank == (ceiling or min(len(matrix), len(matrix[0])))
    assert cert.error_bound == (0 if full else Fraction(cert.kappa_used, 2 * VALUE_BOUND) ** TRIALS)


def test_a_rank_above_the_proven_ceiling_raises():
    identity = [[_x(5, (0, 0)), _x(5)], [_x(5), _x(5, (0, 0))]]
    with pytest.raises(InternalConsistencyError, match="rank 2 on a line exceeds the proven ceiling 1"):
        generic_rank(builder=lambda level: lines(identity).replace(ceiling=1), kappa=5, seed=DEFAULT_SEED)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_the_tangent_ceiling_changes_no_theta_phi_certificate(seed, rigid):
    # theta^j and phi^j map into M_C, so 2N - d bounds their rank; with the
    # ceiling a certificate may stop drawing lines sooner, and only its error
    # bound may change
    from segre.rank import phi_lines, theta_lines

    rng = random.Random(seed)
    manifold = random_rigid_manifold(rng) if rigid else random_real_rho_manifold(rng)
    segre = SegreMapping(manifold)
    k0 = default_profile(segre).k0
    ceiling = 2 * manifold.N - manifold.d
    for j in range(1, k0 + 2):
        for build in (theta_lines, phi_lines):
            with_ceiling, without = (
                generic_rank(
                    builder=lambda level: build(segre, j, level).replace(**options),
                    kappa=manifold.kappa,
                    seed=DEFAULT_SEED,
                )
                for options in ({}, {"ceiling": None})
            )
            assert build(segre, j, manifold.kappa).ceiling == ceiling
            assert with_ceiling.rank <= ceiling
            assert with_ceiling.replace(error_bound=without.error_bound) == without, (build.__name__, j)
            if with_ceiling.rank == ceiling:
                assert with_ceiling.error_bound == 0


def _drawn_lines(manifold, monkeypatch):
    """Lines drawn by each theta/phi certificate of ``verify_all``, keyed by (map, j)."""
    from segre import RunConfig, orbit, verify_all

    drawn = {}
    for name in ("theta_lines", "phi_lines"):
        real = getattr(orbit, name)

        def counted(segre, j, level, real=real, key=name[: -len("_lines")]):
            built = real(segre, j, level)
            drawn[(key, j)] = 0

            def at(point):
                drawn[(key, j)] += 1
                return built.at(point)

            return built.replace(at=at)

        monkeypatch.setattr(orbit, name, counted)
    report = verify_all(manifold, RunConfig(kappa=manifold.kappa))
    return drawn, report.profile.k0


@pytest.mark.parametrize("name", ["h", "l4", "c2", "n2", "c3@10", "l4-dense", "flat"])
def test_theta_phi_certificates_draw_one_line_at_the_ceiling(name, monkeypatch):
    # of finite type, theta^(k0+1) and phi^(k0+1) have rank 2N - d; every
    # other theta/phi has full column rank.  Flat is not of finite type:
    # theta^(k0+1) has rank dim O = 2 < 2N - d = 3 and draws every line
    from test_cli import L4_DENSE_RHO

    specs = {
        "n2": ManifoldSpec(3, 1, "graph", ("ta1 + 2*i*(z1*ch1 + z2*ch2)",)),
        "c3@10": C3,
        "l4-dense": ManifoldSpec(2, 1, "rho", (L4_DENSE_RHO,)),
    }
    manifold = load_manifold(specs[name], 10 if name == "c3@10" else 8) if name in specs else load_fixture(name)
    drawn, k0 = _drawn_lines(manifold, monkeypatch)
    expected = {(key, j): 1 for key in ("theta", "phi") for j in range(1, k0 + 2)}
    if name == "flat":
        expected[("theta", k0 + 1)] = TRIALS
    assert drawn == expected


def test_escalated_orders_are_certified_top_down_on_evaluated_lines(manifold_h, monkeypatch):
    from segre.rank import iterate_lines

    matrix = jacobian(SegreMapping(manifold_h).v(2))
    loads = count_loads(monkeypatch)
    manifold = load_fixture("h")
    segre = SegreMapping(manifold)
    levels = []

    def builder(level):
        levels.append(level)
        return iterate_lines(segre, 2, level)

    cert = generic_rank(builder=builder, kappa=8, seed=DEFAULT_SEED)
    assert levels == [16]
    # the one expression is parsed once, at the top order, and every lower
    # order is read off the lines of the top form
    assert loads == {"parse": [16], "solve": []}
    assert manifold.at_kappa(8) is manifold and manifold.at_kappa(16) is manifold.top
    # the certificate's line reads the multivariate Jacobian at the run's order
    assert cert.rank == 2 and cert.kappa_used == 8 and cert.stable
    assert verify_certificate(cert, matrix)


# ---------------------------------------------------------------------------
# rank profiles
# ---------------------------------------------------------------------------


def test_rank_profile_fixtures(all_fixture_manifolds):
    expected = {
        "h": ((1, 2, 2), 2),
        "flat": ((1, 1, 1), 1),
        "l4": ((1, 2, 2), 2),
        "c2": ((1, 2, 3, 3), 3),
    }
    for name, manifold in all_fixture_manifolds.items():
        profile = default_profile(SegreMapping(manifold))
        ranks, k0 = expected[name]
        assert profile.ranks == ranks, name
        assert profile.k0 == k0, name
        assert profile.stable, name
        assert profile.rank_at(1) == manifold.n


def test_rank_profile_levi_flat_n9():
    spec = ManifoldSpec(N=9, d=1, form="graph", expressions=("ta1",))
    profile = default_profile(SegreMapping(load_manifold(spec, 8)))
    assert profile.ranks == (8, 8, 8)
    assert profile.k0 == 1
    assert profile.stable


def test_rank_profile_rejects_small_jmax(manifold_h):
    with pytest.raises(ValueError):
        rank_profile(SegreMapping(manifold_h), 2, DEFAULT_SEED)


def test_rank_profile_random_manifolds_obey_the_laws():
    # laws at the working order; stability escalation is exercised separately
    rng = random.Random(41)
    for index in range(10):
        manifold = (
            random_rigid_manifold(rng) if index % 2 == 0 else random_real_rho_manifold(rng)
        )
        with working_order_only():
            profile = default_profile(SegreMapping(manifold))
        assert profile.ranks[0] == manifold.n
        assert profile.k0 <= manifold.d + 1


def test_rank_profile_escalation_on_random_rigid_manifolds():
    rng = random.Random(43)
    for _ in range(3):
        manifold = random_rigid_manifold(rng)
        profile = default_profile(SegreMapping(manifold))
        assert profile.k0 <= manifold.d + 1
        assert all(cert.kappa_used >= manifold.kappa for cert in profile.certificates)


# ---------------------------------------------------------------------------
# rank along a locus
# ---------------------------------------------------------------------------


def test_rank_along_mirror_locus_h(manifold_h):
    gamma = SegreMapping(manifold_h)
    v4 = gamma.v(4)
    # locus (t1, t2, t3, t4) = (s1, s2, s1, 0)
    locus = FormalMap(
        [
            TruncatedSeries.variable(2, 8, 0),
            TruncatedSeries.variable(2, 8, 1),
            TruncatedSeries.variable(2, 8, 0),
            TruncatedSeries.zero(2, 8),
        ]
    )
    composed = [[entry.compose(locus) for entry in row] for row in jacobian(v4)]
    # z-row (0, 0, 0, 1) and w-row (2i s2, 0, -2i s2, 2i s1) by hand
    assert composed[0][3].constant_term() == gauss(1)
    assert composed[1][0].terms == {(0, 1): gauss(0, 2)}
    assert composed[1][1].is_zero()
    assert composed[1][2].terms == {(0, 1): gauss(0, -2)}
    assert composed[1][3].terms == {(1, 0): gauss(0, 2)}
    cert = rank_along(v4, locus)
    assert cert.rank == 2


def test_rank_along_identity_locus(manifold_h):
    gamma = SegreMapping(manifold_h)
    v2 = gamma.v(2)
    cert = rank_along(v2, identity_map(2, 8))
    assert cert.rank == generic_rank(jacobian(v2), seed=DEFAULT_SEED).rank


def test_rank_along_zero_locus_gives_rank_at_origin(all_fixture_manifolds):
    for manifold in all_fixture_manifolds.values():
        gamma = SegreMapping(manifold)
        v2 = gamma.v(2)
        zero_locus = FormalMap(
            [TruncatedSeries.zero(2 * manifold.n, 8) for _ in range(2 * manifold.n)],
        )
        cert = rank_along(v2, zero_locus)
        assert cert.rank == manifold.n


def test_rank_along_rejects_bad_locus(manifold_h):
    gamma = SegreMapping(manifold_h)
    with pytest.raises(ValueError):
        rank_along(gamma.v(2), identity_map(3, 8))
    bad = FormalMap([TruncatedSeries.constant(1, 8, 1), TruncatedSeries.variable(1, 8, 0)])
    with pytest.raises(ValueError):
        rank_along(gamma.v(2), bad)


# ---------------------------------------------------------------------------
# theta/phi and mirror matrices read off the iterates' Jacobians on lines
# ---------------------------------------------------------------------------


C3 = ManifoldSpec(3 + 1, 3, "graph", ("ta1 + 2*i*z1*ch1", "ta2 + 2*i*z1^2*ch1^2", "ta3 + 2*i*z1^3*ch1^3"))


N5 = ManifoldSpec(6, 1, "graph", ("ta1 + 2*i*(z1*ch1 + z2*ch2 + z3*ch3 + z4*ch4 + z5*ch5)",))


@pytest.mark.parametrize(
    "name, k0", [("h", 2), ("c2", 3), ("c3", 4), ("l4-dense", 2), ("c2-dense", 3), ("n5", 2)]
)
def test_line_jacobians_equal_the_multivariate_route(name, k0):
    # the rank builders never form v^j, theta^j, phi^j or their Jacobians above
    # the run's order; on every order a certificate reads, their lines must
    # equal the multivariate Jacobians, built from the manifold rebuilt at that
    # order and restricted to the same line, term for term
    from segre.orbit import _mirror_lines
    from segre.rank import _on_line, _order, phi_lines, theta_lines

    from conftest import load_fixture
    from oracles import multivariate_matrices
    from test_cli import C2_DENSE_RHO, L4_DENSE_RHO

    kappa = 6 if name == "c2-dense" else 8
    specs = {
        "c3": C3,
        "n5": N5,
        "l4-dense": ManifoldSpec(2, 1, "rho", (L4_DENSE_RHO,)),
        "c2-dense": ManifoldSpec(3, 2, "rho", C2_DENSE_RHO),
    }
    manifold = load_manifold(specs[name], kappa) if name in specs else load_fixture(name)
    rng = random.Random(301)
    segre = SegreMapping(manifold)
    # top-down, as generic_rank asks for them: the lower orders cut the top graph
    for level in (kappa + 8, kappa + 4, kappa):
        engine = [build(segre, j, level) for j in range(1, k0 + 2) for build in (theta_lines, phi_lines)]
        engine.append(_mirror_lines(segre, k0, level))
        for lines, matrix in zip(engine, multivariate_matrices(manifold, level, k0), strict=True):
            shape = (len(matrix), len(matrix[0]), matrix[0][0].arity, _order(matrix))
            assert (lines.rows, lines.cols, lines.arity, lines.order) == shape
            assert lines.order == level - 1
            for _ in range(2):
                point = [rng.choice((-1, 1)) * rng.randint(1, 1 << 16) for _ in range(lines.arity)]
                assert lines.at(point) == _on_line(matrix, point, lines.order), (name, level)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 3))
def test_line_evaluator_equals_the_multivariate_iterates(seed, kappa, j):
    # random real rho manifolds (d <= 2) on random lines, zero coordinates included
    from segre.series import on_line

    from oracles import line_jacobian

    rng = random.Random(seed)
    manifold = random_real_rho_manifold(rng, kappa=kappa)
    n = manifold.n
    segre = SegreMapping(manifold)
    point = [rng.randint(-9, 9) for _ in range(j * n)]
    steps = segre.on_line(point, kappa)
    assert len(steps) == j + 1 and steps[0][1] == [[]] * manifold.N
    for k, (values, rows) in enumerate(steps[1:], start=1):
        assert values == on_line(segre.v(k).components, point[: k * n], kappa)
        assert rows == line_jacobian(segre, k, point[: k * n])
