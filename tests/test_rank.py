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
from segre.config import top_order
from segre.expressions import ManifoldSpec, load_manifold
from segre.rank import TRIALS, VALUE_BOUND

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
    matrix_lines,
    matrix_on_line,
    matrix_order,
    matrix_rank,
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
    cert = matrix_rank(jacobian(gamma.v(2)))
    assert cert.rank == 2
    assert cert.stable
    # the full 2x2 minor has determinant -2i t2
    det = minor_determinant(jacobian(gamma.v(2)), cert.minor_rows, cert.minor_cols)
    assert det.terms == {(0, 1): gauss(0, -2)}
    assert verify_certificate(cert, jacobian(gamma.v(2)))


def test_generic_rank_zero_matrix():
    matrix = [[TruncatedSeries.zero(2, 5) for _ in range(3)] for _ in range(2)]
    cert = matrix_rank(matrix)
    assert cert.rank == 0
    assert cert.stable
    assert cert.witness_exponent is None


def test_generic_rank_l4_v2(manifold_l4):
    gamma = SegreMapping(manifold_l4)
    matrix = jacobian(gamma.v(2))
    # rows (0, 1) and (4i t1 t2^2, 4i t1^2 t2) by hand
    assert matrix[1][0].terms == {(1, 2): gauss(0, 4)}
    cert = matrix_rank(matrix)
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
        assert matrix_rank(matrix).rank == brute_force_rank(dense)


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
        cert = matrix_rank(matrix)
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
        cert = matrix_rank(matrix)
    assert cert.rank == rank
    assert cert.witness_exponent == exponent
    assert verify_certificate(cert, matrix)


def test_generic_rank_determinism(manifold_h):
    gamma = SegreMapping(manifold_h)
    matrix = jacobian(gamma.v(2))
    first = matrix_rank(matrix, seed=123)
    second = matrix_rank(matrix, seed=123)
    assert first == second
    # a different seed may pick a different witness but the same rank
    assert matrix_rank(matrix, seed=321).rank == first.rank


def test_certified_rank_monotone_in_order():
    # a matrix whose only minor first becomes nonzero past order 3
    full = TruncatedSeries(1, 8, {(5,): 1})
    low = [[full.truncate(3)]]
    high = [[full]]
    with working_order_only():
        assert matrix_rank(low).rank == 0
        assert matrix_rank(high).rank == 1


def test_certificate_escalation_detects_instability():
    # truncated entry that becomes nonzero only past the base order
    entry = TruncatedSeries(1, 8, {(6,): 1})
    base = [[entry.truncate(3).with_order(3)]]
    # at the top order 3 + 8 the entry is x^6
    cert = generic_rank(matrix_lines([[entry]], top_order(3)), kappa=3, seed=DEFAULT_SEED)
    assert cert.rank == 1
    assert not cert.stable
    assert matrix_rank(base).rank == 0


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
    "matrix, kappa, rank, drawn",
    [
        ([[_x(5, (1, 0)), _x(5, (0, 0))], [_x(5, (0, 0)), _x(5, (0, 1))]], 5, 2, 1),
        (_DEFICIENT, 5, 1, TRIALS),
        # full rank from order 7 up only: the working order keeps drawing
        ([[TruncatedSeries(1, 8, {(6,): 1})]], 3, 1, TRIALS),
    ],
    ids=["full-rank", "rank-deficient", "full-at-the-top-only"],
)
def test_lines_are_drawn_until_every_order_has_full_rank(matrix, kappa, rank, drawn):
    points = []
    top = matrix_lines(matrix, top_order(kappa))
    counted = top.replace(at=lambda point: points.append(point) or top.at(point))
    cert = generic_rank(counted, kappa=kappa, seed=DEFAULT_SEED)
    assert (cert.rank, len(points)) == (rank, drawn)
    # a plain matrix is read at each level itself (its lines' order is the top level)
    full = rank == min(len(matrix), len(matrix[0]))
    assert cert.error_bound == (0 if full else Fraction(cert.kappa_used, 2 * VALUE_BOUND) ** TRIALS)


def test_escalated_orders_are_certified_top_down_on_evaluated_lines(manifold_h, monkeypatch):
    from segre.rank import iterate_lines

    matrix = jacobian(SegreMapping(manifold_h).v(2))
    loads = count_loads(monkeypatch)
    manifold = load_fixture("h")
    segre = SegreMapping(manifold)
    lines = iterate_lines(segre, 2)
    cert = generic_rank(lines, kappa=8, seed=DEFAULT_SEED)
    assert lines.order == 15
    # the one expression is parsed once, at the top order, and every lower
    # order is read off the lines of the top form
    assert loads == {"parse": [16], "solve": []}
    assert manifold.at_kappa(8) is manifold and manifold.at_kappa(16) is manifold.top
    # the certificate's line reads the multivariate Jacobian at the run's order
    assert cert.rank == 2 and cert.kappa_used == 8 and cert.stable
    assert verify_certificate(cert, matrix)


@pytest.mark.parametrize("name", ["c2", "l4-dense"])
def test_every_certificate_reads_its_lines_at_the_top_order(name, monkeypatch):
    # c2 composes its graph onto each line, l4-dense lifts the w-part from rho:
    # both routes read the top form the load kept, and truncate nothing
    from segre import GenericManifold, RunConfig, orbit, rank, verify_all
    from test_cli import L4_DENSE_RHO

    manifold = load_fixture("c2") if name == "c2" else load_manifold(ManifoldSpec(2, 1, "rho", (L4_DENSE_RHO,)), 8)
    assert (SegreMapping(manifold)._line_outers()[0] is None) == (name == "c2")
    orders, truncations = [], []
    real_generic_rank = rank.generic_rank

    def generic_rank(lines, **kwargs):
        orders.append(lines.order)
        return real_generic_rank(lines, **kwargs)

    for module in (rank, orbit):
        monkeypatch.setattr(module, "generic_rank", generic_rank)
    monkeypatch.setattr(GenericManifold, "at_kappa", lambda self, kappa: truncations.append(kappa))
    report = verify_all(manifold, RunConfig())
    assert report.passed
    # the profile's d + 2 iterates and the mirror; theta's and phi's ranks are read off the profile
    assert len(orders) == manifold.d + 2 + 1
    assert set(orders) == {top_order(manifold.kappa) - 1}
    assert truncations == []


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
        with working_order_only():
            manifold = random_rigid_manifold(rng) if index % 2 == 0 else random_real_rho_manifold(rng)
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
    assert cert.rank == matrix_rank(jacobian(v2)).rank


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
# iterate and mirror lines, and the theta/phi ranks read off the iterates'
# ---------------------------------------------------------------------------


C3 = ManifoldSpec(3 + 1, 3, "graph", ("ta1 + 2*i*z1*ch1", "ta2 + 2*i*z1^2*ch1^2", "ta3 + 2*i*z1^3*ch1^3"))


N5 = ManifoldSpec(6, 1, "graph", ("ta1 + 2*i*(z1*ch1 + z2*ch2 + z3*ch3 + z4*ch4 + z5*ch5)",))


@pytest.mark.parametrize(
    "name, k0", [("h", 2), ("c2", 3), ("c3", 4), ("l4-dense", 2), ("c2-dense", 3), ("n5", 2)]
)
def test_line_jacobians_equal_the_multivariate_route(name, k0):
    # the line readers never form v^j or their Jacobians above the run's
    # order; at the top order, the one a certificate reads, the lines of
    # J v^j and of the mirror locus must equal the multivariate Jacobians,
    # built from the manifold rebuilt there and restricted to the same line,
    # term for term.  Every lower order is a pivot prefix of the top
    # elimination (test_every_lower_order_is_a_pivot_prefix_of_the_top_elimination)
    from segre.orbit import _mirror_lines
    from segre.rank import iterate_lines

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
    top = top_order(kappa)
    engine = [iterate_lines(segre, j) for j in range(1, k0 + 2)]
    engine.append(_mirror_lines(segre, k0))
    for lines, matrix in zip(engine, multivariate_matrices(manifold, top, k0), strict=True):
        shape = (len(matrix), len(matrix[0]), matrix[0][0].arity, matrix_order(matrix))
        assert (lines.rows, lines.cols, lines.arity, lines.order) == shape
        assert lines.order == top - 1
        for _ in range(2):
            point = [rng.choice((-1, 1)) * rng.randint(1, 1 << 16) for _ in range(lines.arity)]
            assert lines.at(point) == matrix_on_line(matrix, point, lines.order), name


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 3))
def test_line_evaluator_equals_the_multivariate_iterates(seed, kappa, j):
    # random real rho manifolds (d <= 2) on random lines, zero coordinates
    # included; the lines are read at the top order and cut to the run's
    from oracles import line_jacobian, on_line

    rng = random.Random(seed)
    manifold = random_real_rho_manifold(rng, kappa=kappa)
    n = manifold.n
    segre = SegreMapping(manifold)
    point = [rng.randint(-9, 9) for _ in range(j * n)]
    steps = segre.on_line(point)
    assert len(steps) == j + 1 and steps[0][1] == [[]] * manifold.N
    for k, (values, rows) in enumerate(steps[1:], start=1):
        assert [value.truncate(kappa) for value in values] == on_line(segre.v(k).components, point[: k * n], kappa)
        assert [[e.truncate(kappa - 1) for e in row] for row in rows] == line_jacobian(segre, k, point[: k * n])


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_theta_and_phi_ranks_are_the_iterates_plus_n_at_every_order(seed, rigid):
    # on every line, row operations take J theta^j to I_n + conj J v^j and
    # J phi^j to I_n + J v^(j-1) (verify_all's derivation), so at every order
    # of the ladder their pivot counts are n plus the iterates'.  The
    # multivariate Jacobians come from the manifold at its top order; their
    # certified ranks, read on lines at the run's orders as every certificate
    # is, must give verify_all's witness when the run concludes
    from segre import RunConfig, config, verify_all
    from segre.errors import InconclusiveError
    from segre.maps import make_theta_phi
    from segre.rank import _eliminate, _modulo, iterate_lines

    rng = random.Random(seed)
    manifold = random_rigid_manifold(rng) if rigid else random_real_rho_manifold(rng)
    kappa, n = manifold.kappa, manifold.n
    try:
        witness = verify_all(manifold, RunConfig(kappa=kappa)).checks["theta_phi_ranks"].witness
    except InconclusiveError:  # a moved rank, or an orbit count the degree bound misses
        witness = None
    segre, top = SegreMapping(manifold), SegreMapping(manifold.top)
    order = top.kappa - 1
    # the Jacobians' orders at the ladder's levels kappa + step
    orders = [kappa + step - 1 for step in config.ORDER_LADDER]
    notes = []
    for j in range(1, default_profile(segre).k0 + 2):
        pair = make_theta_phi(top, j)
        theta, phi = jacobian(pair.theta), jacobian(pair.phi)
        for _ in range(2):
            point = [rng.choice((-1, 1)) * rng.randint(1, VALUE_BOUND) for _ in range((j + 1) * n)]
            pivots = [
                _eliminate(matrix_on_line(theta, point, order)),
                _eliminate(iterate_lines(segre, j).at(point[: j * n])),
                _eliminate(matrix_on_line(phi, point[: j * n], order)),
                _eliminate(iterate_lines(segre, j - 1).at(point[: (j - 1) * n])),
            ]
            for level in orders:
                theta_count, v_count, phi_count, before_count = (len(_modulo(p, level)) for p in pivots)
                assert (theta_count, phi_count) == (v_count + n, before_count + n), (j, level)
        ranks = [generic_rank(matrix_lines(m, order), kappa=kappa, seed=DEFAULT_SEED).rank for m in (theta, phi)]
        notes.append(f"j={j}: Rk theta={ranks[0]} (exp {ranks[0]}), Rk phi={ranks[1]} (exp {ranks[1]})")
    assert witness in (None, "; ".join(notes))


@pytest.mark.parametrize("name", ["c2", "l4-dense", "c2-dense"])
def test_the_rank_profile_builds_no_multivariate_iterate(name, monkeypatch):
    # c2 composes its graph onto each line, and the dense rho inputs lift
    # the w-part there from w = 0: no route reads the order-kappa iterates
    from test_cli import C2_DENSE_RHO, L4_DENSE_RHO

    specs = {"l4-dense": ManifoldSpec(2, 1, "rho", (L4_DENSE_RHO,)), "c2-dense": ManifoldSpec(3, 2, "rho", C2_DENSE_RHO)}
    manifold = load_manifold(specs[name], 6) if name in specs else load_fixture(name)
    segre = SegreMapping(manifold)
    assert (segre._line_outers()[0] is None) == (name == "c2")

    def v(self, j):
        raise AssertionError(f"the rank profile built v^{j}")

    monkeypatch.setattr(SegreMapping, "v", v)
    assert default_profile(segre).ranks[0] == manifold.n
