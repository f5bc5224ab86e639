"""Expression parsing, canonical text round-trips, and manifold loading."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from segre import (
    Dims,
    GaussianRational,
    GenericityError,
    ManifoldError,
    ManifoldSpec,
    ParseError,
    RealityError,
    TruncatedSeries,
    gauss,
    linalg,
    load_manifold,
    parse_expression,
    variable_table,
)
from segre.config import ORDER_LADDER
from segre.expressions import MAX_NESTING, load_manifold_file, manifold_from_graph_series, manifold_from_rho_series
from segre.implicit import GraphForm
from segre.series import FormalMap

from conftest import FIXTURE_DIR, late_split_rho, random_real_rho, random_rigid_graph
from oracles import degree_by_degree_graph
from test_implicit import _bench_cases


H_DIMS = Dims(2, 1)
GRAPH_TABLE = variable_table(H_DIMS.graph_names())  # z1, ch1, ta1
AMBIENT_TABLE = variable_table(H_DIMS.ambient_names())  # z1, w1, ch1, ta1


def test_parse_fixture_expression():
    # hand transcription: ta1 + 2i z1 ch1 over (z1, ch1, ta1)
    series = parse_expression("ta1 + 2*i*z1*ch1", GRAPH_TABLE, 8)
    assert series.terms == {
        (0, 0, 1): gauss(1),
        (1, 1, 0): gauss(0, 2),
    }


def test_parse_constant_division():
    # 1/(2i) = -i/2 by hand
    series = parse_expression("(w1 - ta1)/(2*i)", AMBIENT_TABLE, 6)
    assert series.terms == {
        (0, 1, 0, 0): gauss(0, Fraction(-1, 2)),
        (0, 0, 0, 1): gauss(0, Fraction(1, 2)),
    }


def test_parse_zero_power():
    series = parse_expression("z1^0", GRAPH_TABLE, 4)
    assert series == TruncatedSeries.constant(3, 4, 1)


def test_parse_unary_minus_and_precedence():
    series = parse_expression("-z1^2 + 2*ta1 - -ch1", GRAPH_TABLE, 4)
    assert series.terms == {
        (2, 0, 0): gauss(-1),
        (0, 0, 1): gauss(2),
        (0, 1, 0): gauss(1),
    }


def test_parse_nesting_cap():
    depth = MAX_NESTING
    series = parse_expression("(" * depth + "z1" + ")" * depth, GRAPH_TABLE, 4)
    assert series == parse_expression("z1", GRAPH_TABLE, 4)
    assert parse_expression("-" * depth + "z1", GRAPH_TABLE, 4) == series
    for text in ("(" * (depth + 1) + "z1" + ")" * (depth + 1), "-" * (depth + 1) + "z1"):
        with pytest.raises(ParseError) as err:
            parse_expression(text, GRAPH_TABLE, 4)
        assert err.value.position == depth


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("z1 + ", GRAPH_TABLE, 4)
    assert "position" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_expression("z1 + q7", GRAPH_TABLE, 4)
    assert "q7" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("1/z1", GRAPH_TABLE, 4)
    with pytest.raises(ParseError):
        parse_expression("z1/0", GRAPH_TABLE, 4)
    with pytest.raises(ParseError):
        parse_expression("z1^ch1", GRAPH_TABLE, 4)
    with pytest.raises(ParseError):
        parse_expression("z1 @ 2", GRAPH_TABLE, 4)


def test_round_trip_serialize_parse():
    rng = random.Random(7)
    names = ["z1", "ch1", "ta1"]
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            coeff = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            if coeff:
                terms[exp] = coeff
        series = TruncatedSeries(3, 6, terms)
        text = series.to_text(names)
        reparsed = parse_expression(text, GRAPH_TABLE, 6)
        assert reparsed == series, text


def test_load_fixture_h():
    spec = ManifoldSpec(2, 1, "graph", ("ta1 + 2*i*z1*ch1",))
    manifold = load_manifold(spec, 8)
    assert manifold.n == 1
    assert manifold.Q.component(0).terms == {
        (0, 0, 1): gauss(1),
        (1, 1, 0): gauss(0, 2),
    }


def test_load_fixture_flat():
    spec = ManifoldSpec(2, 1, "graph", ("ta1",))
    manifold = load_manifold(spec, 8)
    assert manifold.Q.component(0).terms == {(0, 0, 1): gauss(1)}


def test_load_rejects_degenerate_linear_part():
    spec = ManifoldSpec(2, 1, "rho", ("Z1*ze1",))
    with pytest.raises(GenericityError):
        load_manifold(spec, 6)


def test_load_rejects_broken_reality():
    # coefficient 1 instead of 2i: conj-swap of z1*ch1 is itself, so the
    # identity picks up +2 z1 ch1 and fails
    spec = ManifoldSpec(2, 1, "graph", ("ta1 + z1*ch1",))
    with pytest.raises(RealityError) as err:
        load_manifold(spec, 6)
    assert "z1" in err.value.witness and "ch1" in err.value.witness


def test_a_power_past_the_cap_is_reported_at_the_first_order_that_refuses_it():
    # a load parses at the top order 16 alone, so the estimate is the one there:
    # 3^8140 would pass the cap at order 8 (16384 bits) and fails it at 16
    for exponent, bits in ((100000000, 200000432), (8140, 16488)):
        spec = ManifoldSpec(2, 1, "graph", (f"ta1 + 2*i*z1*ch1 + 0*3^{exponent}",))
        with pytest.raises(ParseError, match=f"power of about {bits} bits exceeds"):
            load_manifold(spec, 8)


def test_spec_validation():
    with pytest.raises(ManifoldError):
        ManifoldSpec(1, 1, "graph", ("ta1",))
    with pytest.raises(ManifoldError):
        ManifoldSpec(2, 1, "graph", ("ta1", "ta2"))
    with pytest.raises(ManifoldError):
        ManifoldSpec(2, 1, "weird", ("ta1",))
    with pytest.raises(ManifoldError):
        ManifoldSpec(2, 1, "graph", ("ta1",), split=(0,))
    with pytest.raises(ManifoldError):
        ManifoldSpec(3, 2, "rho", ("Z1", "Z2"), split=(0, 7))


def test_manifold_must_pass_through_origin():
    spec = ManifoldSpec(2, 1, "graph", ("1 + ta1",))
    with pytest.raises(ManifoldError):
        load_manifold(spec, 6)


def test_fixture_files_load(all_fixture_manifolds):
    for name, manifold in all_fixture_manifolds.items():
        assert manifold.kappa == 8
        assert manifold.label == name


def test_reality_holds_at_every_order_up_to_twelve():
    from segre import check_reality

    spec = ManifoldSpec(2, 1, "graph", ("ta1 + 2*i*z1*ch1",))
    for kappa in range(2, 13):
        manifold = load_manifold(spec, kappa)
        ok, witness = check_reality(manifold.graph, manifold.rho)
        assert ok, (kappa, witness)


def _assert_truncations_are_fresh_builds(manifold, reference):
    """``at_kappa(L)`` equals ``reference(L)``, the (Q, rho) of a fresh build
    at L, term for term at every order L from kappa to the top, and no order
    above the top is given."""
    for level in range(manifold.kappa, manifold.kappa + ORDER_LADDER[-1] + 1):
        at = manifold.at_kappa(level)
        q, rho = reference(level)
        assert at.kappa == at.graph.valid_order == level
        assert [(c.kappa, c.terms) for c in at.Q] == [(c.kappa, c.terms) for c in q], level
        assert [(c.kappa, c.terms) for c in at.rho] == [(c.kappa, c.terms) for c in rho], level
    with pytest.raises(ValueError, match="above the top order"):
        manifold.at_kappa(level + 1)


def _fresh_build(dims, w_columns, form, components):
    """Q and rho at order L from input ``components(L)`` alone: a graph's rho is
    w - Q, and a rho-form input is solved degree by degree."""

    def build(level):
        if form == "graph":
            q = FormalMap(components(level))
            return q, GraphForm(dims, q).rho()
        raw = FormalMap(components(level))
        rho = raw.map_vars(dims.ambient_arity, dims.raw_to_ambient(w_columns))
        return degree_by_degree_graph(rho, dims, level), rho

    return build


@pytest.mark.parametrize(
    "name", ["h", "flat", "l4", "c2", "n2", "rho-quadric", "c3", "h-dense", "l4-dense"]
)
def test_at_kappa_equals_a_fresh_build(name, tmp_path):
    bench = _bench_cases()
    documents = {"n2": bench.N2, "rho-quadric": bench.RHO_QUADRIC, "c3": bench.C3}
    if name in documents:
        spec = ManifoldSpec.from_json(documents[name])
    elif name.endswith("-dense"):
        bench.write_inputs("dense-coords", tmp_path, 301)
        spec = ManifoldSpec.from_file(tmp_path / f"{name}.json")
    else:
        spec = ManifoldSpec.from_file(FIXTURE_DIR / f"{name}.json")
    manifold = load_manifold(spec, 8)
    dims = manifold.dims
    names, arity = (
        (dims.graph_names(), dims.graph_arity) if spec.form == "graph" else (dims.raw_names(), dims.ambient_arity)
    )

    def parsed(level):
        return [parse_expression(text, names, level, arity) for text in spec.expressions]

    _assert_truncations_are_fresh_builds(manifold, _fresh_build(dims, manifold.w_columns, spec.form, parsed))


@pytest.mark.parametrize("seed", range(4))
def test_at_kappa_of_random_manifolds_equals_a_fresh_build(seed):
    for form, draw, build in (
        ("graph", random_rigid_graph, manifold_from_graph_series),
        ("rho", random_real_rho, manifold_from_rho_series),
    ):
        dims, components = draw(random.Random(seed))
        manifold = build(dims, components, 8)
        reference = _fresh_build(dims, manifold.w_columns, form, lambda level: [c.truncate(level) for c in components])
        _assert_truncations_are_fresh_builds(manifold, reference)


def test_rho_form_split_selection():
    # rho = -(i/2)(Z2 - ze2) - Z1*ze1: only the Z2 column is invertible at 0
    spec = ManifoldSpec(2, 1, "rho", ("-(i/2)*(Z2 - ze2) - Z1*ze1",))
    manifold = load_manifold(spec, 8)
    assert manifold.w_columns == (1,)
    assert manifold.Q.component(0).terms == {
        (0, 0, 1): gauss(1),
        (1, 1, 0): gauss(0, 2),
    }


def test_a_late_split_loads_with_one_elimination(monkeypatch):
    # the invertible columns come last, after C(12, 6) - 1 singular minors
    # in lexicographic order; the rank check's one elimination reads them off
    calls = []
    real = linalg.rank_with_pivots

    def counting(matrix):
        calls.append((len(matrix), len(matrix[0])))
        return real(matrix)

    monkeypatch.setattr(linalg, "rank_with_pivots", counting)
    manifold = load_manifold(ManifoldSpec.from_json(late_split_rho(12, 6)), 8)
    assert manifold.w_columns == tuple(range(6, 12))
    assert calls == [(6, 12)]


def test_rho_form_declared_split_validated():
    spec = ManifoldSpec(2, 1, "rho", ("-(i/2)*(Z2 - ze2) - Z1*ze1",), split=(0,))
    with pytest.raises(ManifoldError):
        load_manifold(spec, 8)
