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
    load_manifold,
    parse_expression,
    variable_table,
)
from segre.expressions import MAX_NESTING, load_manifold_file

from conftest import FIXTURE_DIR


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


def test_at_kappa_reloads_from_spec():
    manifold = load_manifold_file(FIXTURE_DIR / "h.json", 8)
    lifted = manifold.at_kappa(12)
    assert lifted.kappa == 12
    assert lifted.Q.component(0).terms == manifold.Q.component(0).terms


def test_rho_form_split_selection():
    # rho = -(i/2)(Z2 - ze2) - Z1*ze1: only the Z2 column is invertible at 0
    spec = ManifoldSpec(2, 1, "rho", ("-(i/2)*(Z2 - ze2) - Z1*ze1",))
    manifold = load_manifold(spec, 8)
    assert manifold.w_columns == (1,)
    assert manifold.Q.component(0).terms == {
        (0, 0, 1): gauss(1),
        (1, 1, 0): gauss(0, 2),
    }


def test_rho_form_declared_split_validated():
    spec = ManifoldSpec(2, 1, "rho", ("-(i/2)*(Z2 - ze2) - Z1*ze1",), split=(0,))
    with pytest.raises(ManifoldError):
        load_manifold(spec, 8)
