"""Core series arithmetic: examples against dense oracles, laws via hypothesis."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import (
    CompositionError,
    FormalMap,
    GaussianRational,
    I,
    ONE,
    ZERO,
    SeriesError,
    TruncatedSeries,
    gauss,
    series_match,
)
from segre.series import _Packing, as_coeff, compose_many, linear_part, unit_exponent

from oracles import (
    d_add,
    d_compose,
    d_diff,
    d_mul,
    d_truncate,
    evaluate,
    from_series,
    identity_map,
    on_line,
    to_series,
)


def ts(arity, kappa, terms):
    return TruncatedSeries(arity, kappa, terms)


def var(arity, kappa, index):
    return TruncatedSeries.variable(arity, kappa, index)


# ---------------------------------------------------------------------------
# gaussian rationals
# ---------------------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = gauss(Fraction(1, 2), Fraction(3, 4))
    b = gauss(2, -1)
    assert a + b == gauss(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == gauss(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert I * I == gauss(-1)
    assert a.conjugate().conjugate() == a
    with pytest.raises(ZeroDivisionError):
        a / gauss(0)


# The scalar against a reference kept here: a pair of Fractions (re, im) with
# the field operations and the text rendering written out longhand.


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def ref_pow(x, k):
    result = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        result = ref_mul(result, x)
    return result if k >= 0 else ref_div((Fraction(1), Fraction(0)), result)


def ref_str(x):
    def imag(v):
        return "i" if v == 1 else "-i" if v == -1 else f"{v}*i"

    re, im = x
    if not im:
        return str(re)
    if not re:
        return imag(im)
    return f"{re}{'+' if im > 0 else '-'}{imag(abs(im))}"


def assert_matches(value, x):
    """``value`` equals the reference pair ``x`` and keeps its triple canonical."""
    assert (value.re, value.im) == x
    assert type(value.re) is Fraction and type(value.im) is Fraction
    assert value._d > 0 and math.gcd(value._a, value._b, value._d) == 1
    assert str(value) == ref_str(x)
    assert repr(value) == f"GaussianRational({x[0]!r}, {x[1]!r})"
    assert value == GaussianRational(*x) and hash(value) == hash(x)
    assert bool(value) == any(x)


rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40)
pairs = st.tuples(rationals, rationals)


@given(pairs, pairs)
def test_gaussian_rational_against_fraction_pairs(x, y):
    a, b = GaussianRational(*x), GaussianRational(*y)
    assert_matches(a, x)
    assert_matches(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_matches(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_matches(-a, (-x[0], -x[1]))
    assert_matches(a * b, ref_mul(x, y))
    assert_matches(a.conjugate(), (x[0], -x[1]))
    if any(y):
        assert_matches(a / b, ref_div(x, y))
        assert_matches(b.inverse(), ref_div((Fraction(1), Fraction(0)), y))
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
        with pytest.raises(ZeroDivisionError):
            b.inverse()


@given(pairs, st.integers(min_value=-5, max_value=5))
def test_gaussian_rational_powers_against_fraction_pairs(x, k):
    a = GaussianRational(*x)
    if k < 0 and not any(x):
        with pytest.raises(ZeroDivisionError):
            a**k
    else:
        assert_matches(a**k, ref_pow(x, k))


small = st.integers(min_value=-9, max_value=9)


@given(small, small, st.integers(min_value=1, max_value=12))
def test_gaussian_rational_triple_is_canonical(p, q, scale):
    # the same value from unreduced parts, from ints and from arithmetic
    x = (Fraction(p), Fraction(q, 3))
    built = [
        GaussianRational(Fraction(p * scale, scale), Fraction(q * scale, 3 * scale)),
        GaussianRational(*x),
        GaussianRational(p) + GaussianRational(0, q) / GaussianRational(3),
        GaussianRational(*x) * GaussianRational(scale) / GaussianRational(scale),
    ]
    for value in built:
        assert_matches(value, x)
        assert (value._a, value._b, value._d) == (built[0]._a, built[0]._b, built[0]._d)
    assert len({hash(value) for value in built}) == 1


def test_gaussian_rational_zero_and_constants():
    a = GaussianRational(Fraction(2, 4), 1)
    b = GaussianRational(Fraction(1, 2), Fraction(3, 3))
    assert a == b and hash(a) == hash(b) == hash((Fraction(1, 2), Fraction(1)))
    for zero in (ZERO, GaussianRational(), GaussianRational(Fraction(0, 7)), a - b, b * ZERO):
        assert (zero._a, zero._b, zero._d) == (0, 0, 1) and not zero
    assert (ONE._a, ONE._b, ONE._d) == (1, 0, 1)
    assert (I._a, I._b, I._d) == (0, 1, 1)
    assert gauss(0, 1) == I and as_coeff(Fraction(4, 2)) == GaussianRational(2)
    assert as_coeff(I) is I
    assert (GaussianRational(1) == 1) is False
    assert str(GaussianRational(Fraction(-3, 2), -1)) == "-3/2-i"
    assert repr(I) == "GaussianRational(Fraction(0, 1), Fraction(1, 1))"
    with pytest.raises(AttributeError):
        a.re = Fraction(1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianRational(0.5),
        lambda: GaussianRational(1, 0.5),
        lambda: gauss(0.5),
        lambda: as_coeff(0.5),
    ],
)
def test_gaussian_rational_rejects_floats(build):
    with pytest.raises(TypeError):
        build()


# ---------------------------------------------------------------------------
# add
# ---------------------------------------------------------------------------


def test_add_inverse_cancels():
    x1 = var(1, 4, 0)
    assert (x1 + (-x1)).is_zero()


def test_add_exact_rationals():
    half = ts(2, 4, {(1, 1): gauss(Fraction(1, 2))})
    assert half + half == ts(2, 4, {(1, 1): 1})


def test_add_mixed_orders_against_dense_oracle():
    a = ts(2, 2, {(3, 0): 1})  # the cube is already absent at order 2
    b = ts(2, 5, {(0, 1): 1})
    expected = d_truncate(d_add(from_series(a), from_series(b)), 2)
    result = a + b
    assert result.kappa == 2
    assert result == to_series(expected, 2, 2)
    assert result == ts(2, 2, {(0, 1): 1})


def test_add_arity_mismatch():
    with pytest.raises(SeriesError):
        var(1, 3, 0) + var(2, 3, 0)


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------


def test_mul_difference_of_squares():
    one = TruncatedSeries.constant(1, 3, 1)
    x = var(1, 3, 0)
    assert (one + x) * (one - x) == ts(1, 3, {(0,): 1, (2,): -1})


def test_mul_imaginary_unit():
    i_const = TruncatedSeries.constant(1, 2, I)
    assert i_const * i_const == TruncatedSeries.constant(1, 2, -1)


def test_mul_square_against_dense_oracle():
    f = var(2, 2, 0) + var(2, 2, 1)
    expected = d_truncate(d_mul(from_series(f), from_series(f)), 2)
    assert f * f == to_series(expected, 2, 2)
    assert f * f == ts(2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_square_of_sum_against_dense_oracle():
    f = ts(1, 4, {(2,): 1})  # y1^2
    g = FormalMap([var(2, 4, 0) + var(2, 4, 1)])
    expected = d_truncate(
        d_compose(from_series(f), [from_series(c) for c in g.components], 2), 4
    )
    assert f.compose(g) == to_series(expected, 2, 4)
    assert f.compose(g) == ts(2, 4, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_compose_identity_is_identity():
    f = ts(3, 5, {(1, 2, 0): gauss(2, 1), (0, 0, 3): gauss(Fraction(-1, 3))})
    assert f.compose(identity_map(3, 5)) == f


def test_compose_annihilates_on_zero_component():
    f = ts(2, 4, {(1, 1): 1})  # y1*y2
    g = FormalMap([var(1, 4, 0), TruncatedSeries.zero(1, 4)])
    assert f.compose(g).is_zero()


def test_compose_requires_vanishing_inner():
    f = var(1, 4, 0)
    inner = FormalMap([TruncatedSeries.constant(1, 4, 1)])
    with pytest.raises(CompositionError):
        f.compose(inner)


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------


def test_partial_basic():
    f = ts(2, 5, {(2, 1): 1})  # x1^2 x2
    assert f.partial(0) == ts(2, 4, {(1, 1): 2})


def test_partial_unrelated_variable():
    f = ts(2, 5, {(3, 0): 1})
    assert f.partial(1).is_zero()


def test_partial_order_drop_against_dense_oracle():
    f = ts(2, 5, {(1, 1): gauss(0, 2)})  # 2i x1 x2
    expected = d_diff(from_series(f), 0)
    result = f.partial(0)
    assert result.kappa == 4
    assert result == to_series(expected, 2, 4)
    assert result == ts(2, 4, {(0, 1): gauss(0, 2)})


def test_partial_index_out_of_range():
    with pytest.raises(SeriesError):
        var(2, 3, 0).partial(2)


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------


def test_sigma_swaps_blocks():
    # ambient layout (z1, w1, ch1, ta1): sigma(w1) = ta1
    w1 = var(4, 4, 1)
    ta1 = var(4, 4, 3)
    assert w1.sigma(2) == ta1
    assert (w1 - ta1).sigma(2) == -(w1 - ta1)


def test_sigma_conjugates_and_relabels():
    # sigma(2i z1 ch1) swaps z and ch (same monomial) and conjugates: -2i z1 ch1
    f = ts(4, 4, {(1, 0, 1, 0): gauss(0, 2)})
    assert f.sigma(2) == ts(4, 4, {(1, 0, 1, 0): gauss(0, -2)})


def test_sigma_requires_block_split():
    with pytest.raises(SeriesError):
        var(3, 3, 0).sigma(2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    f = var(2, 3, 0) + var(2, 3, 1)
    assert evaluate(f, [gauss(1), gauss(2)]) == gauss(3)
    g = ts(1, 3, {(1,): I})
    assert evaluate(g, [I]) == gauss(-1)
    h = ts(2, 3, {(2, 0): 1, (0, 1): -1})
    assert evaluate(h, [gauss(Fraction(3, 2)), gauss(Fraction(9, 4))]) == gauss(0)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

small_coeff = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def series_strategy(arity: int, kappa: int):
    exponents = st.tuples(*([st.integers(min_value=0, max_value=kappa)] * arity)).filter(
        lambda e: sum(e) <= kappa
    )
    return st.dictionaries(exponents, small_coeff, max_size=4).map(
        lambda terms: TruncatedSeries(arity, kappa, terms)
    )


@settings(max_examples=60, deadline=None)
@given(series_strategy(2, 4), series_strategy(2, 4), series_strategy(2, 4))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_strategy(2, 5), series_strategy(2, 5), st.integers(min_value=0, max_value=5))
def test_truncation_is_ring_homomorphism(a, b, kappa):
    assert (a * b).truncate(kappa) == a.truncate(kappa) * b.truncate(kappa)
    assert (a + b).truncate(kappa) == a.truncate(kappa) + b.truncate(kappa)


@settings(max_examples=40, deadline=None)
@given(series_strategy(2, 4), series_strategy(2, 4), series_strategy(3, 4), series_strategy(3, 4))
def test_compose_is_ring_homomorphism(f, g, h1, h2):
    inner = FormalMap(
        [
            h1 - TruncatedSeries.constant(3, 4, h1.constant_term()),
            h2 - TruncatedSeries.constant(3, 4, h2.constant_term()),
        ]
    )
    assert (f * g).compose(inner) == f.compose(inner) * g.compose(inner)
    assert (f + g).compose(inner) == f.compose(inner) + g.compose(inner)


@settings(max_examples=60, deadline=None)
@given(series_strategy(4, 4))
def test_sigma_involution_and_multiplicativity(f):
    assert f.sigma(2).sigma(2) == f


@settings(max_examples=40, deadline=None)
@given(series_strategy(4, 4), series_strategy(4, 4))
def test_sigma_multiplicative(f, g):
    assert (f * g).sigma(2) == f.sigma(2) * g.sigma(2)


@settings(max_examples=40, deadline=None)
@given(
    series_strategy(2, 8),
    series_strategy(1, 8),
    series_strategy(1, 8),
    st.lists(small_coeff, min_size=1, max_size=1),
)
def test_evaluate_commutes_with_compose_on_polynomials(f, g1, g2, point):
    # keep total degrees inside the truncation order so nothing is cut off
    f_low = TruncatedSeries(2, 8, {e: c for e, c in f.terms.items() if sum(e) <= 2})
    g1_low = TruncatedSeries(
        1, 8, {e: c for e, c in g1.terms.items() if 1 <= sum(e) <= 2}
    )
    g2_low = TruncatedSeries(
        1, 8, {e: c for e, c in g2.terms.items() if 1 <= sum(e) <= 2}
    )
    inner = FormalMap([g1_low, g2_low])
    composed = f_low.compose(inner)
    direct = evaluate(f_low, [evaluate(g1_low, point), evaluate(g2_low, point)])
    assert evaluate(composed, point) == direct


# ---------------------------------------------------------------------------
# the fused integer kernel against a term-by-term product
# ---------------------------------------------------------------------------

# ``*`` and ``compose_many`` sum integer numerators over one common
# denominator; the reference below multiplies term by term on the
# Fraction-pair scalar reference above, truncating at kappa.


def ref_terms(series):
    return {exp: (coeff.re, coeff.im) for exp, coeff in series.terms.items()}


def ref_add(a, b):
    out = dict(a)
    for exp, y in b.items():
        x = out.get(exp, (Fraction(0), Fraction(0)))
        out[exp] = (x[0] + y[0], x[1] + y[1])
    return {exp: x for exp, x in out.items() if any(x)}


def ref_product(a, b, kappa):
    out = {}
    for ea, x in a.items():
        for eb, y in b.items():
            exp = tuple(p + q for p, q in zip(ea, eb))
            if sum(exp) <= kappa:
                out = ref_add(out, {exp: ref_mul(x, y)})
    return out


def ref_compose(outer, inner, source, kappa):
    """Substitute every monomial of ``outer`` as a product of inner components."""
    out = {}
    for exp, coeff in outer.items():
        if sum(exp) > kappa:
            continue
        term = {(0,) * source: coeff}
        for component, e in zip(inner, exp):
            for _ in range(e):
                term = ref_product(term, component, kappa)
        out = ref_add(out, term)
    return out


def assert_clean(series, arity, kappa):
    """The invariant the unvalidated internal constructor relies on."""
    assert series.arity == arity and series.kappa == kappa
    for exp, coeff in series.terms.items():
        assert type(exp) is tuple and len(exp) == arity
        assert all(type(e) is int and e >= 0 for e in exp) and sum(exp) <= kappa
        assert type(coeff) is GaussianRational and coeff
        assert coeff._d > 0 and math.gcd(coeff._a, coeff._b, coeff._d) == 1


# denominators up to 12 mix within one series; orders from 1 to 5 mix between
# operands, so products straddle the smaller truncation order
mixed_coeff = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def mixed_series(draw, arity, vanishing=False):
    kappa = draw(st.integers(min_value=1, max_value=5))
    exponents = st.tuples(*([st.integers(min_value=0, max_value=kappa)] * arity)).filter(
        lambda e: sum(e) <= kappa and (any(e) or not vanishing)
    )
    return TruncatedSeries(arity, kappa, draw(st.dictionaries(exponents, mixed_coeff, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(mixed_series(2), mixed_series(2))
def test_fused_product_against_term_by_term_reference(a, b):
    # (a + b) * (a - b) cancels its cross terms inside the integer sums
    for x, y in ((a, b), (a + b, a - b), (a, -a)):
        product = x * y
        kappa = min(x.kappa, y.kappa)
        assert_clean(product, 2, kappa)
        assert ref_terms(product) == ref_product(ref_terms(x), ref_terms(y), kappa)


def test_fused_product_cancels_and_truncates_to_zero():
    x, y = var(2, 3, 0), var(2, 3, 1)
    half = TruncatedSeries.constant(2, 3, Fraction(1, 2))
    assert (x + y) * (x - y) == ts(2, 3, {(2, 0): 1, (0, 2): -1})
    third = y.scale(Fraction(1, 3))
    assert (half * x + third) * (half * x - third) == ts(
        2, 3, {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    )
    square = ts(2, 1, {(1, 0): gauss(Fraction(1, 2), 1)}) * ts(2, 5, {(0, 1): 3})
    assert square.is_zero() and square.kappa == 1


@settings(max_examples=40, deadline=None)
@given(
    mixed_series(2),
    mixed_series(2),
    mixed_series(3, vanishing=True),
    mixed_series(3, vanishing=True),
)
def test_compose_many_against_term_by_term_substitution(f, g, h1, h2):
    inner = FormalMap([h1, h2])
    reference_inner = [ref_terms(h1), ref_terms(h2)]
    for outer, result in zip((f, g), compose_many([f, g], inner)):
        kappa = min(outer.kappa, h1.kappa, h2.kappa)
        assert_clean(result, 3, kappa)
        assert ref_terms(result) == ref_compose(ref_terms(outer), reference_inner, 3, kappa)


@settings(max_examples=40, deadline=None)
@given(mixed_series(4), mixed_series(4), mixed_coeff)
def test_internal_results_keep_the_constructor_invariant(f, g, c):
    kappa = min(f.kappa, g.kappa)
    for result, arity, order in (
        (f + g, 4, kappa),
        (f - g, 4, kappa),
        (-f, 4, f.kappa),
        (f.scale(c), 4, f.kappa),
        (f.truncate(f.kappa - 1), 4, f.kappa - 1),
        (f.partial(1), 4, f.kappa - 1),
        (f.sigma(2), 4, f.kappa),
        (f.conjugate(), 4, f.kappa),
        (f.map_vars(2, [0, 0, 1, None]), 2, f.kappa),
        (f.extend(5), 5, f.kappa),
    ):
        assert_clean(result, arity, order)
        assert result == TruncatedSeries(arity, order, result.terms)


def test_public_constructor_still_validates():
    with pytest.raises(SeriesError):
        TruncatedSeries(2, 3, {(1,): 1})
    with pytest.raises(SeriesError):
        TruncatedSeries(2, 3, {(1, -1): 1})
    with pytest.raises(TypeError):
        TruncatedSeries(2, 3, {(1, 0): 0.5})
    with pytest.raises(SeriesError):
        TruncatedSeries(-1, 3)
    with pytest.raises(SeriesError):
        TruncatedSeries(2, -1)


# ---------------------------------------------------------------------------
# packed exponents at the edges of the field width
# ---------------------------------------------------------------------------

# Inside ``*`` and ``compose_many`` an exponent is one int with
# kappa.bit_length() bits per variable.  The orders below sit on both sides of
# every width change up to 6 bits; operands carry terms above the product's
# order, arities reach 48, and pure powers fill a field to kappa.

WIDTH_EDGES = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32)


@st.composite
def edge_series(draw, arity, kappa, top, vanishing=False, max_size=4):
    """Up to ``max_size`` terms of degree <= top, each in at most three variables.

    Half the terms have degree ``top``, so a field often holds a full power.
    """
    terms = {}
    degrees = st.just(top) | st.integers(min_value=1 if vanishing else 0, max_value=top)
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        degree = draw(degrees)
        support = draw(st.lists(st.integers(min_value=0, max_value=arity - 1), min_size=1, max_size=3))
        exp = [0] * arity
        for k in range(degree):
            exp[support[k % len(support)]] += 1
        terms[tuple(exp)] = draw(mixed_coeff)
    return TruncatedSeries(arity, kappa, terms)


@st.composite
def edge_operands(draw):
    """Two series of one arity: the first at an edge order, the second at or above it."""
    arity = draw(st.sampled_from((1, 2, 3, 7, 48)))
    kappa = draw(st.sampled_from(WIDTH_EDGES))
    high = kappa + draw(st.integers(min_value=0, max_value=3))
    return draw(edge_series(arity, kappa, kappa)), draw(edge_series(arity, high, high))


@settings(max_examples=80, deadline=None)
@given(edge_operands())
def test_packed_product_at_width_edges(operands):
    a, b = operands
    kappa = a.kappa
    for x, y in ((a, b), (b, a), (a, a)):
        product = x * y
        assert_clean(product, a.arity, kappa)
        assert ref_terms(product) == ref_product(ref_terms(x), ref_terms(y), kappa)


@st.composite
def edge_composition(draw):
    """An outer series and inner components in 1..3 variables, at independent edge orders."""
    arity = draw(st.sampled_from((1, 2, 3, 48)))
    source = draw(st.integers(min_value=1, max_value=3))
    outer_kappa = draw(st.sampled_from(WIDTH_EDGES))
    outer = draw(edge_series(arity, outer_kappa, min(outer_kappa, 6), max_size=3))
    inner = []
    for _ in range(arity):
        kappa = draw(st.sampled_from(WIDTH_EDGES))
        inner.append(draw(edge_series(source, kappa, kappa, vanishing=True, max_size=2)))
    return outer, inner


@settings(max_examples=40, deadline=None)
@given(edge_composition())
def test_packed_compose_many_at_width_edges(case):
    outer, inner = case
    source = inner[0].arity
    inner_kappa = min(h.kappa for h in inner)
    # a second outer at a higher order moves the shared memo to a wider
    # packing; a linear one passes every component's terms through
    wide = TruncatedSeries(outer.arity, 33, outer.terms)
    units = {unit_exponent(outer.arity, i): 1 for i in range(outer.arity)}
    linear = TruncatedSeries(outer.arity, outer.kappa, units)
    outers = [outer, wide, linear]
    for result, f in zip(compose_many(outers, FormalMap(inner)), outers):
        order = min(f.kappa, inner_kappa)
        assert_clean(result, source, order)
        assert ref_terms(result) == ref_compose(ref_terms(f), [ref_terms(h) for h in inner], source, order)


@st.composite
def shifted_composition(draw):
    """An outer series over an inner map that mixes every kind of component.

    Dense components, one-term components with non-unit Gaussian
    coefficients (``compose_many`` multiplies those on as a shift of the
    rows), one of degree kappa - 1 whose square already crosses the degree
    bound, and a zero component, in a drawn order.
    """
    source = draw(st.integers(min_value=1, max_value=3))
    kappa = draw(st.integers(min_value=3, max_value=7))
    non_unit = mixed_coeff.filter(lambda c: c and c != ONE)

    def one_term(degree):
        exp = [0] * source
        for k in range(degree):
            exp[draw(st.integers(min_value=0, max_value=source - 1))] += 1
        return TruncatedSeries(source, kappa, {tuple(exp): draw(non_unit)})

    inner = [draw(edge_series(source, kappa, kappa, vanishing=True, max_size=4)) for _ in range(2)]
    inner += [one_term(draw(st.integers(min_value=1, max_value=2))) for _ in range(2)]
    inner += [one_term(kappa - 1), TruncatedSeries.zero(source, kappa)]
    order = draw(st.permutations(range(len(inner))))
    inner = [inner[k] for k in order]
    outer = draw(edge_series(len(inner), kappa, kappa, max_size=5))
    return outer, inner


@settings(max_examples=60, deadline=None)
@given(shifted_composition())
def test_compose_many_shifts_one_term_factors(case):
    outer, inner = case
    source, kappa = inner[0].arity, outer.kappa
    # the square and the linear part reach the shared memo through other paths
    square = outer * outer
    units = TruncatedSeries(outer.arity, kappa, {unit_exponent(outer.arity, i): 1 for i in range(outer.arity)})
    outers = [outer, square, units]
    for result, f in zip(compose_many(outers, FormalMap(inner)), outers):
        assert_clean(result, source, kappa)
        assert ref_terms(result) == ref_compose(ref_terms(f), [ref_terms(h) for h in inner], source, kappa)


@settings(max_examples=40, deadline=None)
@given(shifted_composition(), st.integers(min_value=1, max_value=3))
def test_compose_many_in_batches_with_one_memo_equals_one_call(case, cut):
    # a later batch reads the products an earlier one stored in the memo
    outer, inner = case
    kappa = outer.kappa
    units = TruncatedSeries(outer.arity, kappa, {unit_exponent(outer.arity, i): 1 for i in range(outer.arity)})
    outers = [outer.truncate(2).with_order(kappa), units, outer, outer.truncate(1).with_order(kappa)]
    memo: dict = {}
    batched = compose_many(outers[:cut], FormalMap(inner), memo)
    batched += compose_many(outers[cut:], FormalMap(inner), memo)
    assert batched == compose_many(outers, FormalMap(inner))
    # its rows are packed at the first batches' order and for their inner map
    with pytest.raises(SeriesError, match="one inner map at one order"):
        compose_many([outer.truncate(1)], FormalMap(inner), memo)
    moved = [inner[0] + var(inner[0].arity, kappa, 0), *inner[1:]]
    with pytest.raises(SeriesError, match="one inner map at one order"):
        compose_many([outer], FormalMap(moved), memo)


@pytest.mark.parametrize("kappa", WIDTH_EDGES)
def test_packed_fields_hold_a_full_power(kappa):
    # c * x_i^kappa fills one field to kappa; x_0 lands in the highest field
    for arity in (1, 2, 48):
        one = TruncatedSeries.constant(arity, kappa, 1)
        identity = identity_map(arity, kappa)
        for index in {0, arity // 2, arity - 1}:
            x = var(arity, kappa, index)
            exp = [0] * arity
            exp[index] = kappa
            top = ts(arity, kappa, {tuple(exp): gauss(2, -1)})
            assert top * one == top and one * top == top
            assert x.power(kappa - 1) * x == top.scale(gauss(2, -1).inverse())
            assert (top * x).is_zero()
            assert compose_many([top, top.with_order(kappa + 5)], identity) == [top, top]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WIDTH_EDGES).flatmap(lambda k: edge_series(7, k, k)))
def test_packed_rows_hold_only_terms_within_the_order(f):
    # packed three orders below the series: every kept row unpacks to its own
    # exponent, since only terms of degree <= kappa are kept
    kappa = max(f.kappa - 3, 0)
    packing = _Packing(f.arity, kappa)
    rows, den = packing.rows(f.terms)
    kept = f.truncate(kappa)
    assert packing.divided({packed: [re, im] for packed, re, im in rows}, den) == kept.terms
    # ascending packed ints are graded-lex order, each below its degree's bound
    unpacked = [next(iter(packing.divided({packed: [1, 0]}, 1))) for packed, _, _ in rows]
    assert unpacked == [exp for exp, _ in kept.sorted_terms()]
    for (packed, _, _), exp in zip(rows, unpacked):
        assert packing.bound(sum(exp) - 1) <= packed < packing.bound(sum(exp))


# ---------------------------------------------------------------------------
# restriction to a line by evaluation
# ---------------------------------------------------------------------------


@st.composite
def line_case(draw):
    """Series in up to 6 variables at orders on both sides of the line's, and an integer point."""
    arity = draw(st.integers(min_value=1, max_value=6))
    order = draw(st.integers(min_value=0, max_value=8))
    series = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kappa = max(order + draw(st.integers(min_value=-2, max_value=3)), 0)
        series.append(draw(edge_series(arity, kappa, kappa, max_size=6)))
    coordinates = st.integers(min_value=-9, max_value=9) | st.integers(min_value=-(2**17), max_value=2**17)
    point = draw(st.lists(coordinates, min_size=arity, max_size=arity))
    return series, point, order


@settings(max_examples=80, deadline=None)
@given(line_case())
def test_on_line_equals_composition_onto_the_line(case):
    series, point, order = case
    line = FormalMap([TruncatedSeries(1, order, {(1,): value}) for value in point])
    results = on_line(series, point, order)
    assert results == compose_many(series, line)
    for result, f in zip(results, series):
        assert_clean(result, 1, min(f.kappa, order))


def test_on_line_needs_one_coordinate_per_variable():
    with pytest.raises(SeriesError):
        on_line([var(3, 4, 0)], [1, 2], 4)


# ---------------------------------------------------------------------------
# structure helpers
# ---------------------------------------------------------------------------


def test_strict_equality_includes_order():
    assert ts(1, 3, {(1,): 1}) != ts(1, 5, {(1,): 1})
    assert series_match(ts(1, 3, {(1,): 1}), ts(1, 5, {(1,): 1}))


def test_constructor_truncates_and_drops_zeros():
    f = ts(2, 2, {(3, 0): 1, (1, 0): 0, (0, 1): 2})
    assert f.terms == {(0, 1): gauss(2)}


def test_map_vars_identifies_variables():
    # x1*x2 with both variables sent to y1 becomes y1^2
    f = ts(2, 4, {(1, 1): 1})
    assert f.map_vars(1, [0, 0]) == ts(1, 4, {(2,): 1})
    # sending a variable to None kills monomials containing it
    assert f.map_vars(1, [0, None]).is_zero()


def test_leading_term_is_graded_lex_minimal():
    f = ts(2, 4, {(0, 2): 1, (1, 0): 2, (0, 1): 3})
    exp, coeff = f.leading_term()
    assert exp == (0, 1) and coeff == gauss(3)


def test_linear_part_reads_only_the_degree_one_terms():
    # a constant, linear terms and terms of degree 2 and 3: each row keeps the
    # coefficient of x_c for each listed column, in the listed order
    g = GaussianRational
    s = TruncatedSeries(3, 4, {(0, 0, 0): 5, (1, 0, 0): 2, (0, 0, 1): g(1, -3), (1, 1, 0): 7, (0, 0, 3): 4})
    t = TruncatedSeries(3, 4, {(0, 1, 0): -1, (0, 2, 0): 1})
    assert linear_part([s, t], [2, 0, 1]) == [[g(1, -3), g(2), g(0)], [g(0), g(0), g(-1)]]
    assert linear_part(iter([s, t]), iter(range(3))) == [[g(2), g(0), g(1, -3)], [g(0), g(-1), g(0)]]
    assert linear_part([s, t], []) == [[], []]
    assert linear_part([], range(3)) == []
