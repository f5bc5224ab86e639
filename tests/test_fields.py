"""CR basis fields, brackets, the conjugation involution, and the Lie hull."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import (
    FormalVectorField,
    TruncatedSeries,
    bracket,
    cr_basis,
    gauss,
    lie_hull_dimension,
)

from segre import fields
from segre.expressions import ManifoldSpec, load_manifold

from conftest import random_real_rho_manifold, random_rigid_manifold
from oracles import dense_hull_dimension, from_series, ideal_member, sigma_field


def coefficient(field, slot):
    """The coefficient of d/dx_slot; an absent slot reads as zero."""
    return field.coefficients.get(slot, TruncatedSeries.zero(field.arity, field.valid_order))


def coeff_terms(field, slot):
    return coefficient(field, slot).terms


def dense_field(field):
    return [from_series(coefficient(field, slot)) for slot in range(field.arity)]


def constant_field(arity, kappa, slot):
    return FormalVectorField(arity, kappa, {slot: TruncatedSeries.constant(arity, kappa, 1)})


def random_field(arity, kappa, rng):
    coefficients = {}
    for slot in range(arity):
        terms = {}
        for _ in range(rng.randint(0, 2)):
            exp = [0] * arity
            for _ in range(rng.randint(0, 2)):
                exp[rng.randrange(arity)] += 1
            value = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
            if value:
                terms[tuple(exp)] = value
        if terms:
            coefficients[slot] = TruncatedSeries(arity, kappa, terms)
    return FormalVectorField(arity, kappa, coefficients)


# ---------------------------------------------------------------------------
# the tangent basis
# ---------------------------------------------------------------------------


def test_cr_basis_h(manifold_h):
    dims = manifold_h.dims
    (l1,), (lt1,) = cr_basis(manifold_h)
    # L1 = d/dch - 2i z d/dta
    assert coeff_terms(l1, dims.ch(0)) == {(0, 0, 0, 0): gauss(1)}
    assert coeff_terms(l1, dims.ta(0)) == {(1, 0, 0, 0): gauss(0, -2)}
    assert not coeff_terms(l1, dims.z(0)) and not coeff_terms(l1, dims.w(0))
    # Lt1 = d/dz + 2i ch d/dw
    assert coeff_terms(lt1, dims.z(0)) == {(0, 0, 0, 0): gauss(1)}
    assert coeff_terms(lt1, dims.w(0)) == {(0, 0, 1, 0): gauss(0, 2)}


def test_cr_basis_flat(manifold_flat):
    dims = manifold_flat.dims
    (l1,), (lt1,) = cr_basis(manifold_flat)
    assert coeff_terms(l1, dims.ta(0)) == {}
    assert coeff_terms(lt1, dims.w(0)) == {}


def test_cr_basis_l4(manifold_l4):
    dims = manifold_l4.dims
    (l1,), (lt1,) = cr_basis(manifold_l4)
    # Qbar = w - 2i ch^2 z^2, so L1 = d/dch - 4i ch z^2 d/dta
    assert coeff_terms(l1, dims.ta(0)) == {(2, 0, 1, 0): gauss(0, -4)}
    assert coeff_terms(lt1, dims.w(0)) == {(1, 0, 2, 0): gauss(0, 4)}


def test_cr_basis_tangency(all_fixture_manifolds):
    for manifold in all_fixture_manifolds.values():
        fields_l, fields_lt = cr_basis(manifold)
        for field in fields_l + fields_lt:
            for j in range(manifold.d):
                assert ideal_member(
                    field.apply(manifold.rho.component(j)), manifold.graph
                )


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_bracket_constant_fields_commute():
    x = constant_field(4, 6, 2)
    y = constant_field(4, 6, 0)
    assert not bracket(x, y).coefficients


def test_bracket_h_value(manifold_h):
    dims = manifold_h.dims
    (l1,), (lt1,) = cr_basis(manifold_h)
    b = bracket(l1, lt1)
    # [L1, Lt1] = 2i d/dw + 2i d/dta by hand
    assert coeff_terms(b, dims.w(0)) == {(0, 0, 0, 0): gauss(0, 2)}
    assert coeff_terms(b, dims.ta(0)) == {(0, 0, 0, 0): gauss(0, 2)}
    assert not coeff_terms(b, dims.z(0)) and not coeff_terms(b, dims.ch(0))
    assert b.valid_order == manifold_h.kappa - 2


def test_bracket_antisymmetry_random():
    rng = random.Random(11)
    for _ in range(10):
        x = random_field(4, 6, rng)
        assert not bracket(x, x).coefficients


def test_bracket_arity_mismatch():
    with pytest.raises(ValueError):
        bracket(constant_field(4, 6, 0), constant_field(2, 6, 0))


def test_jacobi_identity_random():
    rng = random.Random(13)
    for _ in range(8):
        x, y, z = (random_field(3, 8, rng) for _ in range(3))
        lhs = bracket(bracket(x, y), z)
        mid = bracket(bracket(y, z), x)
        rhs = bracket(bracket(z, x), y)
        total = [coefficient(lhs, s) + coefficient(mid, s) + coefficient(rhs, s) for s in range(3)]
        assert all(t.is_zero() for t in total)


# ---------------------------------------------------------------------------
# conjugation involution on fields
# ---------------------------------------------------------------------------


def test_sigma_field_slot_swap():
    x = constant_field(4, 6, 2)  # d/dch1 in the (z1, w1, ch1, ta1) layout
    assert sigma_field(x, 2) == constant_field(4, 6, 0)


def test_sigma_field_swaps_h_basis(manifold_h):
    (l1,), (lt1,) = cr_basis(manifold_h)
    assert sigma_field(l1, manifold_h.N) == lt1
    assert sigma_field(lt1, manifold_h.N) == l1


def test_sigma_field_involution_random():
    rng = random.Random(17)
    for _ in range(10):
        x = random_field(4, 5, rng)
        assert sigma_field(sigma_field(x, 2), 2) == x


# ---------------------------------------------------------------------------
# the Lie hull dimension
# ---------------------------------------------------------------------------


def test_lie_hull_h(manifold_h):
    report = lie_hull_dimension(manifold_h, cr_basis(manifold_h), 2)
    assert report.dim_g0 == 3
    assert report.stable
    assert report.finite_type()
    assert len(report.basis_witnesses) == 3


def test_lie_hull_flat(manifold_flat):
    for depth in (1, 2, 4, 8):
        report = lie_hull_dimension(manifold_flat, cr_basis(manifold_flat), depth)
        assert report.dim_g0 == 2
        assert not report.finite_type()
    assert lie_hull_dimension(manifold_flat, cr_basis(manifold_flat), 8).stable


def test_lie_hull_l4_needs_depth_four(manifold_l4):
    assert lie_hull_dimension(manifold_l4, cr_basis(manifold_l4), 3).dim_g0 == 2
    report = lie_hull_dimension(manifold_l4, cr_basis(manifold_l4), 4)
    assert report.dim_g0 == 3
    assert report.bracket_depth_used == 4
    assert report.finite_type()


def test_lie_hull_l4_against_dense_bracket_oracle(manifold_l4):
    fields_l, fields_lt = cr_basis(manifold_l4)
    generators = [dense_field(field) for field in fields_l + fields_lt]
    arity = manifold_l4.dims.ambient_arity
    assert dense_hull_dimension(generators, arity, 3) == 2
    assert dense_hull_dimension(generators, arity, 4) == 3
    assert lie_hull_dimension(manifold_l4, (fields_l, fields_lt), 4).dim_g0 == 3


def test_lie_hull_c2_against_dense_bracket_oracle(manifold_c2):
    fields_l, fields_lt = cr_basis(manifold_c2)
    generators = [dense_field(field) for field in fields_l + fields_lt]
    arity = manifold_c2.dims.ambient_arity
    assert dense_hull_dimension(generators, arity, 4) == 4
    assert lie_hull_dimension(manifold_c2, (fields_l, fields_lt), 8).dim_g0 == 4


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rigid=st.booleans())
def test_lie_hull_against_dense_bracket_oracle_on_random_manifolds(seed, rigid):
    manifold = (random_rigid_manifold if rigid else random_real_rho_manifold)(random.Random(seed))
    fields_l, fields_lt = cr_basis(manifold)
    generators = [dense_field(field) for field in fields_l + fields_lt]
    arity = manifold.dims.ambient_arity
    for depth in (1, 2, 3):
        report = lie_hull_dimension(manifold, (fields_l, fields_lt), depth)
        assert report.dim_g0 == dense_hull_dimension(generators, arity, depth), depth


def test_levi_flat_closure_walks_only_the_nonzero_slots(monkeypatch):
    # a Levi-flat basis field has one nonzero slot of 64, so each bracket
    # differentiates a handful of coefficients, not 64 x 64 slots
    manifold = load_manifold(ManifoldSpec(N=32, d=1, form="graph", expressions=("ta1",)), 8)
    basis = cr_basis(manifold)
    calls = {"partial": 0, "bracket": 0}
    real_partial, real_bracket = TruncatedSeries.partial, fields.bracket

    def partial(series, index):
        calls["partial"] += 1
        return real_partial(series, index)

    def counted_bracket(x, y):
        calls["bracket"] += 1
        return real_bracket(x, y)

    monkeypatch.setattr(TruncatedSeries, "partial", partial)
    monkeypatch.setattr(fields, "bracket", counted_bracket)
    report = lie_hull_dimension(manifold, basis, 8)
    assert (report.dim_g0, report.stable) == (62, True)
    assert calls["bracket"] == 62 * 62
    assert calls["partial"] <= 4 * calls["bracket"]


def test_field_refuses_zero_out_of_range_and_foreign_coefficients():
    one = TruncatedSeries.constant(4, 6, 1)
    for slot, coeff in [(1, TruncatedSeries.zero(4, 6)), (4, one), (-1, one), (0, TruncatedSeries.constant(3, 6, 1))]:
        with pytest.raises(ValueError):
            FormalVectorField(4, 6, {slot: coeff})


def test_lie_hull_monotone_in_depth(manifold_l4):
    dims = [lie_hull_dimension(manifold_l4, cr_basis(manifold_l4), depth).dim_g0 for depth in range(1, 7)]
    assert dims == sorted(dims)
    # once the cap 2N - d is reached it stays there
    assert dims[-1] == dims[3] == 3


def test_lie_hull_depth_cap_flag(manifold_h):
    # a depth past the order kappa = 8 is clamped to it
    report = lie_hull_dimension(manifold_h, cr_basis(manifold_h), 50)
    assert report.dim_g0 == 3


def test_lie_hull_rejects_bad_depth(manifold_h):
    with pytest.raises(ValueError):
        lie_hull_dimension(manifold_h, cr_basis(manifold_h), 0)
