"""Iterated Segre mappings, chain parametrizations, and the paired mappings."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import (
    FormalMap,
    ManifoldSpec,
    SegreMapping,
    VariableCapError,
    cr_basis,
    gauss,
    iterate,
    load_manifold,
    make_T,
    make_theta_phi,
    pushforward_residuals,
)
from segre import maps, series
from segre.maps import chain_generator_pairs

from conftest import load_fixture, random_real_rho_manifold, random_rigid_manifold
from oracles import (
    brute_force_rank,
    constant_rank,
    d_compose,
    from_series,
    ideal_member,
    jacobian,
    pushforward_residuals_for,
    random_ambient_polynomial,
    to_series,
)


@pytest.fixture(scope="module")
def gamma_h(manifold_h):
    return SegreMapping(manifold_h)


@pytest.fixture(scope="module")
def gamma_c2(manifold_c2):
    return SegreMapping(manifold_c2)


# ---------------------------------------------------------------------------
# iterates
# ---------------------------------------------------------------------------


def test_v1_is_base_case(gamma_h, manifold_h):
    # v^1(t) = (t, Q(t, 0, 0)) for any manifold; for this one Q(t,0,0) = 0
    v1 = iterate(gamma_h, 1)
    assert v1.component(0).terms == {(1,): gauss(1)}
    assert v1.component(1).is_zero()


def test_v1_with_nonzero_self_part():
    # Q = ta + i z^2 + i ch^2 is real and rigid; Q(t,0,0) = i t^2
    spec = ManifoldSpec(2, 1, "graph", ("ta1 + i*z1^2 + i*ch1^2",))
    manifold = load_manifold(spec, 8)
    gamma = SegreMapping(manifold)
    v1 = gamma.v(1)
    assert v1.component(1).terms == {(2,): gauss(0, 1)}


def test_v2_h_hand_value(gamma_h):
    v2 = iterate(gamma_h, 2)
    assert v2.component(0).terms == {(0, 1): gauss(1)}
    assert v2.component(1).terms == {(1, 1): gauss(0, 2)}


def test_v2_h_against_dense_composition_oracle(gamma_h, manifold_h):
    # nu^2 = Q(t2, conj v^1) computed densely
    q = from_series(manifold_h.Q.component(0))
    t1 = {(1, 0): gauss(1)}
    t2 = {(0, 1): gauss(1)}
    v1_w: dict = {}
    oracle = d_compose(q, [t2, t1, v1_w], 2)
    assert gamma_h.v(2).component(1) == to_series(oracle, 2, 8)


def test_v4_h_hand_value(gamma_h):
    v4 = iterate(gamma_h, 4)
    assert v4.component(0).terms == {(0, 0, 0, 1): gauss(1)}
    assert v4.component(1).terms == {
        (1, 1, 0, 0): gauss(0, 2),
        (0, 1, 1, 0): gauss(0, -2),
        (0, 0, 1, 1): gauss(0, 2),
    }


def test_collapse_identities_all_fixtures(all_fixture_manifolds):
    # construction re-verifies the zero-first-block and reflection collapses
    for manifold in all_fixture_manifolds.values():
        gamma = SegreMapping(manifold)
        for j in range(1, 2 * (manifold.d + 1) + 1):
            iterate(gamma, j)


def test_collapse_identity_explicit(gamma_h):
    # v^3(t1, t2, t1) = v^1(t1)
    v3 = gamma_h.v(3)
    folded = v3.map_vars(2, [0, 1, 0])
    v1 = gamma_h.v(1).extend(2)
    assert folded.equals_mod(v1)
    # v^3(0, t2, t3) = v^2(t2, t3)
    dropped = v3.map_vars(2, [None, 0, 1])
    assert dropped.equals_mod(gamma_h.v(2))


def test_variable_cap(manifold_h):
    # the cap is 4 (d + 1) n = 8 source variables for h
    gamma = SegreMapping(manifold_h)
    assert gamma.v(8).source_arity == 8
    with pytest.raises(VariableCapError, match="iterate 9 needs 9 variables, cap is 8"):
        gamma.v(9)
    # the line evaluator keeps the cap, at every order
    assert len(gamma.on_line(list(range(1, 9)), 16)) == 9
    with pytest.raises(VariableCapError, match="iterate 9 needs 9 variables, cap is 8"):
        gamma.on_line(list(range(1, 10)), 16)


# ---------------------------------------------------------------------------
# chain parametrizations
# ---------------------------------------------------------------------------


def test_chain_param_k1(gamma_h):
    assert make_T(gamma_h, 1).equals_mod(gamma_h.v(1))
    assert chain_generator_pairs(1) == ((0, None),)


def test_chain_param_k2_h(gamma_h):
    # T^2 = (v^2, conj v^1) = ((t2, 2i t1 t2), (t1, 0))
    comps = make_T(gamma_h, 2).components
    assert comps[0].terms == {(0, 1): gauss(1)}
    assert comps[1].terms == {(1, 1): gauss(0, 2)}
    assert comps[2].terms == {(1, 0): gauss(1)}
    assert comps[3].is_zero()
    assert chain_generator_pairs(2) == ((0, 1), (None, 1))


def test_chain_param_c2_rank(gamma_c2):
    # the Jacobian at 0 has full rank 3n = 3 by construction: the z-parts of
    # the three slots are the three t-blocks
    t3 = make_T(gamma_c2, 3)
    assert t3.source_arity == 3
    assert len(t3.components) == 9
    assert constant_rank([[entry.constant_term() for entry in row] for row in jacobian(t3)]) == 3


def test_chain_params_all_fixtures(all_fixture_manifolds):
    for manifold in all_fixture_manifolds.values():
        gamma = SegreMapping(manifold)
        for k in range(1, 2 * (manifold.d + 1) + 1):
            make_T(gamma, k)


# ---------------------------------------------------------------------------
# the paired mappings
# ---------------------------------------------------------------------------


def test_theta_zero_base_case(gamma_h):
    pair = make_theta_phi(gamma_h, 0)
    comps = pair.theta.components
    assert comps[0].terms == {(1,): gauss(1)}
    assert all(c.is_zero() for c in comps[1:])
    assert pair.phi is None


def test_phi_two_h(gamma_h):
    pair = make_theta_phi(gamma_h, 2)
    comps = pair.phi.components
    # phi^2 = (v^1, conj v^2) = ((t1, 0), (t2, -2i t1 t2))
    assert comps[0].terms == {(1, 0): gauss(1)}
    assert comps[1].is_zero()
    assert comps[2].terms == {(0, 1): gauss(1)}
    assert comps[3].terms == {(1, 1): gauss(0, -2)}


def test_theta_one_rank_h(gamma_h):
    from segre import DEFAULT_SEED, generic_rank

    pair = make_theta_phi(gamma_h, 1)
    cert = generic_rank(jacobian(pair.theta), seed=DEFAULT_SEED)
    assert cert.rank == 2  # Rk theta^1 = Rk v^1 + n
    dense = [[from_series(e) for e in row] for row in jacobian(pair.theta)]
    assert brute_force_rank(dense) == 2


def test_pushforward_identities(all_fixture_manifolds):
    # the engine's coordinate residuals vanish, and so do the generic
    # residuals of random test functions, which they imply by the chain rule
    rng = random.Random(23)
    for manifold in all_fixture_manifolds.values():
        gamma = SegreMapping(manifold)
        fields_l, fields_lt = cr_basis(manifold)
        for j in range(0, 3):
            pair = make_theta_phi(gamma, j)
            (per_coordinate,) = pushforward_residuals(gamma, [pair], fields_l, fields_lt)
            assert len(per_coordinate) == manifold.dims.ambient_arity
            assert all(r.is_zero() for residuals in per_coordinate for r in residuals)
            fs = [random_ambient_polynomial(manifold.dims, manifold.kappa, rng) for _ in range(5)]
            (per_f,) = pushforward_residuals_for(gamma, [pair], fields_l, fields_lt, fs)
            for residuals in per_f:
                assert all(r.is_zero() for r in residuals)


def _corrupted(fields, slot, exponent):
    """``fields`` with a monomial added to the ``slot`` coefficient of its first field."""
    from segre import TruncatedSeries
    from segre.fields import FormalVectorField

    field = fields[0]
    coeff = field.coefficients.get(slot, TruncatedSeries.zero(field.arity, field.valid_order))
    coeff = coeff + TruncatedSeries(field.arity, coeff.kappa, {exponent: 1})
    return [FormalVectorField(field.arity, field.valid_order, {**field.coefficients, slot: coeff})] + fields[1:]


@pytest.mark.parametrize(
    "name, family, slot, exponent, witness",
    [
        ("h", "l", 3, (0, 0, 0, 3), "coordinate ta1, j=2"),
        ("c2", "l", 0, (0, 3, 0, 0, 0, 0), "coordinate z1, j=3"),
        ("c2", "l", 3, (0, 3, 0, 0, 0, 0), "coordinate ch1, j=3"),
    ],
    ids=["h-l-3-exponent0", "c2-l-0-exponent1", "c2-l-3-exponent2"],
)
def test_pushforward_witness_is_the_first_failing_sample(name, family, slot, exponent, witness, monkeypatch):
    # a monomial added to one coefficient of L_1 breaks the identity for one
    # coordinate function; the batched check must cite the first failure in
    # coordinate-major order, as the generic residual of each coordinate
    # function x_i, taken one call per coordinate and j, finds it
    from segre import RunConfig, TruncatedSeries, orbit, verify_all

    manifold = load_fixture(name)

    def corrupted_basis(manifold):
        fields_l, fields_lt = cr_basis(manifold)
        if family == "l":
            return _corrupted(fields_l, slot, exponent), fields_lt
        return fields_l, _corrupted(fields_lt, slot, exponent)

    monkeypatch.setattr(orbit, "cr_basis", corrupted_basis)
    report = verify_all(manifold, RunConfig())
    check = report.checks["pushforward"]
    assert not check.passed
    assert check.witness == witness

    gamma = SegreMapping(manifold)
    fields_l, fields_lt = corrupted_basis(manifold)
    names, arity = manifold.dims.ambient_names(), manifold.dims.ambient_arity
    first = None
    for i in range(arity):
        x_i = TruncatedSeries.variable(arity, manifold.kappa, i)
        for j in range(report.profile.k0 + 1):
            ((residuals,),) = pushforward_residuals_for(gamma, [gamma.theta_phi(j)], fields_l, fields_lt, [x_i])
            if first is None and any(not r.is_zero() for r in residuals):
                first = f"coordinate {names[i]}, j={j}"
    assert check.witness == first


def test_a_wrong_coefficient_outside_the_old_sample_fails_the_coordinate_check():
    # the 20 seeded random test functions that the check used to sample miss
    # some of the 64 coordinates of a Levi-flat N=32; a wrong CR-field
    # coefficient in such a slot passes that sample and fails the check
    from segre import DEFAULT_SEED, TruncatedSeries

    manifold = load_manifold(ManifoldSpec(N=32, d=1, form="graph", expressions=("ta1",)), 8)
    dims = manifold.dims
    rng = random.Random(DEFAULT_SEED * 7919 + 17)
    samples = [random_ambient_polynomial(dims, manifold.kappa, rng) for _ in range(20)]
    seen = {i for f in samples for exp in f.terms for i, e in enumerate(exp) if e}
    slot = min(set(range(dims.ambient_arity)) - seen)
    gamma = SegreMapping(manifold)
    pairs = [gamma.theta_phi(j) for j in range(2)]  # k0 = 1
    fields_l, fields_lt = cr_basis(manifold)
    fields_lt = _corrupted(fields_lt, slot, (0,) * dims.ambient_arity)

    old = pushforward_residuals_for(gamma, pairs, fields_l, fields_lt, samples)
    assert not any(r for per_pair in old for residuals in per_pair for r in residuals)
    new = pushforward_residuals(gamma, pairs, fields_l, fields_lt)
    failing = {(i, j) for j, per_pair in enumerate(new) for i, residuals in enumerate(per_pair) if any(residuals)}
    assert failing == {(slot, 0), (slot, 1)}


def test_theta_restriction_equals_phi(gamma_h):
    pair = make_theta_phi(gamma_h, 2)
    restricted = pair.theta.map_vars(2, [0, 1, None])
    assert restricted.equals_mod(pair.phi)



# ---------------------------------------------------------------------------
# what the load's gates imply
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rigid=st.booleans())
def test_the_load_gates_imply_tangency_and_the_identities_of_phi(seed, rigid):
    # cr_basis and make_phi check nothing: a manifold that passed its load has
    # tangent CR fields, and phi^j maps into M and is theta^j with a zero
    # last block, for every j up to d + 2 >= k0 + 1
    manifold = (random_rigid_manifold if rigid else random_real_rho_manifold)(random.Random(seed))
    dims, n = manifold.dims, manifold.dims.n
    fields_l, fields_lt = cr_basis(manifold)
    for field in fields_l + fields_lt:
        for rho in manifold.rho:
            assert ideal_member(field.apply(rho), manifold.graph)
    gamma = SegreMapping(manifold)
    for j in range(1, dims.d + 3):
        phi = gamma.phi(j)
        assert all(image.is_zero() for image in manifold.rho.compose(phi))
        # t^(j+1) -> t^(j-1), or 0 when j = 1
        last = range((j - 2) * n, (j - 1) * n) if j >= 2 else [None] * n
        folded = gamma.v(j + 1).map_vars(j * n, [*range(j * n), *last])
        assert folded.equals_mod(FormalMap(phi.components[: dims.N]))


def test_cr_basis_and_make_phi_compose_nothing(all_fixture_manifolds, monkeypatch):
    # both rest on the load's gates; the iterates that phi^j is made of are
    # built before the spy goes in
    gammas = [SegreMapping(manifold) for manifold in all_fixture_manifolds.values()]
    for gamma in gammas:
        gamma.v(4)
    calls = []
    real = series.compose_many

    def spy(outers, inner, memo=None):
        calls.append(len(outers))
        return real(outers, inner, memo)

    for name, module in list(sys.modules.items()):
        if name.startswith("segre") and getattr(module, "compose_many", None) is real:
            monkeypatch.setattr(module, "compose_many", spy)
    for gamma in gammas:
        cr_basis(gamma.manifold)
        for j in range(1, 4):
            maps.make_phi(gamma, j)
    assert calls == []
    gamma.v(5)
    assert calls  # the spy sees the compositions that build an iterate
