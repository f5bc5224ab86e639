"""Cross-representation consistency seams that no single module test pins."""

from __future__ import annotations

import random

import pytest

from segre import (
    FormalMap,
    SegreMapping,
    TruncatedSeries,
    gauss,
)
from segre.rank import minor_determinant
from segre.series import compose_many

from conftest import default_profile
from oracles import d_det, from_series, jacobian, matrix_rank, to_series, verify_certificate
from test_rank import random_poly_matrix


def test_qbar_ambient_agrees_with_sigma_of_rho(all_fixture_manifolds):
    # tau_l - sigma(rho_l) and the relabeled conjugate of Q must be the same
    # series; the engine derives them through different slot conventions
    for manifold in all_fixture_manifolds.values():
        dims = manifold.dims
        qbar = manifold.graph.qbar_ambient()
        for l in range(dims.d):
            ta_var = TruncatedSeries.variable(dims.ambient_arity, manifold.kappa, dims.ta(l))
            via_sigma = ta_var - manifold.rho.component(l).sigma(dims.N)
            assert via_sigma == qbar.component(l)


def test_compose_many_agrees_with_single_composition():
    rng = random.Random(53)
    for _ in range(20):
        arity = rng.randint(1, 3)
        source = rng.randint(1, 3)
        kappa = rng.randint(2, 6)

        def random_series(n_vars, allow_constant):
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exp = [0] * n_vars
                for _ in range(rng.randint(0 if allow_constant else 1, 3)):
                    exp[rng.randrange(n_vars)] += 1
                if not allow_constant and sum(exp) == 0:
                    exp[rng.randrange(n_vars)] = 1
                coeff = gauss(rng.randint(-3, 3), rng.randint(-3, 3))
                if coeff:
                    terms[tuple(exp)] = coeff
            return TruncatedSeries(n_vars, kappa, terms)

        outers = [random_series(arity, True) for _ in range(rng.randint(1, 3))]
        inner = FormalMap([random_series(source, False) for _ in range(arity)])
        shared = compose_many(outers, inner)
        individual = [outer.compose(inner) for outer in outers]
        assert shared == individual


def test_minor_determinant_matches_dense_oracle():
    rng = random.Random(59)
    for _ in range(25):
        size = rng.randint(1, 3)
        matrix = random_poly_matrix(rng, size, size, arity=2, kappa=8)
        det = minor_determinant(matrix, range(size), range(size))
        dense = d_det([[from_series(e) for e in row] for row in matrix])
        # entries have degree <= 2 so the degree-(<= 6) determinant is untruncated
        assert det == to_series(dense, 2, det.kappa)


def test_profile_certificates_verify_against_their_matrices(all_fixture_manifolds):
    for manifold in all_fixture_manifolds.values():
        profile = default_profile(SegreMapping(manifold))
        for j, cert in enumerate(profile.certificates, start=1):
            chain = SegreMapping(manifold.at_kappa(cert.kappa_used))
            assert verify_certificate(cert, jacobian(chain.v(j))), (manifold.label, j)


def _corrupt(cert, field):
    if field == "line_point":
        return cert.replace(line_point=tuple(2 * x for x in cert.line_point))
    if field == "witness_exponent":
        return cert.replace(witness_exponent=cert.witness_exponent + 1)
    if field == "witness_value":
        return cert.replace(witness_value=cert.witness_value + gauss(1))
    # the next index names another row (or column), a repeated one, or none
    if field == "minor_rows":
        return cert.replace(minor_rows=(cert.minor_rows[0] + 1,) + cert.minor_rows[1:])
    return cert.replace(minor_cols=(cert.minor_cols[0] + 1,) + cert.minor_cols[1:])


@pytest.mark.parametrize(
    "field", ["line_point", "witness_exponent", "witness_value", "minor_rows", "minor_cols"]
)
def test_corrupted_certificates_are_rejected(all_fixture_manifolds, field):
    checked = 0
    for name in ("h", "l4", "c2"):
        manifold = all_fixture_manifolds[name]
        for j, cert in enumerate(default_profile(SegreMapping(manifold)).certificates, start=1):
            matrix = jacobian(SegreMapping(manifold.at_kappa(cert.kappa_used)).v(j))
            assert verify_certificate(cert, matrix), (name, j)
            # a minor with a constant lowest term is the same on every line
            if field == "line_point" and cert.witness_exponent == 0:
                continue
            assert not verify_certificate(_corrupt(cert, field), matrix), (name, j, field)
            checked += 1
    assert checked >= 3


def test_generic_rank_certificate_reproducible_on_rebuilt_matrix(manifold_h):
    gamma = SegreMapping(manifold_h)
    matrix = jacobian(gamma.v(2))
    cert = matrix_rank(matrix)
    rebuilt = jacobian(SegreMapping(manifold_h).v(2))
    assert verify_certificate(cert, rebuilt)
