"""Acceptance suite: every criterion exact, one pass/fail line per criterion.

All tolerances are equality of exact rational data; run with -s to see the
per-criterion lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from segre import (
    RunConfig,
    SegreMapping,
    cr_basis,
    make_theta_phi,
    verify_all,
)
from segre import cli
from segre.implicit import check_reality

from conftest import (
    default_profile,
    failed_checks,
    load_fixture,
    random_real_rho_manifold,
    random_rigid_manifold,
    working_order_only,
)
from oracles import (
    linear_coordinate_change,
    mirror_restriction,
    pushforward_residuals_for,
    random_ambient_polynomial,
    theta_phi_ranks,
)

FIXTURES = ("h", "flat", "l4", "c2")


@contextlib.contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {text}")
        raise
    print(f"PASS criterion {number:2d}: {text}")


@pytest.fixture(scope="module")
def reports():
    return {name: verify_all(load_fixture(name), RunConfig()) for name in FIXTURES}


@pytest.fixture(scope="module")
def gammas():
    return {name: SegreMapping(load_fixture(name)) for name in FIXTURES}


def test_criterion_01_fixture_h(reports):
    with criterion(1, "fixture h: ranks, k0, finite type, dim g(0), e, central identity"):
        report = reports["h"]
        assert report.profile.ranks[:2] == (1, 2)
        assert report.profile.k0 == 2
        assert report.lie.finite_type() and report.profile.finite_type(report.dims.N)
        assert report.lie.dim_g0 == 3
        assert report.orbit.e == 0
        assert report.profile.rank_at_k0 == report.lie.dim_g0 + 1 - 2 == 2
        assert report.passed, failed_checks(report)


def test_criterion_02_fixture_flat(reports, gammas):
    with criterion(2, "fixture flat: constant rank 1, e = 1, f1 = w1, Rk v^k0 = N - e"):
        report = reports["flat"]
        assert set(report.profile.ranks) == {1}
        assert report.profile.k0 == 1
        assert not report.lie.finite_type() and not report.profile.finite_type(report.dims.N)
        assert report.orbit.e == 1
        texts = report.orbit.generator_texts(report.dims)
        assert texts == ["w1"]
        (f1,) = report.orbit.f_generators
        gamma = gammas["flat"]
        for j in (1, 2):
            assert f1.compose(gamma.v(j)).is_zero()
        assert report.profile.rank_at_k0 == 2 - report.orbit.e == 1
        assert report.passed, failed_checks(report)


def test_criterion_03_fixture_l4(reports):
    with criterion(3, "fixture l4: k0 = 2, finite type at bracket depth 4, routes agree"):
        report = reports["l4"]
        assert report.profile.k0 == 2
        assert report.lie.bracket_depth_used == 4
        assert report.lie.finite_type() and report.profile.finite_type(report.dims.N)
        assert report.passed, failed_checks(report)


def test_criterion_04_fixture_c2(reports):
    with criterion(4, "fixture c2: ranks (1,2,3), k0 = 3 attains the bound d + 1"):
        report = reports["c2"]
        assert report.profile.ranks[:3] == (1, 2, 3)
        assert report.profile.k0 == 3 == report.dims.d + 1
        assert report.passed, failed_checks(report)


def test_criterion_05_collapse_identities(reports, gammas):
    with criterion(5, "collapse identities hold exactly for all applicable j <= 2 k0"):
        for name in FIXTURES:
            gamma = gammas[name]
            k0 = reports[name].profile.k0
            n = gamma.dims.n
            for j in range(2, 2 * k0 + 1):
                v_j = gamma.v(j)
                dropped = v_j.map_vars(
                    (j - 1) * n, [None] * n + list(range((j - 1) * n))
                )
                assert dropped.equals_mod(gamma.v(j - 1)), (name, j)
            for j in range(3, 2 * k0 + 1):
                v_j = gamma.v(j)
                assignment = list(range((j - 1) * n)) + list(
                    range((j - 3) * n, (j - 2) * n)
                )
                folded = v_j.map_vars((j - 1) * n, assignment)
                assert folded.equals_mod(gamma.v(j - 2).extend((j - 1) * n)), (name, j)


def test_criterion_06_reality(reports):
    with criterion(6, "reality identity exact on fixtures and 50 random rigid manifolds"):
        for name in FIXTURES:
            assert reports[name].checks["reality"].passed, name
        rng = random.Random(602214076)
        for _ in range(50):
            manifold = random_rigid_manifold(rng)  # loading verifies reality
            ok, witness = check_reality(manifold.graph, manifold.rho)
            assert ok, witness


def test_criterion_07_pushforward(reports, gammas):
    with criterion(7, "pushforward identities exact for 20 random test functions per fixture"):
        rng = random.Random(271828182)
        for name in FIXTURES:
            manifold = load_fixture(name)
            gamma = gammas[name]
            fields_l, fields_lt = cr_basis(manifold)
            k0 = reports[name].profile.k0
            pairs = [make_theta_phi(gamma, j) for j in range(0, k0 + 1)]
            fs = [random_ambient_polynomial(manifold.dims, manifold.kappa, rng) for _ in range(20)]
            for j, per_f in enumerate(pushforward_residuals_for(gamma, pairs, fields_l, fields_lt, fs)):
                for residuals in per_f:
                    assert all(r.is_zero() for r in residuals), (name, j)


def test_criterion_08_theta_phi_ranks(reports, gammas):
    with criterion(8, "rank relations for the paired mappings hold for j <= k0 + 1"):
        for name in FIXTURES:
            report = reports[name]
            gamma = gammas[name]
            n = report.dims.n
            for j, (theta_rank, phi_rank) in enumerate(theta_phi_ranks(gamma.manifold, report.profile.k0 + 1), 1):
                assert theta_rank == report.profile.rank_at(j) + n, (name, j)
                expected_phi = (report.profile.rank_at(j - 1) if j >= 2 else 0) + n
                assert phi_rank == expected_phi, (name, j)


def test_criterion_09_rank_laws_on_random_manifolds():
    with criterion(9, "monotonicity and stabilization on 50 random graph manifolds"):
        rng = random.Random(314159265)
        for index in range(50):
            # rank_profile raises InternalConsistencyError on any law violation
            with working_order_only():
                manifold = random_rigid_manifold(rng) if index % 2 == 0 else random_real_rho_manifold(rng)
                profile = default_profile(SegreMapping(manifold))
            assert profile.ranks[0] == manifold.n
            assert profile.k0 <= manifold.d + 1


def test_criterion_10_mirror(reports, gammas):
    with criterion(10, "mirror locus: doubled iterate collapses and keeps the stabilized rank"):
        for name in FIXTURES:
            mirror = reports[name].mirror
            assert all(c.is_zero() for c in mirror_restriction(gammas[name], mirror.k0)), name
            assert mirror.rank_certificate.rank == mirror.expected_rank, name


def test_criterion_11_coordinate_invariance():
    with criterion(11, "ranks invariant under 10 random linear coordinate changes per fixture"):
        from test_orbit import random_invertible

        rng = random.Random(161803398)
        for name in FIXTURES:
            with working_order_only():
                manifold = load_fixture(name)
                base = default_profile(SegreMapping(manifold)).ranks
            for _ in range(10):
                matrix = random_invertible(rng, manifold.N)
                with working_order_only():
                    transformed = linear_coordinate_change(manifold, matrix)
                    assert default_profile(SegreMapping(transformed)).ranks == base, name


def test_criterion_12_determinism():
    with criterion(12, "fixed seed and config give byte-identical JSON regardless of --jobs"):
        for name in ("h", "flat"):
            outputs = []
            for jobs in ("1", "2"):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(
                        ["verify", "--fixture", name, "--json", "--seed", "99", "--jobs", jobs]
                    )
                assert code == 0
                outputs.append(buffer.getvalue().encode())
            assert outputs[0] == outputs[1]
            payload = json.loads(outputs[0])
            assert payload["schema"] == 2
