"""Orbit annihilators, the orbit ideal, the mirror locus, and verify_all."""

from __future__ import annotations

import contextlib
import gc
import math
import random
import re
from itertools import product
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import (
    DEFAULT_SEED,
    GaussianRational,
    InconclusiveError,
    ManifoldSpec,
    RealityError,
    RunConfig,
    SegreMapping,
    cr_basis,
    gauss,
    lie_hull_dimension,
    load_manifold,
    mirror_sigma,
    orbit_annihilator,
    orbit_ideal_in_M,
    verify_all,
)

from segre import linalg, orbit
from segre.coords import Dims
from segre.series import FormalMap, TruncatedSeries, compose_many, grlex_key, linear_part, unit_exponent

from conftest import (
    count_loads,
    default_profile,
    failed_checks,
    load_fixture,
    random_rigid_manifold,
    working_order_only,
)
from oracles import graded_lex_monomials, linear_coordinate_change, mirror_parametrization, one_shot_kernel_series


@pytest.fixture(scope="module")
def curved_w_manifold():
    # Q = ta + i z^2 + i ch^2: every iterate is (t, i t^2), so the stabilized
    # image sits inside the graph w = i z^2 and the single annihilator is
    # w - i z^2 (degree 2, with linear leading part w)
    spec = ManifoldSpec(2, 1, "graph", ("ta1 + i*z1^2 + i*ch1^2",))
    return load_manifold(spec, 8)


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def test_orbit_annihilator_flat(manifold_flat):
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    report = orbit_annihilator(segre, profile, 4, None)
    assert report.e == 1
    assert report.dim_O == 2
    assert len(report.f_generators) == 1
    assert report.generator_texts(manifold_flat.dims) == ["w1"]


def test_orbit_annihilator_h(manifold_h):
    segre = SegreMapping(manifold_h)
    profile = default_profile(segre)
    report = orbit_annihilator(segre, profile, 4, None)
    assert report.e == 0
    assert report.f_generators == ()
    assert report.dim_O == 3


def test_orbit_annihilator_c2(manifold_c2):
    segre = SegreMapping(manifold_c2)
    profile = default_profile(segre)
    report = orbit_annihilator(segre, profile, 4, None)
    assert report.e == 0
    assert report.dim_O == 4


def test_orbit_annihilator_curved_w(curved_w_manifold):
    segre = SegreMapping(curved_w_manifold)
    profile = default_profile(segre)
    assert profile.ranks == (1, 1, 1)
    report = orbit_annihilator(segre, profile, 4, None)
    assert report.e == 1
    # the canonical generator is w - i z^2
    (f,) = report.f_generators
    assert f.terms == {(0, 1): gauss(1), (2, 0): gauss(0, -1)}


def test_orbit_annihilator_stops_at_the_degree_bound(curved_w_manifold, monkeypatch):
    # w - i z^2 is out of reach of bound 1, and the search does not look past it
    segre = SegreMapping(curved_w_manifold)
    profile = default_profile(segre)
    degrees = []
    real_compose_many = orbit.compose_many

    def spy(outers, inner, *args):
        degrees.extend(sum(exp) for outer in outers for exp in outer.terms)
        return real_compose_many(outers, inner, *args)

    monkeypatch.setattr(orbit, "compose_many", spy)
    message = (
        "annihilator count 0 (degree bound 1) disagrees with N - Rk v^k0 = 1; escalate the degree bound"
    )
    with pytest.raises(InconclusiveError, match=f"^{re.escape(message)}$"):
        orbit_annihilator(segre, profile, 1, None)
    assert degrees == [1, 1]


def test_orbit_annihilator_inconclusive_when_degree_too_small():
    # the annihilator w - i z^4 has degree 4, out of reach of bound 1: the
    # mismatch is reported rather than resolved
    spec = ManifoldSpec(2, 1, "graph", ("ta1 + i*z1^4 + i*ch1^4",))
    manifold = load_manifold(spec, 8)
    segre = SegreMapping(manifold)
    profile = default_profile(segre)
    assert profile.ranks == (1, 1, 1)
    with pytest.raises(InconclusiveError, match=r"^annihilator count 0 \(degree bound 1\) disagrees"):
        orbit_annihilator(segre, profile, 1, None)
    report = orbit_annihilator(segre, profile, 4, None)
    (f,) = report.f_generators
    assert f.terms == {(0, 1): gauss(1), (4, 0): gauss(0, -1)}


def test_orbit_annihilator_cross_checks_lie_dimension(manifold_flat):
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    lie = lie_hull_dimension(manifold_flat, cr_basis(manifold_flat), 8)
    report = orbit_annihilator(segre, profile, 4, lie.dim_g0)
    assert "orbit_count_vs_lie" in report.checks
    with pytest.raises(InconclusiveError):
        orbit_annihilator(segre, profile, 4, lie.dim_g0 + 1)


def test_an_inconclusive_orbit_phase_names_the_moved_ranks_on_a_moved_profile_only(manifold_flat):
    # a Lie-route mismatch keeps its own reason on a stable profile; on a
    # profile that moved, the moved ranks are the reason
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    with pytest.raises(InconclusiveError, match=r"disagrees with 2N - d - dim g\(0\)"):
        with orbit.moved_ranks_first(profile):
            orbit_annihilator(segre, profile, 4, 99)
    first, *rest = profile.certificates
    moved = profile.replace(certificates=(first.replace(stable=False), *rest), stable=False)
    with pytest.raises(InconclusiveError, match=r"^ranks moved under order escalation \(Rk v\^1 = 1 from order 8\)$"):
        with orbit.moved_ranks_first(moved):
            orbit_annihilator(segre, moved, 4, 99)


def test_orbit_annihilator_rejects_degree_beyond_half_order(manifold_h):
    segre = SegreMapping(manifold_h)
    profile = default_profile(segre)
    with pytest.raises(ValueError):
        orbit_annihilator(segre, profile, 5, None)


def test_monomial_enumeration_is_capped_before_it_starts(monkeypatch):
    # the identity in 100 variables has no kernel, so target 1 is never
    # reached: degrees 1 and 2 (5150 monomials) are searched, and degree 3
    # (C(103, 3) - 1) is refused before any of its monomials is enumerated
    assert math.comb(103, 3) - 1 == 176850 > orbit.MAX_MONOMIALS >= math.comb(102, 2) - 1
    identity = [TruncatedSeries.variable(100, 8, index) for index in range(100)]
    degrees = []
    real_monomials = orbit._monomials

    def spy(arity, degree):
        degrees.append(degree)
        return real_monomials(arity, degree)

    monkeypatch.setattr(orbit, "_monomials", spy)
    message = "176850 monomials of degree <= 3 in 100 variables exceed the cap MAX_MONOMIALS = 100000"
    with pytest.raises(InconclusiveError, match=f"^{re.escape(message)}$"):
        orbit._kernel_series(identity, 100, 8, 1, 4)
    assert degrees == [1, 2]


def test_verify_levi_flat_n12():
    # the orbit ideal searches about 20,000 monomials in 24 variables; its
    # kernel took most of a minute while Echelon.reduce probed every stored
    # pivot for every column, and takes seconds with the pivot heap
    spec = ManifoldSpec(N=12, d=1, form="graph", expressions=("ta1",))
    report = verify_all(load_manifold(spec, 8), RunConfig())
    assert report.passed, failed_checks(report)
    assert report.profile.ranks == (11, 11, 11) and report.profile.k0 == 1
    assert report.lie.dim_g0 == 22
    assert report.orbit.e == 1
    assert report.orbit.generator_texts(report.dims) == ["w1"]


def test_monomials_come_in_graded_lex_order():
    for arity in range(5):
        for degree in range(5):
            everything = product(range(degree + 1), repeat=arity)
            expected = sorted((e for e in everything if 1 <= sum(e) <= degree), key=grlex_key)
            assert [m for k in range(1, degree + 1) for m in orbit._monomials(arity, k)] == expected


def test_verify_leaves_no_cyclic_garbage():
    # every memo, cache and enumeration of a run is freed by reference
    # counting: the cyclic collector finds nothing to save
    manifolds = [load_fixture("c2"), load_fixture("l4")]
    h1 = TruncatedSeries(2, 6, {(1, 0): 1, (0, 2): gauss(1, 2)})
    h2 = TruncatedSeries(2, 5, {(0, 1): 3, (2, 1): -1})
    outer = TruncatedSeries(2, 8, {(2, 0): 1, (1, 3): gauss(0, 1), (0, 4): 2})
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        for manifold in manifolds:
            verify_all(manifold, RunConfig())
        compose_many([outer, outer.truncate(4)], FormalMap([h1, h2]))
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert garbage == []


# ---------------------------------------------------------------------------
# the orbit ideal inside the manifold
# ---------------------------------------------------------------------------


def test_orbit_ideal_flat(manifold_flat):
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    orbit = orbit_annihilator(segre, profile, 4, None)
    ideal = orbit_ideal_in_M(segre, profile.k0, orbit, 4)
    assert ideal.codimension_ok
    assert ideal.linear_rank == 2  # d + e = 1 + 1
    assert ideal.sigma_closed
    # the kernel contains both w and ta at the linear level
    dims = manifold_flat.dims
    linear_leads = {
        min(g.terms, key=lambda e: (sum(e), e))
        for g in ideal.generators
        if sum(min(g.terms, key=lambda e: (sum(e), e))) == 1
    }
    w_exp = tuple(1 if i == dims.w(0) else 0 for i in range(dims.ambient_arity))
    ta_exp = tuple(1 if i == dims.ta(0) else 0 for i in range(dims.ambient_arity))
    assert w_exp in linear_leads and ta_exp in linear_leads


def test_orbit_ideal_h(manifold_h):
    segre = SegreMapping(manifold_h)
    profile = default_profile(segre)
    orbit = orbit_annihilator(segre, profile, 4, None)
    ideal = orbit_ideal_in_M(segre, profile.k0, orbit, 4)
    assert ideal.codimension_ok
    assert ideal.linear_rank == 1  # d + e = 1 + 0
    assert ideal.sigma_closed


def test_orbit_ideal_short_rank_and_degree_bound(manifold_h, monkeypatch):
    # rho of h has degree 2: below that bound a short linear rank is
    # inconclusive, at or above it the codimension check fails
    from segre import orbit as orbit_module

    segre = SegreMapping(manifold_h)

    profile = default_profile(segre)
    orbit = orbit_annihilator(segre, profile, 4, None)
    with pytest.raises(InconclusiveError, match="degree bound 1 is below the degree 2"):
        orbit_ideal_in_M(segre, profile.k0, orbit, 1)
    real_kernel = orbit_module._kernel_series

    def short(*args):
        series, degree, linear_rank = real_kernel(*args)
        return series, degree, linear_rank - 1

    monkeypatch.setattr(orbit_module, "_kernel_series", short)
    for bound in (2, 4):
        ideal = orbit_ideal_in_M(segre, profile.k0, orbit, bound)
        assert ideal.linear_rank == 0 and not ideal.codimension_ok


def test_orbit_ideal_composes_only_the_monomials(manifold_flat, monkeypatch):
    # only the monomials are composed: sigma-closure is a reduction against
    # the kernel basis, rho kills phi by the load's reality gate, and the
    # annihilators were composed with v^k0 by orbit_annihilator, which raises
    # on a failure
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    report = orbit_annihilator(segre, profile, 4, None)
    assert report.e == 1
    calls = []
    real = orbit.compose_many

    def counting(outers, inner, memo=None):
        calls.append(len(outers))
        return real(outers, inner, memo)

    monkeypatch.setattr(orbit, "compose_many", counting)
    ideal = orbit_ideal_in_M(segre, profile.k0, report, 4)
    assert ideal.sigma_closed
    # w1 and ta1 reach d + e = 2 in degree 1: the 4 ambient variables, and
    # none of the 65 monomials of degree 2..4
    assert calls == [4]


def test_orbit_ideal_composes_each_monomial_once_on_its_way_to_the_top_degree(manifold_l4, monkeypatch):
    # l4's quartic defining function takes the search to degree 4: one batch
    # per degree, 4 + 10 + 20 + 35 = 69 monomials, as many as one search of
    # degree <= 4 composes at once, with one memo for all four batches
    segre = SegreMapping(manifold_l4)
    profile = default_profile(segre)
    report = orbit_annihilator(segre, profile, 4, None)
    calls = []
    real = orbit.compose_many

    def counting(outers, inner, memo=None):
        calls.append((len(outers), id(memo)))
        return real(outers, inner, memo)

    monkeypatch.setattr(orbit, "compose_many", counting)
    ideal = orbit_ideal_in_M(segre, profile.k0, report, 4)
    assert ideal.codimension_ok
    assert [count for count, _ in calls] == [math.comb(3 + k, k) for k in range(1, 5)]
    assert len({memo for _, memo in calls}) == 1


@pytest.mark.parametrize("c, closed", [(gauss(0, 1), True), (gauss(0, 2), False)], ids=["unit", "non-unit"])
def test_orbit_ideal_sigma_closure_of_a_substituted_basis(manifold_flat, monkeypatch, c, closed):
    # sigma(z1 + c ch1) = ch1 + conj(c) z1 lies in the span of z1 + c ch1 exactly when |c| = 1
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    report = orbit_annihilator(segre, profile, 4, None)
    dims = manifold_flat.dims
    real_kernel = orbit._kernel_series
    arity = dims.ambient_arity
    terms = {unit_exponent(arity, dims.z(0)): 1, unit_exponent(arity, dims.ch(0)): c}
    basis = [TruncatedSeries(arity, manifold_flat.kappa, terms)]

    def substituted(*args):
        _, degree, linear_rank = real_kernel(*args)
        return basis, degree, linear_rank

    monkeypatch.setattr(orbit, "_kernel_series", substituted)
    ideal = orbit_ideal_in_M(segre, profile.k0, report, 4)
    assert ideal.generators == tuple(basis)
    assert ideal.sigma_closed is closed
    assert ideal.codimension_ok


# ---------------------------------------------------------------------------
# the degree-by-degree kernel search
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _reached_degrees():
    """The degree at which each kernel search stops, in call order."""
    degrees = []
    real_kernel = orbit._kernel_series

    def spy(*args):
        result = real_kernel(*args)
        degrees.append(result[1])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbit, "_kernel_series", spy)
        yield degrees


def _kernel_degrees(manifold):
    """The degree at which the annihilator search and then the orbit ideal search stop."""
    segre = SegreMapping(manifold)
    profile = default_profile(segre)
    bound = RunConfig(kappa=manifold.kappa).resolve_degree()
    with _reached_degrees() as degrees:
        report = orbit_annihilator(segre, profile, bound, None)
        orbit_ideal_in_M(segre, profile.k0, report, bound)
    return degrees


C3 = ("ta1 + 2*i*z1*ch1", "ta2 + 2*i*z1^2*ch1^2", "ta3 + 2*i*z1^3*ch1^3")


@pytest.mark.parametrize(
    "spec, kappa, degrees",
    [
        (ManifoldSpec(4, 3, "graph", C3), 10, [1, 2]),
        ("h", 8, [1, 2]),
        ("c2", 8, [1, 2]),
        (ManifoldSpec(3, 1, "graph", ("ta1 + 2*i*(z1*ch1 + z2*ch2)",)), 8, [1, 2]),
        ("flat", 8, [1, 1]),
        ("l4", 8, [1, 4]),
        ("l4-dense", 8, [1, 4]),
    ],
    ids=["c3", "h", "c2", "n2", "flat", "l4", "l4-dense"],
)
def test_kernel_search_stops_at_the_first_degree_that_reaches_its_target(spec, kappa, degrees):
    # e = N - Rk v^k0 annihilators, and d + e generators of the orbit ideal
    # with independent differentials: c3's ideal holds ta1 - w1 + 2i z1 ch1
    # and two quadratic relations, l4's needs its quartic defining function
    if spec == "l4-dense":
        from test_cli import L4_DENSE_RHO

        spec = ManifoldSpec(2, 1, "rho", (L4_DENSE_RHO,))
    manifold = load_fixture(spec, kappa) if isinstance(spec, str) else load_manifold(spec, kappa)
    assert _kernel_degrees(manifold) == degrees


def test_monomials_of_one_degree_are_a_slice_of_all():
    for arity in range(1, 5):
        everything = graded_lex_monomials(arity, 4)
        assert [m for k in range(1, 5) for m in orbit._monomials(arity, k)] == everything
        assert [m for k in (3, 4) for m in orbit._monomials(arity, k)] == [m for m in everything if sum(m) >= 3]


def _orbit_outcome(segre, profile, bound):
    """e, the generators and the orbit ideal's report, or the inconclusive reason."""
    try:
        report = orbit_annihilator(segre, profile, bound, None)
        ideal = orbit_ideal_in_M(segre, profile.k0, report, bound)
    except InconclusiveError as exc:
        return str(exc)
    return report.e, report.f_generators, ideal.linear_rank, ideal.sigma_closed, ideal.generators


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_degree_by_degree_search_equals_the_one_shot_kernel_at_the_degree_reached(seed):
    manifold = random_rigid_manifold(random.Random(seed))
    segre = SegreMapping(manifold)
    profile = default_profile(segre)
    bound = RunConfig().resolve_degree()
    calls = []
    real_kernel = orbit._kernel_series

    def spy(*args):
        result = real_kernel(*args)
        calls.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbit, "_kernel_series", spy)
        searched = _orbit_outcome(segre, profile, bound)
    for args, result in calls:
        components, arity, kappa, target, search_bound = args
        degree = result[1]
        assert result == one_shot_kernel_series(components, arity, degree, kappa)
        # the first degree that reaches the target, or the bound
        assert result[2] == target or degree == search_bound
        if degree > 1:
            assert one_shot_kernel_series(components, arity, degree - 1, kappa)[2] != target
    reached = iter([degree for _, (_, degree, _) in calls])

    def one_shot(components, arity, kappa, *_):
        return one_shot_kernel_series(components, arity, next(reached), kappa)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbit, "_kernel_series", one_shot)
        assert _orbit_outcome(segre, profile, bound) == searched


# ---------------------------------------------------------------------------
# the mirror locus
# ---------------------------------------------------------------------------


def test_mirror_h(manifold_h):
    segre = SegreMapping(manifold_h)
    profile = default_profile(segre)
    mirror = mirror_sigma(segre, profile, DEFAULT_SEED)
    assert mirror.k0 == 2
    # parametrization (s1, s2) -> (s1, s2, s1, 0)
    comps = mirror_parametrization(segre.dims, mirror.k0, segre.kappa).components
    assert comps[0].terms == {(1, 0): gauss(1)}
    assert comps[1].terms == {(0, 1): gauss(1)}
    assert comps[2].terms == {(1, 0): gauss(1)}
    assert comps[3].is_zero()
    assert mirror.annihilates
    assert mirror.rank_certificate.rank == 2 == mirror.expected_rank
    assert mirror.generator_texts(1) == ["t4", "t3 - t1"]


def test_mirror_flat(manifold_flat):
    segre = SegreMapping(manifold_flat)
    profile = default_profile(segre)
    mirror = mirror_sigma(segre, profile, DEFAULT_SEED)
    assert mirror.k0 == 1
    comps = mirror_parametrization(segre.dims, mirror.k0, segre.kappa).components
    assert comps[0].terms == {(1,): gauss(1)}
    assert comps[1].is_zero()
    assert mirror.annihilates
    assert mirror.rank_certificate.rank == 1


def test_mirror_c2(manifold_c2):
    segre = SegreMapping(manifold_c2)
    profile = default_profile(segre)
    mirror = mirror_sigma(segre, profile, DEFAULT_SEED)
    assert mirror.k0 == 3
    assert mirror.annihilates
    assert mirror.rank_certificate.rank == 3 == mirror.expected_rank


def test_mirror_l4(manifold_l4):
    segre = SegreMapping(manifold_l4)
    profile = default_profile(segre)
    mirror = mirror_sigma(segre, profile, DEFAULT_SEED)
    assert mirror.annihilates
    assert mirror.rank_certificate.rank == 2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k0", [1, 2, 3, 4])
def test_mirror_locus_is_fixed_by_its_pattern(k0, n):
    # what mirror_sigma takes as given, for every manifold of these sizes:
    # the generators vanish on the parametrization, of rank k0 * n at 0
    dims = Dims(n + 1, 1)
    param = mirror_parametrization(dims, k0, 4)
    gens = orbit._mirror_generators(dims, k0, 4)
    assert len(gens) == k0 * n
    assert all(image.is_zero() for image in compose_many(gens, param))
    assert linalg.rank(linear_part(param, range(k0 * n))) == k0 * n


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------


def test_verify_all_fixtures(all_fixture_manifolds):
    expected = {
        "h": dict(k0=2, dim_g0=3, e=0, finite=True),
        "flat": dict(k0=1, dim_g0=2, e=1, finite=False),
        "l4": dict(k0=2, dim_g0=3, e=0, finite=True),
        "c2": dict(k0=3, dim_g0=4, e=0, finite=True),
    }
    for name, manifold in all_fixture_manifolds.items():
        report = verify_all(manifold, RunConfig())
        want = expected[name]
        assert report.passed, (name, failed_checks(report))
        assert report.profile.k0 == want["k0"]
        assert report.lie.dim_g0 == want["dim_g0"]
        assert report.orbit.e == want["e"]
        assert report.lie.finite_type() == want["finite"]
        assert report.profile.finite_type(report.dims.N) == want["finite"]


def test_verify_all_curved_w(curved_w_manifold):
    report = verify_all(curved_w_manifold, RunConfig())
    assert report.passed, failed_checks(report)
    assert report.orbit.e == 1
    assert not report.lie.finite_type()


def test_central_identity_on_random_rigid_manifolds():
    rng = random.Random(99)
    config = RunConfig()
    for _ in range(4):
        manifold = random_rigid_manifold(rng)
        report = verify_all(manifold, config)
        assert report.passed, failed_checks(report)
        if report.lie.stable:
            assert (
                report.profile.rank_at_k0
                == report.lie.dim_g0 + manifold.d - manifold.N
            )


def random_levi_nondegenerate_manifold(rng):
    """Rigid hypersurface-type manifold with an exact nondegenerate Levi term.

    The perturbation is kept at total degree >= 3, so the degree-2 part stays
    2i sum z_j ch_j and the manifold is finite type at bracket depth 2.
    """
    from segre import Dims, TruncatedSeries, manifold_from_graph_series

    N = rng.randint(2, 3)
    dims = Dims(N, 1)
    arity = dims.graph_arity
    master = 16
    terms = {}
    exp = [0] * arity
    exp[dims.gta(0)] = 1
    terms[tuple(exp)] = gauss(1)
    for j in range(dims.n):
        exp = [0] * arity
        exp[dims.gz(j)] = 1
        exp[dims.gch(j)] = 1
        terms[tuple(exp)] = gauss(0, 2)
    psi = {}
    for _ in range(rng.randint(0, 2)):
        exp = [0] * arity
        z_deg = rng.randint(1, 2)
        ch_deg = 3 - z_deg + rng.randint(0, 1)
        for _ in range(z_deg):
            exp[dims.gz(rng.randrange(dims.n))] += 1
        for _ in range(ch_deg):
            exp[dims.gch(rng.randrange(dims.n))] += 1
        coeff = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
        if coeff:
            psi[tuple(exp)] = coeff
    psi_series = TruncatedSeries(arity, master, psi)
    swap = list(range(dims.n, 2 * dims.n)) + list(range(dims.n)) + [dims.gta(0)]
    phi = psi_series - psi_series.conjugate().map_vars(arity, swap)
    q = TruncatedSeries(arity, master, terms) + phi
    return manifold_from_graph_series(dims, [q], 8, label="random-levi")


def test_central_identity_on_random_finite_type_manifolds():
    rng = random.Random(271)
    config = RunConfig()
    for _ in range(4):
        manifold = random_levi_nondegenerate_manifold(rng)
        report = verify_all(manifold, config)
        assert report.passed, failed_checks(report)
        assert report.lie.finite_type() and report.profile.finite_type(report.dims.N)
        assert report.lie.stable
        assert (
            report.profile.rank_at_k0
            == report.lie.dim_g0 + manifold.d - manifold.N
            == manifold.N
        )


# ---------------------------------------------------------------------------
# coordinate invariance
# ---------------------------------------------------------------------------


def test_verify_all_builds_each_order_once(monkeypatch):
    from collections import Counter

    from segre import fields, maps

    pairs = Counter()
    phis = Counter()
    iterates = Counter()
    bases = []
    mappings = []
    real_theta_phi = maps.make_theta_phi
    real_phi = maps.make_phi
    real_v = maps.SegreMapping.v
    real_cr_basis = fields.cr_basis
    real_init = maps.SegreMapping.__init__

    def counting_theta_phi(gamma, j):
        pairs[gamma.kappa, j] += 1
        return real_theta_phi(gamma, j)

    def counting_phi(gamma, j):
        phis[gamma.kappa, j] += 1
        return real_phi(gamma, j)

    def counting_v(self, j):
        iterates[self.kappa] += 1
        return real_v(self, j)

    def counting_cr_basis(manifold):
        bases.append(manifold.kappa)
        return real_cr_basis(manifold)

    def counting_init(self, manifold):
        mappings.append(manifold.kappa)
        real_init(self, manifold)

    loads = count_loads(monkeypatch)
    monkeypatch.setattr(maps, "make_theta_phi", counting_theta_phi)
    for module in (maps, orbit):
        monkeypatch.setattr(module, "make_phi", counting_phi)
    monkeypatch.setattr(maps.SegreMapping, "v", counting_v)
    monkeypatch.setattr(maps.SegreMapping, "__init__", counting_init)
    for module in (fields, orbit):
        monkeypatch.setattr(module, "cr_basis", counting_cr_basis)
    report = verify_all(load_fixture("c2"), RunConfig())
    assert report.passed
    k0 = report.profile.k0
    # each of the two expressions is parsed once, at the top order, and every
    # lower order is its truncation
    assert loads == {"parse": [16, 16], "solve": []}
    # nothing multivariate is built above the run's order: the rank
    # certificates read every order's iterates on lines
    assert set(iterates) == {8}
    # no theta^j is built, and phi only once, for the orbit ideal
    assert pairs == {}
    assert phis == {(8, k0 + 1): 1}
    # one CR basis and one Segre mapping serve every phase
    assert bases == [8]
    assert mappings == [8]


def test_verify_checks_reality_once_at_the_top_order(monkeypatch):
    from segre import expressions

    calls = []
    real_check = expressions.check_reality

    def counting_check(graph, rho, memo=None):
        calls.append(graph.valid_order)
        return real_check(graph, rho, memo)

    monkeypatch.setattr(expressions, "check_reality", counting_check)
    report = verify_all(load_fixture("h"), RunConfig())
    # the load checks the top order, which implies reality at the run's order,
    # and verify_all never checks again
    assert calls == [16]
    assert report.checks["reality"].witness == "identity holds"


def test_the_load_refuses_an_ideal_real_only_below_the_top_order():
    from test_cli import UNREAL_ABOVE_8

    # real at order 8 but not at the top order 16, which the load gate reads
    with pytest.raises(RealityError) as refused:
        load_manifold(ManifoldSpec.from_json(UNREAL_ABOVE_8), 8)
    assert refused.value.witness == "component 1, monomial z1^6*ch1^6"
    assert str(refused.value) == (
        "defining ideal is not real: reality identity fails at component 1, monomial z1^6*ch1^6"
    )


def random_invertible(rng, size):
    from segre import linalg

    while True:
        matrix = [
            [
                GaussianRational(
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                    Fraction(rng.randint(-1, 1), 1),
                )
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        try:
            linalg.invert(matrix)
            return matrix
        except ValueError:
            continue


def test_rank_invariance_under_linear_coordinate_changes():
    # rank values at the working order; escalation would re-solve the
    # transformed (non-rigid) graph at higher orders for no extra content
    rng = random.Random(7)
    with working_order_only():
        for manifold in (load_fixture("h"), load_fixture("c2")):
            base = default_profile(SegreMapping(manifold))
            for _ in range(3):
                matrix = random_invertible(rng, manifold.N)
                transformed = linear_coordinate_change(manifold, matrix)
                assert default_profile(SegreMapping(transformed)).ranks == base.ranks
