"""CR orbit data and the full theorem-verification suite.

The orbit annihilators are computed by exact linear algebra: a polynomial
f(Z) of bounded degree kills the stabilized iterate v^(k0) exactly when its
coefficient vector lies in the kernel of the composition matrix, and the
generators are the kernel elements whose linear parts are independent.  The
count of those generators is cross-checked against two independent routes,
the certified rank of v^(k0) and the Lie-hull dimension; disagreement is
reported as inconclusive rather than resolved silently.

Each kernel is searched degree by degree up to the run's degree bound, and
the search stops at the first degree whose linear rank meets its target.
The intrinsic complexification is cut out by d + e functions with
independent differentials, so the target is N - Rk v^(k0) for the
annihilators and d + e for the orbit ideal: degree 1 for a Levi-flat
manifold, and 2 for the quadrics and c3, whose orbit ideal needs the 44
monomials of degree <= 2 in 8 variables, not the 494 of degree <= 4.  The
monomial cap is counted at each degree the search enters, so a search that
stops early is never refused for a degree it does not reach.

The mirror construction at the end builds the linear locus on which the
doubled iterate collapses to the origin while retaining the stabilized rank.
Its index pattern is the reflection that matches this engine's argument
order (the last block is the z-part); that it annihilates follows from the
load's gates (``mirror_sigma``), and its rank is certified.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .config import RunConfig
from .coords import Dims, block_names
from .errors import InconclusiveError, InternalConsistencyError
from .expressions import GenericManifold
from .fields import LieHullReport, cr_basis, lie_hull_dimension
from .maps import SegreMapping, make_phi
from .rank import Lines, RankCertificate, RankProfile, generic_rank, iterate_lines, rank_profile
from .record import Record
from .series import (
    ONE,
    ZERO,
    FormalMap,
    TruncatedSeries,
    _series,
    compose_many,
    grlex_key,
    linear_part,
)


class CheckResult(Record):
    name: str
    passed: bool
    witness: str = ""


# ---------------------------------------------------------------------------
# annihilator kernels
# ---------------------------------------------------------------------------


# Most monomials a kernel search may compose, counted up to the degree it is
# about to enter.  There are C(arity + k, k) - 1 of degree 1..k: the cap
# admits degree 4 of the orbit ideal of a Levi-flat N=16 (58,904 in 32
# variables) and refuses degree 4 in 40 variables (135,750), which would take
# minutes to compose.  A search that stops below such a degree never counts it.
MAX_MONOMIALS = 100_000


def _monomials(arity: int, degree: int) -> List[Tuple[int, ...]]:
    """Exponent tuples of total degree ``degree`` in ``arity`` variables, graded-lex order."""
    block = []
    for indices in combinations_with_replacement(range(arity), degree):
        exp = [0] * arity
        for index in indices:
            exp[index] += 1
        block.append(tuple(exp))
    # ascending index multisets give descending exponent tuples
    return block[::-1]


def _kernel_series(
    components: Sequence[TruncatedSeries],
    arity: int,
    kappa: int,
    target: int,
    bound: int,
) -> Tuple[List[TruncatedSeries], int, int]:
    """Kernel of f -> f(components) over polynomials f with 1 <= deg f <= k, searched
    for k = 1, 2, ... up to the first k whose linear rank is ``target``, and
    at most up to ``bound``.

    The bound must lie in 1..kappa/2 (ValueError otherwise).  A degree k
    whose C(arity + k, k) - 1 monomials of degree 1..k pass MAX_MONOMIALS
    raises InconclusiveError before any of its monomials is enumerated.  At
    each k only the monomials of degree k are composed with the components,
    each once, on top of the products of degree k - 1 (one ``compose_many``
    memo), and ``linalg.sparse_kernel`` eliminates the images of every
    degree so far.  Its sparsest-row-first order beats extending one echelon
    column by column, whose carried combinations fill in: 4-9 times slower
    at degree 4 on the dense h' and l4'.  The reduced row echelon basis over
    the graded-lex monomial columns is unique, so the kernel at k is element
    for element the one a search of degree <= k in one shot finds, and
    linear parts surface as leading terms.  The linear rank is the number of
    kernel elements with nonzero linear part; it never falls as k grows.
    Returns the kernel elements at the last k searched as series of order
    ``kappa``, that k, and the linear rank.
    """
    if not 1 <= bound <= kappa // 2:
        raise ValueError(f"degree bound must lie in 1..kappa/2 = {kappa // 2}")
    inner = FormalMap(list(components))
    memo: dict = {}
    monomials: List[Tuple[int, ...]] = []
    columns: List[dict] = []
    count = 1  # C(arity + k, k), exactly
    for degree in range(1, bound + 1):
        count = count * (arity + degree) // degree
        if count - 1 > MAX_MONOMIALS:
            raise InconclusiveError(
                f"{count - 1} monomials of degree <= {degree} in {arity} variables "
                f"exceed the cap MAX_MONOMIALS = {MAX_MONOMIALS}"
            )
        block = _monomials(arity, degree)
        outers = [_series(arity, kappa, {exp: ONE}) for exp in block]
        columns += [image.terms for image in compose_many(outers, inner, memo)]
        monomials += block
        kernel = linalg.sparse_kernel(columns)
        # the arity monomials of degree 1 are the first columns
        linear_rank = sum(1 for row in kernel if min(row) < arity)
        if linear_rank == target:
            break
    series = [_series(arity, kappa, {monomials[c]: value for c, value in row.items()}) for row in kernel]
    return series, degree, linear_rank


# ---------------------------------------------------------------------------
# orbit annihilators (generators of the intrinsic complexification)
# ---------------------------------------------------------------------------


@contextmanager
def moved_ranks_first(profile: RankProfile):
    """Re-raise an InconclusiveError of the orbit phase on a moving profile as
    its moved ranks, on which the orbit counts rest."""
    try:
        yield
    except InconclusiveError as exc:
        reason = profile.moved_reason()
        if reason is None:
            raise
        raise InconclusiveError(reason) from exc


class OrbitReport(Record):
    """Orbit dimension, codimension count e, and the Z-only annihilators."""

    dim_O: int
    e: int
    f_generators: Tuple[TruncatedSeries, ...]
    checks: Dict[str, CheckResult]

    def generator_texts(self, dims: Dims) -> List[str]:
        return [f.to_text(dims.z_names()) for f in self.f_generators]


def orbit_annihilator(
    segre: SegreMapping,
    profile: RankProfile,
    degree_bound: int,
    lie_dim: Optional[int],
) -> OrbitReport:
    """Annihilator generators of the stabilized iterate of the run's mapping, with cross-checks.

    Solves the exact linear system "f composed with v^(k0) vanishes modulo
    the truncation order" over polynomials f(Z) of degree 1, then up to 2,
    and so on up to ``degree_bound`` (``_kernel_series``), and stops at the
    first degree whose generators (the kernel elements with independent
    linear parts) number N - Rk v^(k0).  The count e is cross-checked, unless
    ``lie_dim`` is None, against the Lie-hull value 2N - d - dim.  A count
    that no degree up to the bound reaches, or a mismatch, raises
    InconclusiveError carrying both numbers: either the bound is too small or
    a truncation artifact slipped in, and neither should be silently trusted.

    The generators kill v^j for j <= 2 k0, each fact checked once: at j = k0
    the kernel search proved f o v^(k0) = 0 modulo degree > kappa, exactly;
    for j < k0, v^j is v^(k0) with its first k0 - j blocks set to zero (the
    zero-first-block collapse, ``maps.iterate``), and a substitution of
    variables commutes with composition.  Only j = k0+1..2k0 are composed.
    """
    manifold, dims = segre.manifold, segre.dims
    k0 = profile.k0
    e_rank_route = dims.N - profile.rank_at_k0
    generators, _, e_reported = _kernel_series(
        list(segre.v(k0).components), dims.N, segre.kappa, e_rank_route, degree_bound
    )
    # generators are the kernel elements whose leading (pivot) term is linear
    f_generators = [g for g in generators if sum(min(g.terms, key=grlex_key)) == 1]
    if e_reported != e_rank_route:
        raise InconclusiveError(
            f"annihilator count {e_reported} (degree bound {degree_bound}) "
            f"disagrees with N - Rk v^k0 = {e_rank_route}; escalate the degree bound"
        )
    checks: Dict[str, CheckResult] = {}
    checks["orbit_count_vs_rank"] = CheckResult(
        "orbit_count_vs_rank", True, f"e = {e_reported} = N - Rk v^{k0}"
    )
    if lie_dim is not None:
        e_lie_route = 2 * dims.N - dims.d - lie_dim
        if e_reported != e_lie_route:
            raise InconclusiveError(
                f"annihilator count {e_reported} disagrees with 2N - d - dim g(0) = {e_lie_route}"
            )
        checks["orbit_count_vs_lie"] = CheckResult(
            "orbit_count_vs_lie", True, f"e = {e_reported} = 2N - d - dim g(0)"
        )

    # the generators' linear parts (Z is the first N ambient slots) and rho's are independent
    rows = [row + [ZERO] * dims.N for row in linear_part(f_generators, range(dims.N))]
    rows += linear_part(manifold.rho, range(dims.ambient_arity))
    joint = linalg.rank(rows)
    if joint != dims.d + e_reported:
        raise InternalConsistencyError(
            f"differentials of annihilators and defining functions have rank {joint}, expected {dims.d + e_reported}"
        )
    checks["differentials_independent"] = CheckResult(
        "differentials_independent", True, f"rank {joint} = d + e"
    )

    failures = []
    if f_generators:
        for j in range(k0 + 1, 2 * k0 + 1):
            for k, image in enumerate(compose_many(f_generators, segre.v(j))):
                if not image.is_zero():
                    failures.append((k + 1, j))
    failures.sort()
    if failures:
        raise InconclusiveError(
            f"annihilators fail to kill iterates at (generator, j) pairs {failures}; "
            "degree bound or truncation order insufficient"
        )
    checks["annihilators_vanish"] = CheckResult(
        "annihilators_vanish", True, f"f_k . v^j = 0 for j <= {2 * k0}"
    )
    dim_orbit = 2 * dims.N - dims.d - e_reported
    return OrbitReport(
        dim_O=dim_orbit,
        e=e_reported,
        f_generators=tuple(f_generators),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# the orbit ideal inside the manifold
# ---------------------------------------------------------------------------


class OrbitIdealReport(Record):
    """Kernel of composition with the stabilized phi mapping, with reality checks."""

    generators: Tuple[TruncatedSeries, ...]
    linear_rank: int
    expected_codim: int
    codimension_ok: bool
    sigma_closed: bool


def _graded(series: TruncatedSeries) -> dict:
    """The terms of ``series`` keyed by graded-lex order, the kernel's column order."""
    return {grlex_key(exp): value for exp, value in series.terms.items()}


def orbit_ideal_in_M(
    segre: SegreMapping,
    k0: int,
    orbit: OrbitReport,
    degree_bound: int,
) -> OrbitIdealReport:
    """Generators of the orbit ideal modulo truncation, via the phi annihilator of the run's mapping.

    The kernel of composition with phi^(k0+1) is searched degree by degree
    (``_kernel_series``) up to the bound, and the search stops at the first
    degree whose linear part has the expected codimension d + e.  The
    defining functions and the Z-only annihilators lie in the kernel: rho
    kills phi by the load's reality gate (``make_phi``), and
    ``orbit_annihilator`` raises unless the annihilators kill v^(k0), the
    first block of phi^(k0+1).  Reports whether the codimension was
    reached, and whether the kernel is closed under the
    conjugation involution, reality of the orbit ideal (each sigma(g)
    reduces to 0 against the kernel basis).  A short linear part with the
    degree bound below the degree of the defining functions raises
    InconclusiveError.
    """
    manifold, dims, kappa = segre.manifold, segre.dims, segre.kappa
    phi = make_phi(segre, k0 + 1)
    expected = dims.d + orbit.e
    generators, _, linear_rank = _kernel_series(
        list(phi.components), dims.ambient_arity, kappa, expected, degree_bound
    )
    codimension_ok = linear_rank == expected
    # a kernel searched up to the bound cannot hold a defining function of higher degree
    rho_degree = max(component.degree() for component in manifold.rho.components)
    if linear_rank < expected and degree_bound < rho_degree:
        raise InconclusiveError(
            f"orbit ideal linear rank {linear_rank} < d + e = {expected}: degree bound "
            f"{degree_bound} is below the degree {rho_degree} of the defining functions"
        )

    # sigma keeps degrees, so sigma(g) composes to 0 exactly when it lies in the
    # kernel; its basis is already reduced, so each row is stored as it is
    basis = linalg.Echelon()
    for g in generators:
        basis.push(_graded(g))
    sigma_ok = all(not basis.reduce(_graded(g.sigma(dims.N))) for g in generators)
    return OrbitIdealReport(
        generators=tuple(generators),
        linear_rank=linear_rank,
        expected_codim=expected,
        codimension_ok=codimension_ok,
        sigma_closed=sigma_ok,
    )


# ---------------------------------------------------------------------------
# the mirror locus of the doubled iterate
# ---------------------------------------------------------------------------


class MirrorManifold(Record):
    """Linear locus of dimension n*k0 on which the doubled iterate collapses.

    ``generators`` cut the locus inside the 2*k0 blocks of t-variables; it
    is the image of the reflected linear embedding ``_mirror_pattern`` (t-block
    b is s-block b for b <= k0, s-block 2*k0 - b for k0 < b < 2*k0, and zero
    for b = 2*k0).  The doubled iterate vanishes there (``mirror_sigma``).
    """

    k0: int
    generators: Tuple[TruncatedSeries, ...]
    rank_certificate: RankCertificate
    expected_rank: int

    @property
    def rank_matches(self) -> bool:
        return self.rank_certificate.rank == self.expected_rank

    def generator_texts(self, n: int) -> List[str]:
        names = block_names("t", 2 * self.k0, n)
        return [g.to_text(names) for g in self.generators]


def _mirror_pattern(dims: Dims, k0: int) -> List[Optional[int]]:
    """The s-variable on each t-variable of the mirror locus, or None for 0."""
    blocks = [*range(k0), *range(k0 - 2, -1, -1), None]
    return [None if b is None else b * dims.n + i for b in blocks for i in range(dims.n)]


def _mirror_lines(segre: SegreMapping, k0: int) -> Lines:
    """J v^(2 k0) along the (linear) mirror locus, on the line through its image of s."""
    full = iterate_lines(segre, 2 * k0)
    pattern = _mirror_pattern(segre.dims, k0)
    return full.replace(
        arity=k0 * segre.dims.n, at=lambda point: full.at([0 if c is None else point[c] for c in pattern])
    )


def _mirror_generators(dims: Dims, k0: int, kappa: int) -> List[TruncatedSeries]:
    n = dims.n
    arity = 2 * k0 * n
    gens: List[TruncatedSeries] = []

    def t_var(block: int, i: int) -> TruncatedSeries:
        return TruncatedSeries.variable(arity, kappa, (block - 1) * n + i)

    for i in range(n):
        gens.append(t_var(2 * k0, i))
    for j in range(k0 - 1):
        for i in range(n):
            gens.append(t_var(2 * k0 - 1 - j, i) - t_var(1 + j, i))
    return gens


def mirror_sigma(segre: SegreMapping, profile: RankProfile, seed: int) -> MirrorManifold:
    """The mirror locus of the run's mapping, with the certified rank of the
    doubled iterate's Jacobian along it, for the suite to compare with the
    stabilized rank.  The locus itself is fixed by ``_mirror_pattern`` alone:
    its generators vanish on the pattern's linear embedding, which has rank
    k0*n at 0, for every manifold.

    The doubled iterate vanishes on the locus, modulo degree > kappa, by the
    load's gates, so nothing composes it.  On the pattern t^b = s^b for b <=
    k0, and v^(k0+i) is v^(k0-i)(s^1..s^(k0-i)) for i = 1..k0-1, by
    induction.  For i = 1, v^(k0+1)(s^1..s^k0, s^(k0-1)) has its last block
    equal to the (k0-1)-st, which the reflection collapse (``maps.iterate``)
    drops to v^(k0-1).  From i to i + 1 < k0, v^(k0+i+1) = (t, Q(t,
    conj v^(k0+i))) at t = s^(k0-i-1) is, by the induction, v^(k0-i+1) on
    (s^1..s^(k0-i), s^(k0-i-1)), which the reflection drops to v^(k0-i-1).
    Last, with i = k0 - 1 (for k0 = 1, directly), v^(2 k0) on the pattern is
    (0, Q(0, conj v^1(s^1))) = (0, Q(0, s^1, Qbar(s^1, 0, 0))) = 0, by
    Q(z, ch, Qbar(ch, z, w)) = w (``GraphForm``) at z = 0, w = 0.
    """
    dims, kappa = segre.dims, segre.kappa
    k0 = profile.k0
    cert = generic_rank(_mirror_lines(segre, k0), kappa=kappa, seed=seed)
    return MirrorManifold(
        k0=k0,
        generators=tuple(_mirror_generators(dims, k0, kappa)),
        rank_certificate=cert,
        expected_rank=profile.rank_at_k0,
    )


# ---------------------------------------------------------------------------
# full verification suite
# ---------------------------------------------------------------------------


class VerificationReport(Record):
    """Everything the engine can say about one manifold, with named checks."""

    label: str
    dims: Dims
    kappa: int
    config: RunConfig
    profile: RankProfile
    lie: LieHullReport
    orbit: OrbitReport
    ideal: OrbitIdealReport
    mirror: MirrorManifold
    checks: Dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks.values())


def verify_all(manifold: GenericManifold, config: RunConfig) -> VerificationReport:
    """Run the whole battery and report pass/fail per named claim.

    Finite type must agree between the bracket route and the rank route;
    every identity is tested as an exact series statement at the working
    truncation order or proven, so the one randomized step is the
    certificates' line draw.
    """
    dims = manifold.dims
    checks: Dict[str, CheckResult] = {}

    def record(name: str, passed: bool, witness: str = ""):
        checks[name] = CheckResult(name, passed, witness)

    segre = SegreMapping(manifold)
    profile = rank_profile(segre, config.resolve_jmax(dims.d), config.seed)
    k0 = profile.k0
    ranks_text = ", ".join(str(r) for r in profile.ranks)
    record("rank_monotone", True, f"ranks = ({ranks_text})")
    record(
        "rank_stabilizes",
        k0 <= dims.d + 1,
        f"k0 = {k0}, bound d + 1 = {dims.d + 1}",
    )

    # every load checked reality at the top order and refused an ideal that
    # failed it.  With solve_graph's identity, reality implies the collapse
    # identities (maps.iterate), that the CR fields are tangent (cr_basis),
    # that theta^j and phi^j map into M (make_phi) and that rho kills the
    # chain pairs of T^k (maps.make_T), so those records rest on the load too
    record("collapse_identities", True, f"verified for j <= {2 * k0}")
    record("reality", True, "identity holds")

    record("cr_basis_tangent", True, f"{2 * dims.n} fields tangent")
    lie = lie_hull_dimension(manifold, cr_basis(manifold), config.resolve_depth())
    record("theta_phi_into_manifold", True, f"built for j <= {k0 + 1}")

    # Rk theta^j = Rk v^j + n and Rk phi^j = Rk v^(j-1) + n (v^0 = 0) by row
    # operations, on every line x = eps * p, over Q(i)[eps]/(eps^(K+1)) at
    # every order K of the ladder.  theta^j = (v^(j+1) o S, conj v^j): its
    # z-rows are the identity on block j+1 (and, by S, on block j-1 if j >=
    # 2), and its w-rows are dQ/dz times the z-rows plus dQ/d(ch, ta) times
    # the rows of conj J v^j, which vanish on block j+1.  Subtracting both
    # combinations, then block j+1's columns from block j-1's, leaves
    # I_n + conj J v^j on p's first j blocks.  Its Smith form is n units and
    # then conj J v^j's, whose valuations are J v^j's as p is real, so every
    # order keeps n more pivots than J v^j's (``rank._modulo``).  phi^j =
    # (v^(j-1), conj v^j) with conj v^j = (t^j, Qbar(t^j, v^(j-1))) leaves
    # I_n + J v^(j-1) the same way.  v^j's certificate witnesses theta's
    # rank: on v^j's line extended by any last block, v^j's minor plus the
    # z-rows and block j+1's columns is block-triangular, with determinant
    # +- conj of v^j's
    n = dims.n
    relation_notes = []
    for j in range(1, k0 + 2):
        theta, phi = profile.rank_at(j) + n, (profile.rank_at(j - 1) if j >= 2 else 0) + n
        relation_notes.append(f"j={j}: Rk theta={theta} (exp {theta}), Rk phi={phi} (exp {phi})")
    record("theta_phi_ranks", True, "; ".join(relation_notes))

    # the chain rule proves the pushforward identities (maps.pushforward_residuals)
    record("pushforward", True, "2N coordinate functions")

    record("segre_chain_parametrizations", True, f"verified for k <= {2 * k0}")

    with moved_ranks_first(profile):
        orbit = orbit_annihilator(segre, profile, config.resolve_degree(), lie.dim_g0 if lie.stable else None)
        ideal = orbit_ideal_in_M(segre, k0, orbit, config.resolve_degree())
    for check in orbit.checks.values():
        checks[check.name] = check
    # rho kills phi by the load's reality gate (make_phi), and the annihilators
    # kill v^k0, the first block of phi^(k0+1), or orbit_annihilator raised
    record("orbit_ideal_membership", True, "defining functions and annihilators kill phi")
    record(
        "orbit_ideal_codimension",
        ideal.codimension_ok,
        f"linear rank {ideal.linear_rank}, expected {ideal.expected_codim}",
    )
    record("orbit_ideal_real", ideal.sigma_closed, "kernel closed under conjugation swap")

    dim_orbit = orbit.dim_O
    record(
        "orbit_dimension",
        dim_orbit == lie.dim_g0,
        f"dim O = {dim_orbit}, dim g(0) = {lie.dim_g0}",
    )
    # Rk theta^(k0+1) = Rk v^(k0+1) + n = Rk v^k0 + N - d = 2N - d - e: the
    # ranks stop moving at k0 (rank_profile) and e = N - Rk v^k0
    # (orbit_annihilator), or either raised
    record("orbit_rank", True, f"Rk theta^{k0 + 1} = {profile.rank_at(k0 + 1) + n}, dim O = {dim_orbit}")

    finite_lie = lie.finite_type()
    finite_segre = profile.finite_type(dims.N)
    record(
        "finite_type_agree",
        finite_lie == finite_segre,
        f"lie route {finite_lie} (stable={lie.stable}), rank route {finite_segre}",
    )
    record(
        "central_identity",
        profile.rank_at_k0 == lie.dim_g0 + dims.d - dims.N,
        f"Rk v^k0 = {profile.rank_at_k0}, dim g(0) + d - N = {lie.dim_g0 + dims.d - dims.N}",
    )

    mirror = mirror_sigma(segre, profile, config.seed)
    # the reflection collapse proves it (mirror_sigma)
    record("mirror_annihilation", True, "reflected pattern kills the doubled iterate")
    record(
        "mirror_rank",
        mirror.rank_matches,
        f"rank along locus = {mirror.rank_certificate.rank}, expected {mirror.expected_rank}",
    )

    return VerificationReport(
        label=manifold.label,
        dims=dims,
        kappa=manifold.kappa,
        config=config,
        profile=profile,
        lie=lie,
        orbit=orbit,
        ideal=ideal,
        mirror=mirror,
        checks=checks,
    )
