"""Formal implicit function theorem and truncated ideal membership.

Converts defining functions rho(Z, zeta) with invertible w-differential into
the graph form w = Q(z, ch, ta), verifies the conjugation identity that makes
the ideal real, and decides membership in the truncated ideal by substituting
the graph.  Substitution is a complete decision procedure here because the
ideal is freely generated by the coordinate graph w - Q.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import linalg
from .coords import Dims
from .errors import SplitError
from .record import Record
from .series import FormalMap, TruncatedSeries, compose_many, grlex_key, unit_exponent


class GraphForm(Record):
    """The solved graph w = Q(z, ch, ta) of a generic manifold.

    ``Q`` lives in the graph ring (slots z, ch, ta).  ``Qbar`` is the
    coefficientwise conjugate of Q with its slots read in the order
    (ch, z, w); both identities below hold modulo degree > valid_order:

        rho((z, Q(z, ch, ta)), (ch, ta)) = 0
        Q(z, ch, Qbar(ch, z, w)) = w
    """

    dims: Dims
    Q: FormalMap
    valid_order: int

    def __post_init__(self):
        if self.Q.target_arity != self.dims.d:
            raise ValueError("graph form needs d components")
        if self.Q.source_arity != self.dims.graph_arity:
            raise ValueError("graph components must live in the (z, ch, ta) ring")

    @property
    def Qbar(self) -> FormalMap:
        return self.Q.conjugate()

    # -- slot-disciplined substitution --------------------------------------

    def q_of(
        self,
        z: List[TruncatedSeries],
        chi: List[TruncatedSeries],
        tau: List[TruncatedSeries],
    ) -> List[TruncatedSeries]:
        """Q(z, chi, tau) for series arguments in a common source ring."""
        inner = FormalMap([*z, *chi, *tau])
        return compose_many(list(self.Q.components), inner)

    def qbar_of(
        self,
        chi: List[TruncatedSeries],
        z: List[TruncatedSeries],
        w: List[TruncatedSeries],
    ) -> List[TruncatedSeries]:
        """Qbar(chi, z, w); the conjugate series reads its slots as (ch, z, w)."""
        inner = FormalMap([*chi, *z, *w])
        return compose_many(list(self.Qbar.components), inner)

    # -- derived ambient objects ---------------------------------------------

    def q_ambient(self) -> FormalMap:
        """Q embedded into the ambient 2N-variable ring."""
        dims = self.dims
        return self.Q.map_vars(dims.ambient_arity, dims.graph_to_ambient())

    def rho(self) -> FormalMap:
        """Canonical generators w_l - Q_l(z, ch, ta) in the ambient ring."""
        dims = self.dims
        kappa = self.valid_order
        q_amb = self.q_ambient()
        comps = []
        for l in range(dims.d):
            w_var = TruncatedSeries.variable(dims.ambient_arity, kappa, dims.w(l))
            comps.append(w_var - q_amb.component(l))
        return FormalMap(comps)

    def qbar_ambient(self) -> FormalMap:
        """Qbar(ch, z, w) embedded into the ambient ring (ta-free components)."""
        dims = self.dims
        assignment = (
            [dims.ch(i) for i in range(dims.n)]
            + [dims.z(i) for i in range(dims.n)]
            + [dims.w(l) for l in range(dims.d)]
        )
        return self.Qbar.map_vars(dims.ambient_arity, assignment)

    def membership_map(self) -> FormalMap:
        """Ambient -> graph-ring substitution sending w to Q and fixing z, ch, ta."""
        dims = self.dims
        arity = dims.graph_arity
        kappa = self.valid_order
        zs = [TruncatedSeries.variable(arity, kappa, dims.gz(i)) for i in range(dims.n)]
        chs = [TruncatedSeries.variable(arity, kappa, dims.gch(i)) for i in range(dims.n)]
        tas = [TruncatedSeries.variable(arity, kappa, dims.gta(l)) for l in range(dims.d)]
        return FormalMap([*zs, *list(self.Q.components), *chs, *tas])


def solve_graph(rho: FormalMap, dims: Dims, kappa: int) -> GraphForm:
    """Solve rho(Z, zeta) = 0 for w as a series in (z, ch, ta), degree by degree.

    Each homogeneous part of the solution is obtained by one linear solve
    against the constant matrix of w-differentials at 0, after substituting
    the lower-order parts; exact rational arithmetic makes every step exact
    and the degree bookkeeping lossless (valid_order stays kappa).
    """
    if rho.source_arity != dims.ambient_arity:
        raise ValueError("rho must live in the ambient (z, w, ch, ta) ring")
    if rho.target_arity != dims.d:
        raise ValueError("rho needs d components")
    matrix = [
        [rho.component(j).coefficient(unit_exponent(dims.ambient_arity, dims.w(l))) for l in range(dims.d)]
        for j in range(dims.d)
    ]
    try:
        inverse = linalg.invert(matrix)
    except ValueError as exc:
        raise SplitError("the d x d matrix of w-differentials at 0 is singular") from exc

    arity = dims.graph_arity
    q_components = [TruncatedSeries.zero(arity, kappa) for _ in range(dims.d)]
    zs = [TruncatedSeries.variable(arity, kappa, dims.gz(i)) for i in range(dims.n)]
    chs = [TruncatedSeries.variable(arity, kappa, dims.gch(i)) for i in range(dims.n)]
    tas = [TruncatedSeries.variable(arity, kappa, dims.gta(l)) for l in range(dims.d)]
    for degree in range(1, kappa + 1):
        # the degree-k part of the residual only depends on the solution
        # below degree k, so the whole step can run in the order-k quotient
        inner = FormalMap([*zs, *[q.truncate(degree) for q in q_components], *chs, *tas])
        composed = compose_many(list(rho.components), inner)
        residual = [composed[j].homogeneous_part(degree) for j in range(dims.d)]
        for l in range(dims.d):
            correction = TruncatedSeries.zero(arity, kappa)
            for m in range(dims.d):
                if inverse[l][m]:
                    correction = correction + residual[m].with_order(kappa).scale(inverse[l][m])
            q_components[l] = q_components[l] - correction
    graph = GraphForm(dims, FormalMap(q_components), kappa)

    inner = FormalMap([*zs, *q_components, *chs, *tas])
    for image in compose_many(list(rho.components), inner):
        if not image.is_zero():
            raise SplitError("graph solve failed to annihilate the defining functions")
    return graph


def check_reality(graph: GraphForm) -> Tuple[bool, Optional[str]]:
    """Exact test of Q(z, ch, Qbar(ch, z, w)) = w modulo degree > valid_order.

    Returns (True, None) on success, else (False, witness) where the witness
    names the first offending monomial in graded-lex order.
    """
    dims = graph.dims
    arity = 2 * dims.n + dims.d
    kappa = graph.valid_order
    zs = [TruncatedSeries.variable(arity, kappa, i) for i in range(dims.n)]
    chs = [TruncatedSeries.variable(arity, kappa, dims.n + i) for i in range(dims.n)]
    ws = [TruncatedSeries.variable(arity, kappa, 2 * dims.n + l) for l in range(dims.d)]
    inner_tau = graph.qbar_of(chs, zs, ws)
    result = graph.q_of(zs, chs, inner_tau)
    names = (
        [f"z{i + 1}" for i in range(dims.n)]
        + [f"ch{i + 1}" for i in range(dims.n)]
        + [f"w{l + 1}" for l in range(dims.d)]
    )
    worst = None
    for l in range(dims.d):
        difference = result[l] - ws[l]
        if difference.is_zero():
            continue
        exp, _ = difference.leading_term()
        if worst is None or grlex_key(exp) < grlex_key(worst[1]):
            worst = (l, exp)
    if worst is None:
        return True, None
    l, exp = worst
    monomial = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exp) if e) or "1"
    return False, f"component {l + 1}, monomial {monomial}"


def ideal_member(g: TruncatedSeries, graph: GraphForm) -> bool:
    """Membership of g(Z, zeta) in the truncated ideal of the manifold.

    True iff g(z, Q(z, ch, ta), ch, ta) = 0 modulo degree > valid_order;
    exact for the truncated ideal because w - Q generates it freely.
    """
    if g.arity != graph.dims.ambient_arity:
        raise ValueError("ideal membership expects a series in the ambient ring")
    return g.compose(graph.membership_map()).is_zero()
