"""Formal implicit function theorem and truncated ideal membership.

Converts defining functions rho(Z, zeta) with invertible w-differential into
the graph form w = Q(z, ch, ta) by Newton lifting, which doubles the valid
order per composition, verifies the conjugation identity that makes
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
    """Solve rho(Z, zeta) = 0 for w as a series in (z, ch, ta) by Newton lifting.

    If Q is valid to degree m and X inverts J = d rho / d w at (z, Q, ch, ta)
    to degree m' - m - 1, then Q - X rho(z, Q, ch, ta) is valid to degree
    m' <= 2m + 1 (Brent & Kung 1978); X starts as the constant inverse at 0
    and X (2I - J X) doubles its precision the same way.  The precisions are
    kappa >> s, so there are kappa.bit_length() steps, and each composes rho
    and its w-partials in one ``compose_many``.  Modulo degree > kappa the
    solution with Q(0) = 0 is unique, so this Q is, term for term, the one a
    degree-by-degree solve gives; the final annihilation check is the one
    place that verifies it (valid_order stays kappa).
    """
    if rho.source_arity != dims.ambient_arity:
        raise ValueError("rho must live in the ambient (z, w, ch, ta) ring")
    if rho.target_arity != dims.d:
        raise ValueError("rho needs d components")
    d = dims.d
    matrix = [
        [rho.component(j).coefficient(unit_exponent(dims.ambient_arity, dims.w(l))) for l in range(d)]
        for j in range(d)
    ]
    try:
        inverse = linalg.invert(matrix)
    except ValueError as exc:
        raise SplitError("the d x d matrix of w-differentials at 0 is singular") from exc

    arity = dims.graph_arity
    zs = [TruncatedSeries.variable(arity, kappa, dims.gz(i)) for i in range(dims.n)]
    chs = [TruncatedSeries.variable(arity, kappa, dims.gch(i)) for i in range(dims.n)]
    tas = [TruncatedSeries.variable(arity, kappa, dims.gta(l)) for l in range(d)]
    q = [TruncatedSeries.zero(arity, 0) for _ in range(d)]
    x = [[TruncatedSeries.constant(arity, 0, value) for value in row] for row in inverse]
    valid = x_order = 0
    for target in reversed([kappa >> s for s in range(kappa.bit_length())]):
        # X multiplies rho(z, Q, ch, ta), whose terms start at degree valid + 1
        need = target - valid - 1
        partials = []
        if need > x_order:
            partials = [c.partial(dims.w(l)) for c in rho.truncate(need + 1) for l in range(d)]
        inner = FormalMap([*zs, *[c.with_order(target) for c in q], *chs, *tas])
        images = compose_many([*rho.components, *partials], inner)
        jac = [images[d * (j + 1) : d * (j + 2)] for j in range(d)]
        while x_order < need:
            x_order = min(2 * x_order + 1, need)
            xjx = _matmul(x, _matmul(jac, x, x_order), x_order)
            x = [[a.with_order(x_order).scale(2) - b for a, b in zip(*rows)] for rows in zip(x, xjx)]
        step = _matmul(x, [[value] for value in images[:d]], target)
        q = [c.with_order(target) - change for c, (change,) in zip(q, step)]
        valid = target
    graph = GraphForm(dims, FormalMap(q), kappa)

    inner = FormalMap([*zs, *q, *chs, *tas])
    for image in compose_many(list(rho.components), inner):
        if not image.is_zero():
            raise SplitError("graph solve failed to annihilate the defining functions")
    return graph


def _matmul(a, b, kappa: int) -> List[List[TruncatedSeries]]:
    """The matrix product of two matrices of series modulo degree > kappa, entries read as polynomials."""
    zero = TruncatedSeries.zero(a[0][0].arity, kappa)
    return [
        [sum((x.with_order(kappa) * y.with_order(kappa) for x, y in zip(row, col)), zero) for col in zip(*b)]
        for row in a
    ]


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
