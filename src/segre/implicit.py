"""Formal implicit function theorem and the reality check.

Converts defining functions rho(Z, zeta) with invertible w-differential into
the graph form w = Q(z, ch, ta) by Newton lifting, which doubles the valid
order per composition, and verifies the conjugation identity that makes the
ideal real.  Both checks substitute the graph (``membership_map``), which
decides membership in the truncated ideal, as w - Q generates it freely.
The identities that the phases use of the CR fields and of phi^j follow.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import linalg
from .coords import Dims
from .errors import SplitError
from .record import Record
from .series import FormalMap, TruncatedSeries, compose_many, grlex_key, linear_part


class GraphForm(Record):
    """The solved graph w = Q(z, ch, ta) of a generic manifold.

    ``Q`` lives in the graph ring (slots z, ch, ta).  Qbar is the
    coefficientwise conjugate of Q with its slots read in the order
    (ch, z, w); both identities below hold modulo degree > valid_order,
    the truncation order of Q:

        rho((z, Q(z, ch, ta)), (ch, ta)) = 0
        Q(z, ch, Qbar(ch, z, w)) = w
    """

    dims: Dims
    Q: FormalMap

    def __post_init__(self):
        if self.Q.target_arity != self.dims.d:
            raise ValueError("graph form needs d components")
        if self.Q.source_arity != self.dims.graph_arity:
            raise ValueError("graph components must live in the (z, ch, ta) ring")

    @property
    def valid_order(self) -> int:
        return self.Q.kappa

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
        return self.Q.conjugate().map_vars(dims.ambient_arity, assignment)

    def membership_map(self) -> FormalMap:
        """Ambient -> graph-ring substitution sending w to Q and fixing z, ch, ta."""
        dims = self.dims
        arity = dims.graph_arity
        kappa = self.valid_order
        zs = [TruncatedSeries.variable(arity, kappa, dims.gz(i)) for i in range(dims.n)]
        chs = [TruncatedSeries.variable(arity, kappa, dims.gch(i)) for i in range(dims.n)]
        tas = [TruncatedSeries.variable(arity, kappa, dims.gta(l)) for l in range(dims.d)]
        return FormalMap([*zs, *list(self.Q.components), *chs, *tas])


def solve_graph(rho: FormalMap, dims: Dims, kappa: int, memo: Optional[dict] = None) -> GraphForm:
    """Solve rho(Z, zeta) = 0 for w as a series in (z, ch, ta) by ``lift``.

    Modulo degree > kappa the solution with Q(0) = 0 is unique, so this Q
    is, term for term, the one a degree-by-degree solve gives; the final
    annihilation check is the one place that verifies it.  It composes over
    w -> Q with the ``compose_many`` memo, which ``check_reality`` may share.
    """
    if rho.source_arity != dims.ambient_arity:
        raise ValueError("rho must live in the ambient (z, w, ch, ta) ring")
    if rho.target_arity != dims.d:
        raise ValueError("rho needs d components")
    arity = dims.graph_arity
    zs = [TruncatedSeries.variable(arity, kappa, dims.gz(i)) for i in range(dims.n)]
    chs = [TruncatedSeries.variable(arity, kappa, dims.gch(i)) for i in range(dims.n)]
    tas = [TruncatedSeries.variable(arity, kappa, dims.gta(l)) for l in range(dims.d)]
    q, _, _ = lift(rho, dims, kappa, zs, chs, tas)
    graph = GraphForm(dims, FormalMap(q))
    for image in compose_many(list(rho.components), graph.membership_map(), memo):
        if not image.is_zero():
            raise SplitError("graph solve failed to annihilate the defining functions")
    return graph


def lift(rho: FormalMap, dims: Dims, kappa: int, zs, chs, tas):
    """The w with w(0) = 0 and rho(z, w, ch, ta) = 0 modulo degree > kappa,
    for series z, ch, ta of one ring that vanish at 0, by Newton lifting
    from w = 0.

    If w is valid to degree m and X inverts J = d rho / d w at (z, w, ch, ta)
    to degree m' - m - 1, then w - X rho(z, w, ch, ta) is valid to degree
    m' <= 2m + 1 (Brent & Kung 1978); X starts as the constant inverse at 0
    and X (2I - J X) doubles its precision the same way (``refine``).  The
    precisions are the kappa >> s, so there are kappa.bit_length() steps,
    each composing rho and its w-partials in one ``compose_many``.  Returns
    w, X and the degree to which X inverts J at w.
    """
    d, arity = dims.d, zs[0].arity
    matrix = linear_part(rho, [dims.w(l) for l in range(d)])
    try:
        inverse = linalg.invert(matrix)
    except ValueError as exc:
        raise SplitError("the d x d matrix of w-differentials at 0 is singular") from exc
    x = [[TruncatedSeries.constant(arity, 0, value) for value in row] for row in inverse]
    q = [TruncatedSeries.zero(arity, 0) for _ in range(d)]
    x_order, valid = 0, 0
    for target in reversed([kappa >> s for s in range(kappa.bit_length())]):
        # X multiplies rho(z, w, ch, ta), whose terms start at degree valid + 1
        need = target - valid - 1
        partials = []
        if need > x_order:
            partials = [c.partial(dims.w(l)) for c in rho.truncate(need + 1) for l in range(d)]
        inner = FormalMap([*zs, *[c.with_order(target) for c in q], *chs, *tas])
        images = compose_many([*rho.components, *partials], inner)
        x, x_order = refine(x, x_order, [images[d * (j + 1) : d * (j + 2)] for j in range(d)], need)
        step = matmul(x, [[value] for value in images[:d]], target)
        q = [c.with_order(target) - change for c, (change,) in zip(q, step)]
        valid = target
    return q, x, x_order


def refine(x, x_order: int, jac, need: int):
    """X (2I - J X) until X inverts J to degree ``need``; returns X and its order."""
    while x_order < need:
        x_order = min(2 * x_order + 1, need)
        xjx = matmul(x, matmul(jac, x, x_order), x_order)
        x = [[a.with_order(x_order).scale(2) - b for a, b in zip(*rows)] for rows in zip(x, xjx)]
    return x, x_order


def matmul(a, b, kappa: int) -> List[List[TruncatedSeries]]:
    """The matrix product of two matrices of series modulo degree > kappa, entries read as polynomials."""
    zero = TruncatedSeries.zero(a[0][0].arity, kappa)
    return [
        [sum((x.with_order(kappa) * y.with_order(kappa) for x, y in zip(row, col)), zero) for col in zip(*b)]
        for row in a
    ]


def check_reality(graph: GraphForm, rho: FormalMap, memo: Optional[dict] = None) -> Tuple[bool, Optional[str]]:
    """Exact test that the ideal is real modulo degree > valid_order.

    The ideal is real when the conjugation swap sigma maps it into itself,
    that is when sigma(rho_j)(z, Q, ch, ta) = 0 for each of its defining
    functions rho_j (for the canonical w - Q this amounts to
    Q(z, ch, Qbar(ch, z, w)) = w).  A sparse rho needs powers of Q only up to
    its degree in w, and ``memo`` reuses the products of ``solve_graph``'s
    check.  Returns (True, None) on success, else (False, witness) where the
    witness names the first offending monomial in graded-lex order.
    """
    dims = graph.dims
    residuals = compose_many([c.sigma(dims.N) for c in rho.components], graph.membership_map(), memo)
    worst = min(((grlex_key(r.leading_term()[0]), l) for l, r in enumerate(residuals) if r), default=None)
    if worst is None:
        return True, None
    (_, exp), l = worst
    names = dims.graph_names()
    monomial = "*".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exp) if e) or "1"
    return False, f"component {l + 1}, monomial {monomial}"

