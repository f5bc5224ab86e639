"""Iterated Segre mappings and their companion parametrizations.

Everything here uses the graph-special convention: the Segre map sends
(zeta, t) to (t, Q(t, zeta)), so the z-part of the j-th iterate is the last
block of t-variables.  Iterates are built by exact truncated composition of Q,

    v^1(t^1)              = (t^1, Q(t^1, 0))
    v^(j+1)(t^1..t^(j+1)) = (t^(j+1), Q(t^(j+1), conj(v^j)(t^1..t^j))),

where conj conjugates coefficients only.  Two collapse identities pin the
argument convention: setting the first block to zero drops the iterate by
one, and identifying the last block with the (j-2)-nd drops it by two.
Both follow from the load's gates (the proof is ``SegreMapping.v``'s), as
rho vanishing on the chain T^k does (``orbit.verify_all``), so no run checks
them.
The same recursion, run on one line
x = eps * p in univariate series, gives the iterates and their Jacobian rows
at the manifold's top order from the graph or the defining functions there
(``SegreMapping.on_line``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .coords import Dims
from .errors import SegreError
from .expressions import GenericManifold
from .implicit import GraphForm, lift, matmul, refine
from .record import Record
from .series import FormalMap, TruncatedSeries, compose_many

if TYPE_CHECKING:  # only pushforward_residuals' annotations name it; a rank run never loads segre.fields
    from .fields import FormalVectorField

Matrix = List[List[TruncatedSeries]]


class VariableCapError(SegreError):
    """An iterate would exceed the configured bound on source variables."""


def default_var_cap(dims: Dims) -> int:
    """The default bound on an iterate's source variables: 4 (d + 1) n."""
    return 4 * (dims.d + 1) * dims.n


class SegreMapping:
    """The graph-special Segre variety mapping of a manifold, with iterate cache.

    The iterates ``v`` are built at the manifold's order kappa only, by
    composing Q; their z-part is the last t-block, written as such.
    ``top`` is the manifold at its top order, the one order every
    certificate reads: ``on_line`` evaluates the iterates there on lines,
    from them and Q or rho of the top form.
    """

    def __init__(self, manifold: GenericManifold):
        dims = manifold.dims
        self.dims = dims
        self.manifold = manifold
        self.graph: GraphForm = manifold.graph
        self.kappa = manifold.kappa
        self.top = manifold.top or manifold
        self.var_cap = default_var_cap(dims)
        self._cache: Dict[int, FormalMap] = {}
        self._outers: Optional[tuple] = None
        self._lines: Dict[Tuple[int, ...], tuple] = {}

    def _line_outers(self) -> tuple:
        """What ``on_line`` composes: None with Q and its partials when Q has
        no more terms than rho, else rho with its partials, both at the top."""
        if self._outers is None:
            q, rho = self.top.graph.Q, self.top.rho
            if sum(len(c.terms) for c in q) <= sum(len(c.terms) for c in rho):
                rho, outers = None, [*q, *(c.partial(s) for c in q for s in range(self.dims.graph_arity))]
            else:
                outers = [c.partial(s) for c in rho for s in range(self.dims.ambient_arity)]
            self._outers = rho, outers
        return self._outers

    def on_line(self, point: Sequence[int]) -> List[Tuple[List[TruncatedSeries], Matrix]]:
        """v^k(eps p) mod eps^(L+1) and the rows of J v^k(eps p) mod eps^L, at
        the top order L, for k = 0..j (v^0 = 0, with no columns) and the j
        blocks of ``point``: the order-L iterates and Jacobians restricted to
        the line, term for term.

        Forward mode (Griewank & Walther, *Evaluating Derivatives*, 2008),
        one block at a time (``_line_step``), in univariate series only: p is
        real, so conj acts on coefficients.  Each prefix is evaluated once.
        """
        n, N = self.dims.n, self.dims.N
        self._check_cap(len(point))
        steps = [([TruncatedSeries.zero(1, self.top.kappa)] * N, [[]] * N)]
        for k in range(n, len(point) + 1, n):
            key = tuple(point[:k])
            if key not in self._lines:
                self._lines[key] = self._line_step(*steps[-1], point[:k])
            steps.append(self._lines[key])
        return steps

    def _line_step(self, values, rows: Matrix, point: Sequence[int]):
        """v^k and its rows on the line through ``point`` (k blocks) from v^(k-1)'s.

        The w-part of v^k is Q(eps p^k, conj v^(k-1)(eps p)).  A sparse Q is
        composed there with its partials dQ/ds.  Otherwise (a dense graph of
        sparse defining functions) the w-part solves rho(eps p^k, w,
        conj v^(k-1)(eps p)) = 0, which ``lift`` solves from w = 0, and
        dQ/ds = -(drho/dw)^-1 drho/ds; w and that inverse are unique modulo
        their orders, so they are Q's on the line.  The w-rows are dQ/dz on
        block k and dQ/d(ch, ta) times conj J v^(k-1) on the earlier ones.
        """
        dims, n, d, order = self.dims, self.dims.n, self.dims.d, self.top.kappa
        rho, outers = self._line_outers()
        z = [TruncatedSeries(1, order, {(1,): x}) for x in point[-n:]]
        bar = [v.conjugate() for v in values]
        if rho is None:
            images = compose_many(outers, FormalMap([*z, *bar]))
            width = dims.graph_arity
            w, dq = images[:d], [images[d + l * width : d + (l + 1) * width] for l in range(d)]
        else:
            w, x, x_order = lift(rho, dims, order, z, bar[:n], bar[n:])
            images = compose_many(outers, FormalMap([*z, *w, *bar]))
            grid = [images[j * dims.ambient_arity : (j + 1) * dims.ambient_arity] for j in range(d)]
            x, _ = refine(x, x_order, [[row[dims.w(l)] for l in range(d)] for row in grid], order - 1)
            slots = [*range(n), *range(dims.N, dims.ambient_arity)]  # z, ch, ta
            dq = matmul(x, [[-row[s] for s in slots] for row in grid], order - 1)
        zero, one = TruncatedSeries.zero(1, order - 1), TruncatedSeries.constant(1, order - 1, 1)
        earlier = range(len(rows[0]))
        new_rows = [[zero for _ in earlier] + [one if c == i else zero for c in range(n)] for i in range(n)]
        bar_rows = [[entry.conjugate() if entry else entry for entry in row] for row in rows]
        for partials in dq:
            # many dQ/d(ch, ta) vanish identically: each adds only a 0 of order >= order - 1
            live = [(partial, row) for partial, row in zip(partials[n:], bar_rows) if partial]
            chain = [sum((partial * row[c] for partial, row in live if row[c]), zero) for c in earlier]
            new_rows.append(chain + partials[:n])
        return [*z, *w], new_rows

    def v(self, j: int) -> FormalMap:
        """The j-th iterate as a map from j blocks of t-variables into Z-space.

        Both collapse identities hold modulo degree > kappa, as truncation
        commutes with substitution.  Zero first block, v^j(0, t^2..t^j) =
        v^(j-1)(t^2..t^j): by induction from v^0 = 0, as v^1(0) = (0, Q(0)) = 0,
        and v^j(0, t^2..t^j) = (t^j, Q(t^j, conj v^(j-1)(0, t^2..t^(j-1)))),
        where the induction puts conj v^(j-2)(t^2..t^(j-1)).  Reflection, j >=
        3: v^j with t^j -> t^(j-2) is (t^(j-2), Q(t^(j-2), t^(j-1),
        Qbar(t^(j-1), v^(j-2)))), as conj v^(j-1) = (t^(j-1), Qbar(t^(j-1),
        v^(j-2))), and Q(z, ch, Qbar(ch, z, w)) = w (``GraphForm``) at (z, w) =
        v^(j-2), ch = t^(j-1) makes it v^(j-2).
        """
        if j < 1:
            raise SegreError("iterated Segre mappings start at j = 1")
        self._check_cap(j * self.dims.n)
        cached = self._cache.get(j)
        if cached is None:
            n, arity = self.dims.n, j * self.dims.n
            ts = [TruncatedSeries.variable(arity, self.kappa, (j - 1) * n + i) for i in range(n)]
            if j == 1:  # v^0 = 0
                bar = [TruncatedSeries.zero(arity, self.kappa)] * self.dims.N
            else:
                bar = self.v(j - 1).conjugate().extend(arity).components
            q = compose_many(list(self.graph.Q.components), FormalMap([*ts, *bar]))
            cached = self._cache[j] = FormalMap([*ts, *q])
        return cached

    def _check_cap(self, variables: int) -> None:
        if variables > self.var_cap:
            raise VariableCapError(
                f"iterate {variables // self.dims.n} needs {variables} variables, cap is {self.var_cap}"
            )


def iterate(gamma: SegreMapping, j: int) -> FormalMap:
    """v^j; only ``bench/spans.py`` keeps it (ROADMAP item 2)."""
    return gamma.v(j)


def make_T(gamma: SegreMapping, k: int) -> FormalMap:
    """T^k = (v^k, conj v^(k-1), ...); only ``bench/spans.py`` keeps it (ROADMAP item 2)."""
    if k < 1:
        raise SegreError("chain parametrizations start at k = 1")
    components: List[TruncatedSeries] = []
    for s in range(k):
        piece = gamma.v(k - s).extend(k * gamma.dims.n)
        components += (piece.conjugate() if s % 2 else piece).components
    return FormalMap(components)


class ThetaPhi(Record):
    """theta^j and phi^j (None for j = 0), as ``make_theta_phi`` builds them."""

    j: int
    theta: FormalMap
    phi: Optional[FormalMap]


def make_theta_phi(gamma: SegreMapping, j: int) -> ThetaPhi:
    """theta^j and phi^j (``make_phi``); only ``bench/spans.py`` keeps it (ROADMAP item 2)."""
    if j < 0:
        raise SegreError("theta/phi indices start at j = 0")
    dims = gamma.dims
    kappa = gamma.kappa

    if j == 0:
        arity = dims.n
        v1 = gamma.v(1)
        zeros = [TruncatedSeries.zero(arity, kappa) for _ in range(dims.N)]
        theta = FormalMap([*v1.components, *zeros])
    else:
        arity = (j + 1) * dims.n
        shift_components = [
            TruncatedSeries.variable(arity, kappa, index) for index in range(j * dims.n)
        ]
        for i in range(dims.n):
            last = TruncatedSeries.variable(arity, kappa, j * dims.n + i)
            if j >= 2:
                last = last + TruncatedSeries.variable(arity, kappa, (j - 2) * dims.n + i)
            shift_components.append(last)
        first = compose_many(list(gamma.v(j + 1).components), FormalMap(shift_components))
        second = gamma.v(j).conjugate().extend(arity)
        theta = FormalMap([*first, *second.components])
    return ThetaPhi(j, theta, make_phi(gamma, j) if j >= 1 else None)


def make_phi(gamma: SegreMapping, j: int) -> FormalMap:
    """phi^j = (v^(j-1), conj v^j), v^0 = 0, on j blocks of t-variables.

    Nothing is checked: the load's reality gate, as Q(z, ch, Qbar(ch, z, w))
    = w and, conjugated, rho(z, w, ch, Qbar(ch, z, w)) = 0 (``GraphForm``),
    taken at (z, w) = v^(j-1) and ch = t^j, where conj v^j = (t^j, Qbar(t^j,
    v^(j-1))), says that phi^j is theta^j with a zero last block (v^(j+1)
    with t^(j+1) -> t^(j-1), or 0 if j = 1, is v^(j-1)) and maps into M.
    theta^j maps into M by ``solve_graph``'s identity: rho(v^(j+1), conj
    v^j) is rho(z, Q, ch, ta) at (t^(j+1), conj v^j).
    """
    n, N = gamma.dims.n, gamma.dims.N
    head = gamma.v(j - 1).extend(j * n) if j > 1 else [TruncatedSeries.zero(j * n, gamma.kappa)] * N
    return FormalMap([*head, *gamma.v(j).conjugate()])


def pushforward_residuals(
    gamma: SegreMapping,
    theta_phis: List[ThetaPhi],
    fields_l: List[FormalVectorField],
    fields_lt: List[FormalVectorField],
) -> List[List[List[TruncatedSeries]]]:
    """The pushforward identities' residuals; only ``bench/spans.py`` keeps it (ROADMAP item 2)."""
    n = gamma.dims.n
    out = []
    for theta_phi in theta_phis:
        residuals: List[List[TruncatedSeries]] = [[] for _ in range(gamma.dims.ambient_arity)]
        pairs = [(theta_phi.theta, theta_phi.j, fields_lt)]
        if theta_phi.phi is not None:
            pairs.append((theta_phi.phi, theta_phi.j - 1, fields_l))
        for mapping, block, fields in pairs:
            order = mapping.kappa
            batch = [field.coefficients[slot] for field in fields for slot in sorted(field.coefficients)]
            images = iter(compose_many(batch, mapping))
            for l, field in enumerate(fields):
                for slot, (own, component) in enumerate(zip(residuals, mapping.components)):
                    lhs = component.partial(block * n + l)
                    lhs = lhs.truncate(min(lhs.kappa, field.valid_order, order))
                    own.append(lhs - next(images) if slot in field.coefficients else lhs)
        out.append(residuals)
    return out
