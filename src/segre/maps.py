"""Iterated Segre mappings and their companion parametrizations.

Everything here uses the graph-special convention: the Segre map sends
(zeta, t) to (t, Q(t, zeta)), so the z-part of the j-th iterate is the last
block of t-variables.  Iterates are built by exact truncated composition of
Q (``GraphForm.q_of``),

    v^1(t^1)              = (t^1, Q(t^1, 0))
    v^(j+1)(t^1..t^(j+1)) = (t^(j+1), Q(t^(j+1), conj(v^j)(t^1..t^j))),

where conj conjugates coefficients only.  Two collapse identities pin the
argument convention: setting the first block to zero drops the iterate by
one, and identifying the last block with the (j-2)-nd drops it by two.
``iterate`` checks them, and ``verify_all`` calls it for j <= 2 k0;
``SegreMapping.v`` never does.  The same recursion, run on one line
x = eps * p in univariate series, gives the iterates and their Jacobian rows
at any order up to the manifold's top from the graph or the defining
functions at that order (``SegreMapping.on_line``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .coords import Dims
from .errors import InternalConsistencyError, SegreError
from .expressions import GenericManifold
from .implicit import GraphForm, lift, matmul, refine
from .record import Record
from .series import FormalMap, TruncatedSeries, compose_many, on_line

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
    composing Q; their z-part is the last t-block, written as such.  Any
    order L up to the manifold's top is read on lines (``on_line``) from them
    and Q or rho at L, the truncations of its top form.
    """

    def __init__(self, manifold: GenericManifold):
        dims = manifold.dims
        self.dims = dims
        self.manifold = manifold
        self.graph: GraphForm = manifold.graph
        self.kappa = manifold.kappa
        self.var_cap = default_var_cap(dims)
        self._cache: Dict[int, FormalMap] = {}
        self._theta_phi: Dict[int, ThetaPhi] = {}
        self._phi: Dict[int, FormalMap] = {}
        self._orders: Dict[int, tuple] = {}
        self._lines: Dict[Tuple[int, Tuple[int, ...]], tuple] = {}

    def theta_phi(self, j: int) -> "ThetaPhi":
        """The theta/phi pair of index j at this order, made once."""
        pair = self._theta_phi.get(j)
        if pair is None:
            pair = self._theta_phi[j] = make_theta_phi(self, j)
        return pair

    def phi(self, j: int) -> FormalMap:
        """phi^j at this order, made once; it maps into M by the load's gates (``make_phi``)."""
        phi = self._phi.get(j)
        if phi is None:
            phi = self._phi[j] = make_phi(self, j)
        return phi

    def _outers_at(self, level: int) -> tuple:
        """What ``on_line`` composes at order ``level``: None with Q and its
        partials when Q has no more terms than rho, else rho with its partials.

        Q and rho are the manifold's at order ``level``, truncated from its
        top form (``GenericManifold.at_kappa``).
        """
        if level not in self._orders:
            at = self.manifold.at_kappa(level)
            q, rho = at.graph.Q, at.rho
            if sum(len(c.terms) for c in q) <= sum(len(c.terms) for c in rho):
                rho, outers = None, [*q, *(c.partial(s) for c in q for s in range(self.dims.graph_arity))]
            else:
                outers = [c.partial(s) for c in rho for s in range(self.dims.ambient_arity)]
            self._orders[level] = rho, outers
        return self._orders[level]

    def on_line(self, point: Sequence[int], level: int) -> List[Tuple[List[TruncatedSeries], Matrix]]:
        """v^k(eps p) mod eps^(L+1) and the rows of J v^k(eps p) mod eps^L, at
        order L = ``level``, for k = 0..j (v^0 = 0, with no columns) and the
        j blocks of ``point``: the order-L iterates and Jacobians restricted
        to the line, term for term.

        Forward mode (Griewank & Walther, *Evaluating Derivatives*, 2008),
        one block at a time (``_line_step``), in univariate series only: p is
        real, so conj acts on coefficients.  Each prefix is evaluated once.
        """
        n, N = self.dims.n, self.dims.N
        self._check_cap(len(point))
        steps = [([TruncatedSeries.zero(1, level)] * N, [[]] * N)]
        for k in range(n, len(point) + 1, n):
            key = (level, tuple(point[:k]))
            if key not in self._lines:
                self._lines[key] = self._line_step(*steps[-1], point[:k], level)
            steps.append(self._lines[key])
        return steps

    def _line_step(self, values, rows: Matrix, point: Sequence[int], level: int):
        """v^k and its rows on the line through ``point`` (k blocks) from v^(k-1)'s.

        The w-part of v^k is Q(eps p^k, conj v^(k-1)(eps p)).  A sparse Q is
        composed there with its partials dQ/ds.  Otherwise (a dense graph of
        sparse defining functions) the w-part solves rho(eps p^k, w,
        conj v^(k-1)(eps p)) = 0, which ``lift`` takes on from the
        multivariate v^k at kappa, and dQ/ds = -(drho/dw)^-1 drho/ds.  The
        w-rows are dQ/dz on block k and dQ/d(ch, ta) times conj J v^(k-1) on
        the earlier ones.
        """
        dims, n, d = self.dims, self.dims.n, self.dims.d
        rho, outers = self._outers_at(level)
        z = [TruncatedSeries(1, level, {(1,): x}) for x in point[-n:]]
        bar = [v.conjugate() for v in values]
        if rho is None:
            images = compose_many(outers, FormalMap([*z, *bar]))
            width = dims.graph_arity
            w, dq = images[:d], [images[d + l * width : d + (l + 1) * width] for l in range(d)]
        else:
            valid = min(self.kappa, level)
            seed = on_line(self.v(len(point) // n).components[n:], point, valid)
            w, x, x_order = lift(rho, dims, level, z, bar[:n], bar[n:], seed, valid)
            images = compose_many(outers, FormalMap([*z, *w, *bar]))
            grid = [images[j * dims.ambient_arity : (j + 1) * dims.ambient_arity] for j in range(d)]
            x, _ = refine(x, x_order, [[row[dims.w(l)] for l in range(d)] for row in grid], level - 1)
            slots = [*range(n), *range(dims.N, dims.ambient_arity)]  # z, ch, ta
            dq = matmul(x, [[-row[s] for s in slots] for row in grid], level - 1)
        zero, one = TruncatedSeries.zero(1, level - 1), TruncatedSeries.constant(1, level - 1, 1)
        earlier = range(len(rows[0]))
        new_rows = [[zero for _ in earlier] + [one if c == i else zero for c in range(n)] for i in range(n)]
        bar_rows = [[entry.conjugate() if entry else entry for entry in row] for row in rows]
        for partials in dq:
            # many dQ/d(ch, ta) vanish identically: each adds only a 0 of order >= level - 1
            live = [(partial, row) for partial, row in zip(partials[n:], bar_rows) if partial]
            chain = [sum((partial * row[c] for partial, row in live if row[c]), zero) for c in earlier]
            new_rows.append(chain + partials[:n])
        return [*z, *w], new_rows

    def v(self, j: int) -> FormalMap:
        """The j-th iterate as a map from j blocks of t-variables into Z-space."""
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
            cached = self._cache[j] = FormalMap([*ts, *self.graph.q_of(ts, bar[:n], bar[n:])])
        return cached

    def _check_cap(self, variables: int) -> None:
        if variables > self.var_cap:
            raise VariableCapError(
                f"iterate {variables // self.dims.n} needs {variables} variables, cap is {self.var_cap}"
            )


def iterate(gamma: SegreMapping, j: int) -> FormalMap:
    """v^j, with its collapse identities verified exactly.

    Checks, as series identities modulo truncation: killing the first block
    drops the iterate by one, and identifying the last block with block j-2
    drops it by two.  The z-part needs no check: ``SegreMapping.v`` writes
    the last block of variables there.
    """
    dims = gamma.dims
    mapping = gamma.v(j)
    if j >= 2:
        collapsed = mapping.map_vars(
            (j - 1) * dims.n,
            _assignment_drop_first(dims.n, j),
        )
        if not collapsed.equals_mod(gamma.v(j - 1)):
            raise InternalConsistencyError("zero-first-block collapse identity failed")
    if j >= 3:
        reflected = mapping.map_vars(
            (j - 1) * dims.n,
            _assignment_fold_last(dims.n, j),
        )
        if not reflected.equals_mod(gamma.v(j - 2).extend((j - 1) * dims.n)):
            raise InternalConsistencyError("reflection collapse identity failed")
    return mapping


def _assignment_drop_first(n: int, j: int) -> List[Optional[int]]:
    """t^1 -> 0, t^b -> t^(b-1): source j blocks, target j-1 blocks."""
    assignment: List[Optional[int]] = [None] * n
    for b in range(1, j):
        assignment.extend(range((b - 1) * n, b * n))
    return assignment

def _assignment_fold_last(n: int, j: int) -> List[Optional[int]]:
    """t^j -> t^(j-2), other blocks fixed: source j blocks, target j-1 blocks."""
    assignment: List[Optional[int]] = []
    for b in range(1, j):
        assignment.extend(range((b - 1) * n, b * n))
    assignment.extend(range((j - 3) * n, (j - 2) * n))
    return assignment


def chain_generator_pairs(k: int) -> Tuple[Tuple[Optional[int], Optional[int]], ...]:
    """The (Z-side, zeta-side) chain-slot pairs receiving the defining
    functions along the k-fold chain; None is the zero slot closing the chain."""
    pairs: List[Tuple[Optional[int], Optional[int]]] = [(0, 1 if k > 1 else None)]
    for g in range(1, k):
        a = 2 * ((g + 1) // 2)
        b = 2 * (g // 2) + 1
        pairs.append((a if a < k else None, b if b < k else None))
    return tuple(pairs)


def make_T(gamma: SegreMapping, k: int) -> FormalMap:
    """T^k = (v^k, conj v^(k-1), v^(k-2), ...), verified to parametrize the chain.

    The map sends k blocks of t-variables to k Z-sized slots, and every pair
    of ``chain_generator_pairs(k)`` is verified to annihilate under it.  Its
    Jacobian at 0 has full rank k*n by construction: the z-part of slot s is
    the t-block k - s, so the z-parts hold an identity block.
    """
    if k < 1:
        raise SegreError("chain parametrizations start at k = 1")
    dims = gamma.dims
    arity = k * dims.n
    slots: List[FormalMap] = []
    for s in range(k):
        piece = gamma.v(k - s).extend(arity)
        if s % 2 == 1:
            piece = piece.conjugate()
        slots.append(piece)
    zero_block = [TruncatedSeries.zero(arity, gamma.kappa) for _ in range(dims.N)]
    for a, b in chain_generator_pairs(k):
        z_side = list(slots[a].components) if a is not None else zero_block
        zeta_side = list(slots[b].components) if b is not None else zero_block
        inner = FormalMap([*z_side, *zeta_side])
        for image in compose_many(list(gamma.manifold.rho.components), inner):
            if not image.is_zero():
                raise InternalConsistencyError(
                    f"chain generator pair {(a, b)} does not annihilate under T^{k}"
                )
    return FormalMap([c for piece in slots for c in piece.components])


class ThetaPhi(Record):
    """The paired mappings into the manifold used for orbit rank bookkeeping.

    theta has j+1 source blocks and 2N components; phi has j source blocks
    (absent for j = 0).  Both map into the manifold, and for j >= 1 theta
    restricted to a zero last block equals phi, by the load's gates (``make_phi``).
    """

    j: int
    theta: FormalMap
    phi: Optional[FormalMap]


def make_theta_phi(gamma: SegreMapping, j: int) -> ThetaPhi:
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
        first = gamma.v(j + 1).compose(FormalMap(shift_components))
        second = gamma.v(j).conjugate().extend(arity)
        theta = FormalMap([*first.components, *second.components])
    return ThetaPhi(j, theta, gamma.phi(j) if j >= 1 else None)


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
    """Residuals of the pushforward identities d/dt_l (f o theta) = (Lt_l f) o theta
    along theta's last block, and the same for phi with L_l, for the 2N
    coordinate functions x_i: d/dt_l theta_i - c_(l,i) o theta, where c_(l,i)
    is the field's coefficient of d/dx_i, each valid to the field's order.

    The check is complete: by the chain rule the residual for any f is
    sum_i (d_i f o theta) (d/dt_l theta_i - c_(l,i) o theta), so the identity
    holds for every f modulo the shared order once these vanish.  Each map
    composes only the fields' stored (nonzero) coefficients, in slot order,
    in one ``compose_many``; an absent slot leaves the partial alone (a
    Levi-flat field has one).  Returns, for each pair in ``theta_phis``, one
    residual list per coordinate, theta's directions before phi's.
    """
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
