"""Formal vector fields, Lie brackets, and the CR Lie-hull dimension.

A formal vector field on the ambient 2N-variable ring is stored by its
nonzero slots, as a series stores its nonzero terms: a dict from each slot
to its truncated coefficient series, plus the order to which the field is
valid.  A CR basis field has at most d + 1 nonzero slots, so ``apply`` and
``bracket`` walk the support, not all 2N slots.  The tangent basis attached
to a manifold in graph form consists of n fields along the conjugate
directions and n along the holomorphic directions; iterated brackets of
these, evaluated at the origin, span the same space as the full Lie algebra
generated by all tangent fields of the two types, because multiplying a
field by a series only rescales its value at 0.

Both spans of the closure are ``linalg.Echelon``s: the values at 0, keyed by
slot, give the hull dimension, and the fields themselves, keyed by
(degree, exponent, slot), prune every word that is a constant-linear
combination of the words already kept.

Every bracket costs one order of truncation, so a word of length k in fields
valid to order kappa - 1 is valid to order kappa - k; the reported hull
dimension is therefore a certified lower bound with an explicit stability
flag rather than a completeness claim.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .expressions import GenericManifold
from .linalg import Echelon
from .record import Record
from .series import ZERO, FormalMap, GaussianRational, TruncatedSeries


class FormalVectorField(Record):
    """A derivation of the truncated series ring, valid to order ``valid_order``:
    the sum of c * d/dx_slot over the items of ``coefficients``, which maps
    each slot in range(arity) to its nonzero coefficient c.  An absent slot
    is zero."""

    arity: int
    valid_order: int
    coefficients: Dict[int, TruncatedSeries]

    def __post_init__(self) -> None:
        for slot, coeff in self.coefficients.items():
            if not 0 <= slot < self.arity:
                raise ValueError(f"slot {slot} out of range for arity {self.arity}")
            if coeff.arity != self.arity:
                raise ValueError("coefficient arities must equal the ambient arity")
            if not coeff:
                raise ValueError(f"slot {slot} holds a zero coefficient; leave it out")

    def apply(self, f: TruncatedSeries) -> TruncatedSeries:
        """X(f) = sum coeff_i * df/dx_i, valid to min(valid_order, f.kappa - 1)."""
        if f.arity != self.arity:
            raise ValueError("series arity does not match the field")
        out = TruncatedSeries.zero(self.arity, min(self.valid_order, f.kappa - 1))
        for slot, coeff in self.coefficients.items():
            derivative = f.partial(slot)
            if derivative:
                out = out + coeff * derivative
        return out

    def evaluate_at_origin(self) -> Tuple[GaussianRational, ...]:
        return tuple(
            self.coefficients[slot].constant_term() if slot in self.coefficients else ZERO
            for slot in range(self.arity)
        )


def bracket(x: FormalVectorField, y: FormalVectorField) -> FormalVectorField:
    """Commutator [X, Y] on the union of the two supports, valid one order
    below the lower of its arguments."""
    if x.arity != y.arity:
        raise ValueError("bracket of fields with different ambient arities")
    # an absent slot reads as a zero series that truncates nothing below the result's order
    zero = TruncatedSeries.zero(x.arity, max(x.valid_order, y.valid_order) + 1)
    coefficients = {}
    for slot in sorted(x.coefficients.keys() | y.coefficients.keys()):
        coeff = x.apply(y.coefficients.get(slot, zero)) - y.apply(x.coefficients.get(slot, zero))
        if coeff:
            coefficients[slot] = coeff
    return FormalVectorField(x.arity, min(x.valid_order, y.valid_order) - 1, coefficients)


CRBasis = Tuple[List[FormalVectorField], List[FormalVectorField]]


def cr_basis(manifold: GenericManifold) -> CRBasis:
    """The tangent basis (L_1..L_n, Lt_1..Lt_n) attached to the graph form.

        L_j  = d/dch_j + sum_l dQbar_l/dch_j (ch, z, w) d/dta_l
        Lt_j = d/dz_j  + sum_l dQ_l/dz_j (z, ch, ta)  d/dw_l

    Every field is tangent: X(rho_l)(z, Q, ch, ta) = 0 modulo degree >
    kappa - 1, for each defining function rho_l, by the two identities that
    the load proves at its top order.  Lt_j(rho_l) at w = Q is d/dz_j of
    ``solve_graph``'s rho(z, Q(z, ch, ta), ch, ta) = 0, by the chain rule.
    The reality gate, conjugated, gives rho(z, w, ch, Qbar(ch, z, w)) = 0;
    its d/dch_j is L_j(rho_l) at ta = Qbar(ch, z, w), and Qbar(ch, z,
    Q(z, ch, ta)) = ta puts that point at w = Q.  A derivative costs one
    order, hence kappa - 1.
    """
    dims = manifold.dims
    graph = manifold.graph
    arity = dims.ambient_arity
    kappa = manifold.kappa
    q_amb = graph.q_ambient()
    qbar_amb = graph.qbar_ambient()

    def basis_field(slot: int, q: FormalMap, target: Callable[[int], int]) -> FormalVectorField:
        """d/dx_slot + sum_l dq_l/dx_slot d/dx_target(l)."""
        coefficients = {slot: TruncatedSeries.constant(arity, kappa - 1, 1)}
        for l in range(dims.d):
            coeff = q.component(l).partial(slot)
            if coeff:
                coefficients[target(l)] = coeff
        return FormalVectorField(arity, kappa - 1, coefficients)

    fields_l = [basis_field(dims.ch(j), qbar_amb, dims.ta) for j in range(dims.n)]
    fields_lt = [basis_field(dims.z(j), q_amb, dims.w) for j in range(dims.n)]
    return fields_l, fields_lt


class LieHullReport(Record):
    """Certified lower bound on the dimension of the tangent Lie hull at 0."""

    dim_g0: int
    bracket_depth_used: int
    basis_witnesses: Tuple[Tuple[str, Tuple[GaussianRational, ...]], ...]
    stable: bool
    cap: int

    def finite_type(self) -> bool:
        return self.dim_g0 == self.cap


def lie_hull_dimension(manifold: GenericManifold, basis: CRBasis, max_depth: int) -> LieHullReport:
    """Breadth-first closure over left-normed bracket words of ``basis``, the
    manifold's ``cr_basis``.

    Words are explored by length; each new word is reduced against the span
    of all previously kept words (over constants) and dropped if dependent.
    The search stops early once the evaluations at 0 span the full tangent
    dimension 2N - d, or when no new word survives.  The span never passes
    that cap: depth 1 absorbs at most 2n <= 2N - d values, and every later
    absorb stops the closure at the cap.
    """
    dims = manifold.dims
    cap = 2 * dims.N - dims.d
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    depth = min(max_depth, manifold.kappa)

    fields_l, fields_lt = basis
    generators = [(f"L{j + 1}", f) for j, f in enumerate(fields_l)]
    generators += [(f"Lt{j + 1}", f) for j, f in enumerate(fields_lt)]

    values = Echelon()  # keyed by slot
    field_span = Echelon()  # keyed by (degree, exponent, slot): graded-lex least pivots
    witnesses: List[Tuple[str, Tuple[GaussianRational, ...]]] = []
    frontier: List[Tuple[str, FormalVectorField]] = []
    grew_last = False

    def kept(field: FormalVectorField) -> bool:
        """Reduce mod the kept words at the field's own order; True if independent.

        Dropping a constant-linear combination of kept words never loses
        evaluation span at any visible truncation order.
        """
        vec = {
            (sum(exp), exp, slot): value
            for slot, coeff in field.coefficients.items()
            for exp, value in coeff.terms.items()
        }
        rest = field_span.reduce(vec)
        order = field.valid_order
        # dropping keys keeps a remainder 0 at every pivot
        return field_span.push({key: value for key, value in rest.items() if key[0] <= order})

    def absorb(name: str, field: FormalVectorField) -> bool:
        value = field.evaluate_at_origin()
        if values.add(dict(enumerate(value))):
            witnesses.append((name, value))
            return True
        return False

    for name, field in generators:
        if kept(field):
            frontier.append((name, field))
            grew_last = absorb(name, field) or grew_last
    depth_used = 1

    for current_depth in range(2, depth + 1):
        if len(values) >= cap or not frontier:
            break
        grew_last = False
        next_frontier: List[Tuple[str, FormalVectorField]] = []
        for gen_name, gen_field in generators:
            for word_name, word_field in frontier:
                candidate = bracket(gen_field, word_field)
                if not kept(candidate):
                    continue
                name = f"[{gen_name},{word_name}]"
                next_frontier.append((name, candidate))
                if absorb(name, candidate):
                    grew_last = True
                    if len(values) >= cap:
                        break
            if len(values) >= cap:
                break
        frontier = next_frontier
        depth_used = current_depth

    stable = len(values) >= cap or not frontier or not grew_last
    return LieHullReport(
        dim_g0=len(values),
        bracket_depth_used=depth_used,
        basis_witnesses=tuple(witnesses),
        stable=stable,
        cap=cap,
    )
