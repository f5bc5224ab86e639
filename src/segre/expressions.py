"""Parsing of polynomial expressions and manifold definition files.

This is the only ingestion path of the engine.  The grammar covers integers,
the imaginary unit ``i``, named variables, ``+ - * / ^`` with the usual
precedence, unary minus, and parentheses; ``/`` is restricted to nonzero
constant divisors and ``^`` to nonnegative integer literal exponents, so
every expression denotes an exact polynomial.

Manifold files are JSON objects

    {"N": int, "d": int, "form": "graph" | "rho",
     "expressions": [str, ...], "split": [int, ...]?}

with graph-form expressions in the variables z1..zn, ch1..chn, ta1..tad and
rho-form expressions in Z1..ZN, ze1..zeN.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import linalg
from .config import top_order
from .coords import Dims
from .errors import GenericityError, ManifoldError, RealityError, SplitError
from .implicit import GraphForm, check_reality, solve_graph
from .record import Record
from .series import (
    FormalMap,
    GaussianRational,
    TruncatedSeries,
    I,
    linear_part,
)


class ParseError(ManifoldError):
    """Syntax or lookup failure while parsing an expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# tokenizer + recursive descent parser
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")

MAX_NESTING = 100
"""Deepest nesting of parentheses and unary minus the parser accepts; each
level costs the recursive-descent parser at most five stack frames."""


MAX_POWER_BITS = 16384
"""Largest bit size the parser lets a power with a nonzero constant term
reach, a little above the 14,284 bits of the longest integer literal the
interpreter converts (4300 digits).  Both parts of the estimate are bounds:
c^e from the integer triple of the constant c (``power_bits``), and
kappa * bitlen(e) for the binomial factors C(e, k) <= e^k of the terms of
degree k <= kappa."""

MAX_N = 64
"""Largest ambient dimension N a manifold file may declare, refused at load
before any variable is named.  On a Levi-flat N = 64 graph a fresh process
of ``segre rank`` takes about 0.15 s, ``orbit`` 0.5 s and ``verify`` 0.6 s
(medians of 5, Python 3.11.7, shared 2-core host); the kernel searches of
``orbit`` and ``verify`` cap the monomials of each degree they enter
instead (``orbit.MAX_MONOMIALS``)."""


# the ASCII digits alone: str.isdigit admits every Unicode digit, and int()
# reads some of them (Arabic-Indic, fullwidth) as values
_DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> List[Tuple[str, Union[int, str], int]]:
    tokens: List[Tuple[str, Union[int, str], int]] = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _DIGITS:
            start = pos
            while pos < size and text[pos] in _DIGITS:
                pos += 1
            try:
                value = int(text[start:pos])
            except ValueError:  # longer than the interpreter's integer string limit
                raise ParseError(f"integer literal of {pos - start} digits is too long", start) from None
            tokens.append(("int", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < size and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    def __init__(self, tokens, table: Dict[str, int], arity: int, kappa: int):
        self.tokens = tokens
        self.index = 0
        self.table = table
        self.arity = arity
        self.kappa = kappa
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        return self.advance()

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", pos)

    def parse(self) -> TruncatedSeries:
        result = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input after expression", pos)
        return result

    def expr(self) -> TruncatedSeries:
        left = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                left = left + right if value == "+" else left - right
            else:
                return left

    def term(self) -> TruncatedSeries:
        left = self.unary()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right = self.unary()
                if value == "*":
                    left = left * right
                else:
                    divisor = right.constant_term()
                    if any(sum(e) > 0 for e in right.terms):
                        raise ParseError("division only by a nonzero constant", pos)
                    if not divisor:
                        raise ParseError("division by zero", pos)
                    left = left.scale(divisor.inverse())
            else:
                return left

    def unary(self) -> TruncatedSeries:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            self.nest(pos)
            operand = self.unary()
            self.depth -= 1
            return -operand
        return self.power()

    def power(self) -> TruncatedSeries:
        base = self.atom()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                kind, exponent, epos = self.peek()
                if kind != "int":
                    raise ParseError("exponent must be a nonnegative integer literal", epos)
                self.advance()
                constant = base.constant_term()
                if constant:
                    bits = constant.power_bits(exponent) + self.kappa * exponent.bit_length()
                    if bits > MAX_POWER_BITS:
                        raise ParseError(
                            f"power of about {bits} bits exceeds the cap MAX_POWER_BITS = {MAX_POWER_BITS}", pos
                        )
                base = base.power(exponent)
            else:
                return base

    def atom(self) -> TruncatedSeries:
        kind, value, pos = self.advance()
        if kind == "int":
            return TruncatedSeries.constant(self.arity, self.kappa, GaussianRational(value))
        if kind == "ident":
            if value == "i":
                return TruncatedSeries.constant(self.arity, self.kappa, I)
            index = self.table.get(value)
            if index is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            return TruncatedSeries.variable(self.arity, self.kappa, index)
        if kind == "op" and value == "(":
            self.nest(pos)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def variable_table(names: Sequence[str]) -> Dict[str, int]:
    table = {name: index for index, name in enumerate(names)}
    if "i" in table:
        raise ValueError("'i' is reserved for the imaginary unit")
    return table


def parse_expression(
    text: str,
    table: Union[Dict[str, int], Sequence[str]],
    kappa: int,
    arity: Optional[int] = None,
) -> TruncatedSeries:
    """Parse a polynomial expression into an exact truncated series.

    ``table`` maps variable names to slot indices (or is a name list in slot
    order); ``arity`` defaults to the number of table entries.
    """
    if not isinstance(table, dict):
        table = variable_table(table)
    if arity is None:
        arity = (max(table.values()) + 1) if table else 0
    parser = _Parser(_tokenize(text), table, arity, kappa)
    return parser.parse()


# ---------------------------------------------------------------------------
# manifold specifications and loading
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer; JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


class ManifoldSpec(Record):
    """A manifold definition file: dimensions, form, and defining expressions."""

    N: int
    d: int
    form: str
    expressions: Tuple[str, ...]
    split: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.N > MAX_N:
            raise ManifoldError(f"N = {self.N} exceeds the cap MAX_N = {MAX_N}")
        if self.d < 1 or self.N <= self.d:
            raise ManifoldError(f"need N > d >= 1, got N={self.N}, d={self.d}")
        if self.form not in ("graph", "rho"):
            raise ManifoldError(f"form must be 'graph' or 'rho', got {self.form!r}")
        if len(self.expressions) != self.d:
            raise ManifoldError(f"need exactly d={self.d} expressions, got {len(self.expressions)}")
        if self.split is not None:
            if self.form != "rho":
                raise ManifoldError("a split declaration only applies to rho form")
            distinct = len(self.split) == len(set(self.split)) == self.d
            if not distinct or not all(0 <= c < self.N for c in self.split):
                raise ManifoldError("split must list d distinct Z-coordinate indices")

    @staticmethod
    def from_json(data: dict) -> "ManifoldSpec":
        if not isinstance(data, dict):
            raise ManifoldError(f"malformed manifold file: expected a JSON object, got {type(data).__name__}")
        try:
            N, d, form, expressions = data["N"], data["d"], data["form"], data["expressions"]
        except KeyError as exc:
            raise ManifoldError(f"malformed manifold file: {exc}") from exc
        split = data.get("split")
        for name, value in (("N", N), ("d", d)):
            if not _is_integer(value):
                raise ManifoldError(f"malformed manifold file: {name} must be an integer, got {type(value).__name__}")
        if not (isinstance(expressions, list) and all(isinstance(e, str) for e in expressions)):
            raise ManifoldError("malformed manifold file: expressions must be a list of strings")
        if split is not None and not (isinstance(split, list) and all(_is_integer(c) for c in split)):
            raise ManifoldError("malformed manifold file: split must be a list of integers")
        return ManifoldSpec(
            N=N,
            d=d,
            form=str(form),
            expressions=tuple(expressions),
            split=tuple(split) if split is not None else None,
        )

    @staticmethod
    def from_file(path: Union[str, Path]) -> "ManifoldSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        # ValueError covers bad JSON, bad UTF-8 and an integer past the interpreter's digit limit
        except (OSError, RecursionError, ValueError) as exc:
            raise ManifoldError(f"cannot read manifold file {path}: {exc}") from exc
        return ManifoldSpec.from_json(data)


class GenericManifold(Record):
    """A loaded formal generic manifold in solved graph coordinates.

    Carries both the graph form (Q, Qbar) and the canonical defining
    functions rho = w - Q in the ambient ring, both exactly at order
    ``kappa``; ``w_columns`` records which raw Z-coordinates were renamed to
    w (the identity split for graph-form input).  ``top`` is the same
    manifold at the top order ``top_order(kappa)``, the one order its
    input was parsed, solved and checked for reality at (None on that
    manifold itself).
    """

    dims: Dims
    kappa: int
    graph: GraphForm
    rho: FormalMap
    w_columns: Tuple[int, ...]
    top: Optional["GenericManifold"]
    label: str = "manifold"

    @property
    def N(self) -> int:
        return self.dims.N

    @property
    def d(self) -> int:
        return self.dims.d

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def Q(self) -> FormalMap:
        return self.graph.Q

    def at_kappa(self, kappa: int) -> "GenericManifold":
        """The same manifold at order ``kappa``: Q and rho of the top form
        truncated, which is term for term what a load at ``kappa`` builds
        (truncation is a ring homomorphism, and the solved graph is unique
        modulo degree > kappa).  No order above the top is kept."""
        top = self.top or self
        if kappa == self.kappa:
            return self
        if kappa == top.kappa:
            return top
        if kappa > top.kappa:
            raise ValueError(f"order {kappa} is above the top order {top.kappa}")
        graph = GraphForm(self.dims, top.Q.truncate(kappa))
        return top.replace(kappa=kappa, graph=graph, rho=top.rho.truncate(kappa), top=top)

    def describe(self) -> str:
        return f"{self.label}: N={self.N} d={self.d} n={self.n} kappa={self.kappa}"


def _finish_load(
    dims: Dims,
    graph: GraphForm,
    rho: FormalMap,
    kappa: int,
    w_columns: Tuple[int, ...],
    label: str,
    memo: Optional[dict] = None,
) -> GenericManifold:
    """The manifold at ``kappa``, truncated from ``graph`` and ``rho`` at the
    top order after the reality gate there, the one order every certificate
    of a run reads (reality at the top holds at every lower order, since
    truncation is a ring homomorphism).

    Genericity needs no check here: a graph's rho = w - Q has an identity
    w-differential, and ``manifold_from_rho_series`` checked the rank of the
    Z-differentials before it solved for the graph.  ``memo`` carries the
    products of ``solve_graph``'s check over w -> Q into the reality check.
    """
    ok, witness = check_reality(graph, rho, memo)
    if not ok:
        raise RealityError(f"defining ideal is not real: reality identity fails at {witness}", witness or "")
    return GenericManifold(dims, graph.valid_order, graph, rho, w_columns, None, label).at_kappa(kappa)


def manifold_from_graph_series(
    dims: Dims,
    q_components: Sequence[TruncatedSeries],
    kappa: int,
    label: str = "manifold",
) -> GenericManifold:
    """Build a manifold at ``kappa`` from already-parsed graph components
    Q_l(z, ch, ta), read at the top order ``top_order(kappa)``."""
    top = top_order(kappa)
    comps = []
    for q in q_components:
        if q.arity != dims.graph_arity:
            raise ManifoldError("graph components must live in the (z, ch, ta) ring")
        if q.constant_term():
            raise ManifoldError("the manifold must pass through the origin (Q has a constant term)")
        comps.append(q.with_order(top))
    graph = GraphForm(dims, FormalMap(comps))
    return _finish_load(dims, graph, graph.rho(), kappa, tuple(range(dims.n, dims.N)), label)


def manifold_from_rho_series(
    dims: Dims,
    raw_components: Sequence[TruncatedSeries],
    kappa: int,
    split: Optional[Sequence[int]] = None,
    label: str = "manifold",
) -> GenericManifold:
    """Build a manifold at ``kappa`` from defining functions in the raw (Z, ze)
    ring, read and solved for the graph at the top order ``top_order(kappa)``.

    One elimination of the Z-differential at 0 decides genericity (rank d)
    and, when no ``split`` is declared, gives the w-columns: its pivot
    columns, the greedy column basis, which is the lexicographically first
    set of d columns with an invertible minor (Edmonds 1971).  A declared
    split has its own minor checked."""
    top = top_order(kappa)
    raw = []
    for component in raw_components:
        if component.arity != dims.ambient_arity:
            raise ManifoldError("rho components must live in the 2N-variable (Z, ze) ring")
        if component.constant_term():
            raise ManifoldError("the manifold must pass through the origin (rho has a constant term)")
        raw.append(component.with_order(top))
    linear = linear_part(raw, range(dims.N))
    rank, _, pivots = linalg.rank_with_pivots(linear)
    if rank != dims.d:
        raise GenericityError("rank of the Z-differentials at 0 is below d")
    if split is not None:
        w_columns = tuple(sorted(int(c) for c in split))
        minor = [[linear[j][c] for c in w_columns] for j in range(dims.d)]
        if linalg.rank(minor) != dims.d:
            raise SplitError("declared split does not give an invertible w-differential")
    else:
        w_columns = tuple(pivots)
    assignment = dims.raw_to_ambient(w_columns)
    rho = FormalMap([component.map_vars(dims.ambient_arity, assignment) for component in raw])
    memo: dict = {}  # one set of products over w -> Q for both checks
    return _finish_load(dims, solve_graph(rho, dims, top, memo), rho, kappa, w_columns, label, memo)


def load_manifold(spec: ManifoldSpec, kappa: int, label: str = "manifold") -> GenericManifold:
    """Parse a manifold specification once, at the top order
    ``top_order(kappa)``, and build it by its graph or rho route.

    Raises GenericityError, RealityError, SplitError, or ParseError with the
    offending detail, each judged at the top order (the power cap too); the
    manifold returned at ``kappa`` has rank-d Z-differentials, mutually
    consistent graph and rho generators and an ideal that is real up to the
    top order.  It keeps no spec: an order above its top needs a new load.
    """
    dims = Dims(spec.N, spec.d)
    if kappa < 2:
        raise ManifoldError("truncation order must be at least 2")
    graph = spec.form == "graph"
    names, arity = (dims.graph_names(), dims.graph_arity) if graph else (dims.raw_names(), dims.ambient_arity)
    table = variable_table(names)
    components = [parse_expression(text, table, top_order(kappa), arity) for text in spec.expressions]
    if graph:
        return manifold_from_graph_series(dims, components, kappa, label=label)
    return manifold_from_rho_series(dims, components, kappa, split=spec.split, label=label)


def load_manifold_file(path: Union[str, Path], kappa: int) -> GenericManifold:
    path = Path(path)
    spec = ManifoldSpec.from_file(path)
    return load_manifold(spec, kappa, label=path.stem)
