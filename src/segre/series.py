"""Exact sparse truncated multivariate power series over the Gaussian rationals.

Coefficients are ``GaussianRational`` values: one canonical integer triple
(a, b, d) standing for (a + b*i)/d with d > 0 and gcd(a, b, d) == 1, so each
field operation costs at most one gcd and equal values have equal triples.

A series is stored as a dictionary mapping exponent tuples to nonzero
``GaussianRational`` coefficients, together with the number of variables
(``arity``) and a truncation order ``kappa``: the series is an element of
the quotient of the power series ring by all terms of total degree > kappa.
Truncation at a lower order is a ring homomorphism, which is what makes
"nonzero coefficient below the truncation order" a sound certificate for
nonvanishing of the untruncated object.

  exponent = (e_1, ..., e_p)     one nonnegative int per variable
  terms    = {exponent: coeff}   zero coefficients are never stored

Every operation returns a new value; nothing is mutated after construction,
so series and maps can be shared freely.

Only the public ``TruncatedSeries(arity, kappa, terms)`` validates terms;
results built here are clean by construction and skip the checks (``_series``).
Products and compositions put each operand over one common denominator, sum
the integer numerator pairs (re, im) per output exponent with no gcd, and
divide each output coefficient once at the end.

Inside those two kernels an exponent is one int (``_Packing``).  At order
kappa each variable gets a field of w = kappa.bit_length() bits, variable 0
highest, and the total degree sits above all of them:

  packed = degree << (w * p)  |  e_1 << (w * (p - 1))  |  ...  |  e_p

Only terms of degree <= kappa are kept, so every field holds a value
<= kappa < 2**w.  Adding two packed ints adds the degrees and each field;
a sum is kept only when its degree is <= kappa, and then each field of it
is still <= kappa, so no field carries into the next.  A sum of degree
> kappa may carry, but carries only raise the value, so "degree <= kappa"
is the one comparison ``packed < (kappa + 1) << (w * p)``, for a packed
term and for a sum alike, and ascending ints are ascending degrees.  The
public ``terms`` stay keyed by exponent tuples; each kept output exponent
is unpacked once.

Order bookkeeping follows three rules:
  * add/mul take the minimum kappa of their operands,
  * composition takes the minimum kappa over the outer series and all
    components of the inner map (which must vanish at the origin),
  * partial differentiation lowers kappa by one (the derivative of an
    unknown degree-(kappa+1) tail pollutes degree kappa).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import SegreError

Exponent = Tuple[int, ...]


class SeriesError(SegreError, ValueError):
    """Structural misuse of series operations (arity mismatches and the like)."""


class CompositionError(SeriesError):
    """Substitution into a power series requires inner components without constant term."""


RationalLike = Union[int, Fraction]


def _fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """A complex number (a + b*i)/d with exact integer parts.

    The triple is kept canonical: d > 0 and gcd(a, b, d) == 1, so zero is
    (0, 0, 1) and equal values have equal triples.  Every sum, difference,
    product and quotient costs one gcd; negation and conjugation cost none.
    There is no rounding anywhere in the engine.  ``re`` and ``im`` give the
    two parts as ``Fraction``s in lowest terms.
    """

    # written once, at construction; no operation mutates a value
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _fraction(re), _fraction(im)
        q, s = re.denominator, im.denominator
        # lowest terms on both parts make gcd(a, b, lcm(q, s)) == 1 already
        d = q if q == s else q // gcd(q, s) * s
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # the hash of the (re, im) pair of Fractions, as before the triple form
        return hash((self.re, self.im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b*i)/d * f/(c + e*i) = (a + b*i)(c - e*i)*f / (d*(c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def power_bits(self, exponent: int) -> int:
        """A bound on the bit length of each part of the triple of self**exponent.

        |a + b*i|^e and d^e bound the parts, so it is e times the larger of
        ceil(log2(a^2 + b^2)) / 2 and ceil(log2 d), read off this triple
        without computing the power.
        """
        norm = self._a * self._a + self._b * self._b
        return exponent * max(((norm - 1).bit_length() + 1) // 2, (self._d - 1).bit_length())

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return ONE / (self ** (-exponent))
        return _binary_power(self, exponent, ONE)

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{_imag_str(abs(im))}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple that is already canonical."""
    value = _new(GaussianRational)
    value._a, value._b, value._d = a, b, d
    return value


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Wrap (a + b*i)/d with d > 0, dividing out gcd(a, b, d)."""
    value = _new(GaussianRational)
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    value._a, value._b, value._d = a, b, d
    return value


def _binary_power(base, n: int, one):
    """base**n for n >= 0 by repeated squaring, starting from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


# short name for the constructor: gauss(2), gauss(0, 1) == I, gauss(Fraction(1, 2))
gauss = GaussianRational


CoeffLike = Union[GaussianRational, Fraction, int]


def as_coeff(value: CoeffLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(_fraction(value))


def grlex_key(exponent: Exponent) -> Tuple[int, Exponent]:
    """Graded-lexicographic sort key: total degree first, then the tuple itself."""
    return (sum(exponent), exponent)


def unit_exponent(arity: int, index: int) -> Exponent:
    """The exponent of the single variable ``index``: a 1 there, 0 elsewhere."""
    exp = [0] * arity
    exp[index] = 1
    return tuple(exp)


def linear_part(series: Iterable[TruncatedSeries], columns: Iterable[int]) -> List[List[GaussianRational]]:
    """The coefficient of x_c in each series, for each c of ``columns``: one row per series."""
    columns = list(columns)
    return [[s.coefficient(unit_exponent(s.arity, c)) for c in columns] for s in series]


class TruncatedSeries:
    """An element of C[[x_1..x_p]] carried modulo total degree > kappa."""

    __slots__ = ("arity", "kappa", "terms", "_hash")

    def __init__(self, arity: int, kappa: int, terms: Optional[Mapping[Exponent, CoeffLike]] = None):
        if arity < 0:
            raise SeriesError("arity must be nonnegative")
        if kappa < 0:
            raise SeriesError("truncation order must be nonnegative")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "kappa", kappa)
        clean: dict = {}
        if terms:
            for exp, raw in terms.items():
                exp = tuple(exp)
                if len(exp) != arity:
                    raise SeriesError(f"exponent {exp} does not match arity {arity}")
                if any(e < 0 for e in exp):
                    raise SeriesError(f"negative exponent in {exp}")
                if sum(exp) > kappa:
                    continue
                coeff = as_coeff(raw)
                if coeff:
                    clean[exp] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        return TruncatedSeries, (self.arity, self.kappa, self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(arity: int, kappa: int) -> "TruncatedSeries":
        return TruncatedSeries(arity, kappa)

    @staticmethod
    def constant(arity: int, kappa: int, value: CoeffLike) -> "TruncatedSeries":
        return TruncatedSeries(arity, kappa, {(0,) * arity: as_coeff(value)})

    @staticmethod
    def variable(arity: int, kappa: int, index: int) -> "TruncatedSeries":
        if not 0 <= index < arity:
            raise SeriesError(f"variable index {index} out of range for arity {arity}")
        return TruncatedSeries(arity, kappa, {unit_exponent(arity, index): ONE})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.arity, ZERO)

    def coefficient(self, exponent: Exponent) -> GaussianRational:
        return self.terms.get(tuple(exponent), ZERO)

    def degree(self) -> int:
        """Total degree of the stored representative (0 for the zero series)."""
        return max((sum(e) for e in self.terms), default=0)

    def order(self) -> Optional[int]:
        """Lowest total degree of a stored term, or None for the zero series."""
        return min((sum(e) for e in self.terms), default=None)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def leading_term(self) -> Tuple[Exponent, GaussianRational]:
        """Graded-lex-first nonzero term; raises on the zero series."""
        if not self.terms:
            raise SeriesError("zero series has no leading term")
        exp = min(self.terms, key=grlex_key)
        return exp, self.terms[exp]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.arity, self.kappa, self.terms) == (other.arity, other.kappa, other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(self.sorted_terms())
            object.__setattr__(self, "_hash", hash((self.arity, self.kappa, items)))
        return self._hash

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.to_text()!r}, kappa={self.kappa})"

    # -- ring operations ---------------------------------------------------

    def _require_same_arity(self, other: "TruncatedSeries") -> None:
        if self.arity != other.arity:
            raise SeriesError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_arity(other)
        kappa = min(self.kappa, other.kappa)
        if not other.terms:
            return self.truncate(kappa)
        if not self.terms:
            return other.truncate(kappa)
        out = dict(self.truncate(kappa).terms)
        for exp, coeff in other.truncate(kappa).terms.items():
            new = out.get(exp, ZERO) + coeff
            if new:
                out[exp] = new
            else:
                out.pop(exp, None)
        return _series(self.arity, kappa, out)

    def __neg__(self) -> "TruncatedSeries":
        return _series(self.arity, self.kappa, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, value: CoeffLike) -> "TruncatedSeries":
        coeff = as_coeff(value)
        if coeff == ONE:
            return self
        return _series(self.arity, self.kappa, {e: c * coeff for e, c in self.terms.items()} if coeff else {})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_arity(other)
        kappa = min(self.kappa, other.kappa)
        for a, b in ((self, other), (other, self)):
            if len(a.terms) <= 1 and a.degree() == 0:  # a constant factor only scales the other
                return b.truncate(kappa).scale(a.constant_term())
        packing = _Packing(self.arity, kappa)
        a_rows, a_den = packing.rows(self.terms)
        b_rows, b_den = packing.rows(other.terms)
        sums = _product(a_rows, b_rows, packing.bound(kappa))
        return _series(self.arity, kappa, packing.divided(sums, a_den * b_den))

    def power(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise SeriesError("negative power of a series")
        return _binary_power(self, exponent, TruncatedSeries.constant(self.arity, self.kappa, ONE))

    def truncate(self, kappa: int) -> "TruncatedSeries":
        """Image in the quotient at a lower (or equal) order."""
        if kappa > self.kappa:
            raise SeriesError(f"cannot raise truncation order {self.kappa} to {kappa}; use with_order")
        if kappa == self.kappa:
            return self
        return _series(self.arity, kappa, {e: c for e, c in self.terms.items() if sum(e) <= kappa})

    def with_order(self, kappa: int) -> "TruncatedSeries":
        """Reinterpret at an arbitrary order.

        Raising the order asserts that the stored terms are the exact,
        untruncated object (true for parsed polynomial input and anything
        derived from it without truncation loss); the caller owns that claim.
        """
        if kappa <= self.kappa:
            return self.truncate(kappa)
        return _series(self.arity, kappa, self.terms)

    # -- calculus ----------------------------------------------------------

    def partial(self, index: int) -> "TruncatedSeries":
        """Formal partial derivative; the result is valid one order lower."""
        if not 0 <= index < self.arity:
            raise SeriesError(f"variable index {index} out of range for arity {self.arity}")
        if self.kappa == 0:
            raise SeriesError("cannot differentiate a series carried only to order 0")
        out = {}
        for exp, c in self.terms.items():
            k = exp[index]
            if k:  # gcd(a, b, d) = 1, so only gcd(k, d) can cancel from (k a + k b i)/d
                g = gcd(k, c._d)
                out[exp[:index] + (k - 1,) + exp[index + 1 :]] = _triple(c._a * (k // g), c._b * (k // g), c._d // g)
        return _series(self.arity, self.kappa - 1, out)

    # -- structural maps ---------------------------------------------------

    def conjugate(self) -> "TruncatedSeries":
        """Coefficientwise complex conjugation (no variable change)."""
        return _series(self.arity, self.kappa, {e: c.conjugate() for e, c in self.terms.items()})

    def sigma(self, block: int) -> "TruncatedSeries":
        """Conjugate every coefficient and swap the two declared variable blocks.

        ``block`` is the size of each half; the arity must equal 2*block.
        An involution: sigma(sigma(f), block) == f.
        """
        if block is None:
            raise SeriesError("sigma requires the block split")
        if self.arity != 2 * block:
            raise SeriesError(f"sigma needs arity 2*{block}, got {self.arity}")
        out = {exp[block:] + exp[:block]: coeff.conjugate() for exp, coeff in self.terms.items()}
        return _series(self.arity, self.kappa, out)

    def map_vars(self, target_arity: int, assignment: Sequence[Optional[int]]) -> "TruncatedSeries":
        """Monomial substitution x_i -> y_{assignment[i]}, or 0 when assignment[i] is None.

        Distinct source variables may land on the same target (their
        exponents add), which implements diagonal identifications exactly.
        """
        if len(assignment) != self.arity:
            raise SeriesError("assignment length must match arity")
        for target in assignment:
            if target is not None and not 0 <= target < target_arity:
                raise SeriesError(f"target index {target} out of range")
        out: dict = {}
        for exp, coeff in self.terms.items():
            if any(e and target is None for e, target in zip(exp, assignment)):
                continue
            new = [0] * target_arity
            for e, target in zip(exp, assignment):
                if e:
                    new[target] += e
            key = tuple(new)
            acc = out.get(key, ZERO) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return _series(target_arity, self.kappa, out)

    def extend(self, target_arity: int) -> "TruncatedSeries":
        """Embed into a ring with extra trailing variables."""
        if target_arity < self.arity:
            raise SeriesError("extend cannot shrink the arity")
        if target_arity == self.arity:
            return self
        pad = (0,) * (target_arity - self.arity)
        return _series(target_arity, self.kappa, {e + pad: c for e, c in self.terms.items()})

    def compose(self, inner: "FormalMap") -> "TruncatedSeries":
        """Substitute the components of ``inner`` for the variables of this series.

        Requires every inner component to vanish at the origin; the result
        is exact modulo degree > min(self.kappa, inner component kappas).
        """
        return compose_many([self], inner)[0]

    # -- canonical text ----------------------------------------------------

    def to_text(self, names: Optional[Sequence[str]] = None) -> str:
        """Canonical text form: graded-lex term order, exact coefficients.

        The output reparses to an equal series under the expression grammar
        (with the same variable table).
        """
        if names is None:
            names = [f"x{i + 1}" for i in range(self.arity)]
        elif len(names) != self.arity:
            raise SeriesError("name table length must match arity")
        if not self.terms:
            return "0"
        pieces = []
        for exp, coeff in self.sorted_terms():
            mono = "*".join(
                f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exp) if e
            )
            text, negative = _coeff_factor(coeff, bool(mono))
            body = "*".join(part for part in (text, mono) if part)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)


def _series(arity: int, kappa: int, terms: dict) -> TruncatedSeries:
    """Wrap clean terms: exponent tuples of length ``arity``, degree <= kappa, no zero."""
    series = _new(TruncatedSeries)
    object.__setattr__(series, "arity", arity)
    object.__setattr__(series, "kappa", kappa)
    object.__setattr__(series, "terms", terms)
    object.__setattr__(series, "_hash", None)
    return series


class _Packing:
    """Exponents of ``arity`` variables packed as ints at order ``kappa`` (module docstring)."""

    __slots__ = ("kappa", "shifts", "weights", "mask", "top")

    def __init__(self, arity: int, kappa: int):
        width = kappa.bit_length()
        self.kappa = kappa
        self.shifts = [width * i for i in range(arity - 1, -1, -1)]
        self.mask = (1 << width) - 1
        self.top = width * arity
        # one unit of a variable adds one to its own field and to the degree
        self.weights = [(1 << shift) + (1 << self.top) for shift in self.shifts]

    def bound(self, kappa: int) -> int:
        """The packed exponents of degree <= kappa (<= self.kappa) are exactly those below this."""
        return kappa + 1 << self.top

    def rows(self, terms: Mapping[Exponent, GaussianRational]) -> Tuple[list, int]:
        """The terms of degree <= kappa over their common denominator D.

        Returns the ascending (packed, re, im) rows and D.
        """
        weights, bound = self.weights, self.bound(self.kappa)
        kept = []
        den = 1
        for exp, coeff in terms.items():
            packed = sum(map(mul, exp, weights))
            if packed < bound:
                kept.append((packed, coeff))
                if den % coeff._d:
                    den = den // gcd(den, coeff._d) * coeff._d
        rows = [(packed, c._a * (den // c._d), c._b * (den // c._d)) for packed, c in kept]
        rows.sort()
        return rows, den

    def divided(self, sums: dict, den: int) -> dict:
        """Each summed numerator pair over ``den``, keyed by its unpacked exponent; cancelled sums dropped."""
        shifts, mask = self.shifts, self.mask
        return {
            tuple([packed >> shift & mask for shift in shifts]): _reduced(pair[0], pair[1], den)
            for packed, pair in sums.items()
            if pair[0] or pair[1]
        }


def _product(a_rows: list, b_rows: list, bound: int) -> dict:
    """Numerators {packed: [re, im]} of a row product below ``bound``, summed without gcd."""
    sums: dict = {}
    get = sums.get
    for ea, ra, ia in a_rows:
        for eb, rb, ib in b_rows:
            exp = ea + eb
            if exp >= bound:
                break
            pair = get(exp)
            if pair is None:
                sums[exp] = [ra * rb - ia * ib, ra * ib + ia * rb]
            else:
                pair[0] += ra * rb - ia * ib
                pair[1] += ra * ib + ia * rb
    return sums


def _monomial_rows(memo: dict, exp: Exponent, components: list, sparsest: list, bound: int) -> Tuple[list, int]:
    """Rows of the inner components' product named by ``exp``, memoized with every step.

    Walks down to a memoized sub-monomial, removing one factor of the
    sparsest component (first in ``sparsest``) at a time, then multiplies
    the factors back on in turn.
    """
    chain = []
    while exp not in memo:
        k = next(k for k in sparsest if exp[k])
        chain.append((exp, k))
        exp = exp[:k] + (exp[k] - 1,) + exp[k + 1 :]
    rows, den = memo[exp]
    for exp, k in reversed(chain):
        component_rows, component_den = components[k]
        sums = _product(rows, component_rows, bound)
        rows = sorted([(e, pair[0], pair[1]) for e, pair in sums.items() if pair[0] or pair[1]])
        den *= component_den
        memo[exp] = rows, den
    return rows, den


def _coeff_factor(coeff: GaussianRational, has_monomial: bool) -> Tuple[str, bool]:
    """Render a coefficient as a factor; returns (text, sign_extracted).

    The empty text means the factor 1 (only emitted in front of a monomial).
    Mixed real+imaginary coefficients are parenthesized and never have their
    sign extracted.
    """
    if coeff.re and coeff.im:
        return f"({coeff})", False
    if coeff.im:
        mag = abs(coeff.im)
        return ("i" if mag == 1 else f"{mag}*i"), coeff.im < 0
    mag = abs(coeff.re)
    negative = coeff.re < 0
    if mag == 1 and has_monomial:
        return "", negative
    return str(mag), negative


class FormalMap:
    """A tuple of series with declared source and target arities.

    Models a formal mapping (C^p, 0) -> (C^m, .).  It may be the inner map of
    a composition only when every component has zero constant term, which
    ``compose_many`` checks (CompositionError).
    """

    __slots__ = ("source_arity", "target_arity", "components")

    def __init__(self, components: Iterable[TruncatedSeries]):
        comps = tuple(components)
        if not comps:
            raise SeriesError("a formal map needs at least one component")
        arity = comps[0].arity
        for comp in comps:
            if comp.arity != arity:
                raise SeriesError("all components must share the source arity")
        object.__setattr__(self, "source_arity", arity)
        object.__setattr__(self, "target_arity", len(comps))
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("FormalMap is immutable")

    def __reduce__(self):
        return FormalMap, (self.components,)

    @property
    def kappa(self) -> int:
        return min(c.kappa for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalMap):
            return NotImplemented
        return self.components == other.components

    def __repr__(self) -> str:
        return f"FormalMap({self.source_arity}->{self.target_arity}, kappa={self.kappa})"

    def __iter__(self):
        return iter(self.components)

    def component(self, index: int) -> TruncatedSeries:
        return self.components[index]

    def conjugate(self) -> "FormalMap":
        """Coefficientwise conjugation of every component (no variable swap)."""
        return FormalMap(c.conjugate() for c in self.components)

    def compose(self, inner: "FormalMap") -> "FormalMap":
        return FormalMap(compose_many(list(self.components), inner))

    def map_vars(self, target_arity: int, assignment: Sequence[Optional[int]]) -> "FormalMap":
        return FormalMap(c.map_vars(target_arity, assignment) for c in self.components)

    def extend(self, target_arity: int) -> "FormalMap":
        return FormalMap(c.extend(target_arity) for c in self.components)

    def truncate(self, kappa: int) -> "FormalMap":
        return FormalMap(c.truncate(min(kappa, c.kappa)) for c in self.components)

    def equals_mod(self, other: "FormalMap") -> bool:
        """Componentwise equality after truncating both sides to the shared order."""
        if self.target_arity != other.target_arity or self.source_arity != other.source_arity:
            return False
        return all(series_match(a, b) for a, b in zip(self.components, other.components))


def series_match(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """Equality in the quotient at the shared (minimum) truncation order."""
    if a.arity != b.arity:
        return False
    kappa = min(a.kappa, b.kappa)
    return a.truncate(kappa).terms == b.truncate(kappa).terms


def compose_many(
    outers: Sequence[TruncatedSeries], inner: "FormalMap", memo: Optional[dict] = None
) -> list:
    """Compose several series with one inner map, sharing all partial products.

    Monomial substitution values are memoized across all outer series as
    unreduced integer rows with packed exponents: each distinct monomial in
    the components with more than one term costs one row product on top of
    a previously computed sub-monomial, and one-term components shift those
    rows as they are summed.  Results carry per-outer truncation orders;
    sharing at the maximum order and truncating afterwards is sound because
    truncation is a quotient homomorphism.  A caller that composes in
    batches passes one ``memo`` dict to every batch, and each batch builds
    only the products that the batches before it did not; the batches must
    share the inner map and the highest outer order (SeriesError otherwise).
    """
    if not outers:
        return []
    arity = outers[0].arity
    if any(outer.arity != arity for outer in outers):
        raise SeriesError("outer series must share one ring")
    if inner.target_arity != arity:
        raise SeriesError(
            f"series in {arity} variables composed with map into {inner.target_arity}"
        )
    if any(comp.constant_term() for comp in inner.components):
        raise CompositionError("inner map has a component with nonzero constant term")
    inner_kappa = min(c.kappa for c in inner.components)
    cache_kappa = min(max(outer.kappa for outer in outers), inner_kappa)
    source = inner.source_arity
    packing = _Packing(source, cache_kappa)
    components = [packing.rows(c.terms) for c in inner.components]
    # a one-term component multiplies on as a shift of the rows, which keeps
    # them ascending, with its coefficient folded into the outer term's; so
    # the memo holds products of the other components only, sparsest first
    single = [len(rows) == 1 for rows, _ in components]
    shifts = [(k, rows[0], den) for k, (rows, den) in enumerate(components) if single[k]]
    sparsest = sorted((k for k in range(arity - 1, -1, -1) if not single[k]), key=lambda k: len(components[k][0]))
    # the rows are packed for one inner map at one order: a memo serves no other
    key = (cache_kappa, inner.components)
    if memo is None:
        memo = {}
    if memo.setdefault(None, key) != key:
        raise SeriesError("a composition memo serves one inner map at one order")
    memo.setdefault((0,) * arity, ([(0, 1, 0)], 1))
    memo_bound = packing.bound(cache_kappa)

    results = []
    for outer in outers:
        kappa = min(outer.kappa, inner_kappa)
        bound = packing.bound(kappa)
        # numerator pairs over one running common denominator, rescaled only when it grows
        sums: dict = {}
        get = sums.get
        den = 1
        for exp, coeff in outer.terms.items():
            if sum(exp) > kappa:
                continue
            shift, ca, cb, term_den = 0, coeff._a, coeff._b, coeff._d
            for k, (packed, re, im), component_den in shifts:
                e = exp[k]
                if e:
                    shift += e * packed
                    term_den *= component_den**e
                    for _ in range(e):
                        ca, cb = ca * re - cb * im, ca * im + cb * re
            if shift:
                exp = tuple([0 if one else e for e, one in zip(exp, single)])
            rows, row_den = _monomial_rows(memo, exp, components, sparsest, memo_bound)
            term_den *= row_den
            if den % term_den:
                grow = term_den // gcd(den, term_den)
                den *= grow
                for pair in sums.values():
                    pair[0] *= grow
                    pair[1] *= grow
            scale = den // term_den
            ca, cb = ca * scale, cb * scale
            for mono, ra, ia in rows:
                mono += shift
                if mono >= bound:
                    break
                pair = get(mono)
                if pair is None:
                    sums[mono] = [ca * ra - cb * ia, ca * ia + cb * ra]
                else:
                    pair[0] += ca * ra - cb * ia
                    pair[1] += ca * ia + cb * ra
        results.append(_series(source, kappa, packing.divided(sums, den)))
    return results
