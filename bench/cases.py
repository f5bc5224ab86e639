"""Workloads, their cases, and the reference outcome of every case.

Every expected value below comes from the theory of the manifold, never
from earlier program output:

* the quadric ``Im w = |z|^2`` and ``Im w = |z|^4`` (and any linear change
  of coordinates of either) have ranks (1, 2, 2), k0 = 2, dim g(0) = 3, e = 0;
* the Levi-flat hyperplane ``Im w = 0`` in C^N has every iterate of rank
  n = N - 1, so k0 = 1; for N = 2 its orbit is the hyperplane itself,
  giving dim g(0) = 2 and e = 1;
* ``c2``, ``n2`` and ``c3`` are of finite type with k0 = d + 1 (``c2``,
  ``c3``) or k0 = 2 (``n2``), so the ranks climb by one until they reach N.

The ``dense-coords`` inputs are generated from the workload seed: an
invertible matrix B is drawn and ``Z -> B Z``, ``ze -> conj(B) ze`` is
substituted into the defining function of the quadric and of ``l4``.  The
expansion uses this module's own exact arithmetic (``fractions``), so it does
not depend on the engine under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("fixtures", "rank-climb", "dense-coords")

N2 = {"N": 3, "d": 1, "form": "graph", "expressions": ["ta1 + 2*i*(z1*ch1 + z2*ch2)"]}
RHO_QUADRIC = {"N": 2, "d": 1, "form": "rho", "expressions": ["-(i/2)*(Z2 - ze2) - Z1*ze1"]}
C3 = {
    "N": 4,
    "d": 3,
    "form": "graph",
    "expressions": ["ta1 + 2*i*z1*ch1", "ta2 + 2*i*z1^2*ch1^2", "ta3 + 2*i*z1^3*ch1^3"],
}
LEVI_FLAT_NS = (5, 6, 7)


def _rho_power(a: int) -> Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]:
    """-(i/2)(Z2 - ze2) - Z1^a ze1^a as {exponent in (Z1, Z2, ze1, ze2): (re, im)}.

    a = 1 is the quadric h, a = 2 is l4.
    """
    half = Fraction(1, 2)
    return {
        (0, 1, 0, 0): (Fraction(0), -half),
        (0, 0, 0, 1): (Fraction(0), half),
        (a, 0, a, 0): (Fraction(-1), Fraction(0)),
    }


@dataclass(frozen=True)
class Expect:
    """Reference outcome of one case."""

    ranks: Tuple[int, ...]
    k0: int
    exit_code: int = 0
    stable: bool = True
    dim_g0: Optional[int] = None
    e: Optional[int] = None


QUADRIC_LIKE = dict(ranks=(1, 2, 2), k0=2, dim_g0=3, e=0)
THEORY = {
    "h": QUADRIC_LIKE,
    "l4": QUADRIC_LIKE,
    "rho-quadric": QUADRIC_LIKE,
    "h-dense": QUADRIC_LIKE,
    "l4-dense": QUADRIC_LIKE,
    "flat": dict(ranks=(1, 1, 1), k0=1, dim_g0=2, e=1),
    "c2": dict(ranks=(1, 2, 3, 3), k0=3, dim_g0=4, e=0),
    "n2": dict(ranks=(2, 3, 3), k0=2, dim_g0=5, e=0),
    "c3": dict(ranks=(1, 2, 3, 4, 4), k0=4, dim_g0=5, e=0),
}
for _n in LEVI_FLAT_NS:
    THEORY[f"leviflat{_n}"] = dict(ranks=(_n - 1,) * 3, k0=1)


@dataclass(frozen=True)
class Case:
    """One ``segre`` invocation: command, manifold (fixture or file), order."""

    command: str
    manifold: str
    kappa: int
    expect: Expect
    fixture: bool = False

    @property
    def name(self) -> str:
        return f"{self.command}:{self.manifold}@{self.kappa}"

    def argv(self, workdir: Path, seed: int, jobs: int) -> List[str]:
        source = ["--fixture", self.manifold] if self.fixture else [str(workdir / f"{self.manifold}.json")]
        return [
            self.command,
            *source,
            "--kappa", str(self.kappa),
            "--seed", str(seed),
            "--jobs", str(jobs),
            "--json",
        ]


def _expect(manifold: str, command: str, **overrides) -> Expect:
    theory = dict(THEORY[manifold])
    if command == "rank":
        theory.pop("dim_g0", None)
        theory.pop("e", None)
    theory.update(overrides)
    return Expect(**theory)


def _verify(manifold: str, kappa: int = 8, fixture: bool = False) -> Case:
    return Case("verify", manifold, kappa, _expect(manifold, "verify"), fixture)


def _rank(manifold: str, kappa: int = 8, **overrides) -> Case:
    return Case("rank", manifold, kappa, _expect(manifold, "rank", **overrides))


def cases(workload: str) -> List[Case]:
    if workload == "fixtures":
        return [
            *(_verify(name, fixture=True) for name in ("h", "flat", "l4", "c2")),
            _verify("n2"),
            _verify("rho-quadric"),
        ]
    if workload == "rank-climb":
        return [
            _verify("c3", kappa=10),
            # Rk v^4 = 4 only shows at order 12, so the profile is unstable at 8
            _rank("c3", kappa=8, exit_code=3, stable=False),
            *(_rank(f"leviflat{n}") for n in LEVI_FLAT_NS),
        ]
    if workload == "dense-coords":
        return [_verify("l4-dense"), _rank("h-dense"), _rank("l4-dense")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# seeded coordinate change for dense-coords
# ---------------------------------------------------------------------------

Gauss = Tuple[Fraction, Fraction]


def _gmul(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gsub(a: Gauss, b: Gauss) -> Gauss:
    return (a[0] - b[0], a[1] - b[1])


def draw_matrix(rng: random.Random) -> List[List[Gauss]]:
    """A 2x2 matrix with every entry nonzero, invertible over Q(i).

    Real parts are in {+-1, +-2}/{1, 2}, imaginary parts are +-1.
    """
    while True:
        matrix = [
            [
                (Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))), Fraction(rng.choice((-1, 1))))
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        det = _gsub(_gmul(matrix[0][0], matrix[1][1]), _gmul(matrix[0][1], matrix[1][0]))
        if det != (0, 0):
            return matrix


Poly = Dict[Tuple[int, ...], Gauss]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            re, im = _gmul(ca, cb)
            old = out.get(exp, (Fraction(0), Fraction(0)))
            out[exp] = (old[0] + re, old[1] + im)
    return {e: c for e, c in out.items() if c != (0, 0)}


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exp, c in b.items():
        old = out.get(exp, (Fraction(0), Fraction(0)))
        out[exp] = (old[0] + c[0], old[1] + c[1])
    return {e: c for e, c in out.items() if c != (0, 0)}


def substitute(rho: Poly, matrix: List[List[Gauss]]) -> Poly:
    """rho(B Z, conj(B) ze) for polynomials in (Z1, Z2, ze1, ze2)."""
    images: List[Poly] = []
    for conj_block in (False, True):
        for row in matrix:
            image: Poly = {}
            for col, (re, im) in enumerate(row):
                exp = [0, 0, 0, 0]
                exp[2 * conj_block + col] = 1
                image[tuple(exp)] = (re, -im if conj_block else im)
            images.append(image)
    out: Poly = {}
    for exp, coeff in rho.items():
        term: Poly = {(0, 0, 0, 0): coeff}
        for var, power in enumerate(exp):
            for _ in range(power):
                term = _poly_mul(term, images[var])
        out = _poly_add(out, term)
    return out


def _frac_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def poly_text(poly: Poly) -> str:
    names = ("Z1", "Z2", "ze1", "ze2")
    terms = []
    for exp in sorted(poly):
        re, im = poly[exp]
        factors = [f"({_frac_text(re)} + ({_frac_text(im)})*i)"]
        factors += [f"{name}^{power}" for name, power in zip(names, exp) if power]
        terms.append("*".join(factors))
    return " + ".join(terms)


def write_inputs(workload: str, workdir: Path, seed: int) -> Dict[str, int]:
    """Write the workload's manifold files; return the term count of each generated rho."""
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    density: Dict[str, int] = {}
    if workload == "fixtures":
        files = {"n2": N2, "rho-quadric": RHO_QUADRIC}
    elif workload == "rank-climb":
        files = {"c3": C3}
        for n in LEVI_FLAT_NS:
            files[f"leviflat{n}"] = {"N": n, "d": 1, "form": "graph", "expressions": ["ta1"]}
    elif workload == "dense-coords":
        matrix = draw_matrix(random.Random(seed))
        for name, power in (("h-dense", 1), ("l4-dense", 2)):
            rho = substitute(_rho_power(power), matrix)
            density[name] = len(rho)
            files[name] = {"N": 2, "d": 1, "form": "rho", "expressions": [poly_text(rho)]}
    for name, spec in files.items():
        (workdir / f"{name}.json").write_text(json.dumps(spec) + "\n")
    return density


def check_output(case: Case, exit_code: int, stdout: bytes) -> Optional[str]:
    """None when the case matches its reference outcome, else the first mismatch."""
    expect = case.expect
    if exit_code != expect.exit_code:
        return f"exit code {exit_code}, expected {expect.exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    got = {
        "ranks": tuple(report.get("ranks", ())),
        "k0": report.get("k0"),
        "stable": report.get("stable"),
    }
    want = {"ranks": expect.ranks, "k0": expect.k0, "stable": expect.stable}
    if case.command == "verify":
        got.update(dim_g0=report.get("dim_g0"), e=report.get("e"))
        want.update(dim_g0=expect.dim_g0, e=expect.e)
        failing = sorted(name for name, check in report.get("checks", {}).items() if not check.get("pass"))
        if failing or not report.get("checks"):
            return f"checks not passing: {failing or 'none reported'}"
    for key, value in want.items():
        if got[key] != value:
            return f"{key} = {got[key]!r}, expected {value!r}"
    return None
