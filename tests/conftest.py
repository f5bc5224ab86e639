"""Shared fixtures: loaded manifolds and helpers for random real manifolds."""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from segre import (
    Dims,
    GaussianRational,
    RunConfig,
    TruncatedSeries,
    load_manifold_file,
    manifold_from_graph_series,
    config,
    manifold_from_rho_series,
    rank_profile,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "segre" / "fixtures"
README = Path(__file__).resolve().parent.parent / "README.md"

# the same examples on every run, and no per-example deadline on a loaded host
settings.register_profile("segre", derandomize=True, deadline=None)
settings.load_profile("segre")


def load_fixture(name: str, kappa: int = 8):
    return load_manifold_file(FIXTURE_DIR / f"{name}.json", kappa)


def readme_api() -> str:
    """The code block of README's "Python API" section."""
    section = README.read_text().split("## Python API", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def late_split_rho(N: int, d: int) -> dict:
    """A rho-form manifold file whose invertible Z-columns are the last d:
    rho_l = (Z_(n+l) - ze_(n+l)) / (2i) - Z1 ze1, for l = 1..d."""
    n = N - d
    expressions = [f"(Z{n + l} - ze{n + l})/(2*i) - Z1*ze1" for l in range(1, d + 1)]
    return {"N": N, "d": d, "form": "rho", "expressions": expressions}


def default_profile(segre):
    """The rank profile of the run's mapping with every option at its default."""
    config = RunConfig(kappa=segre.kappa)
    return rank_profile(segre, config.resolve_jmax(segre.dims.d), config.seed)


def failed_checks(report):
    """The names of a verification report's failed checks."""
    return [name for name, check in report.checks.items() if not check.passed]


@contextlib.contextmanager
def working_order_only():
    """Load every manifold and certify every rank at the working order alone,
    without the escalated orders: the law and invariance tests compare
    ranks, not their stability.  The ladder has one owner, ``config``, which
    every reader reads when called, so lowering it there lowers the load's
    top order, where it checks reality, and the rank certificates at once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "ORDER_LADDER", (0,))
        yield


def count_loads(monkeypatch):
    """The order of every ``parse_expression`` and ``solve_graph`` call that a
    load makes from now on, under "parse" and "solve"."""
    from segre import expressions

    calls = {"parse": [], "solve": []}
    real_parse, real_solve = expressions.parse_expression, expressions.solve_graph

    def parse(text, table, kappa, arity=None):
        calls["parse"].append(kappa)
        return real_parse(text, table, kappa, arity)

    def solve(rho, dims, kappa, memo=None):
        calls["solve"].append(kappa)
        return real_solve(rho, dims, kappa, memo)

    monkeypatch.setattr(expressions, "parse_expression", parse)
    monkeypatch.setattr(expressions, "solve_graph", solve)
    return calls


@pytest.fixture(scope="session")
def manifold_h():
    return load_fixture("h")


@pytest.fixture(scope="session")
def manifold_flat():
    return load_fixture("flat")


@pytest.fixture(scope="session")
def manifold_l4():
    return load_fixture("l4")


@pytest.fixture(scope="session")
def manifold_c2():
    return load_fixture("c2")


@pytest.fixture(scope="session")
def all_fixture_manifolds(manifold_h, manifold_flat, manifold_l4, manifold_c2):
    return {
        "h": manifold_h,
        "flat": manifold_flat,
        "l4": manifold_l4,
        "c2": manifold_c2,
    }


def random_coefficient(rng: random.Random, height: int = 4) -> GaussianRational:
    return GaussianRational(rng.randint(-height, height), rng.randint(-height, height))


def random_rigid_manifold(rng: random.Random, kappa: int = 8, master: int = 16):
    """A random rigid real graph manifold (``random_rigid_graph``) at ``kappa``."""
    dims, components = random_rigid_graph(rng, master)
    return manifold_from_graph_series(dims, components, kappa, label="random-rigid")


def random_rigid_graph(rng: random.Random, master: int = 16):
    """The dimensions and graph components Q = ta + (psi - conj-swap psi) of a
    random rigid real manifold, at order ``master``.

    The antisymmetrization makes the reality identity hold by construction;
    coefficients have height at most 4 and the perturbation degree is at
    most 4.
    """
    N = rng.randint(2, 3)
    d = rng.randint(1, min(2, N - 1))
    dims = Dims(N, d)
    arity = dims.graph_arity
    components = []
    for l in range(d):
        psi = {}
        for _ in range(rng.randint(1, 3)):
            exp = [0] * arity
            z_deg = rng.randint(1, 2)
            ch_deg = rng.randint(1, 2)
            for _ in range(z_deg):
                exp[rng.randrange(dims.n)] += 1
            for _ in range(ch_deg):
                exp[dims.n + rng.randrange(dims.n)] += 1
            coeff = random_coefficient(rng)
            if coeff:
                psi[tuple(exp)] = coeff
        psi_series = TruncatedSeries(arity, master, psi)
        # swap the z and ch blocks and conjugate: psi_bar(ch, z)
        swap = list(range(dims.n, 2 * dims.n)) + list(range(dims.n)) + list(
            range(2 * dims.n, arity)
        )
        psi_bar = psi_series.conjugate().map_vars(arity, swap)
        phi = psi_series - psi_bar
        q = TruncatedSeries.variable(arity, master, dims.gta(l)) + phi
        components.append(q)
    return dims, components


def random_real_rho_manifold(rng: random.Random, kappa: int = 8, master: int = 16):
    """A random non-rigid real manifold (``random_real_rho``) at ``kappa``."""
    dims, components = random_real_rho(rng, master)
    # with the standard split the raw (Z, ze) layout coincides with the ambient one
    return manifold_from_rho_series(dims, components, kappa, label="random-rho")


def random_real_rho(rng: random.Random, master: int = 16):
    """The dimensions and raw defining functions a + sigma(a) of a random
    non-rigid real manifold, at order ``master``."""
    N = rng.randint(2, 3)
    d = rng.randint(1, min(2, N - 1))
    dims = Dims(N, d)
    arity = dims.ambient_arity
    components = []
    for l in range(d):
        base = TruncatedSeries.variable(arity, master, dims.n + l).scale(
            GaussianRational(0, Fraction(-1, 2))
        )
        extra = {}
        for _ in range(rng.randint(0, 3)):
            exp = [0] * arity
            degree = rng.randint(2, 3)
            for _ in range(degree):
                exp[rng.randrange(arity)] += 1
            coeff = random_coefficient(rng)
            if coeff:
                extra[tuple(exp)] = coeff
        a = base + TruncatedSeries(arity, master, extra)
        r = a + a.sigma(dims.N)
        components.append(r)
    return dims, components
