"""Each run setting is decided in one place: ``RunConfig`` resolves a command's
options, ``config`` holds the order ladder and ``rank`` the certificates' other
constants, no phase has a default, and a load has no switch."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import List, Set, Tuple

import pytest

import segre
from segre import (
    ManifoldSpec,
    RunConfig,
    config,
    lie_hull_dimension,
    load_manifold,
    mirror_sigma,
    orbit_annihilator,
    orbit_ideal_in_M,
    rank,
    rank_profile,
    verify_all,
)

from conftest import count_loads

SOURCE = Path(segre.__file__).resolve().parent

PHASES = [
    rank_profile,
    orbit_annihilator,
    orbit_ideal_in_M,
    mirror_sigma,
    lie_hull_dimension,
    verify_all,
]


@pytest.mark.parametrize("phase", PHASES, ids=[phase.__name__ for phase in PHASES])
def test_phases_take_every_setting_from_their_caller(phase):
    parameters = inspect.signature(phase).parameters.values()
    assert [p.name for p in parameters if p.default is not p.empty] == []


def test_the_rank_certificates_have_no_options():
    # the fields of RunConfig are pinned in test_record.py
    assert not hasattr(segre, "RankOptions")
    assert not hasattr(segre.config, "RankOptions")


def _binds_the_ladder(source: str) -> bool:
    """Whether a module assigns or imports the name ORDER_LADDER."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and (node.asname or node.name) == "ORDER_LADDER":
            return True
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "ORDER_LADDER":
            return True
    return False


def test_the_certificate_constants():
    assert (rank.TRIALS, rank.VALUE_BOUND, config.ORDER_LADDER) == (3, 1 << 16, (0, 4, 8))
    # the ladder has one owner, which every reader looks up when called
    binders = [path.name for path in sorted(SOURCE.glob("*.py")) if _binds_the_ladder(path.read_text())]
    assert binders == ["config.py"]


def _reality_checks(source: str) -> int:
    """The number of calls to check_reality in a module, by name or attribute."""
    return sum(
        isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "check_reality"
        for node in ast.walk(ast.parse(source))
    )


def test_reality_is_checked_in_one_place():
    # the load's gate at the top order; no command checks again
    sites = {path.name: _reality_checks(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: count for name, count in sites.items() if count} == {"expressions.py": 1}


def _cap_reads(source: str, module: str) -> List[Tuple[str, bool]]:
    """Each read of MAX_MONOMIALS: the top-level function (or ``<module>``)
    around it, and whether a comparison makes it."""
    reads = []
    for top in ast.parse(source).body:
        compared = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                compared.update(map(id, ast.walk(node)))
            name = getattr(node, "id", getattr(node, "attr", None))
            if name == "MAX_MONOMIALS" and isinstance(node.ctx, ast.Load):
                reads.append((f"{module}.{getattr(top, 'name', '<module>')}", id(node) in compared))
    return reads


def test_the_monomial_cap_is_read_in_one_place():
    # the kernel search counts the cap at each degree it enters, in one
    # comparison; no command counts ahead of it up to the bound
    reads = [read for path in sorted(SOURCE.glob("*.py")) for read in _cap_reads(path.read_text(), path.stem)]
    assert {site for site, _ in reads} == {"orbit._kernel_series"}
    assert sum(compared for _, compared in reads) == 1


def _imported_names(source: str, module: str) -> List[str]:
    """The names a module binds from ``module``, the module itself included."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _callers(tree: ast.Module, callees: Set[str]) -> Set[str]:
    """The top-level functions that call one of ``callees`` by name."""
    return {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callees
    }


def test_only_the_capped_kernel_search_enumerates_combinations():
    # a search over subsets or monomials grows combinatorially; the one the
    # engine keeps enumerates monomials, and only where MAX_MONOMIALS caps it
    sites = {path.name: _imported_names(path.read_text(), "itertools") for path in sorted(SOURCE.glob("*.py"))}
    assert {name: names for name, names in sites.items() if names} == {"orbit.py": ["combinations_with_replacement"]}
    source = (SOURCE / "orbit.py").read_text()
    tree = ast.parse(source)
    enumerators = {
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(getattr(node, "id", None) == "combinations_with_replacement" for node in ast.walk(top))
    }
    assert enumerators == {"_monomials"}
    assert _callers(tree, enumerators) == {"_kernel_series"}
    assert ("orbit._kernel_series", True) in _cap_reads(source, "orbit")


def test_the_line_draw_is_the_one_randomized_step():
    # every other check of a run is an exact identity, so the random lines of
    # the rank certificates, which state their error bound, are all it draws
    sites = {path.name: _imported_names(path.read_text(), "random") for path in sorted(SOURCE.glob("*.py"))}
    assert {name: names for name, names in sites.items() if names} == {"rank.py": ["random"]}


def test_lowering_the_one_ladder_lowers_every_order_of_a_run(monkeypatch):
    # only config's ladder is patched: the parse, the graph solve, the load's
    # reality gate and every rank certificate all read kappa alone
    from segre import expressions, orbit

    monkeypatch.setattr(config, "ORDER_LADDER", (0,))
    loads = count_loads(monkeypatch)
    realities, certificates = [], []

    def check_reality(graph, rho, memo=None):
        realities.append(graph.valid_order)
        return real_check_reality(graph, rho, memo)

    def generic_rank(*args, **kwargs):
        certificates.append(real_generic_rank(*args, **kwargs))
        return certificates[-1]

    real_check_reality, real_generic_rank = expressions.check_reality, rank.generic_rank
    monkeypatch.setattr(expressions, "check_reality", check_reality)
    for module in (rank, orbit):
        monkeypatch.setattr(module, "generic_rank", generic_rank)
    spec = ManifoldSpec(2, 1, "rho", ("-(i/2)*(Z2 - ze2) - Z1*ze1",))
    report = verify_all(load_manifold(spec, 8), RunConfig())
    assert report.passed
    assert loads == {"parse": [8], "solve": [8]}
    assert realities == [8]
    # the profile's J = d + 2 = 3 and the mirror; theta's and phi's ranks are read off the profile
    assert len(certificates) == 3 + 1
    assert {cert.kappa_used for cert in certificates} == {8}


@pytest.mark.parametrize("constructor", ["load_manifold", "manifold_from_graph_series", "manifold_from_rho_series"])
def test_a_load_has_no_verify_switch(constructor):
    # every load passes the reality gate at its top order
    assert "verify" not in inspect.signature(getattr(segre, constructor)).parameters


def test_a_manifold_keeps_no_source():
    # every order up to the top is a truncation of the top form
    assert "source" not in segre.GenericManifold.__slots__
    assert "top" in segre.GenericManifold.__slots__
