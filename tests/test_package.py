"""The package root exports the engine's public names, each resolved on first use."""

from __future__ import annotations

import ast
import importlib
import types

import pytest

import segre

from conftest import FIXTURE_DIR, readme_api

# every name the package root exports, by the module that defines it
EXPORTS = {
    "config": ["DEFAULT_SEED", "RunConfig"],
    "coords": ["Dims"],
    "errors": [
        "ConfigError",
        "GenericityError",
        "InconclusiveError",
        "InternalConsistencyError",
        "ManifoldError",
        "RealityError",
        "SegreError",
        "SplitError",
    ],
    "expressions": [
        "GenericManifold",
        "ManifoldSpec",
        "ParseError",
        "load_manifold",
        "load_manifold_file",
        "manifold_from_graph_series",
        "manifold_from_rho_series",
        "parse_expression",
        "variable_table",
    ],
    "fields": ["FormalVectorField", "LieHullReport", "bracket", "cr_basis", "lie_hull_dimension"],
    "implicit": ["GraphForm", "check_reality", "solve_graph"],
    "maps": [
        "SegreMapping",
        "ThetaPhi",
        "VariableCapError",
        "iterate",
        "make_T",
        "make_theta_phi",
        "pushforward_residuals",
    ],
    "orbit": [
        "CheckResult",
        "MirrorManifold",
        "OrbitIdealReport",
        "OrbitReport",
        "VerificationReport",
        "mirror_sigma",
        "orbit_annihilator",
        "orbit_ideal_in_M",
        "verify_all",
    ],
    "rank": ["RankCertificate", "RankProfile", "generic_rank", "minor_determinant", "rank_profile"],
    "series": [
        "CompositionError",
        "FormalMap",
        "GaussianRational",
        "I",
        "ONE",
        "SeriesError",
        "TruncatedSeries",
        "ZERO",
        "gauss",
        "series_match",
    ],
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_export_resolves_to_its_modules_object():
    wrong = []
    for module, name in PAIRS:
        namespace = {}
        exec(f"from segre import {name}", namespace)
        defined = getattr(importlib.import_module(f"segre.{module}"), name)
        # cached in the package's namespace: the next lookup skips __getattr__
        if not namespace[name] is vars(segre).get(name) is defined:
            wrong.append(f"{module}.{name}")
    assert wrong == []


def test_dir_lists_every_export():
    listed = dir(segre)
    assert listed == sorted(listed)
    assert {name for _, name in PAIRS} <= set(listed)
    assert set(segre.__all__) == {name for _, name in PAIRS}


def test_unknown_names_raise_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        segre.no_such_name
    from segre import cli, linalg, orbit

    for module in (cli, linalg, orbit):
        assert isinstance(module, types.ModuleType)
    assert orbit.verify_all is segre.verify_all


def test_readme_python_api_runs_on_the_c2_fixture(monkeypatch):
    # README's Python API is the public contract that the engine keeps: its
    # block imports only exported names and yields the values its comments state
    block = readme_api()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "segre"
        for alias in node.names
    ]
    assert imported and set(imported) <= set(segre.__all__)
    assert "ranks (1, 2, 3, 3), k0 = 3" in block and "dim g(0) = 4" in block
    monkeypatch.chdir(FIXTURE_DIR)
    namespace = {}
    exec(block, namespace)
    assert namespace["profile"].ranks == (1, 2, 3, 3)
    assert namespace["profile"].k0 == 3
    assert namespace["lie"].dim_g0 == 4
