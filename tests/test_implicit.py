"""Graph solving, the reality identity, and truncated ideal membership."""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import (
    Dims,
    FormalMap,
    ManifoldSpec,
    TruncatedSeries,
    check_reality,
    gauss,
    load_manifold,
    load_manifold_file,
    solve_graph,
)
from segre.errors import SplitError

from conftest import random_real_rho_manifold
from oracles import ambient_names, degree_by_degree_graph, ideal_member

BENCH_CASES = Path(__file__).resolve().parent.parent / "bench" / "cases.py"


def load_rho(expr: str, N: int = 2, d: int = 1, kappa: int = 8):
    return load_manifold(ManifoldSpec(N, d, "rho", (expr,)), kappa)


def test_solve_graph_recovers_h():
    manifold = load_rho("-(i/2)*(Z2 - ze2) - Z1*ze1")
    assert manifold.Q.component(0).terms == {
        (0, 0, 1): gauss(1),
        (1, 1, 0): gauss(0, 2),
    }


def test_solve_graph_flat_already_solved():
    manifold = load_rho("-(i/2)*(Z2 - ze2)")
    assert manifold.Q.component(0).terms == {(0, 0, 1): gauss(1)}


def picard_solve_graph(graph, dims, kappa):
    """Independent second path: fixed-point iteration w <- ta + z*ch*w.

    Gains one valid degree per pass, so kappa passes reach the same quotient
    as the degree-by-degree linear solver.
    """
    arity = dims.graph_arity
    ta = TruncatedSeries.variable(arity, kappa, dims.gta(0))
    z = TruncatedSeries.variable(arity, kappa, dims.gz(0))
    ch = TruncatedSeries.variable(arity, kappa, dims.gch(0))
    q = TruncatedSeries.zero(arity, kappa)
    for _ in range(kappa + 1):
        q = ta + z * ch * q
    return q


def test_solve_graph_geometric_series_against_picard_oracle():
    # rho = w - ta - z*ch*w, so Q = ta * sum_k (z ch)^k up to the order.
    # This rho does not define a real ideal, which solve_graph does not
    # require; it goes through the solver directly rather than the loader.
    from segre import parse_expression, variable_table

    dims = Dims(2, 1)
    table = variable_table(ambient_names(dims))
    rho = FormalMap([parse_expression("w1 - ta1 - z1*ch1*w1", table, 8)])
    graph = solve_graph(rho, dims, 8)
    oracle = picard_solve_graph(graph, dims, 8)
    assert graph.Q.component(0) == oracle
    # explicit geometric expansion: ta * (1 + zch + (zch)^2 + (zch)^3)
    expected = {(0, 0, 1): gauss(1)}
    for k in range(1, 4):
        expected[(k, k, 1)] = gauss(1)
    assert graph.Q.component(0).terms == expected


def test_solve_graph_singular_split_rejected():
    dims = Dims(2, 1)
    arity = dims.ambient_arity
    # rho with no linear w-part under the standard split
    rho = FormalMap([TruncatedSeries.variable(arity, 6, dims.z(0))])
    with pytest.raises(SplitError):
        solve_graph(rho, dims, 6)


def test_check_reality_fixtures(all_fixture_manifolds):
    for manifold in all_fixture_manifolds.values():
        ok, witness = check_reality(manifold.graph, manifold.rho)
        assert ok and witness is None


def test_check_reality_failure_witness():
    from segre.implicit import GraphForm

    dims = Dims(2, 1)
    arity = dims.graph_arity
    q = TruncatedSeries(arity, 6, {(0, 0, 1): gauss(1), (1, 1, 0): gauss(1)})
    graph = GraphForm(dims, FormalMap([q]))
    ok, witness = check_reality(graph, graph.rho())
    assert not ok
    assert "z1" in witness and "ch1" in witness


def test_ideal_member_examples(manifold_h):
    rho = manifold_h.rho.component(0)
    assert ideal_member(rho, manifold_h.graph)
    assert ideal_member(rho.sigma(manifold_h.N), manifold_h.graph)
    z1 = TruncatedSeries.variable(manifold_h.dims.ambient_arity, 8, 0)
    assert not ideal_member(z1, manifold_h.graph)


def test_ideal_member_products(manifold_h):
    rho = manifold_h.rho.component(0)
    z1 = TruncatedSeries.variable(manifold_h.dims.ambient_arity, 8, 0)
    assert ideal_member(rho * z1, manifold_h.graph)
    assert not ideal_member(rho + z1, manifold_h.graph)


def test_back_substitution_annihilates_random_generic_inputs():
    rng = random.Random(20240815)
    for _ in range(12):
        manifold = random_real_rho_manifold(rng)
        membership = manifold.graph.membership_map()
        for j in range(manifold.d):
            assert manifold.rho.component(j).compose(membership).is_zero()
            # reality of the ideal: the conjugate-swapped generators belong too
            assert ideal_member(
                manifold.rho.component(j).sigma(manifold.N), manifold.graph
            )


# ---------------------------------------------------------------------------
# Newton lifting against the degree-by-degree oracle
# ---------------------------------------------------------------------------


def _bench_cases():
    """The benchmark's case generator (stdlib only), whose dataclasses need a module entry."""
    if "bench_cases" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_cases", BENCH_CASES)
        sys.modules["bench_cases"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_cases"]


@given(st.integers(0, 2**32), st.integers(2, 16))
@settings(max_examples=40)
def test_newton_graph_matches_degree_by_degree_oracle(seed, kappa):
    manifold = random_real_rho_manifold(random.Random(seed), kappa=kappa)
    oracle = degree_by_degree_graph(manifold.rho, manifold.dims, kappa)
    assert manifold.graph.valid_order == kappa
    assert [q.terms for q in manifold.Q.components] == [q.terms for q in oracle]
    assert all(q.kappa == kappa for q in manifold.Q.components)


@pytest.mark.parametrize("seed", [11, 12, 301])
@pytest.mark.parametrize("name", ["h-dense", "l4-dense"])
def test_newton_graph_on_dense_coordinates(seed, name, tmp_path):
    # h' and l4' of the dense-coords workload, at the top order 16 of a run
    _bench_cases().write_inputs("dense-coords", tmp_path, seed)
    manifold = load_manifold_file(tmp_path / f"{name}.json", 16)
    oracle = degree_by_degree_graph(manifold.rho, manifold.dims, 16)
    assert [q.terms for q in manifold.Q.components] == [q.terms for q in oracle]


@pytest.mark.parametrize("kappa", [2, 3, 4, 5, 8, 10, 16])
def test_solve_graph_composes_logarithmically_often(kappa, monkeypatch):
    from segre import implicit
    from test_cli import C2_DENSE_RHO

    manifold = load_manifold(ManifoldSpec(3, 2, "rho", C2_DENSE_RHO), kappa)
    calls = []
    real = implicit.compose_many

    def counting(outers, inner, memo=None):
        calls.append(len(outers))
        return real(outers, inner, memo)

    monkeypatch.setattr(implicit, "compose_many", counting)
    graph = solve_graph(manifold.rho, manifold.dims, kappa)
    assert graph.Q == manifold.Q
    # one composition per Newton step, kappa.bit_length() of them, and the final check
    assert len(calls) == kappa.bit_length() + 1 <= math.ceil(math.log2(kappa)) + 2


def test_a_rho_load_composes_once_over_w_to_q_for_both_checks(monkeypatch):
    # solve_graph's annihilation check and the reality residuals share one
    # memo over the inner map w -> Q, so the second builds only the products
    # the first did not
    from segre import implicit
    from test_cli import C2_DENSE_RHO

    memos = []
    real = implicit.compose_many

    def spy(outers, inner, memo=None):
        memos.append(memo)
        return real(outers, inner, memo)

    monkeypatch.setattr(implicit, "compose_many", spy)
    load_manifold(ManifoldSpec(3, 2, "rho", C2_DENSE_RHO), 8)
    annihilation, reality = memos[-2:]
    assert annihilation is reality and annihilation[None][0] == 16
