"""Command-line frontend: outputs, exit codes, determinism, golden files."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre import cli, orbit
from segre.errors import InternalConsistencyError
from segre.expressions import MAX_N
from segre.series import SeriesError

from conftest import FIXTURE_DIR, count_loads, late_split_rho

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_fixture_h(capsys):
    code, out, _ = run_cli(capsys, "rank", "--fixture", "h")
    assert code == 0
    assert "k0 = 2" in out
    assert (GOLDEN_DIR / "rank_h.txt").read_text() == out


def test_rank_json_values(capsys):
    expectations = {
        "h": ([1, 2, 2], 2),
        "flat": ([1, 1, 1], 1),
        "l4": ([1, 2, 2], 2),
        "c2": ([1, 2, 3, 3], 3),
    }
    for name, (ranks, k0) in expectations.items():
        code, out, _ = run_cli(capsys, "rank", "--fixture", name, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == cli.SCHEMA == 2
        assert payload["ranks"] == ranks
        assert payload["k0"] == k0
        assert payload["stable"] is True


def test_rank_accepts_file_path(capsys):
    code, out, _ = run_cli(capsys, "rank", str(FIXTURE_DIR / "h.json"))
    assert code == 0
    assert "k0 = 2" in out


def test_rank_of_a_late_split_at_n20(tmp_path, capsys):
    # the w-columns are the last 10 of 20: one elimination finds them, where
    # a search over column subsets would try C(20, 10) = 184,756 minors
    manifold = tmp_path / "late20.json"
    manifold.write_text(json.dumps(late_split_rho(20, 10)))
    code, out, err = run_cli(capsys, "rank", str(manifold), "--kappa", "2")
    assert code == 0, err
    assert "k0 = 2" in out


# ---------------------------------------------------------------------------
# finite-type
# ---------------------------------------------------------------------------


def test_finite_type_reports_both_routes(capsys):
    code, out, _ = run_cli(capsys, "finite-type", "--fixture", "l4")
    assert code == 0
    assert "finite type: yes" in out
    assert "routes agree: yes" in out
    code, out, _ = run_cli(capsys, "finite-type", "--fixture", "flat", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["finite_type"] == {"lie": False, "segre": False}


def test_finite_type_l4_golden(capsys):
    code, out, _ = run_cli(capsys, "finite-type", "--fixture", "l4")
    assert code == 0
    assert (GOLDEN_DIR / "finite_type_l4.txt").read_text() == out


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def test_orbit_flat(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--fixture", "flat", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 1
    assert payload["orbit_generators"] == ["w1"]


def test_orbit_h_and_c2(capsys):
    for name in ("h", "c2"):
        code, out, _ = run_cli(capsys, "orbit", "--fixture", name, "--json")
        assert code == 0
        assert json.loads(out)["e"] == 0


def test_orbit_c2_json_golden(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--fixture", "c2", "--json")
    assert code == 0
    assert (GOLDEN_DIR / "orbit_c2.txt").read_text() == out


def test_orbit_inconclusive_degree_bound(tmp_path, capsys):
    # the annihilator here has degree 4, out of reach of bound 1, and the
    # search stops at the bound
    manifold = tmp_path / "quartic.json"
    manifold.write_text(
        json.dumps(
            {
                "N": 2,
                "d": 1,
                "form": "graph",
                "expressions": ["ta1 + i*z1^4 + i*ch1^4"],
            }
        )
    )
    code, out, err = run_cli(capsys, "orbit", str(manifold), "--degree", "1")
    assert code == cli.EXIT_INCONCLUSIVE
    assert out == ""
    assert err == (
        "inconclusive: annihilator count 0 (degree bound 1) disagrees with "
        "N - Rk v^k0 = 1; escalate the degree bound\n"
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_flat_golden(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fixture", "flat")
    assert code == 0
    assert (GOLDEN_DIR / "verify_flat.txt").read_text() == out


# l4 (Im w = |z|^4) after the seeded linear coordinate change Z -> B Z: every
# series of the construction is dense, unlike the sparse h and flat goldens
L4_DENSE_RHO = (
    "(-1/2 + (1/2)*i)*ze2^1 + (-1/2 + (-1/2)*i)*ze1^1 + (-1/2 + (-1/2)*i)*Z2^1"
    " + (-25/16 + (0)*i)*Z2^2*ze2^2 + (15/4 + (5/4)*i)*Z2^2*ze1^1*ze2^1"
    " + (-2 + (-3/2)*i)*Z2^2*ze1^2 + (-1/2 + (1/2)*i)*Z1^1"
    " + (15/4 + (-5/4)*i)*Z1^1*Z2^1*ze2^2 + (-10 + (0)*i)*Z1^1*Z2^1*ze1^1*ze2^1"
    " + (6 + (2)*i)*Z1^1*Z2^1*ze1^2 + (-2 + (3/2)*i)*Z1^2*ze2^2"
    " + (6 + (-2)*i)*Z1^2*ze1^1*ze2^1 + (-4 + (0)*i)*Z1^2*ze1^2"
)


def test_verify_l4_dense_golden(tmp_path, capsys):
    manifold = tmp_path / "l4-dense.json"
    manifold.write_text(json.dumps({"N": 2, "d": 1, "form": "rho", "expressions": [L4_DENSE_RHO]}))
    code, out, _ = run_cli(capsys, "verify", str(manifold), "--json")
    assert code == 0
    assert (GOLDEN_DIR / "verify_l4_dense.txt").read_text() == out


# c2 (Im w1 = |z|^2, Im w2 = |z|^4, codimension 2) after Z1 -> Z1 + Z2: the
# split puts w = (Z2, Z3), so rho is nonlinear in w and its 2 x 2 w-Jacobian
# is coupled, which the d = 1 l4 golden above never reaches
C2_DENSE_RHO = (
    "1/2*i*ze2 - 1/2*i*Z2 - Z2*ze2 - Z2*ze1 - Z1*ze2 - Z1*ze1",
    "1/2*i*ze3 - 1/2*i*Z3 - Z2^2*ze2^2 - 2*Z2^2*ze1*ze2 - Z2^2*ze1^2 - 2*Z1*Z2*ze2^2"
    " - 4*Z1*Z2*ze1*ze2 - 2*Z1*Z2*ze1^2 - Z1^2*ze2^2 - 2*Z1^2*ze1*ze2 - Z1^2*ze1^2",
)


def test_verify_c2_dense_golden(tmp_path, capsys):
    manifold = tmp_path / "c2-dense.json"
    manifold.write_text(json.dumps({"N": 3, "d": 2, "form": "rho", "expressions": list(C2_DENSE_RHO)}))
    code, out, _ = run_cli(capsys, "verify", str(manifold), "--json", "--kappa", "6")
    assert code == 0
    assert (GOLDEN_DIR / "verify_c2_dense.txt").read_text() == out


def test_verify_c2_dense_golden_at_default_kappa(tmp_path, capsys):
    manifold = tmp_path / "c2-dense.json"
    manifold.write_text(json.dumps({"N": 3, "d": 2, "form": "rho", "expressions": list(C2_DENSE_RHO)}))
    code, out, _ = run_cli(capsys, "verify", str(manifold), "--json", "--kappa", "8")
    assert code == 0
    assert (GOLDEN_DIR / "verify_c2_dense_k8.txt").read_text() == out


# the Heisenberg quadric Im w = |z|^2 given by its defining function: loaded
# through the rho route, which chooses the split and solves the graph itself
RHO_QUADRIC = {"N": 2, "d": 1, "form": "rho", "expressions": ["-(i/2)*(Z2 - ze2) - Z1*ze1"]}


@pytest.mark.parametrize("command", ["rank", "verify"])
def test_rho_quadric_json_golden(tmp_path, capsys, command):
    manifold = tmp_path / "rho-quadric.json"
    manifold.write_text(json.dumps(RHO_QUADRIC))
    code, out, _ = run_cli(capsys, command, str(manifold), "--json")
    assert code == 0
    assert (GOLDEN_DIR / f"{command}_rho_quadric.txt").read_text() == out


# real to order 8 but not to order 16: the load gate, which reads the top
# order, refuses it at kappa = 8
UNREAL_ABOVE_8 = {"N": 2, "d": 1, "form": "rho", "expressions": ["-(i/2)*(Z2 - ze2) - Z1*ze1 + i*Z1^6*ze1^6"]}


def test_every_command_refuses_an_ideal_real_only_below_the_top_order(tmp_path, capsys):
    # every command's load refuses it before the command runs
    manifold = tmp_path / "unreal-above-8.json"
    manifold.write_text(json.dumps(UNREAL_ABOVE_8))
    for command in ("rank", "finite-type", "orbit", "verify"):
        code, out, err = run_cli(capsys, command, str(manifold), "--kappa", "8")
        assert code == cli.EXIT_LOAD == 2
        assert out == ""
        assert err == (
            "error: defining ideal is not real: reality identity fails at component 1, monomial z1^6*ch1^6\n"
        )


@pytest.mark.parametrize("command", ["rank", "finite-type", "orbit", "verify"])
@pytest.mark.parametrize("source", ["c2", "rho-quadric"])
def test_each_expression_is_parsed_and_solved_once_at_the_top_order(tmp_path, monkeypatch, capsys, source, command):
    # every lower order of the run is a truncation of the one load at kappa + 8
    if source == "c2":
        argv, expected = ["--fixture", "c2"], {"parse": [16, 16], "solve": []}
    else:
        manifold = tmp_path / "rho-quadric.json"
        manifold.write_text(json.dumps(RHO_QUADRIC))
        argv, expected = [str(manifold)], {"parse": [16], "solve": [16]}
    loads = count_loads(monkeypatch)
    code, out, _ = run_cli(capsys, command, *argv)
    assert code == cli.EXIT_OK and out
    assert loads == expected


@pytest.mark.parametrize("command", ["rank", "finite-type", "orbit", "verify"])
@pytest.mark.parametrize("source", ["h", "rho-quadric"])
def test_each_command_checks_reality_once_at_the_top_order(tmp_path, monkeypatch, capsys, source, command):
    # the load's gate is the one reality check of a run; every order below the
    # top is a truncation of the form it checked
    from segre import expressions

    if source == "h":
        argv = ["--fixture", "h"]
    else:
        manifold = tmp_path / "rho-quadric.json"
        manifold.write_text(json.dumps(RHO_QUADRIC))
        argv = [str(manifold)]
    orders = []
    real_check = expressions.check_reality

    def counting_check(graph, rho, memo=None):
        orders.append(graph.valid_order)
        return real_check(graph, rho, memo)

    monkeypatch.setattr(expressions, "check_reality", counting_check)
    code, out, _ = run_cli(capsys, command, *argv)
    assert code == cli.EXIT_OK and out
    assert orders == [16]


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--fixture", "h", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == cli.SCHEMA == 2
    assert set(payload) == {
        "schema",
        "manifold",
        "config",
        "ranks",
        "k0",
        "stable",
        "dim_g0",
        "e",
        "finite_type",
        "orbit_generators",
        "mirror",
        "checks",
    }
    assert payload["finite_type"] == {"lie": True, "segre": True}
    assert set(payload["mirror"]) == {"annihilates", "rank", "generators"}
    assert payload["mirror"]["annihilates"] is True
    assert all(check["pass"] for check in payload["checks"].values())


def test_verify_byte_determinism_across_jobs(capsys):
    runs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "verify", "--fixture", "h", "--json", "--jobs", jobs, "--seed", "7"
        )
        assert code == 0
        runs.append(out.encode())
    assert runs[0] == runs[1]
    code, out, _ = run_cli(capsys, "verify", "--fixture", "h", "--json", "--seed", "7")
    assert out.encode() == runs[0]


# ---------------------------------------------------------------------------
# loading errors and exit codes
# ---------------------------------------------------------------------------


def test_load_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(
        json.dumps(
            {"N": 2, "d": 1, "form": "graph", "expressions": ["ta1 + z1*ch1"]}
        )
    )
    code, _, err = run_cli(capsys, "verify", str(broken))
    assert code == cli.EXIT_LOAD
    assert "not real" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "rank", "/nonexistent/m.json")
    assert code == cli.EXIT_LOAD


def test_unparseable_expression_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"N": 2, "d": 1, "form": "graph", "expressions": ["ta1 +"]})
    )
    code, _, err = run_cli(capsys, "rank", str(bad))
    assert code == cli.EXIT_LOAD
    assert "position" in err


def test_check_failure_exit_code(monkeypatch, capsys):
    from segre import orbit as orbit_module
    from segre.orbit import CheckResult

    real_verify = orbit_module.verify_all

    def sabotaged(manifold, config=None):
        report = real_verify(manifold, config)
        checks = dict(report.checks)
        checks["central_identity"] = CheckResult("central_identity", False, "forced")
        object.__setattr__(report, "checks", checks)
        return report

    monkeypatch.setattr(orbit_module, "verify_all", sabotaged)
    code, out, _ = run_cli(capsys, "verify", "--fixture", "flat")
    assert code == cli.EXIT_CHECK_FAILED
    assert "CHECKS FAILED" in out


def test_unstable_rank_exit_code(monkeypatch, capsys):
    from segre import rank_profile as real_rank_profile

    def unstable(segre, J_max, seed):
        profile = real_rank_profile(segre, J_max, seed)
        certs = tuple(cert.replace(stable=False) for cert in profile.certificates)
        return profile.replace(certificates=certs, stable=False)

    monkeypatch.setattr(cli, "rank_profile", unstable)
    code, out, _ = run_cli(capsys, "rank", "--fixture", "h")
    assert code == cli.EXIT_INCONCLUSIVE
    assert "no" in out


@pytest.mark.parametrize("command", ["verify", "orbit"])
def test_unstable_profile_exits_inconclusive(capsys, command):
    # at order 4, Rk v^3 of c2 reaches N = 3 only after escalating to order 8
    code, out, err = run_cli(capsys, command, "--fixture", "c2", "--kappa", "4", "--json")
    assert code == cli.EXIT_INCONCLUSIVE
    assert err.startswith("inconclusive: ranks moved under order escalation")
    assert err.count("\n") == 1
    payload = json.loads(out)
    assert all(check["pass"] for check in payload["checks"].values())


@pytest.mark.parametrize(
    "command, fixture, depth",
    [("finite-type", "c2", 2), ("verify", "c2", 2), ("verify", "h", 1), ("finite-type", "h", 1)],
)
def test_an_unstable_bracket_closure_exits_inconclusive(capsys, command, fixture, depth):
    # c2 and h are of finite type; cut off while it still grows, dim g(0) is
    # only a lower bound, so the checks and the route it fails are no theorem failure
    code, out, err = run_cli(capsys, command, "--fixture", fixture, "--depth", str(depth))
    assert code == cli.EXIT_INCONCLUSIVE
    assert err == f"inconclusive: dim g(0) still grew at bracket depth {depth}\n"
    assert ("routes agree: NO" if command == "finite-type" else "CHECKS FAILED") in out


# c4 (N=5, d=4) at the default order: Rk v^4 first reads 4 at order 12, so
# its profile moves, and every command names the moved ranks
C4 = {"N": 5, "d": 4, "form": "graph", "expressions": [f"ta{k} + 2*i*z1^{k}*ch1^{k}" for k in range(1, 5)]}
C4_MOVED = (
    "inconclusive: ranks moved under order escalation "
    "(Rk v^4 = 4 from order 12, Rk v^5 = 4 from order 12, Rk v^6 = 4 from order 12)\n"
)


def test_failed_check_on_a_moved_rank_exits_inconclusive(tmp_path, capsys):
    # the rank route's "not of finite type" rests on the moved ranks; the
    # routes' disagreement is inconclusive, with the moved ranks as the
    # reason, and no theorem failure
    manifold = tmp_path / "c4.json"
    manifold.write_text(json.dumps(C4))
    code, out, err = run_cli(capsys, "finite-type", str(manifold))
    assert code == cli.EXIT_INCONCLUSIVE
    assert "routes agree: NO" in out
    assert err == C4_MOVED


@pytest.mark.parametrize("command", ["orbit", "verify"])
def test_an_inconclusive_orbit_phase_on_a_moved_rank_names_the_moved_ranks(tmp_path, capsys, command):
    # c4's annihilator count N - Rk v^k0 rests on the moved ranks, so the
    # reason is those ranks, never a larger degree bound
    manifold = tmp_path / "c4.json"
    manifold.write_text(json.dumps(C4))
    code, out, err = run_cli(capsys, command, str(manifold))
    assert (code, out, err) == (cli.EXIT_INCONCLUSIVE, "", C4_MOVED)


@pytest.mark.parametrize(
    "argv, seed",
    [
        (["rank", "--fixture", "h", "--kappa", "1"], None),
        (["orbit", "--fixture", "h", "--degree", "9"], None),
        (["rank", "--fixture", "h", "--jobs", "0"], None),
        (["rank", "--fixture", "h"], "abc"),
        (["rank", "--fixture", "c2", "--jmax", "3"], None),
        (["finite-type", "--fixture", "h", "--depth", "0"], None),
        (["rank", "--fixture", "h", "--jmax", "40"], None),
    ],
    ids=[
        "kappa-1",
        "degree-9",
        "jobs-0",
        "seed-abc",
        "jmax-below-d-plus-2",
        "depth-0",
        "jmax-past-variable-cap",
    ],
)
def test_config_errors_exit_usage(argv, seed):
    assert_usage_error(run_cli_process(argv, seed))


def run_cli_process(argv, seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    env.pop("SEGRE_SEED", None)
    if seed is not None:
        env["SEGRE_SEED"] = seed
    return subprocess.run(
        [sys.executable, "-m", "segre.cli", *argv], capture_output=True, text=True, env=env
    )


def assert_usage_error(proc):
    assert proc.returncode == cli.EXIT_LOAD
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def _graph_file(expression: str) -> str:
    return json.dumps({"N": 2, "d": 1, "form": "graph", "expressions": [expression]})


@pytest.mark.parametrize(
    "content, message",
    [
        (_graph_file("ta1 + 2*i*" + "(" * 3000 + "z1*ch1" + ")" * 3000), "nested deeper than"),
        (_graph_file("ta1 + 2*i*" + "-" * 3000 + "z1*ch1"), "nested deeper than"),
        ("[" * 100000 + "]" * 100000, "maximum recursion depth"),
        (b"\xff\xfe{}", "codec can't decode"),
        ('[{"N": 2}]', "expected a JSON object, got list"),
        ('{"N": 1e999, "d": 1, "form": "graph", "expressions": ["ta1"]}', "N must be an integer, got float"),
        ('{"N": 2.9, "d": 1.5, "form": "graph", "expressions": ["ta1"]}', "N must be an integer, got float"),
        ('{"N": "2", "d": 1, "form": "graph", "expressions": ["ta1"]}', "N must be an integer, got str"),
        ('{"N": 2, "d": true, "form": "graph", "expressions": ["ta1"]}', "d must be an integer, got bool"),
        ('{"N": 3, "d": 2, "form": "graph", "expressions": "ab"}', "expressions must be a list of strings"),
        ('{"N": 2, "d": 1, "form": "graph", "expressions": [7]}', "expressions must be a list of strings"),
        (
            '{"N": 3, "d": 2, "form": "rho", "expressions": ["Z2 - ze2", "Z3 - ze3"], "split": [1.7, 2.2]}',
            "split must be a list of integers",
        ),
        ('{"N": ' + "1" * 5000 + ', "d": 1, "form": "graph", "expressions": ["ta1"]}', "Exceeds the limit (4300 digits)"),
        (_graph_file("ta1 + 2*i*z1*ch1 + " + "7" * 5000), "integer literal of 5000 digits is too long"),
        (
            '{"N": 2, "d": 1, "form": "rho", "expressions": ["Z2 - ze2 - 2*i*Z1*ze1"], "split": [1, 1]}',
            "split must list d distinct",
        ),
        (_graph_file("ta1 + 2*i*z1*ch1 + 0*3^100000000"), "exceeds the cap MAX_POWER_BITS"),
        (_graph_file("ta1 + 2*i*z1*ch1 + 0*(3 + z1)^1000000"), "exceeds the cap MAX_POWER_BITS"),
        ('{"N": 10000000, "d": 1, "form": "graph", "expressions": ["ta1"]}', "exceeds the cap MAX_N = 64"),
        # integer literals are ASCII digits: no other Unicode digit reads as a value
        (_graph_file("ta1 + 2*i*z1*ch1 + z1^\u00b2"), "unexpected character '\u00b2'"),
        (_graph_file("ta1 + \u0662*i*z1*ch1"), "unexpected character '\u0662'"),
        (_graph_file("ta1 + 2*i*z1*ch1*\uff11"), "unexpected character '\uff11'"),
    ],
    ids=[
        "parentheses",
        "unary-minus",
        "json-arrays",
        "not-utf8",
        "not-an-object",
        "infinite-N",
        "float-N-and-d",
        "string-N",
        "bool-d",
        "string-expressions",
        "number-expression",
        "float-split",
        "long-N",
        "long-literal",
        "repeated-split",
        "constant-power",
        "series-power",
        "huge-N",
        "superscript-digit",
        "arabic-indic-digit",
        "fullwidth-digit",
    ],
)
def test_hostile_file_exits_usage(tmp_path, content, message):
    hostile = tmp_path / "hostile.json"
    hostile.write_bytes(content if isinstance(content, bytes) else content.encode())
    proc = run_cli_process(["rank", str(hostile)])
    assert_usage_error(proc)
    assert message in proc.stderr


def test_cli_import_skips_dataclasses_and_resources():
    # these modules cost tens of milliseconds of every process's start
    heavy = ("dataclasses", "inspect", "tokenize", "ast", "importlib.resources")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import segre.cli; "
        f"print(sorted(name for name in {heavy!r} if name in sys.modules))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_each_entry_point_loads_only_its_modules():
    # without bytecode caches every loaded module is compiled from source
    script = "\n".join(
        [
            "import contextlib, io, json, sys",
            "sys.path.insert(0, sys.argv[1])",
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('segre.'))",
            "import segre",
            "steps = {'import': loaded()}",
            "from segre import cli",
            "for command in ('rank', 'verify'):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        code = cli.main([command, '--fixture', 'h'])",
            "    steps[command] = (code, loaded())",
            "print(json.dumps(steps))",
        ]
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", script, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    assert steps["import"] == []
    code, after_rank = steps["rank"]
    assert code == cli.EXIT_OK
    assert "segre.rank" in after_rank
    assert "segre.orbit" not in after_rank and "segre.fields" not in after_rank
    code, after_verify = steps["verify"]
    assert code == cli.EXIT_OK
    assert {"segre.orbit", "segre.fields"} <= set(after_verify)


def test_internal_error_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise InternalConsistencyError("ranks moved backwards")

    monkeypatch.setattr(cli, "rank_profile", explode)
    code, _, err = run_cli(capsys, "rank", "--fixture", "h")
    assert code == cli.EXIT_INTERNAL
    assert "internal" in err


def test_series_error_exits_internal_without_traceback(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise SeriesError("arity mismatch: 2 vs 3")

    monkeypatch.setattr(cli, "rank_profile", explode)
    code, out, err = run_cli(capsys, "rank", "--fixture", "h")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "Traceback" not in err
    assert err == "error: arity mismatch: 2 vs 3\n"


def test_env_seed_overrides_flag(monkeypatch, capsys):
    monkeypatch.setenv("SEGRE_SEED", "424242")
    code, out, _ = run_cli(capsys, "rank", "--fixture", "h", "--json", "--seed", "1")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 424242


def test_unknown_fixture(capsys):
    with pytest.raises(SystemExit):
        cli.main(["rank", "--fixture", "nope"])


@pytest.mark.parametrize(
    "argv, bound, degree",
    [
        (["verify", "--fixture", "h", "--degree", "1"], 1, 2),
        (["verify", "--fixture", "l4", "--kappa", "7"], 3, 4),
    ],
    ids=["h-degree-1", "l4-kappa-7"],
)
def test_degree_bound_below_rho_degree_is_inconclusive(argv, bound, degree):
    # a kernel searched up to degree b cannot hold a defining function of higher degree
    proc = run_cli_process(argv)
    assert proc.returncode == cli.EXIT_INCONCLUSIVE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("inconclusive: ") and proc.stderr.count("\n") == 1
    assert f"degree bound {bound} is below the degree {degree}" in proc.stderr


@pytest.mark.parametrize("command", ["orbit", "verify"])
def test_levi_flat_n20_kernel_searches_stop_at_degree_1(tmp_path, capsys, command):
    # degree 4 of the orbit ideal in 40 variables would pass the monomial
    # cap, but both searches stop at degree 1, after 20 and 40 monomials
    flat = tmp_path / "leviflat.json"
    flat.write_text(json.dumps({"N": 20, "d": 1, "form": "graph", "expressions": ["ta1"]}))
    code, out, err = run_cli(capsys, command, str(flat), "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["e"] == 1
    if command == "verify":
        assert (payload["ranks"], payload["k0"], payload["dim_g0"]) == ([19, 19, 19], 1, 38)


def test_kernel_search_is_refused_at_the_degree_that_passes_the_cap(tmp_path, monkeypatch, capsys):
    # w - i z^4 needs degree 4: 2, 5 and 9 monomials of degree <= 1, 2, 3
    # pass a cap of 10, and the 14 of degree <= 4 do not
    monkeypatch.setattr(orbit, "MAX_MONOMIALS", 10)
    quartic = tmp_path / "quartic.json"
    quartic.write_text(_graph_file("ta1 + i*z1^4 + i*ch1^4"))
    code, out, err = run_cli(capsys, "orbit", str(quartic), "--degree", "4")
    assert code == cli.EXIT_INCONCLUSIVE
    assert out == ""
    assert err == "inconclusive: 14 monomials of degree <= 4 in 2 variables exceed the cap MAX_MONOMIALS = 10\n"


def test_orbit_and_verify_give_one_reason_below_the_annihilator_degree(tmp_path, capsys):
    # w - i z^2 is out of reach of bound 1 for both commands
    curved = tmp_path / "curved.json"
    curved.write_text(_graph_file("ta1 + i*z1^2 + i*ch1^2"))
    reason = (
        "inconclusive: annihilator count 0 (degree bound 1) disagrees with "
        "N - Rk v^k0 = 1; escalate the degree bound\n"
    )
    for command in ("orbit", "verify"):
        assert run_cli(capsys, command, str(curved), "--degree", "1") == (cli.EXIT_INCONCLUSIVE, "", reason)


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract
# ---------------------------------------------------------------------------

# terms i*P(z, ch) with P(z, ch) = P(ch, z) real: each keeps w = ta + i*P real
_REAL_TERMS = {
    1: ["2*i*z1*ch1", "2*i*z1^2*ch1^2", "i*z1^2*ch1 + i*z1*ch1^2"],
    2: ["2*i*z1*ch1", "2*i*z2*ch2", "i*z1*ch2 + i*z2*ch1", "i*z1^2*ch1*ch2 + i*z1*z2*ch1^2"],
}
_TOKENS = [
    "z1", "z2", "ch1", "ch2", "ta1", "ta2", "w1", "Z1", "Z2", "ze1", "ze2", "i", "x",
    "0", "1", "2", "9", "+", "-", "*", "/", "^", "(", ")", " ", "$",
]
_POWER_BASES = ["3", "(2/3)", "i", "(1 + i)", "z1", "(3 + z1)", "(1 + z1*ch1)"]
_ODD_VALUES = st.sampled_from(
    [None, True, "2", "two", 2.0, 2.5, -1, 0, 7, float("inf"), float("nan"), [], {}, [2], "ta1"]
)


@st.composite
def _manifold_documents(draw):
    """Mostly loadable manifolds, some with one field damaged, an N past the cap, some not manifolds at all, or none."""
    kind = draw(st.sampled_from(["graph"] * 6 + ["rho"] * 2 + ["huge-N", "not-an-object", "not-json", "none"]))
    if kind == "none":
        return None
    if kind == "not-an-object":
        return json.dumps(draw(st.one_of(_ODD_VALUES, st.lists(_ODD_VALUES, max_size=2))))
    if kind == "not-json":
        return draw(st.sampled_from(["", "{", '{"N": 2,}', "[[[", "\x00", '{"N": 2} {}']))
    if kind == "huge-N":
        data = {"N": draw(st.integers(MAX_N + 1, 10**9)), "d": 1, "form": "graph", "expressions": ["ta1"]}
    elif kind == "graph":
        N, d = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
        soup = st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join)
        real = st.lists(st.sampled_from(_REAL_TERMS[N - d]), max_size=2)
        # a power far past the cap on its bit size, or one that is admitted
        exponents = st.one_of(st.integers(0, 12), st.integers(0, 10**9))
        power = st.tuples(st.sampled_from(_POWER_BASES), exponents).map(lambda p: [f"0*{p[0]}^{p[1]}"])
        expressions = [
            " + ".join([f"ta{row}", *draw(st.one_of(real, real, real, soup.map(lambda text: [text]), power))])
            for row in range(1, d + 1)
        ]
        data = {"N": N, "d": d, "form": "graph", "expressions": expressions}
    else:
        expression = draw(st.sampled_from(["-(i/2)*(Z2 - ze2) - Z1*ze1", "Z2 - ze2", "Z1*ze1 + Z2"]))
        data = {"N": 2, "d": 1, "form": "rho", "expressions": [expression]}
        if draw(st.booleans()):
            data["split"] = draw(st.lists(st.integers(-1, 2), max_size=2))
    if draw(st.integers(0, 5)) == 0:
        data[draw(st.sampled_from(["N", "d", "form", "expressions", "split"]))] = draw(_ODD_VALUES)
    return json.dumps(data)


def _flags():
    """A few options, each mostly in range: the order stays at most 6."""
    odd = st.sampled_from(["-1", "0", "x", ""])
    options = {
        "--kappa": st.integers(2, 6).map(str),
        "--jmax": st.integers(3, 5).map(str),
        "--depth": st.integers(1, 4).map(str),
        "--degree": st.integers(1, 3).map(str),
        "--seed": st.integers(-2, 2).map(str),
        "--jobs": st.integers(1, 2).map(str),
        "--fixture": st.sampled_from(["h", "flat", "l4", "nope"]),
    }
    pair = st.sampled_from(sorted(options)).flatmap(
        lambda name: st.one_of(*[options[name]] * 5, odd).map(lambda value: [name, value])
    )
    return st.lists(pair, max_size=2).map(lambda pairs: [part for pair in pairs for part in pair])


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["rank", "finite-type", "orbit", "verify"] * 3 + ["bogus"]),
    document=_manifold_documents(),
    flags=_flags(),
    as_json=st.booleans(),
    small_kappa=st.sampled_from(["2", "4", "6"]),
)
def test_cli_exit_code_contract_holds_on_hostile_input(command, document, flags, as_json, small_kappa):
    # the order stays at most 6, so no example costs more than a fraction of a second
    argv = [command, "--kappa", small_kappa, *flags, *(["--json"] if as_json else [])]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        if document is not None:
            path = Path(folder) / "manifold.json"
            path.write_text(document)
            argv.insert(1, str(path))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, document, err)
    assert "Traceback" not in err
    if code == 0:
        assert out
    elif out:
        # an error leaves stdout untouched; exits 3 and 4 may follow a whole report
        assert code in (cli.EXIT_INCONCLUSIVE, cli.EXIT_CHECK_FAILED), (argv, document, out)
        assert out.endswith("\n")
        if as_json:
            assert json.loads(out)["schema"] == cli.SCHEMA
    if command == "finite-type" and as_json and out and not json.loads(out)["stable"]:
        # a moved rank or an unstable bracket closure is inconclusive, never a failure
        assert code == cli.EXIT_INCONCLUSIVE, (argv, document, err)
