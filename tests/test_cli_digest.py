"""A committed digest of the command-line output on a fixed matrix of inputs.

Each run calls ``cli.main`` in-process at the default seed and hashes its
exit code, stdout and stderr together; ``goldens/cli_matrix.json`` holds one
sha256 per run.  A change that keeps every report byte for byte keeps the
digest.  Regenerate it, after a deliberate output change, with

    PYTHONPATH=src:tests python tests/test_cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

from segre import cli

from test_cli import RHO_QUADRIC, UNREAL_ABOVE_8

GOLDEN = Path(__file__).resolve().parent / "goldens" / "cli_matrix.json"

COMMANDS = ("rank", "finite-type", "orbit", "verify")


def _graph(N: int, d: int, *expressions: str) -> dict:
    return {"N": N, "d": d, "form": "graph", "expressions": list(expressions)}


def _rho(N: int, d: int, *expressions: str) -> dict:
    return {"N": N, "d": d, "form": "rho", "expressions": list(expressions)}


# h and l4 after the linear change of coordinates that the benchmark's
# dense-coords workload draws at seed 27001
H_DENSE = _rho(
    2,
    1,
    "(1/2 + (-1/2)*i)*ze2^1 + (-1/2 + (-1/2)*i)*ze1^1 + (1/2 + (1/2)*i)*Z2^1 + (-2 + (0)*i)*Z2^1*ze2^1"
    " + (-3 + (1)*i)*Z2^1*ze1^1 + (-1/2 + (1/2)*i)*Z1^1 + (-3 + (-1)*i)*Z1^1*ze2^1 + (-5 + (0)*i)*Z1^1*ze1^1",
)
L4_DENSE = _rho(
    2,
    1,
    "(1/2 + (-1/2)*i)*ze2^1 + (-1/2 + (-1/2)*i)*ze1^1 + (1/2 + (1/2)*i)*Z2^1 + (-4 + (0)*i)*Z2^2*ze2^2"
    " + (-12 + (4)*i)*Z2^2*ze1^1*ze2^1 + (-8 + (6)*i)*Z2^2*ze1^2 + (-1/2 + (1/2)*i)*Z1^1"
    " + (-12 + (-4)*i)*Z1^1*Z2^1*ze2^2 + (-40 + (0)*i)*Z1^1*Z2^1*ze1^1*ze2^1 + (-30 + (10)*i)*Z1^1*Z2^1*ze1^2"
    " + (-8 + (-6)*i)*Z1^2*ze2^2 + (-30 + (-10)*i)*Z1^2*ze1^1*ze2^1 + (-25 + (0)*i)*Z1^2*ze1^2",
)

# the file inputs, each written under its own name so that labels and messages stay fixed
FILES = {
    "n2": _graph(3, 1, "ta1 + 2*i*(z1*ch1 + z2*ch2)"),
    "rho-quadric": RHO_QUADRIC,
    "c3": _graph(4, 3, "ta1 + 2*i*z1*ch1", "ta2 + 2*i*z1^2*ch1^2", "ta3 + 2*i*z1^3*ch1^3"),
    "leviflat5": _graph(5, 1, "ta1"),
    "h-dense": H_DENSE,
    "l4-dense": L4_DENSE,
    "infinite-type": _rho(2, 1, "-(i/2)*(Z2 - ze2) - (Z2 + ze2)/2*Z1*ze1"),
    "product": _graph(3, 2, "ta1 + 2*i*z1*ch1", "ta2"),
    "unreal-above-8": UNREAL_ABOVE_8,
}

# (name, arguments naming the manifold and its order)
INPUTS = (
    *((name, ["--fixture", name]) for name in cli.FIXTURES),
    ("n2", ["n2.json"]),
    ("rho-quadric", ["rho-quadric.json"]),
    ("c3@8", ["c3.json", "--kappa", "8"]),
    ("c3@10", ["c3.json", "--kappa", "10"]),
    ("leviflat5", ["leviflat5.json"]),
    ("h-dense", ["h-dense.json"]),
    ("l4-dense", ["l4-dense.json"]),
    ("infinite-type", ["infinite-type.json"]),
    ("product", ["product.json"]),
    ("unreal-above-8", ["unreal-above-8.json"]),
)


def _digest(code, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def cli_matrix(folder: Path) -> Dict[str, str]:
    """{run: sha256 of its exit code, stdout and stderr}, for every command on
    every input, as text and as ``--json``, with the files written to ``folder``."""
    for name, document in FILES.items():
        (folder / f"{name}.json").write_text(json.dumps(document))
    digests = {}
    for label, source in INPUTS:
        source = [str(folder / arg) if arg.endswith(".json") else arg for arg in source]
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([command, *source, *flags])
                digests[" ".join([command, label, *flags])] = _digest(code, out.getvalue(), err.getvalue())
    return digests


def test_the_cli_output_matches_the_committed_digest(tmp_path, monkeypatch):
    monkeypatch.delenv("SEGRE_SEED", raising=False)
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == len(INPUTS) * len(COMMANDS) * 2
    assert cli_matrix(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        matrix = cli_matrix(Path(folder))
    GOLDEN.write_text(json.dumps(matrix, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(matrix)} digests to {GOLDEN}", file=sys.stderr)
