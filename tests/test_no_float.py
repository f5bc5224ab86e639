"""No float anywhere in the engine: every module's syntax tree is scanned for
float literals, ``float(...)``/``round(...)`` calls and any ``math`` name
other than ``gcd``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "segre"
MODULES = sorted(SOURCE.glob("*.py"))


def float_offences(source: str) -> list:
    """(line, description) of every float-producing construct in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "round"):
                found.append((node.lineno, f"call {node.func.id}()"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr != "gcd":
                found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                (node.lineno, f"from math import {alias.name}")
                for alias in node.names
                if alias.name != "gcd"
            )
    return sorted(found)


def test_modules_found():
    assert {"series.py", "rank.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_float_in_module(path):
    assert float_offences(path.read_text()) == []


def test_scanner_flags_each_construct():
    offending = "\n".join(
        [
            "x = 0.5",
            "y = 2j",
            "z = float(x)",
            "w = round(x)",
            "import math",
            "v = math.sqrt(2)",
            "from math import gcd, pi",
        ]
    )
    assert [line for line, _ in float_offences(offending)] == [1, 2, 3, 4, 6, 7]
    assert float_offences("import math\nfrom math import gcd\ng = math.gcd(4, 6) + gcd(2, 3)\n") == []
