"""No dead helpers in the engine: every module-level function and class of
``src/segre/*.py``, and every method of such a class, must be referenced
outside its own definition, somewhere in ``src/segre``, in ``bench/`` or in
the code block of README's "Python API" section: a function or class by its
name, a method by an attribute access or a ``"Class.method"`` string, never
by a local name or a plain string that happens to match.  The rule is that
the engine keeps what a command reaches or that section names.  A name in
``__init__``'s export table does not count as a use, and tests do not count
as users; the interpreter does, for the package's PEP 562 hooks
``__getattr__`` and ``__dir__`` and for every dunder method.  Nor dead
imports: every module uses each name it imports, in code or in an
annotation, a string annotation included."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

from conftest import readme_api

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "segre"
BENCH = ROOT / "bench"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)
# module-level hooks that the interpreter calls on attribute access and dir()
INTERPRETER_HOOKS = {("__init__.py", "__getattr__"), ("__init__.py", "__dir__")}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> List[str]:
    """Top-level functions and classes, and ``Class.method`` for each method
    of a top-level class that is not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            methods = [item.name for item in node.body if isinstance(item, FUNCTIONS)]
            found += [f"{node.name}.{name}" for name in methods if not _is_dunder(name)]
    return found


def _names(tree: ast.AST, own: Set[str]) -> Tuple[Set[str], Set[str]]:
    names: Set[str] = set()
    members: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            members.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.replace(".", "").isidentifier():
                names.update(node.value.split("."))
                if "." in node.value:
                    members.add(node.value)
    return names - own, members - own


def references(source: str) -> Tuple[Set[str], Set[str]]:
    """The names used in ``source``, and its member uses, except a
    definition's uses of its own name: a top-level function's or class's,
    and a method's inside that method.

    Names, attributes, imported names and identifier-like strings (the
    dotted targets of ``bench/spans.py``, string annotations) all count as
    names.  Member uses are attribute names (``x.verify``) and dotted
    strings (``"Class.method"``) only, so a method is not kept alive by a
    local variable or a plain string that shares its name.
    """
    names: Set[str] = set()
    members: Set[str] = set()
    for top in ast.parse(source).body:
        if not isinstance(top, ast.ClassDef):
            parts = [(top, {top.name} if isinstance(top, DEFINITIONS) else set())]
        else:
            parts = [
                (part, {top.name, part.name} if isinstance(part, FUNCTIONS) else {top.name})
                for part in [*top.bases, *top.keywords, *top.decorator_list, *top.body]
            ]
        for part, own in parts:
            found_names, found_members = _names(part, own)
            names |= found_names
            members |= found_members
    return names, members


def unreferenced(engine: Dict[str, str], others: Dict[str, str]) -> List[Tuple[str, str]]:
    """(module, name) of every definition in ``engine`` that nothing uses.

    A top-level function or class is used by its name, a method
    ``Class.method`` by an attribute access ``.method`` or the string
    ``"Class.method"``.  ``__init__.py``'s own references do not count: they
    are its export table.
    """
    names: Set[str] = set()
    members: Set[str] = set()
    for module, source in [*engine.items(), *others.items()]:
        if module != "__init__.py":
            found_names, found_members = references(source)
            names |= found_names
            members |= found_members

    def used(name: str) -> bool:
        owner, _, method = name.rpartition(".")
        return name in members or method in members if owner else name in names

    return [
        (module, name)
        for module, source in engine.items()
        for name in definitions(source)
        if not used(name) and (module, name) not in INTERPRETER_HOOKS
    ]


def _annotations(tree: ast.AST) -> List[ast.expr]:
    """Every annotation in ``tree``: of arguments, returns and annotated assignments."""
    found: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, FUNCTIONS) and node.returns is not None:
            found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def unused_imports(source: str) -> List[str]:
    """Names that ``source`` imports (``__future__`` aside) but never uses.

    A use is a bare name anywhere in the module, or a name inside a string
    annotation (``-> "Optional[Field]"``), which is parsed as the expression
    it spells; ``import a.b`` binds and is used as ``a``.  A plain string
    that matches an imported name is not a use.
    """
    tree = ast.parse(source)
    imported: List[str] = []
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                spelled = ast.parse(node.value, mode="eval")
                used.update(name.id for name in ast.walk(spelled) if isinstance(name, ast.Name))
    return [name for name in imported if name not in used]


def _sources(directory: Path) -> Dict[str, str]:
    return {path.name: path.read_text() for path in sorted(directory.glob("*.py"))}


def test_every_engine_definition_is_used():
    engine = _sources(SOURCE)
    assert {"linalg.py", "fields.py", "__init__.py"} <= set(engine)
    assert unreferenced(engine, {**_sources(BENCH), "README.md": readme_api()}) == []


def test_scanner_flags_dead_helpers():
    engine = {
        "a.py": "\n".join(
            [
                "def used():",
                "    return 1",
                "def recursive(n):",
                "    return recursive(n - 1) if n else used()",
                "def dead():",
                "    '''mentions used and dead in prose only'''",
                "class Kept:",
                "    def __eq__(self, other):",
                "        return self.clone() == other",
                "    def clone(self) -> 'Kept':",
                "        return Kept()",
                "    def countdown(self, n):",
                "        return self.countdown(n - 1) if n else 0",
                "    def verify(self):",
                "        return True",
                "    def wrapped(self):",
                "        return True",
                "def traced():",
                "    pass",
                "def exported():",
                "    pass",
                "def documented():",
                "    return Kept()",
            ]
        ),
        "__init__.py": "_EXPORTS = {'a': ('Kept', 'exported', 'documented')}\nfrom .a import exported\n",
    }
    others = {
        "spans.py": "TARGETS = (('x', 'pkg.a', 'traced'), ('y', 'pkg.a', 'Kept.wrapped'))\nverify = 'verify'\n",
        "README.md": "from pkg import documented\n",
    }
    assert unreferenced(engine, others) == [
        ("a.py", "recursive"),
        ("a.py", "dead"),
        ("a.py", "Kept.countdown"),
        ("a.py", "Kept.verify"),
        ("a.py", "exported"),
    ]


def test_scanner_exempts_only_the_package_hooks():
    hooks = "def __getattr__(name):\n    raise AttributeError(name)\ndef __dir__():\n    return []\n"
    engine = {"__init__.py": hooks + "def dead():\n    pass\n", "a.py": hooks}
    assert unreferenced(engine, {}) == [
        ("__init__.py", "dead"),
        ("a.py", "__getattr__"),
        ("a.py", "__dir__"),
    ]


def test_every_engine_module_uses_its_imports():
    unused = {module: unused_imports(source) for module, source in _sources(SOURCE).items()}
    assert {module: names for module, names in unused.items() if names} == {}


def test_scanner_flags_unused_imports():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os.path",
            "import json as j",
            "from typing import Dict, List, Optional",
            "from .a import used, annotated, nested, kept, dead, mentioned",
            "def f(x: List[int], y: 'Optional[nested]') -> 'annotated':",
            "    table: 'Dict[str, kept]' = {}",
            "    return used(os.sep, 'mentioned', table)",
        ]
    )
    assert unused_imports(source) == ["j", "dead", "mentioned"]
