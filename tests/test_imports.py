"""Source hygiene: no module-level import in ``src/lmfa`` goes unused, and
no module-level constant, function, class or method is left that nothing
reads."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lmfa"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression
    in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        "e (line 2)",
        "os (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def loaded_names(tree: ast.AST) -> set:
    """Every name and attribute that an expression in ``tree`` loads."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_constants(sources: dict, readers: list) -> list:
    """Module-level UPPER_CASE names assigned in ``sources`` (name -> text)
    that no expression in ``sources`` or ``readers`` loads."""
    assigned = {}
    read = set()
    for name, text in list(sources.items()) + [(None, t) for t in readers]:
        tree = ast.parse(text)
        read |= loaded_names(tree)
        if name is None:
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                for elt in elts:
                    if isinstance(elt, ast.Name) and CONSTANT.fullmatch(elt.id):
                        assigned[elt.id] = f"{name}:{node.lineno}"
    return sorted(f"{n} ({where})" for n, where in assigned.items() if n not in read)


def test_detects_an_unread_constant():
    sources = {
        "a.py": "LIMIT = 3\nUSED, _SPARE = 1, 2\nx: int = 0\nKEPT: int = 4\nprint(USED)\n",
        "b.py": "import a\nprint(a.KEPT)\n",
    }
    assert unread_constants(sources, ["from a import LIMIT\n"]) == [
        "LIMIT (a.py:1)",
        "_SPARE (a.py:2)",
    ]
    assert unread_constants(sources, ["from a import LIMIT\nLIMIT + 1\n"]) == [
        "_SPARE (a.py:2)"
    ]


def test_every_constant_is_read():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    readers = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unread_constants(sources, readers) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_definitions(sources: dict, readers: list) -> list:
    """Module-level functions and classes in ``sources`` (name -> text), and
    the non-dunder methods of those classes, whose name no expression in
    ``sources`` or ``readers`` loads."""
    defined = []
    read = set()
    for name, text in list(sources.items()) + [(None, t) for t in readers]:
        tree = ast.parse(text)
        read |= loaded_names(tree)
        if name is None:
            continue
        for node in tree.body:
            if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                continue
            defined.append((node.name, f"{name}:{node.lineno}"))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", f"{name}:{item.lineno}")
                    for item in node.body
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("__")
                ]
    return sorted(
        f"{n} ({where})" for n, where in defined if n.rpartition(".")[2] not in read
    )


def test_detects_an_unused_definition():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def _spare(): pass\n"
            "class Box:\n"
            "    def __init__(self): pass\n"
            "    def size(self): pass\n"
            "    def idle(self): pass\n"
            "    @property\n"
            "    def area(self): pass\n"
            "def outer():\n"
            "    def inner(): pass\n"
            "    return used()\n"
        ),
        "b.py": "from a import Box\nBox().size()\n",
    }
    assert unused_definitions(sources, ["import a\na.outer()\n"]) == [
        "Box.area (a.py:8)",
        "Box.idle (a.py:6)",
        "_spare (a.py:2)",
    ]
    assert unused_definitions(sources, ["import a\n"]) == [
        "Box.area (a.py:8)",
        "Box.idle (a.py:6)",
        "_spare (a.py:2)",
        "outer (a.py:9)",
    ]


def test_every_definition_is_used():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    readers = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert unused_definitions(sources, readers) == []
