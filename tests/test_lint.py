"""Static checks that need only the standard library: every module-level
import in ``src/raydepth``, ``scripts`` and ``tests`` is used by its module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "raydepth"
SCRIPTS = ROOT / "scripts"
TESTS = ROOT / "tests"


def unused_imports(source):
    """Names bound by module-level imports that the module never reads.

    A name listed in ``__all__`` counts as read; ``from __future__`` imports
    bind nothing.
    """
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_checker_reports_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import xml.dom\n"
        "from json import dumps as d, loads\n"
        "__all__ = ['loads']\n"
        "print(d({}), xml)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize(
    "path", [p for d in (SRC, SCRIPTS, TESTS) for p in sorted(d.glob("*.py"))], ids=lambda p: p.name
)
def test_module_reads_its_imports(path):
    assert unused_imports(path.read_text()) == []
