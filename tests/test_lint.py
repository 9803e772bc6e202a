"""Static checks that need only the standard library: every module-level
import in ``src/raydepth``, ``scripts`` and ``tests`` is used by its module,
and every ``np.allclose``/``np.isclose`` in ``src/raydepth`` states its
``rtol``."""

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


def defaulted_rtol_calls(source):
    """Lines of ``np.allclose``/``np.isclose`` calls that leave ``rtol`` at
    numpy's default of 1e-5, which widens any ``atol`` by 1e-5 relative."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("allclose", "isclose")
        and getattr(node.func.value, "id", None) in ("np", "numpy")
        and not any(kw.arg == "rtol" for kw in node.keywords)
    )


def test_rtol_checker_reports_only_defaulted_calls():
    source = (
        "import numpy as np\n"
        "np.allclose(a, b, atol=1e-9)\n"
        "np.isclose(a, b, rtol=0.0, atol=1e-9)\n"
        "numpy.isclose(a, b)\n"
        "np.testing.assert_allclose(a, b)\n"
    )
    assert defaulted_rtol_calls(source) == [2, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_closeness_checks_state_rtol(path):
    assert defaulted_rtol_calls(path.read_text()) == []
