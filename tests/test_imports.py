"""Every module of the package and every test file uses each name it
imports, every private module-level helper is read somewhere in the
package, and no module of the package imports scipy: numpy is its only
runtime dependency.

``__init__.py`` is left out of the import scan: it imports names to
re-export them. A deletion that leaves an import or a ``_helper`` behind
fails here instead of lingering unnoticed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpaudit"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
TESTS = Path(__file__).resolve().parent
TEST_FILES = sorted(path.name for path in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n\nnp.zeros(sep)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


def test_modules_found():
    assert "canary.py" in MODULES and "cli.py" in MODULES
    assert "oracles.py" in TEST_FILES and "test_imports.py" in TEST_FILES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("test_file", TEST_FILES)
def test_no_unused_imports_in_tests(test_file):
    assert unused_imports((TESTS / test_file).read_text(encoding="utf-8")) == []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` defs and assignments that no module reads.

    A read is a loaded name or an attribute access anywhere in ``sources``
    (file name -> text); dunder names are left out.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{name}:{node.lineno}: {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__") and d not in read]
    return orphans


def test_scan_finds_an_orphaned_private_helper():
    sources = {
        "a.py": "_USED = 1\n_ORPHAN = 2\n__dunder__ = 3\n\ndef _helper():\n    return _USED\n",
        "b.py": "from . import a\n\ndef _orphan_fn():\n    return a._helper()\n",
    }
    assert orphaned_private_names(sources) == ["a.py:2: _ORPHAN", "b.py:3: _orphan_fn"]


def test_no_orphaned_private_helpers():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert orphaned_private_names(sources) == []


def scipy_imports(source: str) -> list[str]:
    """The import statements of ``source``, at any depth, that name a scipy module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.split(".")[0] == "scipy"]
    return found


def test_scan_finds_a_scipy_import():
    source = ("import numpy\nimport scipy.fft as fft\n\ndef f():\n"
              "    from scipy import special\n    from .scipy import x\n")
    assert scipy_imports(source) == ["line 2: scipy.fft", "line 5: scipy"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_package_imports_no_scipy(module):
    assert scipy_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
