"""Each input rule of the package has one home, checked on the source.

Only the module that defines ``numbered_lines`` (the one text-line reader)
opens files for reading, and only ``discrete._as_readonly`` freezes arrays
with ``setflags(write=False)``. The check that alphas lie in [0, 1] lives in
``mechanisms._unit_alphas`` and the check that two distributions have equal
lengths in ``discrete._check_pair``, so each message has one module. A
second reader, freeze or check fails here instead of drifting away from the
first.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dpaudit"
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}

# file-reading calls besides open(): pathlib's readers and numpy's file parsers
READ_CALLS = {"read_text", "read_bytes", "loadtxt", "genfromtxt", "fromfile"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _opens_for_reading(call: ast.Call) -> bool:
    name = _called_name(call)
    if name in READ_CALLS:
        return True
    if name != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    if not modes:
        return True
    mode = modes[0]
    # a mode that is not a literal may read
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax"))


def file_reads(sources: dict[str, str]) -> list[str]:
    """``module:line`` of every call that opens a file for reading."""
    return [f"{name}:{node.lineno}" for name, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call) and _opens_for_reading(node)]


def freezes(sources: dict[str, str]) -> list[str]:
    """``module:function`` of every ``setflags(write=False)`` call."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if _called_name(node) == "setflags" and any(
                    kw.arg == "write" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.keywords):
                found.append(f"{self.module}:{self.scope[-1]}")
            self.generic_visit(node)

    for name, text in sources.items():
        Visitor(name).visit(ast.parse(text))
    return found


def reader_module(sources: dict[str, str]) -> str | None:
    return next((name for name, text in sources.items()
                 for node in ast.parse(text).body
                 if isinstance(node, ast.FunctionDef) and node.name == "numbered_lines"), None)


def test_scan_finds_file_reads():
    source = ("from pathlib import Path\nimport numpy as np\n\n"
              "open('a')\nopen('b', 'w')\nopen('c', mode='rb')\nopen('d', 'a')\n"
              "Path('e').read_text()\nPath('f').write_text('')\nnp.loadtxt('g')\n")
    assert file_reads({"m.py": source}) == ["m.py:4", "m.py:6", "m.py:8", "m.py:10"]


def test_scan_finds_freezes():
    source = ("import numpy as np\n\nnp.zeros(1).setflags(write=False)\n\n"
              "def f(a):\n    a.setflags(write=True)\n\n"
              "class C:\n    def g(self, a):\n        a.setflags(write=False)\n")
    assert freezes({"m.py": source}) == ["m.py:<module>", "m.py:g"]


def test_only_the_line_reader_module_reads_files():
    home = reader_module(SOURCES)
    outside = [site for site in file_reads(SOURCES) if not site.startswith(f"{home}:")]
    assert (home, outside) == ("scores.py", [])


def test_only_as_readonly_freezes_arrays():
    assert freezes(SOURCES) == ["discrete.py:_as_readonly"]


def modules_containing(text: str) -> list[str]:
    return [name for name, source in SOURCES.items() if text in source]


def test_each_check_message_has_one_module():
    assert modules_containing("alpha must lie in [0, 1]") == ["mechanisms.py"]
    assert modules_containing("length mismatch") == ["discrete.py"]
