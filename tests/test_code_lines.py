import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"
PACKAGE = sorted(p for p in (ROOT / "src" / "mapgeom").glob("*.py") if p.name != "__init__.py")
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 9 code lines: the import, the two-line def header, the two lines of the
# string that is not a docstring, the two-line return, the class line and x = 1
SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


# a comment on its own line
def f(a,
      b):
    """Function docstring."""
    text = """a string,
not a docstring"""
    return (a +
            b)


class C:
    """Class docstring."""

    x = 1
'''


def test_count_leaves_out_blanks_comments_and_docstrings():
    assert code_lines.count_code_lines(SOURCE) == 9


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE)
    b.write_text("x = 1\n")
    assert code_lines.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.split() == ["9", str(a), "1", str(b), "10", "total"]


def unused_imports(source: str) -> list:
    """Names a module imports and never reads; ``__future__`` imports are left out."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Optional, Tuple\nx: Optional[int] = os.path.sep\n")
    assert unused_imports(source) == ["Tuple", "np"]


# __init__.py imports names to export them, so it is left out
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_modules_import_no_unused_name(path):
    assert unused_imports(path.read_text()) == [], path.name


def imported_modules(source: str) -> set:
    """Modules a source imports from, relative ones as written (``.dynamics``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


def test_imported_modules_names_relative_and_absolute_imports():
    source = "import os.path\nfrom . import files\nfrom .dynamics import LOG_TOL\nimport mapgeom.cli\n"
    assert imported_modules(source) == {"os.path", ".", ".dynamics", "mapgeom.cli"}


# the oracles stay independent of the code they check: verification.py
# neither imports dynamics nor reads a name from it through the package
def test_verification_imports_nothing_from_dynamics():
    source = (ROOT / "src" / "mapgeom" / "verification.py").read_text()
    modules = imported_modules(source)
    assert not modules & {".dynamics", "mapgeom.dynamics"}, modules
    assert "dynamics" not in names_read(source)


def private_definitions(source: str) -> set:
    """Module-level ``_name`` functions, classes and assignment targets; dunders left out."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def names_read(source: str) -> set:
    """Names a source reads: loaded names, attribute names and imported names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_private_definitions_finds_a_name_never_read():
    source = ("from .m import _imported\n_STEP, _unused = 1.0, 2\n_EPS = 3.0\nx = _EPS + m._attr + _helper()\n"
              "__all__ = []\ndef _helper():\n    return _STEP\nclass _Gone:\n    pass\n"
              "def _attr():\n    pass\n")
    assert sorted(private_definitions(source) - names_read(source)) == ["_Gone", "_unused"]


PACKAGE_READS = set().union(*(names_read(p.read_text())
                              for p in (ROOT / "src" / "mapgeom").glob("*.py")))


# a private helper is read in its own module or imported by another one
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_modules_define_no_unread_private_name(path):
    assert sorted(private_definitions(path.read_text()) - PACKAGE_READS) == [], path.name


def public_functions(source: str) -> set:
    """Module-level functions whose names do not start with ``_``."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def unread_public_functions(source: str, reads: set) -> list:
    """Public functions of ``source`` missing from ``reads``.

    ``save_*`` and ``load_*`` are left out: each file format keeps its
    writer next to its reader, and the CLI only reads some formats (the
    permutation and the measure), so their writers have no caller in the
    package; users and tests write the CLI's input files with them.
    """
    return sorted(name for name in public_functions(source) - reads
                  if not name.startswith(("save_", "load_")))


def test_unread_public_functions_finds_a_function_never_read():
    source = ("def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n"
              "def save_thing(x, path):\n    pass\ndef load_thing(path):\n    pass\n"
              "class C:\n    def method(self):\n        pass\nx = used()\n")
    assert unread_public_functions(source, names_read(source)) == ["unused"]
    assert unread_public_functions(source, names_read(source) | {"unused"}) == []


# a public function is read by a package module or exported by __init__.py,
# which imports it; one that only tests call is dead weight in the package
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_modules_define_no_unread_public_function(path):
    assert unread_public_functions(path.read_text(), PACKAGE_READS) == [], path.name
