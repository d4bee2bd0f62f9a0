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
