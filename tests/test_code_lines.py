import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
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
