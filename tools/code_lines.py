"""Count the code lines of Python source files.

A code line is a physical line that holds at least one token other than a
comment, a newline or indentation, and that is not part of a docstring (the
first statement of a module, class or function when it is a string
literal).  Blank lines, comment-only lines and docstring lines are left out;
each line of a statement that spans several lines counts.

Usage::

    python3 tools/code_lines.py src/mapgeom/*.py

prints one ``<count>  <path>`` line per file and, for more than one file, a
``<count>  total`` line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of code lines in ``source`` (see the module docstring)."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = count_code_lines(fh.read())
        total += n
        print(f"{n:6d}  {path}")
    if len(paths) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
