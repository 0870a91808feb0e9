#!/usr/bin/env python3
"""Count the lines of the package source by kind.

    python3 tools/src_lines.py [DIR]

Prints the total, code, docstring, comment and blank lines of the Python
files under DIR (default: src/spapprox next to this script's parent).  A
docstring is the first statement of a module, class or function when that
statement is a string constant (found with ``ast``); all its lines count as
docstring, blank ones included.  Outside docstrings, a line holding only
whitespace is blank, one whose first non-blank character is ``#`` is a
comment, and every other line is code.
"""

from __future__ import annotations

import ast
import os
import sys


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(root: str) -> dict:
    totals = dict.fromkeys(("total", "code", "docstring", "comment", "blank"), 0)
    for folder, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                text = fh.read()
            docs = _docstring_lines(ast.parse(text))
            for number, line in enumerate(text.splitlines(), start=1):
                stripped = line.strip()
                kind = ("docstring" if number in docs else "blank" if not stripped
                        else "comment" if stripped.startswith("#") else "code")
                totals[kind] += 1
                totals["total"] += 1
    return totals


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = argv[1] if len(argv) > 1 else os.path.join(here, "src", "spapprox")
    totals = count(root)
    print(" ".join(f"{kind} {value}" for kind, value in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
