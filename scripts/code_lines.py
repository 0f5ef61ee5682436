#!/usr/bin/env python3
"""Lines and code lines of each module of `src/plcsynth`, and in total.

    python3 scripts/code_lines.py [--root CHECKOUT]

Code lines leave out blank lines, comment lines and docstring lines (the
string that opens a module, class or function body); every other line a
token touches counts, a multi-line string's lines included.  Run it on two
checkouts to compare their sizes.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of Python `source`."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def table(root: Path) -> list[str]:
    """One line per module of the checkout's `src/plcsynth`, then the total."""
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted((root / "src" / "plcsynth").glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    return [f"{'module':<16} {'lines':>6} {'code':>6}"] + [
        f"{name:<16} {lines:>6} {code:>6}" for name, lines, code in rows]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to count (default: this one)")
    print("\n".join(table(parser.parse_args().root)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
