"""Count the code lines of each `src/` module.

    python3 tools/code_lines.py
    python3 tools/code_lines.py --compare base/src src

Run it from the root of a source checkout.  A code line is a line that
holds a token of code: blank lines, comment lines and the lines of
module, class and function docstrings are left out, while any other
string, docstring-like or not, counts every line it spans.  The first
form prints one JSON object, each `src/` module's path relative to
`src/` mapped to its code lines.  The second counts two source trees and
prints a Markdown table of every module, base → head, with the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that hold no code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_tree(src: Path) -> dict[str, int]:
    """Each module under `src`, by its path relative to `src`, mapped to
    its code lines."""
    return {path.relative_to(src).as_posix():
            code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def compare(base: dict[str, int], head: dict[str, int]) -> list[str]:
    """Markdown lines: a table of every module's code lines, base → head,
    a module missing from one side reading "-", then the totals."""
    def cell(counts, name):
        return str(counts[name]) if name in counts else "-"

    lines = ["| module | base | head | change |", "|---|---|---|---|"]
    for name in sorted(base.keys() | head.keys()):
        change = head.get(name, 0) - base.get(name, 0)
        lines.append(f"| `{name}` | {cell(base, name)} | {cell(head, name)} "
                     f"| {change:+d} |")
    total_base, total_head = sum(base.values()), sum(head.values())
    lines.append(f"| total | {total_base} | {total_head} "
                 f"| {total_head - total_base:+d} |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BASE_SRC", "HEAD_SRC"))
    args = parser.parse_args()
    if args.compare:
        base, head = (count_tree(Path(p)) for p in args.compare)
        print("\n".join(compare(base, head)))
        return 0
    print(json.dumps(count_tree(ROOT / "src")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
