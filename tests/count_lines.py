"""Count the code lines of every module under `src/`.

    python tests/count_lines.py

A code line holds some token that is not a comment, and lies in no
docstring (the leading string of a module, class or function body), so
blank lines, comments and docstrings are not counted.  Prints each
module's raw and code line counts, then the totals.  Reports only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    raw = code = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        n_raw, n_code = source.count("\n"), code_lines(source)
        raw, code = raw + n_raw, code + n_code
        print(f"{path.relative_to(ROOT)}: {n_raw} lines, {n_code} code")
    print(f"total: {raw} lines, {code} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
