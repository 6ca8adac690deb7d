"""Count the code lines of every module under `src/`.

    python tests/count_lines.py

A code line holds some token that is not a comment, and lies in no
docstring (the leading string of a module, class or function body), so
blank lines, comments and docstrings are not counted.  Prints each
module's raw and code line counts, then the totals, then the totals of
the modules that a fresh `import polycover.cli` loads: the code every
command compiles.  Reports only.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
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


def cli_import_path() -> set:
    """The files of the package modules a fresh `import polycover.cli`
    loads, read off `sys.modules` in a subprocess."""
    script = (
        "import sys, polycover.cli; print('\\n'.join(m.__file__ for n, m in "
        "sys.modules.items() if n.partition('.')[0] == 'polycover'))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return {Path(line).resolve() for line in run.stdout.splitlines()}


def main() -> int:
    counts = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        counts[path] = source.count("\n"), code_lines(source)
        print(f"{path.relative_to(ROOT)}: {counts[path][0]} lines, {counts[path][1]} code")
    print(f"total: {sum(r for r, _ in counts.values())} lines, "
          f"{sum(c for _, c in counts.values())} code")
    cli = cli_import_path()
    loaded = [counts[path] for path in counts if path.resolve() in cli]
    print(f"cli import path: {len(loaded)} modules, {sum(r for r, _ in loaded)} lines, "
          f"{sum(c for _, c in loaded)} code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
