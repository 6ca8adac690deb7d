"""Every name that `src/`, `tests/` or `demos/` imports is used, and the
command line imports nothing beyond the standard library.

An AST scan: a module's imported names must each appear as a name or as
the base of an attribute somewhere in the module.  Re-exports from a
package's `__init__.py` are exempt, and so are `__future__` imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a import b as c, d\nprint(sys.argv, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_no_unused_imports():
    offenders = []
    for top in ("src", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                offenders.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert offenders == []


def test_cli_imports_only_the_standard_library():
    """Importing the command line loads no third-party module: set-up time
    holds nothing but the standard library and the package itself.  Nor
    does it load `multiprocessing` or `concurrent.futures`, whose imports
    alone take milliseconds that every fresh process pays, nor
    `dataclasses` and `inspect`, which the value types no longer need, nor
    `polycover.selftest`, which only the `selftest` command imports.  The
    exact point layer lives there, so no rational arithmetic is loaded
    either: not `fractions`, nor the `decimal` and `numbers` it imports."""
    script = (
        "import sys; before = set(sys.modules); import polycover.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    loaded = run.stdout.split()
    assert "polycover.cli" in loaded
    foreign = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names and name != "polycover"
        and not name.startswith("polycover.")
    ]
    assert foreign == []
    assert {"multiprocessing", "concurrent.futures"}.isdisjoint(loaded)
    assert {"dataclasses", "inspect", "polycover.selftest"}.isdisjoint(loaded)
    assert {"fractions", "decimal", "numbers"}.isdisjoint(loaded)


POINT_LAYER = (
    "BarycentricPoint", "_to_fraction", "stage_point", "carrier",
    "barycenter_point", "push_point", "star_contains", "realize_map",
)


def test_the_point_layer_has_one_home():
    """The exact points are defined in `selftest` alone: neither the
    package nor `realization` binds any of their names."""
    import polycover
    from polycover import realization, selftest

    for module in (polycover, realization):
        assert [name for name in POINT_LAYER if hasattr(module, name)] == []
    assert all(getattr(selftest, name).__module__ == "polycover.selftest" for name in POINT_LAYER)
