"""The mutant registry matches today's source: every snippet occurs exactly
once in its file, and every test it names exists.  The mutants themselves
run under `python tests/run_mutants.py`, outside tier-1."""

import ast
from pathlib import Path

from mutants import MUTANTS, RETIRED

ROOT = Path(__file__).resolve().parent.parent


def defined_tests(path: Path) -> set:
    """`name` and `Class::name` for every function and method in the file."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return names


def test_every_snippet_occurs_once():
    for m in MUTANTS:
        source = (ROOT / m.path).read_text(encoding="utf-8")
        assert m.path.startswith("src/") and source.count(m.snippet) == 1, m
        assert m.replacement != m.snippet, m


def test_every_named_test_exists():
    for m in MUTANTS:
        assert m.kills, m
        for node in m.kills:
            file, _, name = node.partition("::")
            assert file.startswith("tests/test_") and (ROOT / file).is_file(), node
            if name:
                assert name.partition("[")[0] in defined_tests(ROOT / file), node


def test_retired_mutants_give_reasons():
    assert all(origin and what and why for origin, what, why in RETIRED)
