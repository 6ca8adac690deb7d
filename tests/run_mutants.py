"""Apply each registered mutant to a copy of the tree and run its tests.

    python tests/run_mutants.py

The tree is copied once to a temporary directory.  Its listed tests must
pass there unmutated; then each mutant in `tests/mutants.py` is applied on
its own and its tests run in one `pytest -x -q` subprocess, serially.  A
mutant is killed when pytest reports a failing test.  The survivors, and
any mutant whose run ends otherwise (a node id not found, say), are
printed, and the exit status is 1 if there is any.  Not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work", "results"
)
# pytest's exit status when some collected test failed
TESTS_FAILED = 1


def run_tests(tree: Path, node_ids) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        listed = sorted({node for m in MUTANTS for node in m.kills})
        if run_tests(tree, listed) != 0:
            print("the listed tests do not pass on the unmutated tree")
            return 1
        bad = []
        for i, m in enumerate(MUTANTS):
            path = tree / m.path
            original = path.read_text(encoding="utf-8")
            if original.count(m.snippet) != 1:
                bad.append((i, m, "snippet does not occur exactly once"))
                continue
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                status = run_tests(tree, m.kills)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "SURVIVED", TESTS_FAILED: "killed"}.get(status, f"pytest exit {status}")
            print(f"{i:2d} {verdict}: {m.origin}: {m.guards}", flush=True)
            if status != TESTS_FAILED:
                bad.append((i, m, verdict))
    for i, m, verdict in bad:
        print(f"mutant {i} ({m.path}: {m.guards}): {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
