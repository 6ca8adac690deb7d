"""Report how much of the search's tree the subtree table answers.

    python tests/search_walks.py

Runs the two-family level-2 search of criterion 6 (vertex stars on the
triangle) and of three fixed shapes of the benchmark's search catalog:
the first, the median by node count, and the largest but the vertex-star
shape itself (index 188, the criterion-6 cover).  For each it prints the
nodes the audit accounts for, the `dfs` calls that walked a subtree
rather than taking its counts from the table (the full tree has one call
for the root and one for each node), and the table's entries when the
level's search ends.  Reports only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polycover import cover_sequence, star_set  # noqa: E402
from polycover.dimension import _search_at_level  # noqa: E402
from polycover.fixtures import tri_space, vertex_star_cover  # noqa: E402

CATALOG = ROOT / "perfbench" / "search_catalog.json"
SHAPES = (0, 98, 146)


def walk(cs, kappa: int, level: int):
    """(audit, walked calls, table entries at the end of the level)."""
    calls = depth = entries = 0

    def count(frame, event, arg):
        nonlocal calls, depth, entries
        if frame.f_code.co_name != "dfs":
            return
        if event == "call":
            calls += 1
            depth += 1
        elif event == "return":
            depth -= 1
            if depth == 0:
                entries = len(frame.f_locals["table"])

    sys.setprofile(count)
    try:
        _, audit = _search_at_level(cs, kappa, level)
    finally:
        sys.setprofile(None)
    return audit, calls, entries


def main() -> int:
    space = tri_space()
    catalog = json.loads(CATALOG.read_text(encoding="utf-8"))
    cases = [("criterion 6", vertex_star_cover(space, 2))]
    for i in SHAPES:
        groups = catalog[i]["groups"]
        family = [(f"U{v}", star_set(space, 1, groups[v])) for v in "abc"]
        cases.append((f"catalog shape {i}", cover_sequence(space, [family])))
    for name, cs in cases:
        audit, calls, entries = walk(cs, 2, 2)
        print(f"{name}: {audit.nodes} nodes accounted, {calls} calls walked, "
              f"{entries} table entries, {audit.nodes / calls:.1f} nodes per walk")
    return 0


if __name__ == "__main__":
    sys.exit(main())
