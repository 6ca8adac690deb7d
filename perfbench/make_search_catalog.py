"""Regenerate `search_catalog.json`, the cover shapes of the `search` workload.

A shape is a one-level cover of the triangle at working level 1 with one
element per base vertex v, each element a union of level-1 vertex stars
inside the star of v.  `b(a)`, `b(b)`, `b(c)` each belong to their own
vertex's element; every edge barycenter goes to one or both of its end
vertices' elements and `b(a,b,c)` to a nonempty set of the three: 189
shapes.  For each shape the catalog stores the node count of
`search_c_refinement(cover, 2, max_level=2)`, which the workload uses to
stratify its draws by search size.  Counts are deterministic.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_search_catalog.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def shapes():
    pairs = {"b(a,b)": "ab", "b(a,c)": "ac", "b(b,c)": "bc"}
    choices = [
        [[x], [y], [x, y]] for x, y in pairs.values()
    ]
    centre = [
        [v for i, v in enumerate("abc") if k >> i & 1] for k in range(1, 8)
    ]
    for owners in itertools.product(*choices, centre):
        groups = {v: [f"b({v})"] for v in "abc"}
        for label, vs in zip(list(pairs) + ["b(a,b,c)"], owners):
            for v in vs:
                groups[v].append(label)
        yield groups


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from polycover.complexes import validate_complex
    from polycover.covers import cover_sequence
    from polycover.dimension import search_c_refinement
    from polycover.realization import PolyhedralSpace, star_set

    entries = []
    for groups in shapes():
        space = PolyhedralSpace(validate_complex([{"a", "b", "c"}]))
        cs = cover_sequence(
            space, [[(f"U{v}", star_set(space, 1, groups[v])) for v in "abc"]]
        )
        result = search_c_refinement(cs, 2, 2)
        if result.status != "exhausted":
            raise SystemExit(f"unexpected verdict {result.status} for {groups}")
        entries.append({"groups": groups, "nodes": sum(a.nodes for a in result.audits)})
    (HERE / "search_catalog.json").write_text(
        json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
