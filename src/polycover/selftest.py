"""Fixture corpus for the `selftest` command: one row per capability,
each running a handful of exact checks on the shared fixtures."""

from __future__ import annotations

from fractions import Fraction

from .complexes import (
    SimplicialMap,
    check_simplicial_map,
    cone,
    coned,
    skeleton,
    validate_complex,
    vlabel,
)
from .covers import (
    FULL_NERVE,
    cover_sequence,
    delta_at_carrier,
    delta_subcomplex,
    kernel_query,
    nerve,
    refinement_map,
    unindexed_delta,
)
from .dimension import (
    CRefinement,
    dim_oracle,
    n_plus_one,
    mu_driver,
    ostrand_refine,
    refinement_as_cover,
    search_c_refinement,
    verify_c_refinement,
)
from .fixtures import (
    boundary_space,
    edge_space,
    rem_cover,
    tri_space,
    vertex_star_cover,
)
from .realization import (
    StarRelation,
    barycenter_point,
    carrier,
    push_point,
    push_star,
    stage_point,
    star_contains,
    star_relation,
    star_set,
)
from .selections import (
    CanonicalMap,
    bootstrap_skeletal_selection,
    build_canonical,
    carrier_tables,
    cone_extend,
    extend_skeletal_selection,
    extract_c_refinement,
    is_canonical,
    is_selection,
    is_skeletal_selection,
    transfer_selection,
    vertex_selection,
)


# Checks made so far; each corpus row reports how many it made.
_checks_made = 0


def _check(cond: bool, message: str) -> None:
    global _checks_made
    _checks_made += 1
    if not cond:
        raise AssertionError(message)


def check_face_closure() -> None:
    c = validate_complex([{"a", "b", "c"}])
    _check(len(c.simplices) == 7, "triangle closure has 7 simplices")
    _check(skeleton(c, 1).dim == 1, "1-skeleton drops the triangle")
    _check(skeleton(skeleton(c, 1), 1) == skeleton(c, 1), "skeleton idempotent")
    d = cone(validate_complex([{"a"}, {"b"}]), "v")
    _check(len(d.simplices) == 5, "cone over two points has 5 simplices")


def check_subdivision_counts() -> None:
    sp = tri_space()
    s1 = sp.stage(1).complex
    counts = {}
    for s in s1.simplices:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    _check(counts == {0: 7, 1: 12, 2: 6}, "triangle subdivision f-vector")
    e = edge_space()
    s2 = e.stage(2).complex
    _check(
        sorted(len(s) for s in s2.simplices) == [1] * 5 + [2] * 4,
        "double edge subdivision has 5 vertices, 4 edges",
    )


def check_carrier_partition() -> None:
    e = edge_space()
    mid = stage_point(e, 0, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    _check(carrier(mid) == frozenset({"a", "b"}), "midpoint carrier is the edge")
    lifted = push_point(e, mid, 1)
    _check(
        carrier(lifted) == frozenset({e.vertex_at(1, "b(a,b)")}),
        "midpoint lifts to the barycenter vertex",
    )
    sp = tri_space()
    for tau in sp.stage(0).complex.simplices:
        p = barycenter_point(sp, 0, tau)
        _check(carrier(p) == tau, "barycenter carrier")


def check_star_pushdown() -> None:
    e = edge_space()
    s = star_set(e, 0, ["a"])
    pushed = push_star(s, 1)
    expected = {e.vertex_at(1, "b(a)"), e.vertex_at(1, "b(a,b)")}
    _check(pushed.core_vertices == frozenset(expected), "pushed star core")
    p = stage_point(e, 0, {"a": Fraction(3, 4), "b": Fraction(1, 4)})
    _check(
        star_contains(pushed, push_point(e, p, 1)) == star_contains(s, p),
        "membership is push-invariant",
    )
    _check(
        push_star(push_star(s, 1), 2) == push_star(s, 2),
        "pushes compose",
    )


def check_kernels() -> None:
    cs = rem_cover()
    witness = kernel_query(cs, [("P", 0), ("Q", 1)])
    m = cs.space.vertex_at(1, "b(a,b)")
    _check(witness is not None and m in witness, "overlap witnessed at the midpoint")
    _check(kernel_query(cs, [("Q'", 0), ("P'", 1)]) is None, "end stars are disjoint")
    _check(
        star_relation(cs.levels[2][0][1], cs.levels[2][1][1])
        is StarRelation.OVERLAPPING,
        "the two halves overlap",
    )


def check_disjoint_delta_equals_nerve() -> None:
    e = edge_space()
    fams = [
        [("L", star_set(e, 1, ["b(a)"])), ("R", star_set(e, 1, ["b(b)"]))],
        [("M", star_set(e, 1, ["b(a,b)"]))],
    ]
    cs = cover_sequence(e, fams)
    _check(
        delta_subcomplex(cs, 2) == nerve(cs, 2),
        "disjoint levels collapse the two complexes",
    )


def check_prefix_monotone() -> None:
    cs = rem_cover()
    for kappa in (1, 2):
        d_small = delta_subcomplex(cs, kappa)
        d_big = delta_subcomplex(cs, kappa + 1)
        _check(d_small.subcomplex_of(d_big), "indexed prefixes are monotone")
    for tau in cs.working_complex().simplices:
        for n in (0, 1):
            small = delta_at_carrier(cs, n + 1, tau)
            big = delta_at_carrier(cs, n + 2, tau)
            for eid, star in cs.levels[n + 1]:
                if tau & star.core_vertices:
                    grown = coned(small, (eid, n + 1))
                    _check(
                        grown.subcomplex_of(big),
                        "coning by a meeting next-level element stays inside",
                    )


def check_unindexed_counterexample() -> None:
    cs = rem_cover()
    u2 = unindexed_delta(cs, 2)
    u3 = unindexed_delta(cs, 3)
    _check(not u2.subcomplex_of(u3), "unindexed prefixes fail monotonicity")
    pq = frozenset({"P@0", "Q@1"})
    _check(pq in u2 and pq not in u3, "the witness pair drops out")


def check_canonical_equals_selection() -> None:
    cs = rem_cover()
    target = nerve(cs, 2)
    stage = cs.space.stage_complex(1)
    verts = sorted(stage.vertices, key=vlabel)
    elements = [(eid, n) for eid, n, _ in cs.elements(2)]
    for seed in range(40):
        images = {
            v: elements[(seed + i * (seed + 3)) % len(elements)]
            for i, v in enumerate(verts)
        }
        f = CanonicalMap(1, SimplicialMap(stage, target, images), FULL_NERVE)
        _check(
            is_canonical(f, cs, 2) == is_selection(f, cs, 2),
            "the two predicates agree",
        )


def check_refinement_roundtrip() -> None:
    sp = tri_space()
    cov = vertex_star_cover(sp, 3)
    r = ostrand_refine(cov, 2)
    _check(bool(verify_c_refinement(r)), "constructed families verify")
    fine = refinement_as_cover(r)
    rmap = refinement_map(fine, cov, 3)
    _check(check_simplicial_map(rmap), "refinement map is simplicial")
    h = build_canonical(fine, 3)
    _check(is_canonical(h, fine, 3), "the built map is canonical")
    _check(is_selection(h, fine, 3), "the built map is a selection")
    f = transfer_selection(h, rmap)
    _check(is_selection(f, cov, 3), "transfer preserves the selection property")
    fams = extract_c_refinement(f, cov, 3)
    back = CRefinement(tuple(fams), 3, cov)
    _check(bool(verify_c_refinement(back)), "extracted families verify")


def check_cone_extension() -> None:
    t = validate_complex([{"ya", "yb", "q"}])
    sigma = validate_complex([{"a"}, {"b"}])
    g = SimplicialMap(sigma, t, {"a": "ya", "b": "yb"})
    chain = [validate_complex([{"ya"}, {"yb"}]), t]
    h = cone_extend(g, "v", "q", chain)
    _check(check_simplicial_map(h), "extension is simplicial")
    _check(h.image(frozenset({"a", "v"})) in chain[1], "edges land in the top")
    _check(
        all(h.vertex_images[v] == g.vertex_images[v] for v in sigma.vertices),
        "restriction is exact",
    )


def check_skeletal_machinery() -> None:
    e = edge_space()
    stage = e.stage_complex(0)
    target = validate_complex([{"ya", "yb", "q"}])
    base = {
        frozenset({"a"}): validate_complex([{"ya"}, {"q"}]),
        frozenset({"b"}): validate_complex([{"yb"}, {"q"}]),
        frozenset({"a", "b"}): validate_complex([{"ya"}, {"yb"}, {"q"}]),
    }
    tables = [
        {tau: coned(value, "q") for tau, value in base.items()}
        for _ in range(4)
    ]
    phi = carrier_tables(e, 0, target, tables, "q")
    family, vmap = vertex_selection(phi)
    _check(len(family) == 2, "one star per vertex")
    _check(set(vmap) == {"a", "b"}, "every vertex selected")
    cs, f = bootstrap_skeletal_selection(phi)
    for _ in range(2):
        _check(is_skeletal_selection(f, cs, phi), "skeletal predicate holds")
        cs, f = extend_skeletal_selection(f, cs, phi)
    _check(is_skeletal_selection(f, cs, phi), "predicate survives the extensions")


def check_dimension_separation() -> None:
    sp = tri_space()
    _check(dim_oracle(sp) == 2, "triangle dimension")
    _check(dim_oracle(boundary_space()) == 1, "boundary dimension")
    res2 = search_c_refinement(vertex_star_cover(sp, 2), 2, max_level=1)
    _check(res2.status == "exhausted", "two families exhaust on the triangle")
    res3 = search_c_refinement(vertex_star_cover(sp, 3), 3, max_level=1)
    _check(res3.status == "found", "three families succeed on the triangle")
    rese = search_c_refinement(vertex_star_cover(edge_space(), 2), 2, max_level=1)
    _check(rese.status == "found" and rese.level <= 1, "two families fit the edge")
    report = mu_driver(vertex_star_cover(sp, 3), n_plus_one(2))
    _check(report.success and report.kappa == 3, "driver closes the loop at kappa=3")


CORPUS = [
    ("face closure, skeleta, cones", check_face_closure),
    ("barycentric subdivision counts", check_subdivision_counts),
    ("carriers partition the space", check_carrier_partition),
    ("star pushdown exactness", check_star_pushdown),
    ("kernel witnesses on the midpoint cover", check_kernels),
    ("disjoint levels: one-per-level complex equals the nerve", check_disjoint_delta_equals_nerve),
    ("prefix monotonicity via cones", check_prefix_monotone),
    ("indexed vs unindexed prefix counterexample", check_unindexed_counterexample),
    ("canonical-map predicate equals selection predicate", check_canonical_equals_selection),
    ("refinement to canonical map and back", check_refinement_roundtrip),
    ("cone extension skeleton bounds", check_cone_extension),
    ("vertex selection and skeletal extension", check_skeletal_machinery),
    ("dimension separation by exhaustive search", check_dimension_separation),
]


def run_corpus():
    """Run every corpus row; returns (rows, all_passed)."""
    rows = []
    ok = True
    for name, fn in CORPUS:
        before = _checks_made
        try:
            fn()
            rows.append((name, "pass", _checks_made - before))
        except AssertionError as err:
            rows.append((name, f"FAIL: {err}", 0))
            ok = False
    return rows, ok


def format_table(rows) -> str:
    width = max(len(name) for name, _, _ in rows)
    status_width = max(6, max(len(status) for _, status, _ in rows))
    lines = [f"{'check'.ljust(width)}  {'status'.ljust(status_width)}  checks"]
    for name, status, count in rows:
        lines.append(f"{name.ljust(width)}  {status.ljust(status_width)}  {count}")
    return "\n".join(lines) + "\n"
