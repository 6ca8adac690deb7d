"""Fixture corpus for the `selftest` command: one row per capability,
each running a handful of exact checks on the shared fixtures.

It also holds the exact point layer those checks and the tests evaluate:
points of a stage in exact barycentric coordinates, their carriers,
their pushdown to finer stages, star membership and the affine
realisation of simplicial maps.  No command but `selftest` reads a point,
so the package's only rational arithmetic is loaded with this module
alone.  Coordinates are `fractions.Fraction`; a float is refused.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .complexes import (
    Simplex,
    SimplicialComplex,
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
from .errors import CannotCoarsen, IncompleteMap, InvalidPoint, LevelMismatch
from .fixtures import (
    boundary_space,
    edge_space,
    rem_cover,
    tri_space,
    vertex_star_cover,
)
from .realization import (
    PolyhedralSpace,
    StarRelation,
    StarSet,
    push_star,
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


# -- exact points -------------------------------------------------------------


class BarycentricPoint(NamedTuple):
    """A point of a geometric realisation in exact barycentric coordinates.

    `complex` is the complex the point lives on; for points on a stage of a
    PolyhedralSpace, `level` records that stage.  The level is carried
    through affine maps unchanged and is inert for non-stage targets.
    """

    level: int
    coords: dict
    complex: SimplicialComplex


def _to_fraction(x) -> Fraction:
    """x as an exact Fraction, or InvalidPoint naming the value."""
    if isinstance(x, float):
        raise InvalidPoint("float coordinates are not allowed; use Fraction or str")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidPoint(f"coordinate {x!r} is not an exact rational") from None


def stage_point(space: PolyhedralSpace, level: int, coords: dict) -> BarycentricPoint:
    """Build a point on the level-m stage; keys may be vertex ids or labels."""
    stage = space.stage(level)
    resolved = {space.vertex_at(level, k): _to_fraction(c) for k, c in coords.items()}
    return BarycentricPoint(level, resolved, stage.complex)


def _read(p: BarycentricPoint) -> tuple:
    """p's carrier and its coordinates as exact Fractions: the one place a
    point's coordinates are read, so every function sees the same values."""
    total = Fraction(0)
    coords = {}
    for v, c in p.coords.items():
        c = coords[v] = _to_fraction(c)
        if c < 0:
            raise InvalidPoint(f"negative coordinate at {vlabel(v)}")
        total += c
    if total != 1:
        raise InvalidPoint(f"coordinates sum to {total}, expected 1")
    s = frozenset(v for v, c in coords.items() if c > 0)
    if s not in p.complex:
        raise InvalidPoint("support is not a simplex of the underlying complex")
    return s, coords


def carrier(p: BarycentricPoint) -> Simplex:
    """The unique simplex whose relative interior contains p."""
    return _read(p)[0]


def barycenter_point(space: PolyhedralSpace, level: int, s: Simplex) -> BarycentricPoint:
    """The uniform-weight point in the relative interior of s."""
    s = frozenset(s)
    w = Fraction(1, len(s))
    return stage_point(space, level, {v: w for v in s})


def push_point(
    space: PolyhedralSpace, p: BarycentricPoint, target_level: int
) -> BarycentricPoint:
    """Re-express a stage point at a finer stage (the identical point of |K|).

    One step works by the descending-coordinate staircase: sorting the
    support by coordinate (ties in any order), the prefix sets form a chain,
    and the point is the combination of their barycenters with weights
    i*(λ_i - λ_{i+1}), which is 0 for a prefix splitting a tie.  The point
    is read first, also when `target_level` is its own level, so an invalid
    point is refused and the result's coordinates are exact Fractions.
    """
    if target_level < p.level:
        raise CannotCoarsen("points can only be pushed to finer levels")
    if p.complex != space.stage_complex(p.level):
        raise InvalidPoint("point does not live on a stage of this space")
    coords = _read(p)[1]
    for level in range(p.level, target_level):
        tokens = space.stage_complex(level).barycenters
        items = sorted(coords.items(), key=lambda vc: -vc[1])
        items = [(v, c) for v, c in items if c > 0]
        coords = {}
        prefix: list = []
        for i, (v, c) in enumerate(items):
            prefix.append(v)
            nxt = items[i + 1][1] if i + 1 < len(items) else Fraction(0)
            weight = (c - nxt) * (i + 1)
            if weight > 0:
                coords[tokens[frozenset(prefix)]] = weight
    return BarycentricPoint(target_level, coords, space.stage_complex(target_level))


def star_contains(s: StarSet, p: BarycentricPoint) -> bool:
    """True iff p lies in the union of s's open vertex stars."""
    if p.level != s.level or p.complex != s.space.stage_complex(s.level):
        raise LevelMismatch(
            f"point at level {p.level} vs star-set at level {s.level}; push first"
        )
    return bool(carrier(p) & s.core_vertices)


def realize_map(g: SimplicialMap, p: BarycentricPoint) -> BarycentricPoint:
    """Apply the affine realisation of g to p: sum coordinates over fibers."""
    support, exact = _read(p)
    if support not in g.source:
        raise InvalidPoint("point does not lie on the source complex")
    coords: dict = {}
    for v, c in exact.items():
        if c == 0:
            continue
        if v not in g.vertex_images:
            raise IncompleteMap(f"no image for vertex {vlabel(v)}")
        w = g.vertex_images[v]
        coords[w] = coords.get(w, Fraction(0)) + c
    return BarycentricPoint(p.level, coords, g.target)


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
