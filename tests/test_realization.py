"""Exact points, carriers, star membership, pushdown, and affine maps."""

import random
from fractions import Fraction

import pytest

from polycover import (
    SimplicialMap,
    StarRelation,
    StarSet,
    build_canonical,
    compose_maps,
    full_star,
    ostrand_refine,
    push_star,
    star_relation,
    star_set,
    star_subset,
    validate_complex,
)
from polycover.complexes import vlabel
from polycover import realization
from polycover.errors import (
    CannotCoarsen,
    DisjointnessRequired,
    InvalidPoint,
    LevelBudgetExceeded,
    LevelMismatch,
)
from polycover.fixtures import boundary_space, edge_space, rem_cover, tet_space, tri_space
from polycover.realization import PolyhedralSpace, _least_overlap, _subdivision_size
from polycover.selftest import (
    BarycentricPoint,
    carrier,
    push_point,
    realize_map,
    stage_point,
    star_contains,
)

from helpers import (
    grid_points,
    interior_points,
    random_cover,
    sweep_fine_enough,
    sweep_least_overlap,
    sweep_shrunk,
    sweep_star_relation,
)


def fs(*vs):
    return frozenset(vs)


class TestCarrier:
    def test_vertex_point(self):
        e = edge_space()
        p = stage_point(e, 0, {"a": 1})
        assert carrier(p) == fs("a")

    def test_midpoint(self):
        e = edge_space()
        p = stage_point(e, 0, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert carrier(p) == fs("a", "b")

    def test_barycenter_of_triangle(self):
        t = tri_space()
        w = Fraction(1, 3)
        assert carrier(stage_point(t, 0, {"a": w, "b": w, "c": w})) == fs("a", "b", "c")

    def test_bad_sum_rejected(self):
        e = edge_space()
        with pytest.raises(InvalidPoint):
            carrier(stage_point(e, 0, {"a": Fraction(1, 2)}))

    def test_support_must_be_simplex(self):
        c = validate_complex([{"a"}, {"b"}])
        p = BarycentricPoint(0, {"a": Fraction(1, 2), "b": Fraction(1, 2)}, c)
        with pytest.raises(InvalidPoint):
            carrier(p)

    def test_float_coordinates_rejected(self):
        e = edge_space()
        with pytest.raises(InvalidPoint):
            stage_point(e, 0, {"a": 0.5, "b": 0.5})

    def test_partition_property(self):
        # every sampled point lies in the relative interior of exactly one
        # simplex, namely its carrier
        t = tri_space()
        for level in (0, 1):
            for p in grid_points(t, level, 3):
                interiors = [
                    s
                    for s in t.stage_complex(level).simplices
                    if s == frozenset(v for v, c in p.coords.items() if c > 0)
                ]
                assert interiors == [carrier(p)]


class TestStarContains:
    def test_midpoint_in_end_star(self):
        e = edge_space()
        s = star_set(e, 0, ["a"])
        mid = stage_point(e, 0, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert star_contains(s, mid)

    def test_other_vertex_not_in_star(self):
        e = edge_space()
        s = star_set(e, 0, ["a"])
        assert not star_contains(s, stage_point(e, 0, {"b": 1}))

    def test_rem_big_star_misses_far_vertex(self):
        cs = rem_cover()
        p_star = dict(cs.levels[0])["P"]
        b = stage_point(cs.space, 1, {"b(b)": 1})
        assert carrier(b) == fs(cs.space.vertex_at(1, "b(b)"))
        assert not star_contains(p_star, b)

    def test_level_mismatch_raises(self):
        e = edge_space()
        s = star_set(e, 1, ["b(a)"])
        with pytest.raises(LevelMismatch):
            star_contains(s, stage_point(e, 0, {"a": 1}))

    def test_a_point_of_another_space_is_refused(self):
        # same level, and the point's carrier meets the core by label, but
        # the point lives on the edge and the star-set on the triangle
        s = star_set(tri_space(), 0, ["a"])
        with pytest.raises(LevelMismatch, match="point at level 0 vs star-set at level 0"):
            star_contains(s, stage_point(edge_space(), 0, {"a": 1}))


class TestPushPoint:
    def test_midpoint_becomes_barycenter_vertex(self):
        e = edge_space()
        mid = stage_point(e, 0, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        lifted = push_point(e, mid, 1)
        assert carrier(lifted) == fs(e.vertex_at(1, "b(a,b)"))

    def test_generic_point_staircase(self):
        e = edge_space()
        p = stage_point(e, 0, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        lifted = push_point(e, p, 1)
        assert lifted.coords == {
            e.vertex_at(1, "b(a)"): Fraction(1, 3),
            e.vertex_at(1, "b(a,b)"): Fraction(2, 3),
        }

    def test_cannot_coarsen(self):
        e = edge_space()
        p = stage_point(e, 1, {"b(a)": 1})
        with pytest.raises(CannotCoarsen):
            push_point(e, p, 0)


class TestPushStar:
    def test_end_star_core_at_level_one(self):
        e = edge_space()
        pushed = push_star(star_set(e, 0, ["a"]), 1)
        expected = {e.vertex_at(1, "b(a)"), e.vertex_at(1, "b(a,b)")}
        assert pushed.core_vertices == expected

    def test_whole_space_stays_whole(self):
        e = edge_space()
        pushed = push_star(full_star(e, 0), 1)
        assert pushed.core_vertices == e.stage_complex(1).vertices

    def test_push_composes(self):
        t = tri_space()
        s = star_set(t, 0, ["a", "b"])
        assert push_star(push_star(s, 1), 2) == push_star(s, 2)

    def test_membership_invariant_under_push(self):
        for space in (edge_space(), tri_space()):
            s = star_set(space, 0, [sorted(space.base.vertices)[0]])
            pushed = push_star(s, 1)
            for p in grid_points(space, 0, 3):
                lifted = push_point(space, p, 1)
                assert star_contains(s, p) == star_contains(pushed, lifted)

    def test_cannot_coarsen(self):
        e = edge_space()
        with pytest.raises(CannotCoarsen):
            push_star(star_set(e, 1, ["b(a)"]), 0)


class TestStarRelation:
    def test_subdivided_end_stars_disjoint(self):
        e = edge_space()
        s1 = star_set(e, 1, ["b(a)"])
        s2 = star_set(e, 1, ["b(b)"])
        # oracle: no level-1 simplex contains both end vertices
        va, vb = e.vertex_at(1, "b(a)"), e.vertex_at(1, "b(b)")
        assert not any(
            va in s and vb in s for s in e.stage_complex(1).simplices
        )
        assert star_relation(s1, s2) is StarRelation.DISJOINT

    def test_star_inside_whole_space(self):
        e = edge_space()
        assert (
            star_relation(star_set(e, 0, ["a"]), full_star(e, 0))
            is StarRelation.S1_SUBSET_S2
        )

    def test_rem_halves_overlap(self):
        cs = rem_cover()
        p = dict(cs.levels[2])["P"]
        q = dict(cs.levels[2])["Q"]
        assert star_relation(p, q) is StarRelation.OVERLAPPING

    def test_equal(self):
        e = edge_space()
        assert (
            star_relation(star_set(e, 0, ["a"]), star_set(e, 0, ["a"]))
            is StarRelation.EQUAL
        )

    def test_relation_matches_sampled_membership(self):
        # cross-check every relation against the exhaustive rational grid
        t = tri_space()
        stars = [
            star_set(t, 0, ["a"]),
            star_set(t, 0, ["b"]),
            star_set(t, 0, ["a", "b"]),
            full_star(t, 0),
        ]
        points = grid_points(t, 0, 4)
        for s1 in stars:
            for s2 in stars:
                in1 = {id(p) for p in points if star_contains(s1, p)}
                in2 = {id(p) for p in points if star_contains(s2, p)}
                rel = star_relation(s1, s2)
                if rel is StarRelation.DISJOINT:
                    assert not (in1 & in2)
                elif rel is StarRelation.EQUAL:
                    assert in1 == in2
                elif rel is StarRelation.S1_SUBSET_S2:
                    assert in1 < in2
                elif rel is StarRelation.S2_SUBSET_S1:
                    assert in2 < in1
                else:
                    assert in1 & in2 and in1 - in2 and in2 - in1


def _random_star(space, rng, level: int, most: int = 4) -> StarSet:
    verts = sorted(space.stage_complex(level).vertices, key=vlabel)
    core = rng.sample(verts, rng.randint(1, min(most, len(verts))))
    return StarSet(space, level, frozenset(core))


def _related_star(s: StarSet, rng, level: int) -> StarSet:
    """A star-set at `level` whose core is s's pushed core with a few
    vertices added or dropped, so containment and equality come up often."""
    core = set(push_star(s, level).core_vertices)
    verts = sorted(s.space.stage_complex(level).vertices, key=vlabel)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            core.add(rng.choice(verts))
        elif len(core) > 1:
            core.discard(rng.choice(sorted(core, key=vlabel)))
    return StarSet(s.space, level, frozenset(core))


def _relations_against_sweeps(spaces, top: int, rng, rounds: int) -> set:
    """Compare relations, subsets and least overlaps of random star-sets at
    levels 0..top with the stage sweeps; returns the relations seen."""
    relations = set()
    for _ in range(rounds):
        space = rng.choice(spaces)
        l1, l2 = sorted((rng.randint(0, top), rng.randint(0, top)))
        s1 = _random_star(space, rng, l1)
        s2 = _related_star(s1, rng, l2) if rng.random() < 0.5 else _random_star(space, rng, l2)
        if rng.random() < 0.5:
            s1, s2 = s2, s1
        rel = sweep_star_relation(s1, s2)
        relations.add(rel)
        assert star_relation(s1, s2) is rel
        assert star_subset(s1, s2) == (rel in (StarRelation.S1_SUBSET_S2, StarRelation.EQUAL))
        stage = space.stage_complex(l2)
        core = push_star(s1, l2).core_vertices
        assert sweep_shrunk(stage, core) == core

        family = [_random_star(space, rng, l2, 2) for _ in range(rng.randint(2, 5))]
        expected = sweep_least_overlap(family)
        cores = [star.core_vertices for star in family]
        assert _least_overlap(stage, [cores]) == (
            None if expected is None else (0, *expected)
        )
    return relations


def test_core_rule_matches_stage_sweep_oracles():
    rng = random.Random(20261018)
    spaces = [edge_space(), boundary_space(), tri_space()]
    assert _relations_against_sweeps(spaces, 3, rng, 150) == set(StarRelation)

    for _ in range(12):
        space = rng.choice(spaces)
        level = rng.randint(0, 3)
        cs = random_cover(space, rng, level, 2, per_level_cover=True)
        assert sweep_fine_enough(cs, 3, level)
        r = ostrand_refine(cs, 2)
        assert {star.level for family in r.families for _, star in family} == {level + 1}
        assert build_canonical(cs, target_kind="nerve").subdivision_level == level
        pair = sweep_least_overlap([star for _, star in cs.levels[0]])
        if pair is not None:
            ids = [cs.levels[0][k][0] for k in pair]
            with pytest.raises(DisjointnessRequired, match=f"'{ids[0]}' and '{ids[1]}' at level 0"):
                build_canonical(cs)


def test_neighbours_are_the_stage_edges():
    for space in (edge_space(), tri_space(), tet_space()):
        for level in range(3):
            stage = space.stage_complex(level)
            edges = {s for s in stage.simplices if len(s) == 2}
            assert set(stage.neighbours) == stage.vertices
            for v, near in stage.neighbours.items():
                assert near == {w for w in stage.vertices if fs(v, w) in edges}


def _edge_and_distance_two(stage, rng) -> tuple:
    """Stage vertices u, w, x with {u, w} and {w, x} edges and {u, x} not one:
    the open stars of u and x miss each other though both meet w's."""
    adj = stage.neighbours
    by_label = sorted(stage.vertices, key=vlabel)
    while True:
        w = rng.choice(by_label)
        near = sorted(adj[w], key=vlabel)
        far = [(u, x) for u in near for x in near if x != u and x not in adj[u]]
        if far:
            u, x = rng.choice(far)
            return u, w, x


def test_edge_joined_cores_overlap_and_distance_two_cores_do_not():
    """Cores that share no vertex overlap iff an edge joins them; a common
    neighbour is not enough."""
    rng = random.Random(8101)
    for space in (tri_space(), tet_space()):
        for level in (1, 2):
            stage = space.stage_complex(level)
            for _ in range(6):
                u, w, x = _edge_and_distance_two(stage, rng)
                su, sw, sx = (StarSet(space, level, fs(v)) for v in (u, w, x))
                assert star_relation(su, sw) is StarRelation.OVERLAPPING
                assert star_relation(su, sx) is StarRelation.DISJOINT
                assert sweep_star_relation(su, sw) is StarRelation.OVERLAPPING
                assert sweep_star_relation(su, sx) is StarRelation.DISJOINT
                # two vertices, neither of them w, each an edge away from it
                grown = StarSet(space, level, fs(u, x))
                assert star_relation(grown, sw) is StarRelation.OVERLAPPING
                assert _least_overlap(stage, [[fs(u), fs(x)]]) is None
                assert _least_overlap(stage, [[fs(u), fs(x), fs(w)]]) == (0, 0, 2)
                assert _least_overlap(stage, [[fs(x)], [fs(u), fs(w)]]) == (1, 0, 1)


def test_tetrahedron_relations_match_stage_sweep_oracles():
    """The tetrahedron at stages 0-2, the two star-sets at mixed levels."""
    rng = random.Random(8102)
    assert _relations_against_sweeps([tet_space()], 2, rng, 60) == set(StarRelation)


def test_next_stage_size_is_exact():
    for space in (edge_space(), boundary_space(), tri_space()):
        for level in range(3):
            predicted = _subdivision_size(space.stage_complex(level))
            assert predicted == len(space.stage_complex(level + 1).simplices)
    five_simplex = validate_complex([set("abcdef")])
    assert _subdivision_size(five_simplex) == 9365


def test_oversized_stage_is_refused_before_it_is_built(monkeypatch):
    space = PolyhedralSpace(validate_complex([set("abcdef")]))
    assert len(space.stage_complex(1).simplices) == 9365

    def refuse(stage):
        raise AssertionError("the oversized stage was built")

    monkeypatch.setattr(realization, "subdivide", refuse)
    with pytest.raises(LevelBudgetExceeded, match="stage 2 would have 5016249 simplices"):
        space.stage(2)
    assert len(space.stage_complex(1).simplices) == 9365


class TestRealizeMap:
    def test_identity_fixes_points(self):
        e = edge_space()
        p = stage_point(e, 0, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        ident = SimplicialMap(e.base, e.base, {"a": "a", "b": "b"})
        assert realize_map(ident, p) == p

    def test_collapse_sums_fibers(self):
        e = edge_space()
        target = validate_complex([{"x"}])
        m = SimplicialMap(e.base, target, {"a": "x", "b": "x"})
        mid = stage_point(e, 0, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        out = realize_map(m, mid)
        assert out.coords == {"x": Fraction(1)}

    def test_relabel_is_affine(self):
        e = edge_space()
        target = validate_complex([{"u", "v"}])
        m = SimplicialMap(e.base, target, {"a": "u", "b": "v"})
        p = stage_point(e, 0, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        out = realize_map(m, p)
        assert out.coords == {"u": Fraction(1, 3), "v": Fraction(2, 3)}

    def test_carrier_commutes(self):
        t = tri_space()
        target = validate_complex([{"u", "v"}])
        m = SimplicialMap(t.base, target, {"a": "u", "b": "v", "c": "u"})
        for p in interior_points(t, 0):
            assert carrier(realize_map(m, p)) == m.image(carrier(p))

    def test_commutes_with_composition(self):
        t = tri_space()
        edge = validate_complex([{"u", "v"}])
        point = validate_complex([{"z"}])
        g1 = SimplicialMap(t.base, edge, {"a": "u", "b": "v", "c": "u"})
        g2 = SimplicialMap(edge, point, {"u": "z", "v": "z"})
        comp = compose_maps(g2, g1)
        for p in interior_points(t, 0):
            assert realize_map(comp, p) == realize_map(g2, realize_map(g1, p))


@pytest.mark.parametrize("text", [("1/2", "1/2"), ("1/3", "2/3"), ("1", "0")])
def test_string_coordinates_read_as_their_fractions(text):
    """A point built directly may hold coordinates as strings, which
    `carrier` reads as exact rationals; pushing and mapping the point give
    what the equal Fraction coordinates give."""
    e = edge_space()
    stage = e.stage_complex(0)
    as_text = BarycentricPoint(0, dict(zip("ab", text)), stage)
    exact = BarycentricPoint(0, dict(zip("ab", map(Fraction, text))), stage)
    assert carrier(as_text) == carrier(exact)
    for level in (1, 2):
        assert push_point(e, as_text, level) == push_point(e, exact, level)
    for images in ({"a": "u", "b": "v"}, {"a": "u", "b": "u"}):
        g = SimplicialMap(e.base, validate_complex([{"u", "v"}]), images)
        assert realize_map(g, as_text) == realize_map(g, exact)


@pytest.mark.parametrize("text", [("1/2", "1/2"), ("1/3", "2/3"), ("1", "0")])
def test_string_coordinates_pushed_to_their_own_level(text):
    """A push to the point's own level reads the point as well: string
    coordinates give the equal Fraction point, which pushes to itself."""
    e = edge_space()
    stage = e.stage_complex(0)
    as_text = BarycentricPoint(0, dict(zip("ab", text)), stage)
    exact = BarycentricPoint(0, dict(zip("ab", map(Fraction, text))), stage)
    assert push_point(e, as_text, 0) == exact
    assert push_point(e, exact, 0) == exact
    assert all(type(c) is Fraction for c in push_point(e, as_text, 0).coords.values())


def test_star_set_resolves_labels():
    e = edge_space()
    s = star_set(e, 1, ["b(a)", "b(a,b)"])
    assert {vlabel(v) for v in s.core_vertices} == {"b(a)", "b(a,b)"}
