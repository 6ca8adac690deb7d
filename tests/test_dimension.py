"""Refinement verification, the barycenter-class constructor, exhaustive
search, and the equivalence driver."""

import itertools
import json
import pathlib
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from polycover import (
    CRefinement,
    cover_sequence,
    dim_oracle,
    full_star,
    mu_driver,
    n_plus_one,
    omega,
    omega_plus_one,
    ostrand_refine,
    pad_levels,
    push_star,
    refinement_as_cover,
    refinement_map,
    search_c_refinement,
    simplex_key,
    star_set,
    validate_complex,
    verify_c_refinement,
    vlabel,
)
from polycover.errors import (
    DimensionTooLow,
    InvalidArgument,
    LevelBudgetExceeded,
    NoCoverage,
    NotARefinement,
)
from polycover import dimension
from polycover.dimension import _search_at_level
from polycover.realization import PolyhedralSpace, StarSet
from polycover.fixtures import (
    boundary_space,
    edge_space,
    tet_space,
    tri_space,
    vertex_star_cover,
)

from helpers import (
    moebius_space,
    projective_plane_space,
    random_cover,
    reference_refinement_map,
    reference_search_at_level,
    reference_verify_c_refinement,
    sphere_space,
    torus_space,
)

CATALOG = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "search_catalog.json"


class TestVerify:
    def test_constructed_families_verify(self):
        cov = vertex_star_cover(tri_space(), 3)
        assert verify_c_refinement(ostrand_refine(cov, 2)).ok

    def test_overlap_is_caught_with_witness(self):
        e = edge_space()
        cov = cover_sequence(e, [[("W", full_star(e, 0))]])
        bad = CRefinement(
            (
                (
                    ("X", star_set(e, 0, ["a"])),
                    ("Y", star_set(e, 0, ["b"])),
                ),
            ),
            1,
            cov,
        )
        report = verify_c_refinement(bad)
        assert not report.ok
        assert report.failure == "overlap"
        assert set(report.witness["elements"]) == {"X", "Y"}

    def test_coverage_failure_is_caught(self):
        e = edge_space()
        cov = cover_sequence(e, [[("W", full_star(e, 0))]])
        partial = CRefinement(
            ((("X", star_set(e, 1, ["b(a)"])),),),
            1,
            cov,
        )
        report = verify_c_refinement(partial)
        assert not report.ok
        assert report.failure == "uncovered"

    def test_non_refining_element_is_caught(self):
        e = edge_space()
        cov = cover_sequence(
            e,
            [[("L", star_set(e, 1, ["b(a)"])), ("R", star_set(e, 1, ["b(a,b)", "b(b)"]))]],
        )
        bad = CRefinement(
            ((("X", full_star(e, 1)),),),
            1,
            cov,
        )
        report = verify_c_refinement(bad)
        assert not report.ok
        assert report.failure == "not_a_refinement"


class TestOstrand:
    def test_triangle_star_cover(self):
        cov = vertex_star_cover(tri_space(), 3)
        r = ostrand_refine(cov, 2)
        assert r.kappa == 3
        assert [len(f) for f in r.families] == [3, 3, 1]
        assert verify_c_refinement(r).ok
        # family k consists of stars of barycenters of k-dimensional simplices
        for k, family in enumerate(r.families):
            for eid, star in family:
                (b,) = star.core_vertices
                assert len(b.of) == k + 1

    def test_edge_whole_cover(self):
        e = edge_space()
        cov = cover_sequence(e, [[("W", full_star(e, 0))]])
        r = ostrand_refine(cov, 1)
        assert [sorted(eid for eid, _ in f) for f in r.families] == [
            ["b(a)", "b(b)"],
            ["b(a,b)"],
        ]
        assert verify_c_refinement(r).ok

    def test_zero_dimensional_space(self):
        space = PolyhedralSpace(validate_complex([{"x"}, {"y"}]))
        cov = cover_sequence(space, [[("W", full_star(space, 0))]])
        r = ostrand_refine(cov, 0)
        assert r.kappa == 1
        assert len(r.families[0]) == 2
        assert verify_c_refinement(r).ok

    def test_dimension_too_low(self):
        cov = vertex_star_cover(tri_space(), 2)
        with pytest.raises(DimensionTooLow):
            ostrand_refine(cov, 1)

    def test_verifies_for_every_generated_cover(self):
        rng = random.Random(55)
        for space_fn in (edge_space, tri_space, boundary_space):
            space = space_fn()
            n = dim_oracle(space)
            for _ in range(5):
                cov = random_cover(space, rng, rng.randint(0, 1), n + 1,
                                   per_level_cover=True)
                assert verify_c_refinement(ostrand_refine(cov, n)).ok


class TestSearch:
    def test_edge_two_families_found_by_level_one(self):
        res = search_c_refinement(vertex_star_cover(edge_space(), 2), 2, max_level=1)
        assert res.status == "found" and res.level <= 1
        assert verify_c_refinement(res.refinement).ok

    def test_edge_level_one_certificate_shape(self):
        res = search_c_refinement(
            vertex_star_cover(edge_space(), 2), 2, max_level=1, min_level=1
        )
        assert res.status == "found" and res.level == 1
        cores = [
            {vlabel(v) for _, star in fam for v in star.core_vertices}
            for fam in res.refinement.families
        ]
        assert {"b(a)"} in cores or {"b(b)"} in cores

    def test_triangle_two_families_exhaust(self):
        res = search_c_refinement(vertex_star_cover(tri_space(), 2), 2, max_level=1)
        assert res.status == "exhausted"
        assert [a.level for a in res.audits] == [0, 1]
        assert all(a.nodes > 0 for a in res.audits)
        assert not any(a.found for a in res.audits)

    def test_triangle_three_families_found(self):
        res = search_c_refinement(vertex_star_cover(tri_space(), 3), 3, max_level=1)
        assert res.status == "found"
        assert len(res.refinement.families) == 3
        assert verify_c_refinement(res.refinement).ok

    def test_found_extends_to_larger_kappa(self):
        res = search_c_refinement(vertex_star_cover(edge_space(), 2), 2, max_level=1)
        bigger_cov = vertex_star_cover(edge_space(), 3)
        extended = CRefinement(
            res.refinement.families + ((),), 3, bigger_cov
        )
        assert verify_c_refinement(extended).ok

    def test_audit_is_deterministic(self):
        cov = vertex_star_cover(tri_space(), 2)
        first = search_c_refinement(cov, 2, max_level=1)
        second = search_c_refinement(cov, 2, max_level=1)
        assert first.audits == second.audits


def _star_shapes():
    """Every level-1 cover of the triangle with one element per base vertex
    v inside the open star of v: b(v) goes to v's element, each edge
    barycenter to one or both of its end vertices' elements, and b(a,b,c)
    to a nonempty set of the three (189 shapes)."""
    edges = ("ab", "ac", "bc")
    centre = ("a", "b", "c", "ab", "ac", "bc", "abc")
    for owners in itertools.product(*[(e[0], e[1], e) for e in edges], centre):
        groups = {v: [f"b({v})"] for v in "abc"}
        for (x, y), vs in zip(edges, owners[:3]):
            for v in vs:
                groups[v].append(f"b({x},{y})")
        for v in owners[3]:
            groups[v].append("b(a,b,c)")
        yield groups


def _shape_family(space, groups):
    return [(f"U{v}", star_set(space, 1, groups[v])) for v in "abc"]


def _certificate(refinement):
    return [
        [(eid, sorted(vlabel(v) for v in star.core_vertices)) for eid, star in fam]
        for fam in refinement.families
    ]


def _assert_walks_reference_tree(cs, kappa, max_level, min_level=0):
    """search_c_refinement against the recomputing reference, level by
    level: (level, nodes, prunes, found) of every audit and the first
    certificate's element ids and cores."""
    result = search_c_refinement(cs, kappa, max_level, min_level)
    audits = []
    refinement = None
    for level in range(min_level, max_level + 1):
        refinement, audit = reference_search_at_level(cs, kappa, level)
        audits.append(audit)
        if refinement is not None:
            break
    assert [(a.level, a.nodes, a.prunes, a.found) for a in result.audits] == [
        (a.level, a.nodes, a.prunes, a.found) for a in audits
    ]
    if refinement is None:
        assert result.status == "exhausted" and result.refinement is None
    else:
        assert result.status == "found" and result.level == audits[-1].level
        assert _certificate(result.refinement) == _certificate(refinement)
    return result


def _walked(cs, kappa, level):
    """(audit, calls): one level's search and how many of its calls walked
    a subtree rather than taking its counts from the table.  The full tree
    has one call for the root and one for each node."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "dfs":
            calls += 1

    sys.setprofile(count)
    try:
        _, audit = _search_at_level(cs, kappa, level)
    finally:
        sys.setprofile(None)
    return audit, calls


def test_search_walks_the_reference_tree():
    """The forward-checked search visits exactly the nodes of the search that
    re-derives every domain at every node, and finds the same certificate."""
    for space_fn, kappa, max_level, min_level in (
        (edge_space, 2, 1, 0),
        (edge_space, 2, 2, 2),
        (boundary_space, 2, 2, 0),
        (tri_space, 2, 1, 0),
        (tri_space, 3, 2, 0),
        (tri_space, 3, 2, 2),
        (tet_space, 2, 1, 0),
    ) + tuple(
        (space_fn, kappa, 1, 0)
        for space_fn in (sphere_space, torus_space, projective_plane_space, moebius_space)
        for kappa in (2, 3)
    ):
        cov = vertex_star_cover(space_fn(), kappa)
        _assert_walks_reference_tree(cov, kappa, max_level, min_level)

    rng = random.Random(4)
    shapes = list(_star_shapes())
    rng.shuffle(shapes)
    space = tri_space()
    deep = []
    for groups in shapes:
        if len(deep) == 25:
            break
        cs = cover_sequence(space, [_shape_family(space, groups)])
        shallow = _assert_walks_reference_tree(cs, 2, 1)
        # Two families never refine a triangle cover, so the level-2 tree is
        # exhaustive; on these shapes a level-1 tree of at most 4 nodes keeps
        # it under 40,000 nodes, which bounds the reference's run time.
        if shallow.audits[-1].nodes <= 4:
            deep.append(_assert_walks_reference_tree(cs, 2, 2, 2).audits[0])
        levels = (groups, rng.choice(shapes), rng.choice(shapes))
        mixed = cover_sequence(space, [_shape_family(space, g) for g in levels])
        _assert_walks_reference_tree(mixed, 3, 2)
        _assert_walks_reference_tree(mixed, 3, 2, 2)
    assert len(deep) == 25
    assert all(a.prunes > 0 and not a.found for a in deep)

    # Two families over mixed levels: exhaustive level-2 trees, most of whose
    # subtrees the table answers.  At most 40,000 nodes each, for the
    # reference's sake.
    answered = 0
    for groups in shapes:
        if answered == 6:
            break
        levels = (groups, rng.choice(shapes), rng.choice(shapes))
        mixed = cover_sequence(space, [_shape_family(space, g) for g in levels])
        audit, calls = _walked(mixed, 2, 2)
        if audit.nodes > 40_000:
            continue
        assert calls < audit.nodes + 1
        _assert_walks_reference_tree(mixed, 2, 2, 2)
        answered += 1
    assert answered == 6


def _random_star_family(space, rng):
    """One level-1 element U(v) per base vertex v, inside the open star of
    v: each base simplex's barycenter goes to U(u) for a nonempty random set
    of its vertices u."""
    base = space.stage_complex(0)
    cores: dict = {v: set() for v in base.vertices}
    for s in sorted(base.simplices, key=simplex_key):
        owners = sorted(s, key=vlabel)
        for u in rng.sample(owners, rng.randint(1, len(owners))):
            cores[u].add(base.barycenters[s])
    vertices = sorted(cores, key=vlabel)
    return [(f"U{vlabel(v)}", StarSet(space, 1, frozenset(cores[v]))) for v in vertices]


def test_search_walks_the_reference_tree_over_twin_classes():
    """Families with equal cores form a twin class, whose open members the
    table keys as a multiset.  Two distinct levels (A, B) padded to three or
    four families make the classes {0} and {1, 2(, 3)}; levels (A, B, A)
    make the class {0, 2}, which is not contiguous.  On the triangle's
    catalog shapes three and four families are found at once; on
    tetrahedron covers of the same kind three families exhaust at level 1,
    and the table answers part of each tree."""
    rng = random.Random(27)
    space = tri_space()
    catalog = _catalog()
    for kappa, pattern in itertools.product((3, 4), ((0, 1), (0, 1, 0))):
        for _ in range(5):
            a, b = (entry["groups"] for entry in rng.sample(catalog, 2))
            levels = [(a, b)[i] for i in pattern]
            cs = cover_sequence(space, [_shape_family(space, g) for g in levels])
            _assert_walks_reference_tree(cs, kappa, 2, 1)
            _assert_walks_reference_tree(cs, kappa, 2, 2)

    tet = tet_space()
    answered = 0
    for kappa, pattern, count in ((3, (0, 1), 10), (3, (0, 1, 0), 10),
                                  (4, (0, 1), 3), (4, (0, 1, 0), 3)):
        for _ in range(count):
            a, b = _random_star_family(tet, rng), _random_star_family(tet, rng)
            assert a != b
            cs = cover_sequence(tet, [(a, b)[i] for i in pattern])
            audit, calls = _walked(cs, kappa, 1)
            assert audit.nodes <= 20_000
            assert audit.found == (kappa == 4)
            answered += calls < audit.nodes + 1
            _assert_walks_reference_tree(cs, kappa, 1)
    assert answered >= 10


ONE_LEVEL_GROUNDS = (edge_space(), boundary_space(), tri_space())


@st.composite
def one_level_covers(draw):
    """A family count of 2 or 3 and a cover of the edge, the boundary or the
    triangle by one level-1 star-set U(u) per base vertex u.  Each level-1
    vertex b(s) goes to U(u) for some vertices u of s, and maybe to one more
    element: star covers, where two families never refine the triangle, and
    covers that break the star pattern."""
    space = draw(st.sampled_from(ONE_LEVEL_GROUNDS))
    base = space.stage_complex(0)
    vertices = sorted(base.vertices, key=vlabel)
    cores: dict = {u: set() for u in vertices}
    for s in sorted(base.simplices, key=simplex_key):
        owners = draw(st.sets(st.sampled_from(sorted(s, key=vlabel)), min_size=1))
        owners |= draw(st.sets(st.sampled_from(vertices), max_size=1))
        for u in owners:
            cores[u].add(base.barycenters[s])
    family = [(f"U{vlabel(u)}", StarSet(space, 1, frozenset(cores[u]))) for u in vertices]
    return cover_sequence(space, [family]), draw(st.integers(2, 3))


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(one_level_covers())
def test_search_matches_reference_on_random_one_level_covers(drawn):
    cs, kappa = drawn
    # The reference re-derives every domain at every node: keep its trees
    # under 20,000 nodes in all.
    assume(sum(a.nodes for a in search_c_refinement(cs, kappa, 2).audits) <= 20_000)
    _assert_walks_reference_tree(cs, kappa, 2)


def _catalog():
    """The benchmark's search catalog: each shape's groups and the node
    count of its two-family search."""
    return json.loads(CATALOG.read_text(encoding="utf-8"))


def _catalog_cover(space, groups):
    return cover_sequence(space, [_shape_family(space, groups)])


def test_search_catalog_trees_are_pinned():
    """Every shape of the benchmark's search catalog: two families exhaust
    with the recorded node count, and three families are found and verify."""
    space = tri_space()
    catalog = _catalog()
    assert len(catalog) == 189
    for entry in catalog:
        cs = _catalog_cover(space, entry["groups"])
        two = search_c_refinement(cs, 2, 2)
        assert two.status == "exhausted"
        assert sum(a.nodes for a in two.audits) == entry["nodes"]
        three = search_c_refinement(cs, 3, 2)
        assert three.status == "found"
        assert verify_c_refinement(three.refinement).ok


def test_the_table_answers_mirrored_states():
    """Criterion 6's level-2 search walks 2,574 of the 345,065 calls of its
    tree.  The table answers a state whose twin families' open members
    are another's in some order, or whose components differ only in masks
    that no vertex can join; keying every family in order, it walked
    5,599."""
    audit, calls = _walked(vertex_star_cover(tri_space(), 2), 2, 2)
    assert (audit.nodes, audit.prunes, audit.found) == (345_064, 72_576, False)
    assert calls == 2_574


@pytest.mark.parametrize("cap", [1, 64])
def test_table_cap_changes_no_audit(monkeypatch, cap):
    """Clearing the table whenever it is full only costs walks: the
    criterion-6 triangle and a sample of catalog shapes keep their audits.
    The sample keeps to shapes of at most 40,000 nodes, since a cap of 1
    walks nearly the whole tree."""
    space = tri_space()
    catalog = _catalog()
    sample = [entry for entry in catalog if entry["nodes"] <= 40_000][::10]
    covers = [vertex_star_cover(space, 2)] + [
        _catalog_cover(space, entry["groups"]) for entry in sample
    ]
    expected = [search_c_refinement(cs, 2, 2).audits for cs in covers]
    monkeypatch.setattr(dimension, "SEARCH_TABLE_CAP", cap)
    assert [search_c_refinement(cs, 2, 2).audits for cs in covers] == expected


def test_search_over_no_levels_is_refused():
    """An empty level range is a bad argument, not an exhausted search."""
    cs = vertex_star_cover(tri_space(), 3)
    assert search_c_refinement(cs, 3, 1, 1).status == "found"
    for max_level, min_level in ((0, 2), (-1, 0), (1, 2)):
        with pytest.raises(InvalidArgument):
            search_c_refinement(cs, 3, max_level, min_level)


def test_budget_refusal_names_the_budget_given():
    """A max level at or below the working level is refused with the stage
    the constructor needs and the max level given, never a level below 0."""
    tri = tri_space()
    at_0 = vertex_star_cover(tri, 3)
    at_1 = cover_sequence(
        tri, [[(eid, push_star(s, 1)) for eid, s in family] for family in at_0.levels]
    )
    for cs, max_level in ((at_0, 0), (at_1, 0), (at_1, 1)):
        needed = cs.working_level + 1
        message = f"the refinement needs stage {needed}, beyond the max level {max_level}"
        with pytest.raises(LevelBudgetExceeded) as err:
            ostrand_refine(cs, 2, max_level)
        assert str(err.value) == message
        with pytest.raises(LevelBudgetExceeded) as err:
            mu_driver(cs, n_plus_one(2), max_level)
        assert err.value.report.failure == message
    assert ostrand_refine(at_0, 2, 1).families[0][0][1].level == 1


def _corrupted(r, rng):
    """Copies of r broken three ways: a duplicated element (overlap), a
    family replaced by the whole space or by another family (refinement),
    and a dropped element (coverage).  A copy may still pass, or fail an
    earlier check than the one aimed at."""
    families = [list(family) for family in r.families]
    space = r.source.space
    out = []
    n = rng.randrange(len(families))
    if families[n]:
        eid, star = rng.choice(families[n])
        dup = [list(f) for f in families]
        dup[n].append((eid + "'", star))
        out.append(dup)
    whole = [list(f) for f in families]
    whole[n] = [("whole", full_star(space, rng.choice([0, r.source.working_level])))]
    out.append(whole)
    out.append(families[1:] + families[:1])
    dropped = [list(f) for f in families]
    if dropped[n]:
        dropped[n].pop(rng.randrange(len(dropped[n])))
    out.append(dropped)
    return [CRefinement(tuple(map(tuple, f)), r.kappa, r.source) for f in out]


def _mixed_levels(r, rng):
    """r with some elements re-expressed one level finer."""
    families = tuple(
        tuple(
            (eid, push_star(star, star.level + 1) if rng.random() < 0.4 else star)
            for eid, star in family
        )
        for family in r.families
    )
    return CRefinement(families, r.kappa, r.source)


def _assert_same_map(fine, coarse, kappa):
    try:
        expected = reference_refinement_map(fine, coarse, kappa)
    except NotARefinement as err:
        with pytest.raises(NotARefinement) as got:
            refinement_map(fine, coarse, kappa)
        assert str(got.value) == str(err)
        return False
    assert refinement_map(fine, coarse, kappa) == expected
    return True


def test_verifier_and_refinement_map_match_per_pair_reference():
    """Pushing every star-set to the common level once gives the verdicts,
    witnesses and vertex maps of the per-pair containment tests."""
    rng = random.Random(20261018)
    spaces = [edge_space(), boundary_space(), tri_space()]
    valid = []
    # The triangle at level 2 gives 673 elements at level 3: one such case.
    for space, level in list(itertools.product(spaces, (0, 1, 2))) + [
        (rng.choice(spaces), rng.randint(0, 1)) for _ in range(9)
    ]:
        cs = random_cover(space, rng, level, rng.randint(1, 3), per_level_cover=True)
        valid.append(ostrand_refine(cs, 2))
    for space in spaces:
        kappa = dim_oracle(space) + 1
        for level in (0, 1):
            cs = random_cover(space, rng, level, kappa)
            result = search_c_refinement(cs, kappa, level + 1, level)
            assert result.status == "found"
            valid.append(result.refinement)

    failures = []
    mapped = []
    for r in valid:
        for case in [r, _mixed_levels(r, rng)] + _corrupted(r, rng):
            report = verify_c_refinement(case)
            assert report == reference_verify_c_refinement(case)
            failures.append(report.failure)
            try:
                fine = refinement_as_cover(case)
            except NoCoverage:
                continue
            coarse = pad_levels(case.source, case.kappa)
            mapped.append(_assert_same_map(fine, coarse, case.kappa))
    assert set(failures) == {None, "overlap", "not_a_refinement", "uncovered"}
    assert set(mapped) == {True, False}


class TestMuDriver:
    def test_dimension_mode_succeeds_at_the_dimension(self):
        report = mu_driver(vertex_star_cover(tri_space(), 3), n_plus_one(2))
        assert report.success
        assert report.kappa == 3
        assert report.refinement_method == "constructor"
        assert report.search_status is None
        assert report.map_is_canonical and report.map_is_selection
        assert report.roundtrip_ok

    def test_dimension_mode_fails_below_the_dimension(self):
        report = mu_driver(
            vertex_star_cover(tri_space(), 2), n_plus_one(1), max_level=1
        )
        assert not report.success
        assert "exhausted" in report.failure
        assert report.search_status == "exhausted"
        assert report.search_audits

    def test_omega_modes_use_the_constructor(self):
        for mode in (omega_plus_one(), omega()):
            report = mu_driver(vertex_star_cover(edge_space(), 2), mode)
            assert report.success
            assert report.kappa == dim_oracle(edge_space()) + 1

    def test_search_path_when_levels_do_not_cover(self):
        e = edge_space()
        cov = cover_sequence(
            e,
            [
                [("L", star_set(e, 1, ["b(a)"]))],
                [("R", star_set(e, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        report = mu_driver(cov, n_plus_one(1), max_level=1)
        assert report.success
        assert report.refinement_method == "search"
        assert report.search_status == "found"


def test_dim_oracle_values():
    assert dim_oracle(edge_space()) == 1
    assert dim_oracle(tri_space()) == 2
    assert dim_oracle(boundary_space()) == 1


def test_refinement_as_cover_preserves_elements():
    cov = vertex_star_cover(tri_space(), 3)
    r = ostrand_refine(cov, 2)
    cs = refinement_as_cover(r)
    assert cs.num_levels == 3
    assert [len(level) for level in cs.levels] == [3, 3, 1]
