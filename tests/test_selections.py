"""Canonical maps, selection predicates, cone extension, and the
carrier-table machinery."""

import random
import re

import pytest

from polycover import (
    CanonicalMap,
    CRefinement,
    SimplicialMap,
    bootstrap_skeletal_selection,
    build_canonical,
    carrier_tables,
    check_simplicial_map,
    cone_extend,
    coned,
    cover_sequence,
    delta_subcomplex,
    extend_skeletal_selection,
    extract_c_refinement,
    full_star,
    is_canonical,
    is_selection,
    is_setvalued_selection,
    is_skeletal_selection,
    nerve,
    ostrand_refine,
    pad_levels,
    refinement_as_cover,
    refinement_map,
    star_set,
    transfer_selection,
    validate_complex,
    verify_c_refinement,
    vertex_selection,
    vlabel,
    why_not_canonical,
    why_not_selection,
)
from polycover.complexes import SimplicialComplex, simplex_key, simplex_label
from polycover.covers import DELTA, FULL_NERVE
from polycover.errors import (
    ArityError,
    ComposeError,
    DisjointnessRequired,
    EmptyValue,
    IncompleteMap,
    NoConeWitness,
    NoCoverage,
    NotCanonical,
    SkeletonViolation,
    UnknownCoverElement,
    WitnessFailure,
)
from polycover.fixtures import boundary_space, edge_space, rem_cover, tri_space

from helpers import (
    random_cover,
    random_disjoint_cover,
    reference_canonical_images,
    reference_carrier_monotone,
    reference_why_not_canonical,
    reference_why_not_selection,
)


def fs(*vs):
    return frozenset(vs)


def rem_example_map():
    """The level-1 map sending a, m to P and b to Q."""
    cs = rem_cover()
    space = cs.space
    stage = space.stage_complex(1)
    images = {
        space.vertex_at(1, "b(a)"): ("P", 0),
        space.vertex_at(1, "b(a,b)"): ("P", 0),
        space.vertex_at(1, "b(b)"): ("Q", 1),
    }
    target = delta_subcomplex(cs, 2)
    return cs, CanonicalMap(1, SimplicialMap(stage, target, images), DELTA)


class TestCanonicalAndSelection:
    def test_rem_example_is_canonical(self):
        cs, f = rem_example_map()
        assert check_simplicial_map(f.map)
        assert is_canonical(f, cs, 2)
        assert is_selection(f, cs, 2)

    def test_constant_map_to_small_element_fails(self):
        cs = rem_cover()
        stage = cs.space.stage_complex(1)
        target = delta_subcomplex(cs, 2)
        images = {v: ("P'", 1) for v in stage.vertices}
        f = CanonicalMap(1, SimplicialMap(stage, target, images), DELTA)
        assert not is_canonical(f, cs, 2)
        assert not is_selection(f, cs, 2)
        witness = why_not_canonical(f, cs, 2)
        assert witness["element"] == ["P'", 1]

    def test_anything_into_whole_space_cover_is_canonical(self):
        e = edge_space()
        cs = cover_sequence(e, [[("W", full_star(e, 0))]])
        stage = e.stage_complex(0)
        target = nerve(cs, 1)
        images = {v: ("W", 0) for v in stage.vertices}
        f = CanonicalMap(0, SimplicialMap(stage, target, images), FULL_NERVE)
        assert is_canonical(f, cs, 1)
        assert is_selection(f, cs, 1)

    def test_predicates_agree_on_random_maps(self):
        rng = random.Random(101)
        cs = rem_cover()
        stage = cs.space.stage_complex(1)
        verts = sorted(stage.vertices, key=vlabel)
        elements = [(eid, n) for eid, n, _ in cs.elements(3)]
        target = nerve(cs, 3)
        for _ in range(100):
            images = {v: rng.choice(elements) for v in verts}
            f = CanonicalMap(1, SimplicialMap(stage, target, images), FULL_NERVE)
            assert is_canonical(f, cs, 3) == is_selection(f, cs, 3)


class TestBuildCanonical:
    def test_whole_space_cover_builds_constant_map(self):
        e = edge_space()
        cs = cover_sequence(e, [[("W", full_star(e, 0))]])
        f = build_canonical(cs, 1)
        assert f.subdivision_level == 0
        assert set(f.map.vertex_images.values()) == {("W", 0)}
        assert is_canonical(f, cs, 1) and is_selection(f, cs, 1)

    def test_disjointified_rem_cover(self):
        cs = rem_cover()
        space = cs.space
        fine = cover_sequence(
            space,
            [
                [("P'", star_set(space, 1, ["b(a)"]))],
                [("Q", star_set(space, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        f = build_canonical(fine, 2)
        assert check_simplicial_map(f.map)
        assert is_canonical(f, fine, 2)
        assert is_selection(f, fine, 2)

    def test_delta_target_requires_disjoint_levels(self):
        cs = rem_cover()
        with pytest.raises(DisjointnessRequired):
            build_canonical(cs, 2, DELTA)

    def test_full_nerve_target_allows_overlap(self):
        cs = rem_cover()
        f = build_canonical(cs, 2, FULL_NERVE)
        assert check_simplicial_map(f.map)
        assert is_canonical(f, cs, 2)
        assert is_selection(f, cs, 2)

    def test_uncovered_prefix_rejected(self):
        e = edge_space()
        cs = cover_sequence(
            e,
            [
                [("L", star_set(e, 1, ["b(a)"]))],
                [("R", star_set(e, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        with pytest.raises(NoCoverage):
            build_canonical(cs, 1)


class TestTransferSelection:
    def test_identity_transfer_keeps_map(self):
        cs = rem_cover()
        space = cs.space
        fine = cover_sequence(
            space,
            [
                [("P'", star_set(space, 1, ["b(a)"]))],
                [("Q", star_set(space, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        h = build_canonical(fine, 2)
        r = refinement_map(fine, fine, 2)
        assert transfer_selection(h, r).map.vertex_images == h.map.vertex_images

    def test_rem_transfer_is_selection_for_coarse(self):
        cs = rem_cover()
        space = cs.space
        fine = cover_sequence(
            space,
            [
                [("P'", star_set(space, 1, ["b(a)"]))],
                [("Q", star_set(space, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        h = build_canonical(fine, 2)
        r = refinement_map(fine, cs, 2)
        f = transfer_selection(h, r)
        assert is_selection(f, cs, 2)
        assert is_canonical(f, cs, 2)

    def test_transfer_lands_in_the_one_per_level_complex(self):
        """The refinement map's target is the coarse one-per-level complex,
        so a map into the fine nerve transfers to a DELTA map, and its
        fibers extract to a refinement of the coarse cover."""
        coarse = pad_levels(rem_cover(), 3)
        fine = refinement_as_cover(ostrand_refine(rem_cover(), 2))
        h = build_canonical(fine, 3, FULL_NERVE)
        f = transfer_selection(h, refinement_map(fine, coarse, 3))
        assert h.kind == FULL_NERVE and f.kind == DELTA
        assert f.map.target is delta_subcomplex(coarse, 3)
        families = extract_c_refinement(f, coarse, 3)
        assert verify_c_refinement(CRefinement(tuple(families), 3, coarse))

    def test_compose_error(self):
        cs = rem_cover()
        space = cs.space
        fine = cover_sequence(
            space,
            [
                [("P'", star_set(space, 1, ["b(a)"]))],
                [("Q", star_set(space, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        h = build_canonical(fine, 2)
        bad = refinement_map(cs, cs, 2)
        with pytest.raises(ComposeError):
            transfer_selection(h, bad)


class TestExtract:
    def test_whole_space_extraction(self):
        e = edge_space()
        cs = cover_sequence(e, [[("W", full_star(e, 0))]])
        f = build_canonical(cs, 1)
        families = extract_c_refinement(f, cs, 1)
        assert len(families) == 1 and len(families[0]) == 1
        eid, star = families[0][0]
        assert eid == "W"
        assert star.core_vertices == e.stage_complex(0).vertices

    def test_disjoint_families_roundtrip(self):
        cs = rem_cover()
        space = cs.space
        fine = cover_sequence(
            space,
            [
                [("P'", star_set(space, 1, ["b(a)"]))],
                [("Q", star_set(space, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        f = build_canonical(fine, 2)
        families = extract_c_refinement(f, fine, 2)
        back = CRefinement(tuple(families), 2, fine)
        assert verify_c_refinement(back).ok

    def test_non_canonical_rejected(self):
        cs = rem_cover()
        stage = cs.space.stage_complex(1)
        target = delta_subcomplex(cs, 2)
        images = {v: ("P'", 1) for v in stage.vertices}
        f = CanonicalMap(1, SimplicialMap(stage, target, images), DELTA)
        with pytest.raises(NotCanonical):
            extract_c_refinement(f, cs, 2)

    def test_full_nerve_target_rejected(self):
        cs = rem_cover()
        f = build_canonical(cs, 2, FULL_NERVE)
        with pytest.raises(NotCanonical):
            extract_c_refinement(f, cs, 2)


class TestConeExtend:
    def test_two_point_example(self):
        t = validate_complex([{"ya", "yb", "q"}])
        sigma = validate_complex([{"a"}, {"b"}])
        g = SimplicialMap(sigma, t, {"a": "ya", "b": "yb"})
        s0 = validate_complex([{"ya"}, {"yb"}])
        h = cone_extend(g, "v", "q", [s0, t])
        assert check_simplicial_map(h)
        assert h.vertex_images["v"] == "q"
        assert h.image(fs("a", "v")) == fs("ya", "q")
        assert h.image(fs("b", "v")) == fs("yb", "q")
        for v in sigma.vertices:
            assert h.vertex_images[v] == g.vertex_images[v]
        # every new simplex lands in the chain member of its dimension; the
        # bare apex is the one exception at k=0 (it lands in S_1, and in
        # S_0 only when the witness already sits there)
        for s in h.source.simplices:
            if s == fs("v"):
                assert h.image(s) in t.simplices and h.image(s) not in s0.simplices
            else:
                k = len(s) - 1
                member = [s0, t][k]
                assert h.image(s) in member.simplices

    def test_single_vertex_source(self):
        t = validate_complex([{"y", "q"}])
        sigma = validate_complex([{"a"}])
        g = SimplicialMap(sigma, t, {"a": "y"})
        s0 = validate_complex([{"y"}, {"q"}])
        h = cone_extend(g, "v", "q", [s0, t])
        assert check_simplicial_map(h)
        assert h.image(fs("a", "v")) == fs("y", "q")

    def test_iterated_extension_with_extended_chain(self):
        base = validate_complex([{"ya", "yb"}])
        t = coned(base, "q")
        sigma = validate_complex([{"a"}, {"b"}])
        g = SimplicialMap(sigma, t, {"a": "ya", "b": "yb"})
        s0 = validate_complex([{"ya"}, {"yb"}, {"q"}])
        h = cone_extend(g, "v", "q", [s0, t])
        chain = [s0, t, coned(t, "q")]
        h2 = cone_extend(h, "w", "q", chain)
        assert check_simplicial_map(h2)
        for s in h2.source.simplices:
            k = len(s) - 1
            assert h2.image(s) in chain[k].simplices

    def test_witness_failure(self):
        t = validate_complex([{"ya", "yb", "q"}])
        sigma = validate_complex([{"a"}, {"b"}])
        g = SimplicialMap(sigma, t, {"a": "ya", "b": "yb"})
        s0 = validate_complex([{"ya"}, {"yb"}])
        with pytest.raises(WitnessFailure):
            cone_extend(g, "v", "q", [s0, s0])

    def test_skeleton_violation(self):
        t = validate_complex([{"ya", "yb", "q"}])
        sigma = validate_complex([{"a"}, {"b"}])
        g = SimplicialMap(sigma, t, {"a": "ya", "b": "yb"})
        s0 = validate_complex([{"ya"}])
        with pytest.raises(SkeletonViolation):
            cone_extend(g, "v", "q", [s0, t])

    def test_dimension_bound(self):
        t = validate_complex([{"ya", "yb", "q"}])
        sigma = validate_complex([{"a", "b"}])
        g = SimplicialMap(sigma, t, {"a": "ya", "b": "yb"})
        with pytest.raises(SkeletonViolation):
            cone_extend(g, "v", "q", [validate_complex([{"ya"}, {"yb"}]), t])


class TestOneMessagePerInput:
    """Several vertices lack an image, or several simplices break the
    chain: the least-labelled vertex, or the least simplex, is named, so
    the message does not depend on the hash seed."""

    def test_least_vertex_without_image(self):
        names = "gfedcba"
        points = validate_complex([{x} for x in names])
        t = validate_complex([{"ya", "q"}])
        g = SimplicialMap(points, t, {"a": "ya"})
        with pytest.raises(IncompleteMap, match="no image for vertex b$"):
            check_simplicial_map(g)
        with pytest.raises(IncompleteMap, match="no image for vertex b$"):
            cone_extend(g, "v", "q", [validate_complex([{"ya"}]), t])

    def test_least_prefix_vertex_without_image(self):
        space = tri_space()
        stage = space.stage_complex(1)
        target = validate_complex([{"y"}])
        phi = carrier_tables(space, 1, target, [{tau: target for tau in stage.simplices}])
        cs, f0 = bootstrap_skeletal_selection(phi)
        least = min(vlabel(v) for v in f0.source.vertices)
        kept = max(f0.source.vertices, key=vlabel)
        f = SimplicialMap(f0.source, target, {kept: "y"})
        message = f"no image for vertex {re.escape(least)}$"
        with pytest.raises(IncompleteMap, match=message):
            is_skeletal_selection(f, cs, phi)
        with pytest.raises(IncompleteMap, match=message):
            is_setvalued_selection(f, cs, phi, 0)

    def test_least_simplex_outside_the_chain(self):
        names = "abcdefgh"
        edges = validate_complex([{names[i], names[i + 1]} for i in range(0, 8, 2)])
        points = validate_complex([{"y" + x} for x in names])
        s1 = coned(points, "q")
        t = coned(validate_complex([{"y" + x for x in names}]), "q")
        g = SimplicialMap(edges, t, {x: "y" + x for x in names})
        with pytest.raises(
            SkeletonViolation, match=re.escape("image of ['a', 'b'] is outside chain member 1")
        ):
            cone_extend(g, "v", "q", [points, s1, t])


def edge_phi(levels: int = 5):
    """Carrier tables on the edge at level 0: q-coned values keyed by the
    vertices each carrier touches."""
    e = edge_space()
    target = coned(validate_complex([{"t:a", "t:b"}]), "z")
    named = {
        fs("a"): validate_complex([{"t:a"}]),
        fs("b"): validate_complex([{"t:b"}]),
        fs("a", "b"): validate_complex([{"t:a", "t:b"}]),
    }
    table = {tau: coned(value, "z") for tau, value in named.items()}
    return e, carrier_tables(e, 0, target, [table] * levels, "z")


class TestCarrierTables:
    def test_monotonicity_violation_rejected(self):
        e = edge_space()
        target = validate_complex([{"y1", "y2"}])
        bad = {
            fs("a"): validate_complex([{"y1"}]),
            fs("b"): validate_complex([{"y2"}]),
            fs("a", "b"): validate_complex([{"y2"}]),
        }
        with pytest.raises(ValueError, match="monotone"):
            carrier_tables(e, 0, target, [bad])

    def test_empty_value_rejected(self):
        from polycover.complexes import EMPTY_COMPLEX

        e = edge_space()
        target = validate_complex([{"y1", "y2"}])
        bad = {
            fs("a"): EMPTY_COMPLEX,
            fs("b"): validate_complex([{"y2"}]),
            fs("a", "b"): validate_complex([{"y1", "y2"}]),
        }
        with pytest.raises(EmptyValue):
            carrier_tables(e, 0, target, [bad])

    def test_missing_carrier_rejected(self):
        e = edge_space()
        target = validate_complex([{"y1"}])
        with pytest.raises(ArityError):
            carrier_tables(e, 0, target, [{fs("a"): target}])

    def test_witness_is_verified(self):
        e = edge_space()
        target = validate_complex([{"y1", "q"}, {"y2"}])
        t0 = {
            fs("a"): validate_complex([{"y1"}]),
            fs("b"): validate_complex([{"y1"}]),
            fs("a", "b"): validate_complex([{"y1"}, {"y2"}]),
        }
        with pytest.raises(WitnessFailure):
            carrier_tables(e, 0, target, [t0, t0], "q")

    def test_witnessed_tables_are_aspherical(self):
        e, phi = edge_phi()
        for k in range(len(phi.tables) - 1):
            for tau, value in phi.tables[k].items():
                assert coned(value, phi.cone_witness).subcomplex_of(
                    phi.tables[k + 1][tau]
                )


class TestVertexSelection:
    def test_edge_example(self):
        e = edge_space()
        target = validate_complex([{"y1", "y2"}])
        table = {
            fs("a"): validate_complex([{"y1"}]),
            fs("b"): validate_complex([{"y2"}]),
            fs("a", "b"): validate_complex([{"y1", "y2"}]),
        }
        phi = carrier_tables(e, 0, target, [table])
        family, vmap = vertex_selection(phi)
        assert vmap == {"a": "y1", "b": "y2"}
        # chosen vertices satisfy the table at every carrier in the star
        for eid, star in family:
            v = next(iter(star.core_vertices))
            for tau in e.stage_complex(0).simplices:
                if v in tau:
                    assert fs(vmap[eid]) in table[tau].simplices

    def test_constant_table_constant_choice(self):
        e = edge_space()
        target = validate_complex([{"y"}])
        table = {tau: target for tau in e.stage_complex(0).simplices}
        phi = carrier_tables(e, 0, target, [table])
        _, vmap = vertex_selection(phi)
        assert set(vmap.values()) == {"y"}


class TestSkeletalSelections:
    def test_bootstrap_is_skeletal(self):
        e, phi = edge_phi()
        cs, f0 = bootstrap_skeletal_selection(phi)
        assert is_skeletal_selection(f0, cs, phi)

    def test_corrupted_map_fails(self):
        e, phi = edge_phi()
        cs, f0 = bootstrap_skeletal_selection(phi)
        images = dict(f0.vertex_images)
        images[("a", 0)] = "t:b"
        bad = SimplicialMap(f0.source, f0.target, images)
        assert not is_skeletal_selection(bad, cs, phi)

    def test_whole_space_constant_table(self):
        e = edge_space()
        cs = cover_sequence(e, [[("W", full_star(e, 0))]])
        target = validate_complex([{"y"}])
        table = {tau: target for tau in e.stage_complex(0).simplices}
        phi = carrier_tables(e, 0, target, [table])
        f = SimplicialMap(
            delta_subcomplex(cs, 1), target, {("W", 0): "y"}
        )
        assert is_skeletal_selection(f, cs, phi)

    def test_three_extensions_keep_predicates(self):
        e, phi = edge_phi()
        cs, f = bootstrap_skeletal_selection(phi)
        for _ in range(3):
            assert is_skeletal_selection(f, cs, phi)
            cs, f = extend_skeletal_selection(f, cs, phi)
        assert is_skeletal_selection(f, cs, phi)
        for n in range(cs.num_levels):
            assert is_setvalued_selection(f, cs, phi, n)

    def test_missing_witness(self):
        e = edge_space()
        target = validate_complex([{"y1", "y2"}])
        table = {
            fs("a"): validate_complex([{"y1"}]),
            fs("b"): validate_complex([{"y2"}]),
            fs("a", "b"): validate_complex([{"y1", "y2"}]),
        }
        phi = carrier_tables(e, 0, target, [table, table])
        cs, f = bootstrap_skeletal_selection(phi)
        with pytest.raises(NoConeWitness):
            extend_skeletal_selection(f, cs, phi)

    def test_witness_must_sit_in_level_zero_tables(self):
        e = edge_space()
        target = coned(validate_complex([{"y1", "y2"}]), "q")
        t0 = {
            fs("a"): validate_complex([{"y1"}]),
            fs("b"): validate_complex([{"y2"}]),
            fs("a", "b"): validate_complex([{"y1", "y2"}]),
        }
        t1 = {tau: coned(value, "q") for tau, value in t0.items()}
        phi = carrier_tables(e, 0, target, [t0, t1, t1], "q")
        cs, f = bootstrap_skeletal_selection(phi)
        with pytest.raises(NoConeWitness):
            extend_skeletal_selection(f, cs, phi)

    def test_arity_checks(self):
        e, phi = edge_phi(levels=1)
        cs, f = bootstrap_skeletal_selection(phi)
        with pytest.raises(ArityError):
            extend_skeletal_selection(f, cs, phi)


def _outcome(predicate, f, cs, kappa):
    """A witness (or None), or the type and message of the error raised."""
    try:
        return predicate(f, cs, kappa)
    except (IncompleteMap, UnknownCoverElement) as err:
        return type(err).__name__, str(err)


def _discrete(names) -> SimplicialComplex:
    return SimplicialComplex(frozenset(fs(x) for x in names))


class TestAgainstSortedScans:
    """Canonical images, selection witnesses and carrier monotonicity
    against the whole-stage scans in `tests/helpers.py`."""

    def test_canonical_images_are_the_least_hit_elements(self):
        rng = random.Random(20261018)
        built = 0
        for _ in range(60):
            space = rng.choice([edge_space(), boundary_space(), tri_space()])
            disjoint = rng.random() < 0.5
            make = random_disjoint_cover if disjoint else random_cover
            cs = make(space, rng, rng.randint(0, 2), rng.randint(1, 3))
            for kappa in range(1, cs.num_levels + 1):
                try:
                    f = build_canonical(cs, kappa, DELTA if disjoint else FULL_NERVE)
                except NoCoverage:
                    continue
                assert f.map.vertex_images == reference_canonical_images(cs, kappa)
                built += 1
        assert built > 60

    def test_why_not_selection_matches_sorted_scan(self):
        """Corrupted canonical maps: a dropped image, an unknown element, or
        another element; the kappa prefix may also leave an image unknown."""
        rng = random.Random(7)
        outcomes = set()
        for _ in range(200):
            space = rng.choice([edge_space(), boundary_space(), tri_space()])
            cs = random_cover(space, rng, rng.randint(0, 2), rng.randint(1, 3))
            h = build_canonical(cs, target_kind=FULL_NERVE)
            images = dict(h.map.vertex_images)
            elements = [(eid, n) for eid, n, _ in cs.elements()]
            for v in rng.sample(sorted(images, key=vlabel), rng.randint(0, 2)):
                roll = rng.random()
                if roll < 0.15:
                    del images[v]
                elif roll < 0.3:
                    images[v] = ("zz", rng.randrange(cs.num_levels))
                else:
                    images[v] = rng.choice(elements)
            f = CanonicalMap(
                h.subdivision_level,
                SimplicialMap(h.map.source, h.map.target, images),
                h.kind,
            )
            kappa = rng.choice([None, rng.randint(1, cs.num_levels)])
            got = _outcome(why_not_selection, f, cs, kappa)
            assert got == _outcome(reference_why_not_selection, f, cs, kappa)
            outcomes.add(got[0] if isinstance(got, tuple) else type(got).__name__)
        assert outcomes == {"NoneType", "dict", "IncompleteMap", "UnknownCoverElement"}

    def test_map_witnesses_match_fiber_and_sweep_oracles(self):
        """Maps at the working level or one finer, each barycenter sent to
        the canonical image of a vertex of its simplex, then one or two
        images moved to another element or to none: both witnesses, read
        off the holders, against the fiber and simplex-sweep oracles."""
        rng = random.Random(1019)
        outcomes = set()
        for _ in range(150):
            space = rng.choice([edge_space(), boundary_space(), tri_space()])
            cs = random_cover(space, rng, rng.randint(0, 1), rng.randint(1, 3))
            h = build_canonical(cs, target_kind=FULL_NERVE)
            level = cs.working_level + rng.randint(0, 1)
            stage = space.stage_complex(level)
            images = {
                v: h.map.vertex_images[
                    v if level == cs.working_level else rng.choice(sorted(v.of, key=vlabel))
                ]
                for v in sorted(stage.vertices, key=vlabel)
            }
            elements = [(eid, n) for eid, n, _ in cs.elements()]
            for v in rng.sample(sorted(images, key=vlabel), rng.randint(1, 2)):
                if rng.random() < 0.2:
                    del images[v]
                else:
                    images[v] = rng.choice(elements)
            f = CanonicalMap(level, SimplicialMap(stage, h.map.target, images), h.kind)
            kappa = rng.choice([None, rng.randint(1, cs.num_levels)])
            for mine, oracle in (
                (why_not_canonical, reference_why_not_canonical),
                (why_not_selection, reference_why_not_selection),
            ):
                got = _outcome(mine, f, cs, kappa)
                assert got == _outcome(oracle, f, cs, kappa)
                kind = got[0] if isinstance(got, tuple) else type(got).__name__
                outcomes.add((mine.__name__, kind))
        assert {
            ("why_not_canonical", "NoneType"),
            ("why_not_canonical", "dict"),
            ("why_not_canonical", "UnknownCoverElement"),
            ("why_not_selection", "NoneType"),
            ("why_not_selection", "dict"),
            ("why_not_selection", "IncompleteMap"),
        } <= outcomes

    def test_monotonicity_matches_all_pairs_scan(self):
        """Random monotone tables, some with one value grown or shrunk."""
        rng = random.Random(3)
        names = [f"x{i}" for i in range(5)]
        target = _discrete(names)
        verdicts = []
        for _ in range(120):
            space = rng.choice([edge_space(), boundary_space(), tri_space()])
            level = rng.randint(0, 2)
            stage = space.stage_complex(level)
            own = {tau: rng.sample(names, rng.randint(0, 2)) for tau in stage.simplices}
            table = {
                tau: _discrete(
                    {"x0"}.union(*(own[rho] for rho in stage.simplices if rho <= tau))
                )
                for tau in stage.simplices
            }
            if rng.random() < 0.7:
                tau = rng.choice(sorted(stage.simplices, key=simplex_key))
                values = set(table[tau].vertices)
                if rng.random() < 0.5:
                    values.add(rng.choice(names))
                elif len(values) > 1:
                    values.remove(rng.choice(sorted(values)))
                table[tau] = _discrete(values)
            monotone = reference_carrier_monotone(stage, table)
            verdicts.append(monotone)
            if monotone:
                carrier_tables(space, level, target, [table])
            else:
                with pytest.raises(ValueError, match="carrier-monotone"):
                    carrier_tables(space, level, target, [table])
        assert set(verdicts) == {True, False}

    def test_every_codimension_one_inclusion_is_checked(self):
        """value(sigma) holds one target vertex per face of sigma; leaving
        the vertex of one codimension-one face out of value(tau) breaks
        monotonicity at that one inclusion only."""
        for space in (edge_space(), boundary_space(), tri_space()):
            for level in (0, 1):
                stage = space.stage_complex(level)
                names = {rho: simplex_label(rho) for rho in stage.simplices}
                table = {
                    sigma: _discrete(names[rho] for rho in stage.simplices if rho <= sigma)
                    for sigma in stage.simplices
                }
                target = _discrete(names.values())
                carrier_tables(space, level, target, [table])
                for tau in stage.simplices:
                    for v in tau if len(tau) > 1 else ():
                        broken = dict(table)
                        broken[tau] = _discrete(
                            names[rho] for rho in stage.simplices
                            if rho <= tau and rho != tau - {v}
                        )
                        assert not reference_carrier_monotone(stage, broken)
                        with pytest.raises(ValueError, match="carrier-monotone"):
                            carrier_tables(space, level, target, [broken])
