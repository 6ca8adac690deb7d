"""Complex construction, skeleta, cones, subdivision, and simplicial maps."""

import random

import pytest

from polycover import (
    PolyhedralSpace,
    SimplicialMap,
    check_simplicial_map,
    compose_maps,
    cone,
    coned,
    face_closure,
    initial_stage,
    skeleton,
    subdivide,
    validate_complex,
)
from polycover.complexes import (
    SimplicialComplex,
    maximal_simplices,
    simplex_label,
    vlabel,
)
from polycover.errors import IncompleteMap, InvalidComplex, VertexClash
from polycover.fixtures import f_edge, f_tri

from helpers import brute_force_chain_count


def fs(*vs):
    return frozenset(vs)


class TestValidateComplex:
    def test_edge_closure(self):
        c = validate_complex([{"a", "b"}])
        assert c.simplices == {fs("a"), fs("b"), fs("a", "b")}

    def test_triangle_closure_has_seven_simplices(self):
        assert len(validate_complex([{"a", "b", "c"}]).simplices) == 7

    def test_already_closed_input_is_fixed(self):
        c = validate_complex([{"a"}, {"b"}])
        assert c.simplices == {fs("a"), fs("b")}
        assert validate_complex([set(s) for s in c.simplices]) == c

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidComplex):
            validate_complex([])
        with pytest.raises(InvalidComplex):
            validate_complex([set()])

    def test_vertex_bookkeeping(self):
        c = validate_complex([{"a", "b", "c"}, {"d"}])
        assert c.vertices == {"a", "b", "c", "d"}
        for v in c.vertices:
            assert fs(v) in c.simplices


class TestSkeleton:
    def test_one_skeleton_of_triangle(self):
        s = skeleton(f_tri(), 1)
        assert len([x for x in s.simplices if len(x) == 1]) == 3
        assert len([x for x in s.simplices if len(x) == 2]) == 3
        assert fs("a", "b", "c") not in s.simplices

    def test_zero_skeleton(self):
        assert skeleton(f_tri(), 0).simplices == {fs("a"), fs("b"), fs("c")}

    def test_high_k_is_identity(self):
        assert skeleton(f_edge(), 5) == f_edge()

    def test_idempotent_and_monotone(self):
        rng = random.Random(7)
        for _ in range(20):
            names = "abcdef"
            sets = [
                set(rng.sample(names, rng.randint(1, 4))) for _ in range(3)
            ]
            c = validate_complex(sets)
            for k in range(4):
                assert skeleton(skeleton(c, k), k) == skeleton(c, k)
                assert skeleton(c, k).subcomplex_of(skeleton(c, k + 1))


class TestCone:
    def test_cone_over_two_points(self):
        c = cone(validate_complex([{"a"}, {"b"}]), "v")
        assert c.simplices == {fs("a"), fs("b"), fs("v"), fs("a", "v"), fs("b", "v")}

    def test_cone_over_edge_is_triangle(self):
        assert cone(f_edge(), "v") == validate_complex([{"a", "b", "v"}])

    def test_cone_of_cone_matches_closure_oracle(self):
        twice = cone(cone(validate_complex([{"a"}]), "u"), "w")
        assert twice == validate_complex([{"a", "u", "w"}])

    def test_clash_rejected(self):
        with pytest.raises(VertexClash):
            cone(f_edge(), "a")

    def test_dimension_and_recovery(self):
        rng = random.Random(11)
        for _ in range(20):
            sets = [set(rng.sample("abcde", rng.randint(1, 3))) for _ in range(3)]
            c = validate_complex(sets)
            k = cone(c, "zz")
            assert c.subcomplex_of(k)
            assert k.dim == c.dim + 1
            recovered = SimplicialComplex(
                frozenset(s for s in k.simplices if "zz" not in s)
            )
            assert recovered == c

    def test_coned_is_idempotent_at_apex(self):
        c = cone(f_edge(), "v")
        assert coned(c, "v") == c


class TestSubdivide:
    def test_edge_stage_one(self):
        stage = subdivide(initial_stage(f_edge()))
        assert stage.level == 1
        sizes = sorted(len(s) for s in stage.complex.simplices)
        assert sizes == [1, 1, 1, 2, 2]

    def test_triangle_counts_against_brute_force(self):
        base = initial_stage(f_tri())
        stage = subdivide(base)
        oracle = brute_force_chain_count(base.complex.simplices)
        got = {}
        for s in stage.complex.simplices:
            got[len(s) - 1] = got.get(len(s) - 1, 0) + 1
        assert got == oracle
        assert got == {0: 7, 1: 12, 2: 6}

    def test_double_edge_subdivision_against_brute_force(self):
        first = subdivide(initial_stage(f_edge()))
        second = subdivide(first)
        oracle = brute_force_chain_count(first.complex.simplices)
        got = {}
        for s in second.complex.simplices:
            got[len(s) - 1] = got.get(len(s) - 1, 0) + 1
        assert got == oracle
        assert got == {0: 5, 1: 4}

    def test_carrier_map_total_and_dimension_preserved(self):
        rng = random.Random(3)
        for _ in range(5):
            sets = [set(rng.sample("abcd", rng.randint(1, 3))) for _ in range(2)]
            base = initial_stage(validate_complex(sets))
            stage = subdivide(base)
            assert {v.of for v in stage.complex.vertices} == base.complex.simplices
            assert stage.complex.dim == base.complex.dim

    def test_stage_vertices_biject_with_previous_simplices(self):
        base = initial_stage(f_tri())
        stage = subdivide(base)
        assert len(stage.complex.vertices) == len(base.complex.simplices)


class TestSimplicialMaps:
    def test_identity_is_simplicial(self):
        c = f_tri()
        assert check_simplicial_map(SimplicialMap(c, c, {v: v for v in c.vertices}))

    def test_non_simplicial_projection(self):
        target = validate_complex([{"a"}, {"b"}])
        m = SimplicialMap(f_edge(), target, {"a": "a", "b": "b"})
        assert not check_simplicial_map(m)

    def test_collapse_is_simplicial(self):
        target = validate_complex([{"x"}])
        m = SimplicialMap(f_edge(), target, {"a": "x", "b": "x"})
        assert check_simplicial_map(m)

    def test_partial_map_rejected(self):
        with pytest.raises(IncompleteMap):
            check_simplicial_map(SimplicialMap(f_edge(), f_edge(), {"a": "a"}))

    def test_composition_of_valid_maps_is_valid(self):
        tri = f_tri()
        edge = f_edge()
        point = validate_complex([{"x"}])
        g1 = SimplicialMap(tri, edge, {"a": "a", "b": "b", "c": "a"})
        g2 = SimplicialMap(edge, point, {"a": "x", "b": "x"})
        assert check_simplicial_map(g1) and check_simplicial_map(g2)
        comp = compose_maps(g2, g1)
        assert check_simplicial_map(comp)
        assert comp.vertex_images == {"a": "x", "b": "x", "c": "x"}


def test_face_closure_is_idempotent():
    sets = [{"a", "b"}, {"b", "c", "d"}]
    once = face_closure(sets)
    assert face_closure(list(once)) == once


def test_maximal_simplices():
    c = validate_complex([{"a", "b"}, {"b", "c", "d"}])
    assert maximal_simplices(c) == [fs("a", "b"), fs("b", "c", "d")]


# Bases whose labels collide: "a,b" against the stage-1 vertex of {a, b};
# "a)" and "b(a" against the stage-1 vertices of {a} and {a, c}, at stage 2;
# "a|b" against the simplex token of {a, b}; and 1 against "1".
COLLIDING_BASES = [
    [{"a", "b"}, {"a,b"}],
    [{"a", "c"}, {"a)", "b(a", "c"}],
    [{"a", "b"}, {"a|b"}],
    [{1, "1"}],
]


def _labels_injective(c: SimplicialComplex) -> bool:
    return len({vlabel(v) for v in c.vertices}) == len(c.vertices) and len(
        {simplex_label(s) for s in c.simplices}
    ) == len(c.simplices)


def test_labels_are_injective_per_stage():
    for base in (f_tri(), validate_complex([{"a b", "x@1", "t:a"}])):
        space = PolyhedralSpace(base)
        for level in range(3):
            assert _labels_injective(space.stage_complex(level))
    for sets in COLLIDING_BASES:
        stages = [initial_stage(validate_complex(sets))]
        for _ in range(2):
            stages.append(subdivide(stages[-1]))
        assert not all(_labels_injective(stage.complex) for stage in stages), sets
        with pytest.raises(InvalidComplex):
            PolyhedralSpace(validate_complex(sets))
