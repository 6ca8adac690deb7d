"""Stage tokens, labels, star pushdown and adjacency against stage sweeps.

The library makes one `Barycenter` token per stage vertex, keeps its label
on it, pushes star-sets through each stage's `stars` index, and the
search reads which vertices share a simplex off `neighbours`.  The
oracles in `helpers` rebuild labels recursively, push by sweeping every
simplex of every stage, and collect each vertex's simplices by a sweep.
A token is the 1-tuple of the simplex it names, so it hashes and compares
in C, by value, as the frozen dataclass it replaced did.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from polycover import Barycenter, StarSet, nerve, push_star, vlabel
from polycover.fixtures import (
    boundary_space,
    edge_space,
    tet_space,
    tri_space,
    vertex_star_cover,
)

from helpers import adjacency, reference_push_star, reference_vlabel

# (space, deepest stage checked)
SPACES = {
    "edge": (edge_space, 3),
    "boundary": (boundary_space, 3),
    "triangle": (tri_space, 3),
    "tetrahedron": (tet_space, 2),
}


@pytest.fixture(scope="module", params=sorted(SPACES))
def tower(request):
    make, top = SPACES[request.param]
    space = make()
    space.stage(top)
    return space, top


def test_one_token_object_per_stage_vertex(tower):
    space, top = tower
    for level in range(top + 1):
        stage = space.stage(level)
        objects = {id(v) for s in stage.complex.simplices for v in s}
        assert objects == {id(v) for v in stage.complex.vertices}
        if level:
            below = {id(v) for v in space.stage_complex(level - 1).vertices}
            members = {id(u) for b in stage.complex.vertices for u in b.of}
            assert members == below


def test_labels_and_label_index_match_recursive_labels(tower):
    space, top = tower
    for level in range(top + 1):
        stage = space.stage_complex(level)
        expected = {reference_vlabel(v): v for v in stage.vertices}
        assert len(expected) == len(stage.vertices)
        assert {vlabel(v): v for v in stage.vertices} == expected
        assert stage.by_label == expected
        for name, v in expected.items():
            assert space.vertex_at(level, name) is stage.by_label[name] == v


def test_push_star_matches_stage_sweep(tower):
    space, top = tower
    rng = random.Random(7)
    for level in range(top + 1):
        verts = sorted(space.stage_complex(level).vertices, key=reference_vlabel)
        cores = [frozenset([v]) for v in verts]
        for _ in range(5):
            cores.append(frozenset(rng.sample(verts, rng.randint(1, len(verts)))))
        for core in cores:
            star = StarSet(space, level, core)
            for target in range(level, top + 1):
                got = push_star(star, target).core_vertices
                assert got == reference_push_star(star, target).core_vertices
                assert got <= space.stage_complex(target).vertices


def test_stars_and_neighbours_match_simplex_sweep(tower):
    space, top = tower
    for level in range(top + 1):
        stage = space.stage_complex(level)
        for v, star in stage.stars.items():
            assert set(star) == {s for s in stage.simplices if v in s}
        closed = {v: stage.neighbours[v] | {v} for v in stage.vertices}
        assert closed == adjacency(space, level)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_tokens_of_two_towers_over_equal_bases_are_equal(name):
    make, top = SPACES[name]
    space, other = make(), make()
    for level in range(1, top + 1):
        here = space.stage_complex(level)
        there = other.stage_complex(level)
        assert here.vertices == there.vertices
        assert here.simplices == there.simplices
        for v in here.vertices:
            w = there.by_label[vlabel(v)]
            assert v is not w
            assert v == w and hash(v) == hash(w)


def test_token_hash_and_equality_are_those_of_the_one_tuple(tower):
    space, top = tower
    assert Barycenter.__hash__ is tuple.__hash__
    assert Barycenter.__eq__ is tuple.__eq__
    for v in space.stage_complex(top).vertices:
        s = v.of
        assert hash(Barycenter(s)) == hash((s,)) == hash(v)
        assert Barycenter(s) == v and Barycenter(s).of is s


def test_a_token_is_never_a_nerve_vertex():
    space = tri_space()
    stage = space.stage_complex(2)
    cs = vertex_star_cover(space)
    nerve_vertices = nerve(cs).vertices
    assert nerve_vertices and all(len(u) == 2 for u in nerve_vertices)
    for v in stage.vertices:
        assert v not in nerve_vertices
        for n in range(3):
            assert v != (vlabel(v), n) and v != (v.of, n)
    assert len(stage.vertices | nerve_vertices) == (
        len(stage.vertices) + len(nerve_vertices)
    )


def test_labels_and_reprs_are_unchanged_and_survive_copies(tower):
    space, top = tower
    for level in range(1, top + 1):
        for v in space.stage_complex(level).vertices:
            name = reference_vlabel(v)
            assert vlabel(v) == v.label == repr(v) == name
            for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert type(twin) is Barycenter and twin == v and repr(twin) == name


def test_same_level_push_and_same_space_are_shortcuts(tower):
    space, top = tower
    assert space == space
    for level in range(top + 1):
        star = StarSet(space, level, space.stage_complex(level).vertices)
        assert push_star(star, level) is star
