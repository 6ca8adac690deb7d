"""Topology oracles on spaces that are not contractible.

Every fixture is contractible or a circle, so a subdivision, holders or
nerve bug that keeps a space contractible would pass them all.  Here the
bases are the 2-sphere, the torus, the real projective plane and the
Möbius band, next to a space that is not pure and one that is not
connected.  Two facts must hold at every stage:

- open stars of a set of stage vertices meet iff the set is a simplex, so
  the nerve of the cover by all stage-L vertex stars is stage L with each
  vertex v renamed (label of v, 0), and the canonical map onto it is that
  renaming, a simplicial isomorphism;
- subdivision keeps the homotopy type, so every stage has the base's
  Betti numbers (over GF(2), which is why RP² has b1 = b2 = 1).
"""

import random

import pytest

from polycover import (
    StarSet,
    build_canonical,
    check_simplicial_map,
    cover_sequence,
    delta_at_carrier,
    kernel_query,
    nerve,
    vlabel,
)
from polycover.covers import FULL_NERVE

from helpers import (
    betti_numbers,
    dangling_space,
    moebius_space,
    projective_plane_space,
    sphere_space,
    torus_space,
    two_triangles_space,
)

# name -> (base, f-vector of the base, Betti numbers over GF(2))
BASES = {
    "sphere": (sphere_space, (4, 6, 4), (1, 0, 1)),
    "torus": (torus_space, (7, 21, 14), (1, 2, 1)),
    "projective-plane": (projective_plane_space, (6, 15, 10), (1, 1, 1)),
    "moebius-band": (moebius_space, (5, 10, 5), (1, 1, 0)),
    "dangling-edge": (dangling_space, (4, 4, 1), (1, 0, 0)),
    "two-triangles": (two_triangles_space, (6, 6, 2), (2, 0, 0)),
}


def star_cover_at(space, level: int):
    """One level: the open star of every stage-`level` vertex, named by its label."""
    stage = space.stage_complex(level)
    family = [(vlabel(v), StarSet(space, level, frozenset([v]))) for v in stage.vertices]
    return cover_sequence(space, [family])


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BASES))
def test_vertex_star_nerve_is_the_stage(name, level):
    space = BASES[name][0]()
    stage = space.stage_complex(level)
    cs = star_cover_at(space, level)
    rename = {v: (vlabel(v), 0) for v in stage.vertices}
    target = nerve(cs)
    assert target.simplices == {frozenset(rename[v] for v in s) for s in stage.simplices}

    f = build_canonical(cs, 1, FULL_NERVE)
    assert (f.subdivision_level, f.kind) == (level, FULL_NERVE)
    assert f.map.source == stage and f.map.target is target
    assert f.map.vertex_images == rename
    assert check_simplicial_map(f.map)
    assert {f.map.image(s) for s in stage.simplices} == target.simplices


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(BASES))
def test_vertex_star_kernels_are_the_stage_simplices(name, level):
    """The least carrier of the kernel of some stars is the simplex they
    span, and a vertex pair spanning no edge has an empty kernel.  The one
    level's carrier values are the singletons of the carrier's vertices."""
    space = BASES[name][0]()
    stage = space.stage_complex(level)
    cs = star_cover_at(space, level)
    rng = random.Random(f"{name}-{level}")
    simplices = sorted(stage.simplices, key=lambda s: sorted(map(vlabel, s)))
    for s in rng.sample(simplices, 4):
        assert kernel_query(cs, [(vlabel(v), 0) for v in s]) == s
        assert delta_at_carrier(cs, 1, s).simplices == {
            frozenset([(vlabel(v), 0)]) for v in s
        }
    vertices = sorted(stage.vertices, key=vlabel)
    pairs = map(frozenset, zip(vertices, vertices[1:]))
    apart = [p for p in pairs if p not in stage.simplices][:2]
    if level > 0:
        assert apart
    for p in apart:
        assert kernel_query(cs, [(vlabel(v), 0) for v in p]) is None


@pytest.mark.parametrize("name", sorted(BASES))
def test_every_stage_has_the_base_betti_numbers(name):
    make, f_vector, betti = BASES[name]
    space = make()
    base = space.stage_complex(0)
    assert tuple(
        sum(len(s) == k + 1 for s in base.simplices) for k in range(base.dim + 1)
    ) == f_vector
    for level in range(4):
        assert betti_numbers(space.stage_complex(level)) == betti, level
