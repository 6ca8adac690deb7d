"""A complex stored as its facets, map checks by facets, and one-per-level
complexes built once per cover.

`SimplicialComplex` keeps only the maximal sets of the family it is built
from; its faces, membership, equality and inclusion are checked here
against the face closure of the family, and the facets of subdivision
stages against the maximal chains of the stage below (`tests/helpers.py`).
`check_simplicial_map` tests source facets only; `tests/helpers.py` keeps
a check on every source simplex as the oracle.  Nerves and one-per-level
complexes are kept per cover and prefix, so `refinement_map` and
`build_canonical` share one object and `mu_driver` builds each once, as it
does each holders index.  (`tests/test_hit_index.py` checks the
facet-built complexes and the holders themselves.)
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polycover import (
    CoverSequence,
    SimplicialComplex,
    SimplicialMap,
    build_canonical,
    check_simplicial_map,
    cover_sequence,
    mu_driver,
    n_plus_one,
    ostrand_refine,
    pad_levels,
    push_star,
    refinement_as_cover,
    refinement_map,
    validate_complex,
    vlabel,
)
from polycover import covers, face_closure, selections
from polycover.errors import IncompleteMap
from polycover.fixtures import (
    boundary_space,
    edge_space,
    tet_space,
    tri_space,
    vertex_star_cover,
)

from helpers import (
    dangling_space,
    reference_check_simplicial_map,
    reference_maximal_sets,
    reference_maximal_simplices,
    reference_stage_facets,
    two_triangles_space,
)
from test_hit_index import TYPED_IN

BASES = (
    edge_space,
    boundary_space,
    tri_space,
    tet_space,
    dangling_space,
    two_triangles_space,
)


POOL = "abcdefg"
# every vertex set over the pool and one vertex outside it, empty included
PROBES = [
    frozenset(c) for r in range(len(POOL) + 2)
    for c in itertools.combinations(POOL + "z", r)
]
families = st.lists(
    st.frozensets(st.sampled_from(POOL), min_size=1, max_size=5), max_size=8
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(families, families, st.randoms(use_true_random=False))
def test_a_complex_is_the_maximal_sets_of_its_family(sets, others, rng):
    c = SimplicialComplex(sets)
    closure = face_closure(sets)
    assert c.facets == frozenset(reference_maximal_sets(sets))
    assert c.simplices == closure
    assert c.vertices == frozenset().union(*sets)
    assert c.dim == max(map(len, sets), default=0) - 1
    for probe in PROBES:
        assert (probe in c) == (probe in closure), probe
    redundant = rng.sample(sorted(closure, key=sorted), len(closure) // 2)
    shuffled = list(sets) + redundant
    rng.shuffle(shuffled)
    twin = SimplicialComplex(shuffled)
    assert twin == c and hash(twin) == hash(c)
    assert SimplicialComplex(closure) == c
    other = SimplicialComplex(others)
    assert c.subcomplex_of(other) == (closure <= face_closure(others))
    assert (c == other) == (closure == face_closure(others))


def test_stage_facets_are_the_maximal_chains_below():
    for space_fn in TYPED_IN:
        space = space_fn()
        base = space.stage_complex(0)
        assert base.facets == frozenset(reference_maximal_simplices(base))
        for level in (1, 2, 3):
            parent = space.stage_complex(level - 1)
            assert space.stage_complex(level).facets == reference_stage_facets(parent)


def test_repr_counts_facets_and_expands_no_face():
    stage = tri_space().stage_complex(3)
    assert repr(stage) == "SimplicialComplex(216 facets, dim=2)"
    assert "simplices" not in vars(stage)
    assert repr(SimplicialComplex(frozenset())) == "SimplicialComplex(0 facets, dim=-1)"


def _sorted_vertices(c: SimplicialComplex) -> list:
    return sorted(c.vertices, key=vlabel)


def _seeded_maps(rng):
    """Maps from each stage 1 and 2 of every base into the stage below, each
    barycenter sent to a vertex of its simplex (always simplicial), then
    copies with one vertex sent anywhere; and random maps between random
    complexes, the targets of at most two dimensions."""
    for space_fn in BASES:
        space = space_fn()
        for level in (1, 2):
            source = space.stage_complex(level)
            target = space.stage_complex(level - 1)
            good = {b: rng.choice(sorted(b.of, key=vlabel)) for b in source.vertices}
            yield SimplicialMap(source, target, good)
            for _ in range(4):
                bad = dict(good)
                bad[rng.choice(_sorted_vertices(source))] = rng.choice(
                    _sorted_vertices(target)
                )
                yield SimplicialMap(source, target, bad)
    for _ in range(60):
        complexes = []
        for verts, most in (("abcdef", 6), ("uvwxyz", 3)):
            verts = verts[: rng.randint(2, 6)]
            raw = [
                rng.sample(verts, rng.randint(1, min(most, len(verts))))
                for _ in range(rng.randint(1, 4))
            ]
            complexes.append(validate_complex(raw))
        source, target = complexes
        images = {v: rng.choice(_sorted_vertices(target)) for v in source.vertices}
        yield SimplicialMap(source, target, images)


def test_check_simplicial_map_matches_all_simplex_oracle():
    verdicts = []
    for m in _seeded_maps(random.Random(29)):
        got = check_simplicial_map(m)
        assert got == reference_check_simplicial_map(m)
        verdicts.append(got)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


def test_a_map_whose_only_bad_image_is_one_edge_is_refused():
    source = validate_complex([{"a", "b", "c"}, {"c", "d"}])
    target = validate_complex([{"A", "B", "C"}, {"D"}])
    m = SimplicialMap(source, target, {"a": "A", "b": "B", "c": "C", "d": "D"})
    bad = [s for s in source.simplices if m.image(s) not in target.simplices]
    assert bad == [frozenset({"c", "d"})]
    assert not check_simplicial_map(m)
    assert not reference_check_simplicial_map(m)


def test_check_simplicial_map_reads_source_facets_only(monkeypatch):
    source = tri_space().stage_complex(2)
    target = tri_space().stage_complex(1)
    images = {b: min(b.of, key=vlabel) for b in source.vertices}
    seen = []
    contains = SimplicialComplex.__contains__

    def spy(c, s):
        if c is target:
            seen.append(s)
        return contains(c, s)

    monkeypatch.setattr(SimplicialComplex, "__contains__", spy)
    assert check_simplicial_map(SimplicialMap(source, target, images))
    assert len(seen) == len(source.facets) == 36
    assert set(seen) == {frozenset(images[v] for v in f) for f in source.facets}


def test_a_vertex_with_no_image_is_still_refused():
    source = validate_complex([{"a", "b", "c"}, {"c", "d"}])
    target = validate_complex([{"A", "B", "C", "D"}])
    for missing in "abcd":
        images = {v: v.upper() for v in "abcd" if v != missing}
        with pytest.raises(IncompleteMap, match=f"no image for vertex {missing}"):
            check_simplicial_map(SimplicialMap(source, target, images))


def _tri_cover_at(level: int) -> CoverSequence:
    """The triangle's vertex-star cover, three levels, pushed to `level`."""
    space = tri_space()
    family = [(eid, push_star(star, level)) for eid, star in
              vertex_star_cover(space, 1).levels[0]]
    return cover_sequence(space, [family] * 3)


def test_canonical_target_is_the_refinement_maps_source():
    for level in (0, 1, 2):
        padded = pad_levels(_tri_cover_at(level), 3)
        fine = refinement_as_cover(ostrand_refine(padded, 2))
        assert build_canonical(fine, 3).map.target is (
            refinement_map(fine, padded, 3).source
        )


def test_mu_driver_builds_each_complex_once_and_no_hit_index(monkeypatch):
    built = []
    hit_simplices = []
    facet_hit_sets = covers._facet_hit_sets
    hits = covers._hits

    def counted(cs, kappa):
        built.append((cs, kappa))
        return facet_hit_sets(cs, kappa)

    def recorded(simplices, holders):
        out = hits(simplices, holders)
        hit_simplices.append(set(out))
        return out

    monkeypatch.setattr(covers, "_facet_hit_sets", counted)
    monkeypatch.setattr(covers, "_hits", recorded)
    monkeypatch.setattr(selections, "_hits", recorded)
    for level in (0, 1, 2):
        built.clear()
        hit_simplices.clear()
        cs = _tri_cover_at(level)
        assert mu_driver(cs, n_plus_one(2)).success
        # Hit sets are computed for the working facets of the two covers only.
        facets = [c.working_complex().facets for c, _ in built]
        assert hit_simplices == facets
        keys = {(id(c), kappa) for c, kappa in built}
        # One one-per-level complex for the padded cover, one for the fine.
        assert len(keys) == len(built) == 2
        # Three holders indexes, each kept by its cover: the padded cover's
        # (which is cs) at its level for its nerve and at the fine level
        # for the refinement map and both predicates, and the fine cover's
        # for its nerve and the canonical images.
        (fine,) = {c for c, _ in built} - {cs}
        assert set(cs._holders) == {(3, level), (3, level + 1)}
        assert set(fine._holders) == {(3, level + 1)}
