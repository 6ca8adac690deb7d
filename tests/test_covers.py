"""Cover sequences, kernels, nerves, the one-per-level subcomplex, and
carrier-indexed values."""

import random
from collections import Counter

import pytest

from polycover import (
    covers,
    cover_sequence,
    coned,
    check_simplicial_map,
    delta_at_carrier,
    delta_subcomplex,
    dimension,
    full_star,
    kernel_query,
    mu_driver,
    n_plus_one,
    nerve,
    ostrand_refine,
    pad_levels,
    push_star,
    realization,
    refinement_as_cover,
    refinement_map,
    star_set,
    star_subset,
    unindexed_delta,
)
from polycover.complexes import EMPTY_COMPLEX
from polycover.errors import (
    EmptyPrefix,
    NoCoverage,
    NotARefinement,
    UnknownCarrier,
    UnknownCoverElement,
)
from polycover.fixtures import (
    boundary_space,
    edge_space,
    rem_cover,
    tet_space,
    tri_space,
    vertex_star_cover,
)

from helpers import random_cover, random_disjoint_cover, reference_refinement_map


def fs(*vs):
    return frozenset(vs)


class TestCoverSequence:
    def test_working_level_is_max(self):
        e = edge_space()
        cs = cover_sequence(
            e, [[("A", star_set(e, 0, ["a"])), ("B", star_set(e, 1, ["b(b)"]))]]
        )
        assert cs.working_level == 1
        assert all(star.level == 1 for _, star in cs.levels[0])

    def test_union_coverage_enforced(self):
        e = edge_space()
        with pytest.raises(NoCoverage):
            cover_sequence(e, [[("A", star_set(e, 0, ["a"]))]])

    def test_duplicate_ids_rejected(self):
        e = edge_space()
        with pytest.raises(ValueError):
            cover_sequence(
                e,
                [[("A", star_set(e, 0, ["a"])), ("A", star_set(e, 0, ["b"]))]],
            )

    def test_levels_need_not_cover_individually(self):
        e = edge_space()
        cs = cover_sequence(
            e,
            [
                [("L", star_set(e, 1, ["b(a)"]))],
                [("R", star_set(e, 1, ["b(a,b)", "b(b)"]))],
            ],
        )
        assert cs.num_levels == 2


class TestKernelQuery:
    def test_overlap_witness_contains_midpoint(self):
        cs = rem_cover()
        w = kernel_query(cs, [("P", 0), ("Q", 1)])
        assert w is not None and cs.space.vertex_at(1, "b(a,b)") in w

    def test_disjoint_pair_is_empty(self):
        cs = rem_cover()
        assert kernel_query(cs, [("Q'", 0), ("P'", 1)]) is None

    def test_singleton_always_witnessed(self):
        cs = rem_cover()
        assert kernel_query(cs, [("P", 0)]) is not None

    def test_unknown_element(self):
        cs = rem_cover()
        with pytest.raises(UnknownCoverElement):
            kernel_query(cs, [("nope", 0)])
        with pytest.raises(UnknownCoverElement):
            kernel_query(cs, [("P", 9)])


class TestNerve:
    def test_single_level_pair_meets(self):
        cs = rem_cover()
        single = cover_sequence(
            cs.space, [[("P", dict(cs.levels[2])["P"]), ("Q", dict(cs.levels[2])["Q"])]]
        )
        built = nerve(single, 1)
        assert built.vertices == {("P", 0), ("Q", 0)}
        assert fs(("P", 0), ("Q", 0)) in built.simplices

    def test_rem_prefix_contains_cross_level_edge(self):
        cs = rem_cover()
        assert fs(("P", 0), ("Q", 1)) in nerve(cs, 2).simplices

    def test_whole_space_single_vertex(self):
        e = edge_space()
        cs = cover_sequence(e, [[("W", full_star(e, 0))]])
        assert nerve(cs, 1).simplices == {fs(("W", 0))}

    def test_kappa_bounds(self):
        cs = rem_cover()
        with pytest.raises(EmptyPrefix):
            nerve(cs, 0)
        with pytest.raises(ValueError):
            nerve(cs, 4)

    def test_vertex_count_is_sum_of_level_sizes(self):
        rng = random.Random(5)
        for _ in range(10):
            cs = random_cover(tri_space(), rng, rng.randint(0, 1), rng.randint(1, 3))
            built = nerve(cs)
            assert len(built.vertices) == sum(len(f) for f in cs.levels)

    def test_nerve_simplices_have_nonempty_kernel(self):
        cs = rem_cover()
        for s in nerve(cs, 3).simplices:
            assert kernel_query(cs, s) is not None


class TestDeltaSubcomplex:
    def test_same_level_pair_excluded(self):
        cs = rem_cover()
        n2 = nerve(cs, 2)
        d2 = delta_subcomplex(cs, 2)
        pair = fs(("P", 0), ("Q'", 0))
        assert kernel_query(cs, pair) is not None
        assert pair in n2.simplices
        assert pair not in d2.simplices

    def test_delta_included_in_nerve(self):
        rng = random.Random(9)
        for _ in range(10):
            cs = random_cover(edge_space(), rng, rng.randint(0, 2), rng.randint(1, 3))
            assert delta_subcomplex(cs).subcomplex_of(nerve(cs))

    def test_disjoint_levels_collapse(self):
        rng = random.Random(13)
        for space_fn in (edge_space, tri_space, boundary_space):
            for _ in range(5):
                cs = random_disjoint_cover(
                    space_fn(), rng, rng.randint(0, 1), rng.randint(1, 3)
                )
                assert delta_subcomplex(cs) == nerve(cs)

    def test_single_level_is_zero_dimensional(self):
        cs = rem_cover()
        assert delta_subcomplex(cs, 1).dim == 0


class TestDeltaAtCarrier:
    def test_midpoint_carrier_sees_cross_level_pair(self):
        cs = rem_cover()
        m = cs.space.vertex_at(1, "b(a,b)")
        value = delta_at_carrier(cs, 2, fs(m))
        assert fs(("P", 0), ("Q", 1)) in value.simplices

    def test_end_vertex_sees_only_its_side(self):
        cs = rem_cover()
        a = cs.space.vertex_at(1, "b(a)")
        value = delta_at_carrier(cs, 2, fs(a))
        assert value.simplices == {
            fs(("P", 0)),
            fs(("P'", 1)),
            fs(("P", 0), ("P'", 1)),
        }

    def test_whole_cover_level_gives_full_vertex(self):
        e = edge_space()
        cs = cover_sequence(e, [[("W", full_star(e, 0))]])
        for tau in cs.working_complex().simplices:
            assert delta_at_carrier(cs, 1, tau).simplices == {fs(("W", 0))}

    def test_a_carrier_the_prefix_misses_gets_the_empty_complex(self):
        e = edge_space()
        cs = cover_sequence(e, [[("A", star_set(e, 0, ["a"]))], [("W", full_star(e, 0))]])
        value = delta_at_carrier(cs, 1, fs("b"))
        assert value == EMPTY_COMPLEX and not value.facets and value.dim == -1
        assert delta_at_carrier(cs, 2, fs("b")).facets == {fs(("W", 1))}

    def test_unknown_carrier(self):
        cs = rem_cover()
        with pytest.raises(UnknownCarrier):
            delta_at_carrier(cs, 2, fs("nope"))

    def test_union_over_carriers_is_delta(self):
        cs = rem_cover()
        union = set()
        for tau in cs.working_complex().simplices:
            union |= delta_at_carrier(cs, 3, tau).simplices
        assert union == delta_subcomplex(cs, 3).simplices

    def test_monotone_in_the_carrier(self):
        rng = random.Random(21)
        for _ in range(5):
            cs = random_cover(tri_space(), rng, rng.randint(0, 1), 2)
            simplices = list(cs.working_complex().simplices)
            for tau in simplices:
                small = delta_at_carrier(cs, 2, tau)
                for big_tau in simplices:
                    if tau <= big_tau:
                        assert small.subcomplex_of(delta_at_carrier(cs, 2, big_tau))

    def test_prefix_cone_monotonicity(self):
        rng = random.Random(33)
        for _ in range(8):
            cs = random_cover(edge_space(), rng, rng.randint(0, 2), 3)
            for tau in cs.working_complex().simplices:
                for n in range(cs.num_levels - 1):
                    small = delta_at_carrier(cs, n + 1, tau)
                    big = delta_at_carrier(cs, n + 2, tau)
                    for eid, star in cs.levels[n + 1]:
                        if tau & star.core_vertices:
                            assert coned(small, (eid, n + 1)).subcomplex_of(big)


class TestUnindexedDelta:
    def test_prefix_two_contains_the_pair(self):
        cs = rem_cover()
        u2 = unindexed_delta(cs, 2)
        assert fs("P@0", "Q@1") in u2.simplices

    def test_prefix_three_drops_the_pair(self):
        cs = rem_cover()
        u3 = unindexed_delta(cs, 3)
        assert fs("P@0", "Q@1") not in u3.simplices
        assert not unindexed_delta(cs, 2).subcomplex_of(u3)

    def test_disjoint_levels_match_indexed_modulo_names(self):
        # renaming only collapses nothing when no point set repeats across
        # levels, so trials with cross-level duplicates are skipped
        rng = random.Random(17)
        compared = 0
        while compared < 5:
            cs = random_disjoint_cover(edge_space(), rng, 1, 2)
            cores = [star.core_vertices for _, n, star in cs.elements()]
            if len(set(cores)) != len(cores):
                continue
            unindexed = unindexed_delta(cs)
            indexed = delta_subcomplex(cs)
            renamed = {
                frozenset(f"{eid}@{n}" for eid, n in s) for s in indexed.simplices
            }
            assert renamed == unindexed.simplices
            compared += 1


class TestRefinementMap:
    def test_identity_refinement(self):
        cs = rem_cover()
        r = refinement_map(cs, cs, 2)
        assert check_simplicial_map(r)
        assert all(r.vertex_images[v] == v for v in r.vertex_images)

    def test_nested_choice_is_deterministic(self):
        e = edge_space()
        fine = cover_sequence(e, [[("X", star_set(e, 0, ["a", "b"]))]])
        coarse = cover_sequence(
            e, [[("B", full_star(e, 0)), ("A", full_star(e, 0))]]
        )
        r = refinement_map(fine, coarse, 1)
        assert r.vertex_images[("X", 0)] == ("A", 0)
        assert check_simplicial_map(r)

    def test_not_a_refinement(self):
        e = edge_space()
        fine = cover_sequence(e, [[("X", full_star(e, 0))]])
        coarse = cover_sequence(
            e,
            [[("L", star_set(e, 1, ["b(a)", "b(a,b)"])), ("R", star_set(e, 1, ["b(b)", "b(a,b)"]))]],
        )
        with pytest.raises(NotARefinement):
            refinement_map(fine, coarse, 1)

    def test_also_valid_between_full_nerves(self):
        from polycover import SimplicialMap

        cs = rem_cover()
        fine = cover_sequence(
            cs.space,
            [
                [("P'", dict(cs.levels[1])["P'"])],
                [("Q", dict(cs.levels[1])["Q"])],
            ],
        )
        r = refinement_map(fine, cs, 2)
        as_nerve = SimplicialMap(
            nerve(fine, 2), nerve(cs, 2), r.vertex_images
        )
        assert check_simplicial_map(as_nerve)

    def test_least_id_choice_matches_per_pair_reference(self):
        """Fine elements inside several coarse elements take the least id."""
        rng = random.Random(1018)
        several = 0
        for space in (edge_space(), boundary_space(), tri_space()) * 3:
            kappa = space.base.dim + 1
            coarse = pad_levels(
                random_cover(space, rng, rng.randint(0, 1), kappa, per_level_cover=True),
                kappa,
            )
            fine = refinement_as_cover(ostrand_refine(coarse, kappa - 1))
            assert refinement_map(fine, coarse, kappa) == (
                reference_refinement_map(fine, coarse, kappa)
            )
            for n in range(kappa):
                for _, star in fine.levels[n]:
                    fits = [c for _, c in coarse.levels[n] if star_subset(star, c)]
                    several += len(fits) >= 2
        assert several >= 20


def _vertex_star_cover_at(space, level: int):
    family = [(eid, push_star(star, level)) for eid, star in
              vertex_star_cover(space, 1).levels[0]]
    return cover_sequence(space, [family] * 3)


def test_mu_driver_pushes_each_star_set_to_each_level_once(monkeypatch):
    """The refinement map, both verifier runs and the three predicate calls
    read one cache per cover and level; repeated families share pushes."""
    pushes = Counter()
    push = realization.push_star

    def counted(s, level):
        if level != s.level:
            pushes[s, level] += 1
        return push(s, level)

    for module in (realization, covers, dimension):
        monkeypatch.setattr(module, "push_star", counted)
    for space, level in [(tri_space(), 0), (tri_space(), 1), (tri_space(), 2),
                         (tet_space(), 0), (tet_space(), 1)]:
        pushes.clear()
        cs = _vertex_star_cover_at(space, level)
        assert mu_driver(cs, n_plus_one(space.base.dim)).success
        # One push per distinct base-vertex star, to the refinement's level.
        assert pushes == Counter(
            {(star, level + 1): 1 for _, star in cs.levels[0]}
        )


def test_pad_levels_repeats_last():
    cs = rem_cover()
    padded = pad_levels(cs, 5)
    assert padded.num_levels == 5
    assert padded.levels[4] == padded.levels[2]
