"""The holders and hit indexes against the constructions they replaced.

Nerves and one-per-level complexes are read off the hit sets of the
working facets, carrier values and kernels off each working simplex's hit
set, and each hit set is the union of its vertices' holders.  Refinement
maps and the skeletal predicates read the same indexes.  `tests/helpers.py`
keeps the earlier per-core scans, per-pair containment tests, per-simplex
kernel sweeps and the pairwise `maximal_simplices` as oracles.
"""

import gc
import itertools
import random
import weakref

from hypothesis import given, settings, strategies as st

from polycover import (
    PolyhedralSpace,
    SimplicialMap,
    StarSet,
    build_canonical,
    carrier_tables,
    cover_sequence,
    delta_at_carrier,
    delta_subcomplex,
    is_setvalued_selection,
    is_skeletal_selection,
    kernel_query,
    maximal_simplices,
    nerve,
    ostrand_refine,
    push_star,
    refinement_map,
    simplex_key,
    unindexed_delta,
    validate_complex,
    vlabel,
)
from polycover import covers
from polycover.covers import FULL_NERVE, _hits
from polycover.fixtures import (
    boundary_space,
    edge_space,
    tet_space,
    tri_space,
    vertex_star_cover,
)
from polycover.errors import NotARefinement
from polycover.realization import _least_overlap

from helpers import (
    dangling_space,
    moebius_space,
    projective_plane_space,
    random_cover,
    random_disjoint_cover,
    reference_delta_at_carrier,
    reference_delta_subcomplex,
    reference_holders,
    reference_is_setvalued_selection,
    reference_is_skeletal_selection,
    reference_kernel_carriers,
    reference_maximal_simplices,
    reference_nerve_simplices,
    reference_push_star,
    reference_refinement_map,
    reference_unindexed_delta,
    sphere_space,
    sweep_least_overlap,
    torus_space,
    two_triangles_space,
)

# (space, working levels) pairs the covers are drawn at
GROUNDS = [
    (edge_space, (0, 1, 2)),
    (boundary_space, (0, 1, 2)),
    (tri_space, (0, 1, 2)),
    (tet_space, (0, 1, 2)),
    (dangling_space, (0, 1, 2)),
    (two_triangles_space, (0, 1, 2)),
]


# the bases typed in by `tests/helpers.py`, beyond the fixtures
TYPED_IN = (sphere_space, torus_space, projective_plane_space, moebius_space,
            dangling_space, two_triangles_space)


def seeded_covers(seed: int):
    """Two arbitrary and two per-level-disjoint covers per ground and level."""
    rng = random.Random(seed)
    for space_fn, levels in GROUNDS:
        for level in levels:
            for make in (random_cover, random_cover, random_disjoint_cover,
                         random_disjoint_cover):
                yield make(space_fn(), rng, level, rng.randint(1, 3))


def per_level_covers(seed: int, top: int = 2):
    """One cover per ground and level up to `top` whose every level covers
    on its own, with two or three elements per level: facet hit sets hold
    several elements of one level, so one-per-level faces are far fewer
    than the hit sets' subsets."""
    rng = random.Random(seed)
    for space_fn, levels in GROUNDS:
        for level in levels[: top + 1]:
            yield random_cover(space_fn(), rng, level, rng.randint(2, 3), per_level_cover=True)


def several_per_level(cs) -> bool:
    """True iff some facet hit set holds two elements of one level."""
    holders = cs.holders(cs.num_levels, cs.working_level)
    hits = _hits(cs.working_complex().facets, holders).values()
    return any(len({n for _, n in hit}) < len(hit) for hit in hits)


def typed_in_covers(seed: int):
    """Per typed-in base at working levels 0 and 1, an arbitrary and a
    per-level-disjoint cover of four levels, and one of three levels after
    a first level of one vertex star: hit sets of the facets away from that
    star miss level 0."""
    rng = random.Random(seed)
    for space_fn in TYPED_IN:
        for level in (0, 1):
            for make in (random_cover, random_disjoint_cover):
                space = space_fn()
                yield make(space, rng, level, 4)
                v = rng.choice(sorted(space.stage_complex(level).vertices, key=vlabel))
                first = [("S", StarSet(space, level, frozenset([v])))]
                rest = make(space, rng, level, 3).levels
                yield cover_sequence(space, [first] + [list(row) for row in rest])


def test_maximal_simplices_matches_pairwise_oracle():
    complexes = [
        space_fn().stage_complex(level)
        for space_fn in (
            edge_space, boundary_space, tri_space, dangling_space, two_triangles_space
        )
        for level in range(4)
    ]
    complexes += [tet_space().stage_complex(level) for level in range(3)]
    rng = random.Random(41)
    for _ in range(40):
        verts = "abcdefg"[: rng.randint(1, 7)]
        raw = [
            rng.sample(verts, rng.randint(1, len(verts)))
            for _ in range(rng.randint(1, 6))
        ]
        complexes.append(validate_complex(raw))
    for c in complexes:
        assert maximal_simplices(c) == reference_maximal_simplices(c)


def test_nerves_and_one_per_level_complexes_match_oracles():
    per_level = list(per_level_covers(8))
    assert all(several_per_level(cs) for cs in per_level)
    for cs in itertools.chain(seeded_covers(7), per_level):
        for kappa in range(1, cs.num_levels + 1):
            assert nerve(cs, kappa).simplices == (
                reference_nerve_simplices(cs, kappa)
            )
            assert delta_subcomplex(cs, kappa).simplices == (
                reference_delta_subcomplex(cs, kappa)
            )
            assert unindexed_delta(cs, kappa).simplices == (
                reference_unindexed_delta(cs, kappa)
            )
            for tau in cs.working_complex().simplices:
                assert delta_at_carrier(cs, kappa, tau).simplices == (
                    reference_delta_at_carrier(cs, kappa, tau)
                )


def test_one_per_level_facets_match_oracles_on_typed_in_bases():
    """The one-per-level complex and its carrier values, built from the
    product facets of hit sets, against the subset filters of the oracles,
    for every prefix up to four levels.  Some facet hit sets miss a level,
    so their per-level parts include empty ones."""
    missing = 0
    for cs in typed_in_covers(43):
        for kappa in range(1, cs.num_levels + 1):
            assert delta_subcomplex(cs, kappa).simplices == (
                reference_delta_subcomplex(cs, kappa)
            )
            for tau in cs.working_complex().simplices:
                assert delta_at_carrier(cs, kappa, tau).simplices == (
                    reference_delta_at_carrier(cs, kappa, tau)
                )
        holders = cs.holders(cs.num_levels, cs.working_level)
        hits = _hits(cs.working_complex().facets, holders).values()
        missing += any(len({n for _, n in hit}) < cs.num_levels for hit in hits)
    assert missing >= 12


def test_kernels_match_oracle():
    rng = random.Random(11)
    empty = 0
    for cs in seeded_covers(11):
        elements = [(eid, n) for eid, n, _ in cs.elements()]
        holders = cs.holders(cs.num_levels, cs.working_level)
        hits = _hits(cs.working_complex().simplices, holders)
        for _ in range(12):
            sigma = rng.sample(elements, rng.randint(1, min(3, len(elements))))
            expected = reference_kernel_carriers(cs, sigma)
            carriers = [tau for tau, hit in hits.items() if set(sigma) <= hit]
            assert sorted(carriers, key=simplex_key) == sorted(expected, key=simplex_key)
            least = min(expected, key=simplex_key, default=None)
            assert kernel_query(cs, sigma) == least
            empty += not expected
    assert empty > 0


def test_least_overlap_matches_sweep():
    pairs = set()
    for cs in seeded_covers(13):
        stage = cs.working_complex()
        for family in cs.levels:
            stars = [star for _, star in family]
            pair = sweep_least_overlap(stars)
            got = _least_overlap(stage, [[star.core_vertices for star in stars]])
            assert got == (None if pair is None else (0, *pair))
            pairs.add(pair)
    assert {None, (0, 1), (0, 2)} <= pairs


def test_least_overlap_over_all_families_matches_sweep():
    """One pass over every family's cores names the least family with an
    overlapping pair and that family's least pair.  A one-element family
    copied from the last level goes first, so pairs across families, which
    never count, are always present."""
    found = set()
    for cs in seeded_covers(17):
        stage = cs.working_complex()
        families = [[cs.levels[-1][0][1]]] + [
            [star for _, star in family] for family in cs.levels
        ]
        expected = None
        for n, stars in enumerate(families):
            pair = sweep_least_overlap(stars)
            if pair is not None:
                expected = (n, *pair)
                break
        cores = [[star.core_vertices for star in stars] for stars in families]
        assert _least_overlap(stage, cores) == expected
        found.add(None if expected is None else expected[0])
    assert {None, 1, 2} <= found


def test_least_overlap_prefers_the_least_of_several_pairs():
    space = PolyhedralSpace(validate_complex([{"a", "b", "c"}]))
    stage = space.stage_complex(0)
    a, b, c = (frozenset(v) for v in "abc")
    for cores in itertools.permutations([a, b, c, a | b]):
        assert _least_overlap(stage, [list(cores)]) == (0, 0, 1)
    assert _least_overlap(stage, [[a, b]]) == (0, 0, 1)
    assert _least_overlap(stage, [[a, frozenset("x"), b]]) == (0, 0, 2)


def test_least_overlap_takes_the_least_family_and_no_pair_across_families():
    space = PolyhedralSpace(validate_complex([{"a", "b", "c"}]))
    stage = space.stage_complex(0)
    a, b, c = (frozenset(v) for v in "abc")
    assert _least_overlap(stage, [[a], [a], [a | b], [b]]) is None
    assert _least_overlap(stage, [[], [a], [b, c], [a, b]]) == (2, 0, 1)
    assert _least_overlap(stage, [[c], [a, b, c], [a, b]]) == (1, 0, 1)
    assert _least_overlap(stage, []) is None


def _sweep_least(families: list):
    """The least (n, i, j) by `sweep_least_overlap` over each family of
    star-sets in turn, or None."""
    for n, stars in enumerate(families):
        pair = sweep_least_overlap(stars)
        if pair is not None:
            return (n, *pair)
    return None


def _least(stage, families: list):
    return _least_overlap(stage, [[s.core_vertices for s in stars] for stars in families])


def _ball(stage, centre) -> set:
    """The stage vertices within two edges of `centre`."""
    adj = stage.neighbours
    ball = {centre} | adj[centre]
    return ball.union(*(adj[v] for v in ball))


def _window(stage, stars: list, centre, size: int, rng) -> list:
    """Up to `size` of the star-sets, kept in family order, whose cores come
    within two edges of the stage vertex `centre`."""
    ball = _ball(stage, centre)
    close = [k for k, star in enumerate(stars) if star.core_vertices & ball]
    return [stars[k] for k in sorted(rng.sample(close, min(size, len(close))))]


def _planted(stage, stars: list, rng) -> tuple:
    """stars with a planted overlap, and which kind: a vertex held by three
    elements (a copy of one element and its union with another), or one
    element holding only a neighbour of another's core vertex."""
    out = list(stars)
    space, level = stars[0].space, stars[0].level
    p = rng.randrange(len(stars))
    core = stars[p].core_vertices
    cores = [star.core_vertices for star in stars]
    outside = [
        w for v in sorted(core, key=vlabel) for w in sorted(stage.neighbours[v], key=vlabel)
        if not any(w in c for c in cores)
    ]
    if outside and rng.random() < 0.5:
        w = rng.choice(outside)
        out.insert(rng.randint(0, len(out)), StarSet(space, level, frozenset([w])))
        return out, "edge"
    q = rng.randrange(len(stars))
    out.insert(rng.randint(0, len(out)), StarSet(space, level, core))
    out.insert(rng.randint(0, len(out)), StarSet(space, level, core | cores[q]))
    return out, "three"


# (space, working levels) of the vertex-star covers refined by `ostrand_refine`:
# their families live one stage finer.  The tetrahedron's stage 4 is over the
# stage limit, and each pairwise sweep at its stage 3 walks 61,649 simplices.
OSTRAND_GROUNDS = [(tri_space, (1, 2, 3)), (tet_space, (1, 2))] + [
    (space_fn, (1,)) for space_fn in TYPED_IN[:4]
]


def test_least_overlap_on_refinement_families_matches_sweep():
    """Families of `ostrand_refine` at stages 2-4 of the triangle, 2-3 of
    the tetrahedron and 2 of S², the torus, RP² and the Möbius band.  Whole
    families are disjoint; windows of elements near one stage vertex are
    checked against the pairwise sweep, clean, with a planted overlap in the
    last family, and with one in the first family; a family of copies of
    one large element overlaps first at (0, 1)."""
    rng = random.Random(59)
    planted = set()
    for space_fn, levels in OSTRAND_GROUNDS:
        space = space_fn()
        for level in levels:
            cs = vertex_star_cover(space)
            cs = cover_sequence(space, [
                [(eid, push_star(star, level)) for eid, star in row] for row in cs.levels
            ])
            r = ostrand_refine(cs, space.base.dim)
            stage = space.stage_complex(level + 1)
            families = [[star for _, star in family] for family in r.families]
            assert _least(stage, families) is None
            for _ in range(2 if level < 2 else 1):
                centre = rng.choice(sorted(stage.vertices, key=vlabel))
                windows = [_window(stage, stars, centre, 4, rng) for stars in families]
                windows = [w for w in windows if w]
                assert _sweep_least(windows) is None
                assert _least(stage, windows) is None
                last, kind = _planted(stage, windows[-1], rng)
                later = windows[:-1] + [last]
                assert _least(stage, later) == _sweep_least(later)
                assert _least(stage, later)[0] == len(later) - 1
                first, _ = _planted(stage, windows[0], rng)
                assert _least(stage, [first] + later) == _sweep_least([first] + later)
                planted.add(kind)
            big = StarSet(space, level + 1, frozenset().union(
                *(star.core_vertices for star in families[0])))
            copies = [big] * 40
            assert _least(stage, [copies]) == (0, 0, 1)
            assert sweep_least_overlap(copies[:2]) == (0, 1)
    assert planted == {"edge", "three"}


# Built once: a space's stage tower is a deterministic cache, so the examples
# can share it instead of subdividing again for each one.
TYPED_IN_SPACES = [space_fn() for space_fn in TYPED_IN]


@st.composite
def local_families(draw):
    """A stage 0-2 of a typed-in base and up to three families of up to
    five cores drawn near one stage vertex (within two edges), so that
    cores overlap by vertices, by edges only, or not at all."""
    space = draw(st.sampled_from(TYPED_IN_SPACES))
    level = draw(st.integers(0, 2))
    stage = space.stage_complex(level)
    centre = draw(st.sampled_from(sorted(stage.vertices, key=vlabel)))
    ball = sorted(_ball(stage, centre), key=vlabel)
    core = st.frozensets(st.sampled_from(ball), min_size=1, max_size=3)
    cores = draw(st.lists(st.lists(core, max_size=5), min_size=1, max_size=3))
    return stage, [[StarSet(space, level, c) for c in family] for family in cores]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(local_families())
def test_least_overlap_matches_sweep_on_random_families(drawn):
    stage, families = drawn
    assert _least(stage, families) == _sweep_least(families)


def test_a_cover_is_freed_once_its_nerve_is_built():
    cs = vertex_star_cover(tri_space(), 2)
    nerve(cs)
    alive = weakref.ref(cs)
    del cs
    gc.collect()
    assert alive() is None


def test_equal_hit_sets_are_one_object():
    space = tet_space()
    stars = vertex_star_cover(space).levels[0]
    cs = cover_sequence(space, [[(eid, push_star(star, 2)) for eid, star in stars]] * 3)
    stage = space.stage_complex(2)
    hits = _hits(stage.simplices, cs.holders(cs.num_levels, cs.working_level))
    assert len(hits) == len(stage.simplices)
    distinct = set(hits.values())
    assert len({id(hit) for hit in hits.values()}) == len(distinct) == 15


def _ids_against_levels(cs):
    """cs with each level-n id prefixed by a letter that falls with n, so
    that id order is the reverse of level order."""
    return cover_sequence(cs.space, [
        [("zyx"[n] + eid, star) for eid, star in row] for n, row in enumerate(cs.levels)
    ])


def test_holders_match_oracle():
    """Holders of every prefix at the working level and, below stage 3, one
    level finer: the elements whose pushed cores hold each vertex, least
    (level, id) first, also where ids sort against levels."""
    orders = set()
    for cs in seeded_covers(19):
        for c in (cs, _ids_against_levels(cs)):
            w = c.working_level
            for kappa in range(1, c.num_levels + 1):
                for level in (w, w + 1) if w < 2 else (w,):
                    held = c.holders(kappa, level)
                    assert held == reference_holders(c, kappa, level)
                    orders.update(len({n for _, n in h}) for h in held.values())
    assert {1, 2, 3} <= orders


def test_containing_matches_oracle():
    """The elements whose pushed cores hold a given core, for each element's
    own core and each single stage vertex, at the working level and, below
    stage 3, one level finer."""
    found = set()
    for cs in seeded_covers(37):
        w = cs.working_level
        for kappa in range(1, cs.num_levels + 1):
            for level in (w, w + 1) if w < 2 else (w,):
                pushed = {
                    (eid, n): reference_push_star(star, level).core_vertices
                    for eid, n, star in cs.elements(kappa)
                }
                singles = [frozenset([v]) for v in cs.space.stage_complex(level).vertices]
                for core in list(pushed.values()) + singles:
                    held = cs.containing(kappa, level, core)
                    assert held == {e for e, c in pushed.items() if core <= c}
                    found.add(min(len(held), 2))
    assert found == {0, 1, 2}


def test_working_level_questions_push_nothing(monkeypatch):
    """A cover's families already sit at its working level: once it is
    built, its holders, nerves and canonical map there push no star-set."""
    built = list(seeded_covers(23))
    pushes = []
    monkeypatch.setattr(
        covers, "push_star", lambda s, level: pushes.append(s) or push_star(s, level)
    )
    for cs in built:
        kappa = cs.num_levels
        assert cs.pushed(kappa, cs.working_level) == cs.levels
        assert cs.holders(kappa, cs.working_level) == reference_holders(
            cs, kappa, cs.working_level
        )
        nerve(cs), delta_subcomplex(cs)
        build_canonical(cs, kappa, FULL_NERVE)
    assert pushes == []


def _split_cover(cs, rng):
    """A cover refining cs level by level: each element's core, pushed to
    the working level or one finer, cut in one or two parts.  A part may
    also fit other elements, of its level or another; sometimes one more
    element, two random vertices, fits none."""
    level = cs.working_level + (rng.random() < 0.5 and cs.working_level < 2)
    verts = sorted(cs.space.stage_complex(level).vertices, key=vlabel)
    families = []
    for row in cs.levels:
        family = []
        for _, star in row:
            core = sorted(reference_push_star(star, level).core_vertices, key=vlabel)
            rng.shuffle(core)
            cut = rng.randint(1, len(core))
            for part in (core[:cut], core[cut:]):
                if part:
                    family.append((f"F{len(family)}", StarSet(cs.space, level, frozenset(part))))
        families.append(family)
    if rng.random() < 0.3:
        stray = frozenset(rng.sample(verts, min(2, len(verts))))
        rng.choice(families).append(("Z", StarSet(cs.space, level, stray)))
    return cover_sequence(cs.space, families)


def _outcome(build):
    try:
        return build()
    except NotARefinement as err:
        return str(err)


def test_refinement_maps_match_per_pair_oracle():
    """The least same-level coarse element holding every vertex of a fine
    core, on covers whose levels overlap or not; the oracle tests each
    (fine, coarse) pair by `star_subset`."""
    rng = random.Random(23)
    outcomes = []
    for space_fn, levels in GROUNDS:
        for level in levels:
            for overlapping in (False, True, True):
                coarse = random_cover(
                    space_fn(), rng, level, rng.randint(1, 3), per_level_cover=overlapping
                )
                fine = _split_cover(coarse, rng)
                for kappa in range(1, coarse.num_levels + 1):
                    got = _outcome(lambda: refinement_map(fine, coarse, kappa))
                    assert got == _outcome(
                        lambda: reference_refinement_map(fine, coarse, kappa)
                    )
                    outcomes.append(isinstance(got, str))
    assert set(outcomes) == {True, False}


NAMES = ("x0", "x1", "x2", "x3")
SIMPLEX = validate_complex([NAMES])


def _tables(kernels: dict, levels: int, f, keep) -> list:
    """Per level k, the carrier table holding at tau x0 and the image of each
    one-per-level simplex sigma of kernels[tau] with keep(|sigma|, k)."""
    return [
        {
            tau: validate_complex(
                [f.image(sigma) for sigma in kernel if keep(len(sigma), k)] + [{"x0"}]
            )
            for tau, kernel in kernels.items()
        }
        for k in range(levels)
    ]


def _skeletal_verdicts(covers, rng) -> set:
    """On each cover, a random map on the prefix complex with tables built
    from its images (table k holds every kernel simplex of at most k+1
    vertices, so the map passes), the map with one image changed, and
    tables holding only the simplices of exactly k+1 vertices: both
    skeletal predicates against the kernel sweeps.  Returns the verdicts."""
    verdicts = set()
    for cs in covers:
        source = delta_subcomplex(cs, cs.num_levels)
        vertices = sorted(source.vertices, key=vlabel)
        images = {v: rng.choice(NAMES) for v in vertices}
        f = SimplicialMap(source, SIMPLEX, images)
        moved = dict(images)
        moved[rng.choice(vertices)] = rng.choice(NAMES)
        g = SimplicialMap(source, SIMPLEX, moved)
        kernels = {
            tau: reference_delta_at_carrier(cs, cs.num_levels, tau)
            for tau in cs.working_complex().simplices
        }
        upto = _tables(kernels, cs.num_levels, f, lambda size, k: size <= k + 1)
        exact = _tables(kernels, cs.num_levels, f, lambda size, k: size == k + 1)
        for m, tables in ((f, upto), (g, upto), (f, exact)):
            phi = carrier_tables(cs.space, cs.working_level, SIMPLEX, tables)
            skeletal = is_skeletal_selection(m, cs, phi)
            assert skeletal == reference_is_skeletal_selection(m, cs, phi)
            for n in range(cs.num_levels):
                setvalued = is_setvalued_selection(m, cs, phi, n)
                assert setvalued == reference_is_setvalued_selection(m, cs, phi, n)
                verdicts.add(("setvalued", setvalued))
            verdicts.add(("skeletal", skeletal, tables is exact))
    return verdicts


VERDICTS = {("skeletal", True, False), ("skeletal", False, False),
            ("skeletal", False, True), ("setvalued", True), ("setvalued", False)}


def test_skeletal_predicates_match_kernel_sweeps():
    """One arbitrary and one per-level disjoint cover per ground and level,
    then one whose every level covers on its own per ground at levels 0
    and 1 (the tetrahedron's at level 2 alone would take about 3 s)."""
    covers = itertools.chain(
        itertools.islice(seeded_covers(29), 0, None, 2), per_level_covers(30, top=1)
    )
    assert VERDICTS <= _skeletal_verdicts(covers, random.Random(31))


def test_skeletal_predicates_match_kernel_sweeps_on_typed_in_bases():
    """Four-level covers of the typed-in bases whose first level is one
    vertex star, so that some facet hit sets miss it."""
    covers = itertools.islice(typed_in_covers(47), 1, None, 2)
    assert VERDICTS <= _skeletal_verdicts(covers, random.Random(53))


def test_skeletal_predicate_reads_every_face():
    """Every stage vertex lies in a star of each level, so every one-per-level
    facet has one element per level.  With table 0 cut down to x0 and table
    1 holding every image, the facets pass and the vertices do not: a walk
    over facets alone would accept the map."""
    for level in (0, 1):
        cs = vertex_star_cover(tri_space(), 2)
        cs = cover_sequence(cs.space, [
            [(eid, push_star(star, level)) for eid, star in row] for row in cs.levels
        ])
        source = delta_subcomplex(cs, 2)
        f = SimplicialMap(source, SIMPLEX, {v: "x1" for v in source.vertices})
        kernels = {
            tau: reference_delta_at_carrier(cs, 2, tau)
            for tau in cs.working_complex().simplices
        }
        upto = _tables(kernels, 2, f, lambda size, k: size <= k + 1)
        low = [{tau: validate_complex([{"x0"}]) for tau in kernels}, upto[1]]
        phi = carrier_tables(cs.space, level, SIMPLEX, low)
        assert not is_skeletal_selection(f, cs, phi)
        assert not reference_is_skeletal_selection(f, cs, phi)
        assert is_setvalued_selection(f, cs, phi, 1)
