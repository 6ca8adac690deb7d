"""Shared generators and independent oracles for the test suite.

Random data is always produced from an explicit random.Random seed so
every suite run is reproducible.  The oracles here recompute expected
values by brute force, independently of the production code paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from polycover import (
    CRefinement,
    PolyhedralSpace,
    RefinementReport,
    SimplicialMap,
    StarRelation,
    StarSet,
    cover_sequence,
    delta_subcomplex,
    pad_levels,
    push_star,
    star_subset,
    validate_complex,
    vlabel,
)
from polycover.complexes import Barycenter, SimplicialComplex, simplex_key
from polycover.covers import _check_kappa
from polycover.dimension import SearchAudit
from polycover.errors import NotARefinement, UnknownCarrier, UnknownCoverElement
from polycover.selftest import stage_point


def brute_force_chain_count(simplices) -> dict:
    """Count inclusion chains among the given simplices by exhaustive
    subset enumeration: the oracle for subdivision f-vectors."""
    pool = list(simplices)
    counts: dict = {}
    for size in range(1, len(pool) + 1):
        found = 0
        for combo in itertools.combinations(pool, size):
            ordered = sorted(combo, key=len)
            if all(ordered[i] < ordered[i + 1] for i in range(len(ordered) - 1)):
                found += 1
        if found == 0:
            break
        counts[size - 1] = found
    return counts


def interior_points(space: PolyhedralSpace, level: int, denominator: int = 4):
    """One exact rational point in the relative interior of every simplex
    of the stage (weights are positive multiples of 1/denominator)."""
    points = []
    for s in space.stage_complex(level).simplices:
        members = sorted(s, key=vlabel)
        k = len(members)
        if k > denominator:
            continue
        base = denominator // k
        rest = denominator - base * k
        coords = {}
        for i, v in enumerate(members):
            coords[v] = Fraction(base + (1 if i < rest else 0), denominator)
        points.append(stage_point(space, level, coords))
    return points


def grid_points(space: PolyhedralSpace, level: int, denominator: int = 3):
    """Every rational point of the stage with the given denominator:
    all positive compositions over every simplex (exhaustive grid)."""
    points = []
    seen = set()
    for s in space.stage_complex(level).simplices:
        members = sorted(s, key=vlabel)
        k = len(members)
        if k > denominator:
            continue
        for cuts in itertools.combinations(range(1, denominator), k - 1):
            parts = []
            prev = 0
            for cut in cuts:
                parts.append(cut - prev)
                prev = cut
            parts.append(denominator - prev)
            key = (s, tuple(parts))
            if key in seen:
                continue
            seen.add(key)
            coords = {
                v: Fraction(part, denominator) for v, part in zip(members, parts)
            }
            points.append(stage_point(space, level, coords))
    return points


def adjacency(space: PolyhedralSpace, level: int) -> dict:
    """vertex -> set of vertices sharing a simplex with it (including itself)."""
    out: dict = {}
    for s in space.stage_complex(level).simplices:
        for v in s:
            out.setdefault(v, set()).update(s)
    return out


def components_of(space: PolyhedralSpace, level: int, chosen: set) -> list:
    """Connected components of the chosen vertices in the stage adjacency
    graph; distinct components span no common simplex."""
    adj = adjacency(space, level)
    left = set(chosen)
    comps = []
    while left:
        seed = sorted(left, key=vlabel)[0]
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in adj[v] & left:
                if u not in comp:
                    comp.add(u)
                    frontier.append(u)
        comps.append(frozenset(comp))
        left -= comp
    return sorted(comps, key=lambda c: sorted(vlabel(v) for v in c))


def random_disjoint_cover(space: PolyhedralSpace, rng, level: int, num_levels: int):
    """A cover sequence whose levels are pairwise-disjoint star-set families
    and whose union covers: the last level mops up the uncovered vertices."""
    verts = sorted(space.stage_complex(level).vertices, key=vlabel)
    remaining = set(verts)
    families = []
    for n in range(num_levels):
        if n == num_levels - 1:
            chosen = set(remaining)
            chosen.update(v for v in verts if rng.random() < 0.25)
            if not chosen:
                chosen = {rng.choice(verts)}
        else:
            chosen = {v for v in verts if rng.random() < 0.45}
            if not chosen:
                chosen = {rng.choice(verts)}
        comps = components_of(space, level, chosen)
        family = []
        i = 0
        while i < len(comps):
            group = comps[i]
            if rng.random() < 0.3 and i + 1 < len(comps):
                group = group | comps[i + 1]
                i += 1
            family.append(
                (f"E{n}.{len(family)}", StarSet(space, level, frozenset(group)))
            )
            i += 1
        families.append(family)
        remaining -= chosen
    return cover_sequence(space, families)


def random_cover(space: PolyhedralSpace, rng, level: int, num_levels: int,
                 per_level_cover: bool = False):
    """A cover sequence of arbitrary star-set families; with
    per_level_cover every level covers on its own, otherwise only the
    union is guaranteed to."""
    verts = sorted(space.stage_complex(level).vertices, key=vlabel)
    families = []
    for n in range(num_levels):
        count = rng.randint(2, 3)
        cores: list = [set() for _ in range(count)]
        for v in verts:
            if per_level_cover:
                cores[rng.randrange(count)].add(v)
                if rng.random() < 0.35:
                    cores[rng.randrange(count)].add(v)
            else:
                if n == num_levels - 1 or rng.random() < 0.6:
                    cores[rng.randrange(count)].add(v)
        family = [
            (f"E{n}.{i}", StarSet(space, level, frozenset(core)))
            for i, core in enumerate(cores)
            if core
        ]
        if not family:
            family = [(f"E{n}.0", StarSet(space, level, frozenset({rng.choice(verts)})))]
        families.append(family)
    return cover_sequence(space, families)


# -- stage-sweep oracles ------------------------------------------------------
# The library decides star-set relations from cores and the stage's
# 1-skeleton; these decide them by classifying every simplex of the common
# stage, as the first versions of the library did.  They push star-sets by
# sweeping whole stages too, not through the library's star index.


def reference_vlabel(v) -> str:
    """A vertex label rebuilt recursively through every level, with no
    memo: the library keeps each token's label on the token instead."""
    if isinstance(v, Barycenter):
        return "b(" + ",".join(sorted(reference_vlabel(u) for u in v.of)) + ")"
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int):
        return f"{v[0]}@{v[1]}"
    return str(v)


def reference_push_star(s: StarSet, target_level: int) -> StarSet:
    """The star-set at a finer level by sweeping each stage on the way: a
    vertex star is the union of the next-level stars of the barycenters of
    every simplex meeting the core."""
    core = s.core_vertices
    for level in range(s.level, target_level):
        core = frozenset(
            Barycenter(t) for t in s.space.stage_complex(level).simplices if t & core
        )
    return StarSet(s.space, target_level, core)


def sweep_star_relation(s1: StarSet, s2: StarSet) -> StarRelation:
    """Relation of two star-sets from which stage simplices meet which core:
    a star-set is the union of the interiors of the simplices meeting it."""
    level = max(s1.level, s2.level)
    a = reference_push_star(s1, level).core_vertices
    b = reference_push_star(s2, level).core_vertices
    both = only_a = only_b = False
    for s in s1.space.stage_complex(level).simplices:
        in_a = bool(s & a)
        in_b = bool(s & b)
        if in_a and in_b:
            both = True
        elif in_a:
            only_a = True
        elif in_b:
            only_b = True
    if not both:
        return StarRelation.DISJOINT
    if not only_a and not only_b:
        return StarRelation.EQUAL
    if not only_a:
        return StarRelation.S1_SUBSET_S2
    if not only_b:
        return StarRelation.S2_SUBSET_S1
    return StarRelation.OVERLAPPING


def sweep_shrunk(complex, core: frozenset) -> frozenset:
    """Vertices whose whole open star lies inside the star-set with this core:
    the complement of the union of the core-missing simplices."""
    outside = set()
    for s in complex.simplices:
        if not (s & core):
            outside.update(s)
    return complex.vertices - frozenset(outside)


def sweep_fine_enough(cs, families: int, level: int) -> bool:
    """True iff every vertex star of the stage fits inside some element of
    each of the first `families` levels (padded by repeating the last)."""
    stage = cs.space.stage_complex(level)
    padded = pad_levels(cs, families)
    for k in range(families):
        fitting: set = set()
        for _, star in padded.levels[k]:
            core = reference_push_star(star, level).core_vertices
            fitting.update(sweep_shrunk(stage, core))
        if not stage.vertices <= fitting:
            return False
    return True


def sweep_least_overlap(stars: list):
    """The first pair (i, j) in lexicographic order whose star-sets are not
    disjoint, comparing every pair with `sweep_star_relation`; None if the
    star-sets are pairwise disjoint."""
    for i, j in itertools.combinations(range(len(stars)), 2):
        if sweep_star_relation(stars[i], stars[j]) is not StarRelation.DISJOINT:
            return (i, j)
    return None


# -- per-pair containment oracles ---------------------------------------------
# The verifier and the refinement map as they were before they pushed each
# star-set to the common level once: every (element, coarse element) test
# re-pushes both sides, and coverage is a set union of the pushed cores.


def reference_verify_c_refinement(r: CRefinement) -> RefinementReport:
    """`verify_c_refinement` deciding containment pair by pair."""
    space = r.source.space
    level = r.source.working_level
    for family in r.families:
        for _, star in family:
            level = max(level, star.level)
    stage = space.stage_complex(level)

    pushed = [
        [(eid, push_star(star, level).core_vertices) for eid, star in family]
        for family in r.families
    ]
    for n, family in enumerate(r.families):
        pair = sweep_least_overlap([star for _, star in family])
        if pair is not None:
            return RefinementReport(
                False,
                "overlap",
                {"level": n, "elements": [family[i][0] for i in pair]},
            )

    source = pad_levels(r.source, r.kappa)
    for n, family in enumerate(r.families):
        for eid, star in family:
            if not any(
                star_subset(star, coarse) for _, coarse in source.levels[n]
            ):
                return RefinementReport(
                    False, "not_a_refinement", {"level": n, "element": eid}
                )

    covered: set = set()
    for family in pushed:
        for _, core in family:
            covered.update(core)
    missing = stage.vertices - covered
    if missing:
        v = sorted(missing, key=vlabel)[0]
        return RefinementReport(False, "uncovered", {"vertex": vlabel(v)})
    return RefinementReport(True)


def reference_refinement_map(fine, coarse, kappa=None) -> SimplicialMap:
    """`refinement_map` deciding containment pair by pair."""
    if fine.space != coarse.space:
        raise ValueError("cover sequences live on different spaces")
    kappa_f = _check_kappa(fine, kappa)
    kappa_c = _check_kappa(coarse, kappa)
    if kappa_f != kappa_c:
        raise ValueError("prefix lengths differ")
    images = {}
    for n in range(kappa_f):
        for eid, star in fine.levels[n]:
            chosen = None
            for cid, cstar in coarse.levels[n]:
                if star_subset(star, cstar):
                    chosen = cid
                    break
            if chosen is None:
                raise NotARefinement(
                    f"element {eid!r} at level {n} fits inside no coarse element"
                )
            images[(eid, n)] = (chosen, n)
    source = delta_subcomplex(fine, kappa_f)
    target = delta_subcomplex(coarse, kappa_c)
    return SimplicialMap(source, target, images)


# -- hit-set oracles -----------------------------------------------------------
# The nerve, the one-per-level complexes and kernels as they were computed
# before the library read them off one hit index per cover: every simplex
# tests every core, and nerves enumerate the subsets of the hit sets of
# the maximal simplices, found by pairwise comparison.


def reference_maximal_simplices(c: SimplicialComplex) -> list:
    """Maximal simplices by comparing each simplex with every larger one
    kept so far, in canonical order."""
    return reference_maximal_sets(c.simplices)


def reference_maximal_sets(sets) -> list:
    """The sets inside no other set of the family, found by comparing each
    with every larger one kept so far, in canonical order."""
    by_size = sorted(set(sets), key=len, reverse=True)
    out: list = []
    for s in by_size:
        if not any(s < t for t in out):
            out.append(s)
    return sorted(out, key=simplex_key)


def reference_stage_facets(parent: SimplicialComplex) -> frozenset:
    """The facets of the subdivision of `parent`: its maximal chains, as
    sets of Barycenter tokens.  Chains grow from the vertices one simplex
    at a time, each next simplex one vertex larger, and a chain is maximal
    when it ends at a maximal simplex of the parent."""
    by_size: dict = {}
    for s in parent.simplices:
        by_size.setdefault(len(s), []).append(s)
    tops = set(reference_maximal_simplices(parent))
    chains = [(s,) for s in by_size.get(1, [])]
    full = []
    while chains:
        full += [ch for ch in chains if ch[-1] in tops]
        chains = [ch + (t,) for ch in chains
                  for t in by_size.get(len(ch) + 1, []) if ch[-1] < t]
    return frozenset(frozenset(map(Barycenter, ch)) for ch in full)


def reference_hit(cs, kappa: int, tau) -> frozenset:
    """All (id, n) with n < kappa whose core meets tau."""
    out = set()
    for eid, n, star in cs.elements(kappa):
        if tau & star.core_vertices:
            out.add((eid, n))
    return frozenset(out)


def reference_kernel_carriers(cs, sigma) -> list:
    """The working-stage simplices meeting the core of every element of sigma."""
    cores = []
    for eid, n in sigma:
        if not (0 <= n < cs.num_levels):
            raise UnknownCoverElement(f"no level {n} in this sequence")
        star = dict(cs.levels[n]).get(eid)
        if star is None:
            raise UnknownCoverElement(f"no element {eid!r} at level {n}")
        cores.append(star.core_vertices)
    simplices = cs.working_complex().simplices
    return [tau for tau in simplices if all(tau & c for c in cores)]


def reference_nerve_simplices(cs, kappa: int) -> frozenset:
    """Every subset of the hit set of some maximal working-stage simplex."""
    out: set = set()
    for tau in reference_maximal_simplices(cs.working_complex()):
        hit = sorted(reference_hit(cs, kappa, tau))
        for r in range(1, len(hit) + 1):
            for sub in itertools.combinations(hit, r):
                out.add(frozenset(sub))
    return frozenset(out)


def reference_delta_subcomplex(cs, kappa=None) -> frozenset:
    """The nerve simplices with at most one vertex per level."""
    kappa = _check_kappa(cs, kappa)
    kept = set()
    for s in reference_nerve_simplices(cs, kappa):
        ns = [n for _, n in s]
        if len(set(ns)) == len(ns):
            kept.add(s)
    return frozenset(kept)


def reference_delta_at_carrier(cs, kappa, tau) -> frozenset:
    """The one-per-level subsets of tau's hit set, by a per-level product."""
    kappa = _check_kappa(cs, kappa)
    tau = frozenset(tau)
    if tau not in cs.working_complex().simplices:
        raise UnknownCarrier("tau is not a simplex of the working stage")
    hit = reference_hit(cs, kappa, tau)
    per_level = [[None] + sorted(v for v in hit if v[1] == n) for n in range(kappa)]
    out = set()
    for combo in itertools.product(*per_level):
        s = frozenset(v for v in combo if v is not None)
        if s:
            out.add(s)
    return frozenset(out)


def reference_unindexed_delta(cs, kappa=None) -> frozenset:
    """The one-per-level construction over point sets merged across levels."""
    kappa = _check_kappa(cs, kappa)
    rep: dict = {}
    member_sets: list = []
    for n in range(kappa):
        members = set()
        for eid, star in cs.levels[n]:
            key = star.core_vertices
            if key not in rep:
                rep[key] = f"{eid}@{n}"
            members.add(rep[key])
        member_sets.append(members)
    core_of = {name: key for key, name in rep.items()}
    out = set()
    for tau in reference_maximal_simplices(cs.working_complex()):
        hit = sorted(name for name, key in core_of.items() if tau & key)
        for r in range(1, len(hit) + 1):
            for sub in itertools.combinations(hit, r):
                if all(len(set(sub) & members) <= 1 for members in member_sets):
                    out.add(frozenset(sub))
    return frozenset(out)


# -- bases beyond the fixtures -----------------------------------------------


def dangling_space() -> PolyhedralSpace:
    """A triangle with an edge hanging off one corner: not pure."""
    return PolyhedralSpace(validate_complex([{"a", "b", "c"}, {"c", "d"}]))


def two_triangles_space() -> PolyhedralSpace:
    """Two disjoint triangles: not connected."""
    return PolyhedralSpace(validate_complex([{"a", "b", "c"}, {"x", "y", "z"}]))


def _cyclic_space(names: str, steps) -> PolyhedralSpace:
    """The triangles {v_i, v_(i+p), v_(i+q)} for each (p, q) in steps and
    each i, indices mod len(names)."""
    n = len(names)
    return PolyhedralSpace(validate_complex([
        {names[i], names[(i + p) % n], names[(i + q) % n]}
        for i in range(n) for p, q in steps
    ]))


def sphere_space() -> PolyhedralSpace:
    """The boundary of the tetrahedron: the 2-sphere."""
    return PolyhedralSpace(validate_complex(itertools.combinations("abcd", 3)))


def torus_space() -> PolyhedralSpace:
    """The 7-vertex torus of Möbius and Császár: 7 vertices, 21 edges,
    14 triangles, each pair of vertices joined by an edge."""
    return _cyclic_space("abcdefg", [(1, 3), (2, 3)])


def projective_plane_space() -> PolyhedralSpace:
    """The 6-vertex real projective plane: the hemi-icosahedron, 10 triangles,
    each pair of vertices joined by an edge."""
    return PolyhedralSpace(validate_complex([
        set(t) for t in ("abc", "acd", "ade", "aef", "afb",
                         "bce", "cdf", "deb", "efc", "fbd")
    ]))


def moebius_space() -> PolyhedralSpace:
    """The 5-vertex Möbius band: the triangles of three cyclically
    consecutive vertices."""
    return _cyclic_space("abcde", [(1, 2)])


def gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as int bitmasks, by elimination on
    each row's top bit."""
    pivots: dict = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def betti_numbers(c: SimplicialComplex) -> tuple:
    """Betti numbers of c over GF(2) in dimensions 0 to dim c: the k-chains
    less the ranks of the boundary maps into and out of them."""
    by_dim = [[] for _ in range(c.dim + 1)]
    for s in c.simplices:
        by_dim[len(s) - 1].append(s)
    index = [{s: i for i, s in enumerate(faces)} for faces in by_dim]
    ranks = [0] * (c.dim + 2)
    for k in range(1, c.dim + 1):
        ranks[k] = gf2_rank(
            sum(1 << index[k - 1][s - {v}] for v in s) for s in by_dim[k]
        )
    return tuple(len(by_dim[k]) - ranks[k] - ranks[k + 1] for k in range(c.dim + 1))


# -- all-simplices map check --------------------------------------------------


def reference_check_simplicial_map(m: SimplicialMap) -> bool:
    """True iff every source simplex, not just every facet, has a target
    simplex as its image."""
    return all(m.image(s) in m.target.simplices for s in m.source.simplices)


# -- sorted-scan oracles ------------------------------------------------------
# Canonical images, the selection witness and carrier monotonicity as they
# were decided before the library read images off the hit index, sorted
# only the unsound simplices and checked codimension-one faces alone.


def reference_canonical_images(cs, kappa=None) -> dict:
    """Each working vertex -> the first (id, n) in (level, id) order among
    the first kappa levels whose core holds it."""
    kappa = _check_kappa(cs, kappa)
    order = sorted(
        ((eid, n, star.core_vertices) for eid, n, star in cs.elements(kappa)),
        key=lambda e: (e[1], e[0]),
    )
    return {
        v: next((eid, n) for eid, n, core in order if v in core)
        for v in cs.working_complex().vertices
    }


def reference_why_not_selection(f, cs, kappa=None):
    """The selection witness of a map on a stage of the cover's space: the
    first violation met scanning every source simplex in `simplex_key`
    order and its images in (level, id) order."""
    kappa = _check_kappa(cs, kappa)
    cores = {
        (eid, n): push_star(star, f.subdivision_level).core_vertices
        for eid, n, star in cs.elements(kappa)
    }
    for tau in sorted(f.map.source.simplices, key=simplex_key):
        for element in sorted(f.map.image(tau), key=lambda e: (e[1], e[0])):
            if element not in cores:
                raise UnknownCoverElement(f"image {element!r} names no cover element")
            if not (tau & cores[element]):
                return {
                    "simplex": sorted(vlabel(v) for v in tau),
                    "element": list(element),
                    "reason": "simplex misses the core of an element it maps to",
                }
    return None


def reference_carrier_monotone(stage, table) -> bool:
    """True iff table[tau] is a subcomplex of table[sigma] for every face
    inclusion tau < sigma, testing every pair of stage simplices."""
    return all(
        table[tau].subcomplex_of(table[sigma])
        for tau in stage.simplices
        for sigma in stage.simplices
        if tau < sigma
    )


# -- holder oracles -----------------------------------------------------------
# The library answers "which elements hold stage vertex v?" from one cached
# index per cover and level.  These test every vertex against every core,
# pushed by stage sweeps, and decide the canonical witness by fibers and
# the skeletal predicates by sweeping the stage once per prefix simplex.


def reference_holders(cs, kappa: int, level: int) -> dict:
    """Each vertex of stage `level` in some core of the first kappa levels,
    pushed to `level` -> its elements in (level, id) order."""
    cores = sorted(
        (((eid, n), reference_push_star(star, level).core_vertices)
         for eid, n, star in cs.elements(kappa)),
        key=lambda e: (e[0][1], e[0][0]),
    )
    out = {}
    for v in cs.space.stage_complex(level).vertices:
        held = tuple(element for element, core in cores if v in core)
        if held:
            out[v] = held
    return out


def reference_why_not_canonical(f, cs, kappa=None):
    """The canonical witness by fibers: the first element in (level, id)
    order whose fiber leaves its pushed core, and the least-labelled
    vertex that does."""
    kappa = _check_kappa(cs, kappa)
    cores = {
        (eid, n): reference_push_star(star, f.subdivision_level).core_vertices
        for eid, n, star in cs.elements(kappa)
    }
    fibers: dict = {}
    for v, image in f.map.vertex_images.items():
        if image not in cores:
            raise UnknownCoverElement(f"image {image!r} names no cover element")
        fibers.setdefault(image, set()).add(v)
    for element in sorted(fibers, key=lambda e: (e[1], e[0])):
        stray = fibers[element] - cores[element]
        if stray:
            return {
                "element": list(element),
                "vertex": min(vlabel(v) for v in stray),
                "reason": "star of the fiber is not inside the element",
            }
    return None


def reference_is_skeletal_selection(f, cs, phi) -> bool:
    """Every prefix simplex sigma maps into table k over every carrier of
    its kernel, for each k from |sigma|-1 up to the last level."""
    n = cs.num_levels - 1
    for sigma in f.source.simplices:
        image = f.image(sigma)
        for tau in reference_kernel_carriers(cs, sigma):
            for k in range(len(sigma) - 1, n + 1):
                if image not in phi.tables[k][tau].simplices:
                    return False
    return True


def reference_is_setvalued_selection(f, cs, phi, n: int) -> bool:
    """Every simplex of the level-<=n prefix complex maps into table n over
    every carrier of its kernel."""
    for sigma in delta_subcomplex(cs, n + 1).simplices:
        image = f.image(sigma)
        for tau in reference_kernel_carriers(cs, sigma):
            if image not in phi.tables[n][tau].simplices:
                return False
    return True


# -- search oracle ------------------------------------------------------------
# A search that re-derives, at every node, each unassigned vertex's viable
# families from the assigned components around it (`narrowed`).  The library
# keeps those domains current instead, and must walk exactly this tree.


def reference_search_at_level(cs, kappa: int, level: int):
    """(refinement or None, SearchAudit) of the exhaustive assignment search
    at one subdivision level, recomputing every domain at every node."""
    space = cs.space
    common = max(level, cs.working_level)
    stage = space.stage_complex(level)
    verts = sorted(stage.vertices, key=vlabel)
    index = {v: i for i, v in enumerate(verts)}
    nv = len(verts)

    adj = [0] * nv
    for s in stage.simplices:
        bits = 0
        for v in s:
            bits |= 1 << index[v]
        for v in s:
            adj[index[v]] |= bits

    padded = pad_levels(cs, kappa)
    cores = [
        [push_star(star, common).core_vertices for _, star in padded.levels[fam]]
        for fam in range(kappa)
    ]

    pushed = [
        push_star(StarSet(space, level, frozenset([v])), common).core_vertices
        for v in verts
    ]
    pv = [[0] * kappa for _ in range(nv)]
    for i in range(nv):
        for fam in range(kappa):
            mask = 0
            for j, core in enumerate(cores[fam]):
                if pushed[i] <= core:
                    mask |= 1 << j
            pv[i][fam] = mask

    signatures = [
        tuple(sorted(tuple(sorted(vlabel(v) for v in core)) for core in row))
        for row in cores
    ]
    earlier_twins = [
        [g for g in range(fam) if signatures[g] == signatures[fam]]
        for fam in range(kappa)
    ]

    family_of = [-1] * nv
    comp_root = [-1] * nv
    comp_mask: dict = {}
    comp_poss: dict = {}
    assigned = [0] * kappa
    counters = {"nodes": 0, "prunes": 0}
    solution: list = []

    def narrowed(i: int, fam: int) -> int:
        poss = pv[i][fam]
        if poss == 0:
            return 0
        rest = adj[i] & assigned[fam]
        while rest and poss:
            bit = rest & (-rest)
            rest ^= bit
            root = comp_root[bit.bit_length() - 1]
            poss &= comp_poss[root]
            rest &= ~comp_mask[root]
        return poss

    def extract_solution():
        families = []
        for fam in range(kappa):
            roots = sorted(
                {comp_root[i] for i in range(nv) if family_of[i] == fam}
            )
            row = []
            for root in roots:
                members = frozenset(
                    verts[i] for i in range(nv) if comp_mask[root] >> i & 1
                )
                eid = min((vlabel(v) for v in members))
                row.append((eid, StarSet(space, level, members)))
            families.append(tuple(sorted(row, key=lambda e: e[0])))
        solution.append(tuple(families))

    def dfs(unassigned: int) -> bool:
        if unassigned == 0:
            extract_solution()
            return True
        best = None
        best_options: list = []
        rest = unassigned
        while rest:
            bit = rest & (-rest)
            rest ^= bit
            i = bit.bit_length() - 1
            options = [fam for fam in range(kappa) if narrowed(i, fam)]
            if not options:
                counters["prunes"] += 1
                return False
            if best is None or len(options) < len(best_options):
                best, best_options = i, options
        i = best
        for fam in best_options:
            if assigned[fam] == 0 and any(
                assigned[g] == 0 for g in earlier_twins[fam]
            ):
                continue
            counters["nodes"] += 1
            roots = set()
            rest = adj[i] & assigned[fam]
            while rest:
                bit = rest & (-rest)
                rest ^= bit
                roots.add(comp_root[bit.bit_length() - 1])
            poss = pv[i][fam]
            mask = 1 << i
            for root in roots:
                poss &= comp_poss[root]
                mask |= comp_mask[root]
            if poss == 0:
                counters["prunes"] += 1
                continue
            saved = [(root, comp_mask.pop(root), comp_poss.pop(root)) for root in roots]
            saved_roots = []
            bits = mask
            while bits:
                bit = bits & (-bits)
                bits ^= bit
                j = bit.bit_length() - 1
                saved_roots.append((j, comp_root[j]))
                comp_root[j] = i
            comp_mask[i] = mask
            comp_poss[i] = poss
            family_of[i] = fam
            assigned[fam] |= 1 << i
            if dfs(unassigned ^ (1 << i)):
                return True
            assigned[fam] ^= 1 << i
            family_of[i] = -1
            del comp_mask[i], comp_poss[i]
            for j, old in saved_roots:
                comp_root[j] = old
            for root, m, p in saved:
                comp_mask[root] = m
                comp_poss[root] = p
        return False

    found = dfs((1 << nv) - 1)
    audit = SearchAudit(level, counters["nodes"], counters["prunes"], found)
    if not found:
        return None, audit
    return CRefinement(solution[0], kappa, cs), audit
