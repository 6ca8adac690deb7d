"""Shared generators and independent oracles for the test suite.

Random data is always produced from an explicit random.Random seed so
every suite run is reproducible.  The oracles here recompute expected
values by brute force, independently of the production code paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from polycover import (
    PolyhedralSpace,
    StarRelation,
    StarSet,
    cover_sequence,
    pad_levels,
    push_star,
    stage_point,
    vlabel,
)


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
# The library decides star-set relations from cores alone; these decide them
# by classifying every simplex of the common stage, as the first versions of
# the library did.


def sweep_star_relation(s1: StarSet, s2: StarSet) -> StarRelation:
    """Relation of two star-sets from which stage simplices meet which core:
    a star-set is the union of the interiors of the simplices meeting it."""
    level = max(s1.level, s2.level)
    a = push_star(s1, level).core_vertices
    b = push_star(s2, level).core_vertices
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
            fitting.update(sweep_shrunk(stage, push_star(star, level).core_vertices))
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
