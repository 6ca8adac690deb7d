"""Indexed sequences of star-set covers, kernels, nerves, and the
one-vertex-per-level subcomplex of the indexed nerve.

A cover sequence indexes finitely many families of star-sets over one
polyhedral space.  Nerve vertices are (element-id, level) pairs: the
families enter as a disjoint union, so equal point sets at different
levels stay distinct vertices.  `unindexed_delta` is the deliberately
broken variant that deduplicates across levels; it exists as the
counterexample testbed for prefix monotonicity.

Every kernel decision reduces to one fact: a point with carrier tau lies
in a star-set iff tau meets its core.  So one index, `CoverSequence.holders`
(each stage vertex -> the elements whose cores hold it), answers them all.
The kernel of a vertex set is nonempty iff the set lies in the hit set of
some working-stage simplex, the union of its vertices' holders.  A face's
hit set lies inside that of any facet holding it, so nerves and
one-per-level complexes, plain complexes, are built from the facets' hit
sets alone, once per cover, kind and prefix (`CoverSequence.nerves`):
a nerve's facets are the maximal facet hit sets.  One-per-level complexes
are joins: the one-per-level subsets of a hit set are the faces of the
join of its per-level parts, whose facets are the products taking one
element from each level the hit set meets (`_products`); a hit set with
one element per level is its own single product.
Containment reads the same index: at one level, the elements containing
a star-set are those holding every vertex of its core
(`CoverSequence.containing`).  These caches, and the families pushed to
finer levels, are plain attributes that a cover makes empty at
construction, so they live and die with their cover; equality and hashing
read only its space, working level and levels, and a cover equals only
another cover.
Coverage is decided in one place, `uncovered_vertex`.
"""

from __future__ import annotations

import itertools

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    Simplex,
    face_closure,
    simplex_key,
    vlabel,
)
from .errors import (
    EmptyPrefix,
    InvalidArgument,
    NoCoverage,
    NotARefinement,
    UnknownCarrier,
    UnknownCoverElement,
)
from .realization import PolyhedralSpace, push_star

FULL_NERVE = "full_nerve"
DELTA = "delta"


class CoverSequence:
    """Finitely many levels of named star-sets over one space.

    All star-sets are normalized to a single working level at construction.
    Element ids are unique within a level; the identity of a nerve vertex
    is the pair (id, level).  The union over all levels covers the space;
    individual levels need not cover on their own.  Two sequences are
    equal when their space, working level and levels are.

    `nerves` maps (kind, kappa) to the complex of that kind over the first
    kappa levels, filled by `nerve` and `delta_subcomplex` on first use.
    """

    __slots__ = ("space", "working_level", "levels", "nerves", "_pushed", "_holders",
                 "__weakref__")

    def __init__(self, space: PolyhedralSpace, working_level: int, levels: tuple):
        self.space = space
        self.working_level = working_level
        self.levels = levels
        self.nerves, self._pushed, self._holders = {}, {}, {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.working_level, self.levels) == (
            other.space, other.working_level, other.levels
        )

    def __hash__(self) -> int:
        return hash((self.space, self.working_level, self.levels))

    def __repr__(self) -> str:
        return (
            f"CoverSequence(space={self.space!r}, working_level={self.working_level!r}, "
            f"levels={self.levels!r})"
        )

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def elements(self, kappa: int | None = None):
        """Iterate (id, level, star) over the first kappa levels."""
        end = self.num_levels if kappa is None else kappa
        for n in range(end):
            for eid, star in self.levels[n]:
                yield eid, n, star

    def working_complex(self) -> SimplicialComplex:
        return self.space.stage_complex(self.working_level)

    def pushed(self, kappa: int, level: int) -> tuple:
        """The first kappa families with every star-set re-expressed at
        `level`.  Each distinct star-set is pushed once per cover and level;
        the families are kept, per (kappa, level), as long as the cover.
        At the working level they are the cover's own."""
        if level == self.working_level:
            return self.levels[:kappa]
        key = (kappa, level)
        if key not in self._pushed:
            rows = self.levels[:kappa]
            stars = dict.fromkeys(star for row in rows for _, star in row)
            stars = {star: push_star(star, level) for star in stars}
            self._pushed[key] = tuple(
                tuple((eid, stars[star]) for eid, star in row) for row in rows
            )
        return self._pushed[key]

    def holders(self, kappa: int, level: int) -> dict:
        """Each vertex of stage `level` in some core of the first kappa
        levels, pushed to `level` -> the (id, n) of every element whose core
        holds it, least (n, id) first.  Kept as long as the cover."""
        key = (kappa, level)
        if key not in self._holders:
            held: dict = {}
            for n, row in enumerate(self.pushed(kappa, level)):
                for eid, star in row:
                    element = (eid, n)
                    for v in star.core_vertices:
                        held.setdefault(v, []).append(element)
            self._holders[key] = {v: tuple(h) for v, h in held.items()}
        return self._holders[key]

    def containing(self, kappa: int, level: int, core) -> frozenset:
        """The (id, n) of every element of the first kappa levels whose core,
        pushed to `level`, holds every vertex of the nonempty stage-`level`
        `core`: the elements containing the star-set with that core."""
        held = list(map(self.holders(kappa, level).get, core, itertools.repeat(())))
        return frozenset(held[0]).intersection(*held[1:])


def cover_sequence(space: PolyhedralSpace, levels) -> CoverSequence:
    """Normalize and validate a cover sequence.

    `levels` is a list of families; each family lists (id, StarSet) pairs.
    Raises NoCoverage when some stage vertex lies in no element at all.
    """
    if not levels:
        raise EmptyPrefix("a cover sequence needs at least one level")
    working = 0
    for family in levels:
        for _, star in family:
            if star.space != space:
                raise InvalidArgument("star-set belongs to a different space")
            working = max(working, star.level)
    _check_ids(levels)
    normalized = []
    for family in levels:
        row = [(eid, push_star(star, working)) for eid, star in family]
        normalized.append(tuple(sorted(row, key=lambda e: e[0])))
    cores = (star.core_vertices for family in normalized for _, star in family)
    missing = uncovered_vertex(space.stage_complex(working), cores)
    if missing is not None:
        raise NoCoverage(f"vertex {vlabel(missing)} lies in no cover element")
    return CoverSequence(space, working, tuple(normalized))


def _check_ids(levels) -> None:
    """Refuse an element id that is not a string, or one that repeats an
    earlier id of its level, at the first offender in family order."""
    for n, family in enumerate(levels):
        seen = set()
        for eid, _ in family:
            if not isinstance(eid, str):
                raise InvalidArgument("element ids must be strings")
            if eid in seen:
                raise InvalidArgument(f"duplicate element id {eid!r} at level {n}")
            seen.add(eid)


def uncovered_vertex(stage: SimplicialComplex, cores):
    """The least-labelled stage vertex in none of the cores, or None: the
    star-sets with these cores cover the space iff it is None."""
    return min(stage.vertices.difference(*cores), key=vlabel, default=None)


def pad_levels(cs: CoverSequence, count: int) -> CoverSequence:
    """Extend the sequence to `count` levels by repeating the last family."""
    if count <= cs.num_levels:
        return cs
    levels = cs.levels + (cs.levels[-1],) * (count - cs.num_levels)
    return CoverSequence(cs.space, cs.working_level, levels)


def level_covers(cs: CoverSequence, n: int) -> bool:
    """True iff level n covers the space on its own."""
    cores = (star.core_vertices for _, star in cs.levels[n])
    return uncovered_vertex(cs.working_complex(), cores) is None


def _check_kappa(cs: CoverSequence, kappa: int | None) -> int:
    if kappa is None:
        return cs.num_levels
    if kappa < 1:
        raise EmptyPrefix("kappa must be at least 1")
    if kappa > cs.num_levels:
        raise InvalidArgument(f"kappa={kappa} exceeds the {cs.num_levels} levels present")
    return kappa


def kernel_query(cs: CoverSequence, sigma) -> Simplex | None:
    """The least working-stage simplex meeting every sigma element, or None.

    The returned simplex witnesses a nonempty kernel: every point in its
    relative interior lies in all the named star-sets.  The kernel's
    carriers are the simplices whose hit set holds sigma.
    """
    for eid, n in sigma:
        if not (0 <= n < cs.num_levels):
            raise UnknownCoverElement(f"no level {n} in this sequence")
        if eid not in dict(cs.levels[n]):
            raise UnknownCoverElement(f"no element {eid!r} at level {n}")
    sigma = frozenset(sigma)
    holders = cs.holders(cs.num_levels, cs.working_level)
    hits = _hits(cs.working_complex().simplices, holders)
    return min(
        (tau for tau, hit in hits.items() if sigma <= hit), key=simplex_key, default=None
    )


def _hits(simplices, holders: dict) -> dict:
    """Each given simplex -> its hit set, the union of its vertices'
    holders.  Few hit sets are distinct; equal ones are one object."""
    shared: dict = {}
    out = {}
    for s in simplices:
        hit = frozenset().union(*map(holders.get, s, itertools.repeat(())))
        out[s] = shared.setdefault(hit, hit)
    return out


def _facet_hit_sets(cs: CoverSequence, kappa: int) -> set:
    """The distinct nonempty hit sets of the working stage's facets within
    the first kappa levels: every hit set of the stage lies inside one."""
    holders = cs.holders(kappa, cs.working_level)
    return set(_hits(cs.working_complex().facets, holders).values()) - {frozenset()}


def _products(hit) -> list:
    """The facets of the join of hit's per-level parts: each set taking one
    element from every level that hit meets (none for an empty hit).  A
    hit set with one element per level is its own single product."""
    levels = {n for _, n in hit}
    if len(levels) == len(hit):
        return [hit] if hit else []
    parts = [[e for e in hit if e[1] == n] for n in levels]
    return [frozenset(p) for p in itertools.product(*parts)]


def _indexed_nerve(cs: CoverSequence, kappa: int | None, kind: str) -> SimplicialComplex:
    """The complex of this kind over the first kappa levels, built from the
    facets' hit sets on the first request and kept in `cs.nerves`."""
    kappa = _check_kappa(cs, kappa)
    built = cs.nerves.get((kind, kappa))
    if built is None:
        hits = _facet_hit_sets(cs, kappa)
        if kind == DELTA:
            hits = [p for h in hits for p in _products(h)]
        built = cs.nerves[kind, kappa] = SimplicialComplex(hits)
    return built


def nerve(cs: CoverSequence, kappa: int | None = None) -> SimplicialComplex:
    """The nerve of the first kappa levels, indexed by (id, level) pairs.

    Simplices are exactly the kernel-nonempty vertex sets.  Since the
    interiors of working-stage simplices partition the space, these are
    the subsets of some simplex's hit set, hence of some facet's.
    """
    return _indexed_nerve(cs, kappa, FULL_NERVE)


def delta_subcomplex(cs: CoverSequence, kappa: int | None = None) -> SimplicialComplex:
    """The subcomplex of the nerve with at most one vertex per level."""
    return _indexed_nerve(cs, kappa, DELTA)


def delta_at_carrier(
    cs: CoverSequence, kappa: int | None, tau: Simplex
) -> SimplicialComplex:
    """The one-per-level simplices whose kernel contains the interior of tau.

    This is the carrier-indexed value shared by every point with carrier
    tau; it may be empty when the prefix misses tau entirely.
    """
    kappa = _check_kappa(cs, kappa)
    tau = frozenset(tau)
    if tau not in cs.working_complex():
        raise UnknownCarrier("tau is not a simplex of the working stage")
    hit = _hits([tau], cs.holders(kappa, cs.working_level))[tau]
    return SimplicialComplex(_products(hit))


def refinement_map(
    fine: CoverSequence, coarse: CoverSequence, kappa: int | None = None
) -> SimplicialMap:
    """Level-preserving vertex map sending each fine element to a coarse
    element containing it (smallest id among the candidates).

    The result is a simplicial map between the one-per-level complexes
    (and between the full nerves): kernels only grow along containment.
    """
    if fine.space != coarse.space:
        raise InvalidArgument("cover sequences live on different spaces")
    kappa_f = _check_kappa(fine, kappa)
    kappa_c = _check_kappa(coarse, kappa)
    if kappa_f != kappa_c:
        raise InvalidArgument("prefix lengths differ")
    level = max(fine.working_level, coarse.working_level)
    images = {}
    for n, row in enumerate(fine.pushed(kappa_f, level)):
        for eid, star in row:
            held = coarse.containing(kappa_c, level, star.core_vertices)
            fits = [c for c in held if c[1] == n]
            if not fits:
                raise NotARefinement(
                    f"element {eid!r} at level {n} fits inside no coarse element"
                )
            images[(eid, n)] = min(fits)
    return SimplicialMap(
        delta_subcomplex(fine, kappa_f), delta_subcomplex(coarse, kappa_c), images
    )


def unindexed_delta(cs: CoverSequence, kappa: int | None = None) -> SimplicialComplex:
    """The one-per-level construction over deduplicated raw point sets.

    Vertices are element point sets, merged across levels; a vertex counts
    against every level containing that point set.  Provided solely as the
    counterexample testbed: prefixes of this variant are not monotone.
    """
    kappa = _check_kappa(cs, kappa)
    rep: dict = {}
    name = {
        (eid, n): rep.setdefault(star.core_vertices, vlabel((eid, n)))
        for eid, n, star in cs.elements(kappa)
    }
    member_sets = [{name[eid, n] for eid, _ in cs.levels[n]} for n in range(kappa)]
    hits = _facet_hit_sets(cs, kappa)
    closure = face_closure({frozenset(name[e] for e in hit) for hit in hits})
    kept = (s for s in closure if all(len(s & m) <= 1 for m in member_sets))
    return SimplicialComplex(frozenset(kept))
