"""Exact points of the geometric realisation, carriers, open vertex stars,
and cross-level star bookkeeping.

All coordinates are `fractions.Fraction`; every predicate here is decided
exactly.  Open subsets of the ground space are represented only as
star-sets: unions of open vertex stars at a fixed subdivision level.
Comparisons across levels re-express the coarser object at the finer
level, never the reverse.

At one level, a star-set contains the open star of a vertex v exactly when
v is in its core, because {v} is itself a simplex of the stage.  So
containment and equality of star-sets are containment and equality of
their cores.  Two star-sets meet iff their cores share a vertex or a stage
edge joins them: a stage simplex meeting both holds u in one core, w in
the other, and the face {u, w}.  So a family is pairwise disjoint iff no
held vertex has two holders and no stage edge joins two different
holders, which one pass over the held vertices decides (`_least_overlap`).
Pushing a star-set one level down reads the simplices containing each
core vertex off the stage's `stars` index.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    SubdivisionStage,
    Simplex,
    initial_stage,
    subdivide,
    vlabel,
)
from .errors import (
    CannotCoarsen,
    IncompleteMap,
    InvalidArgument,
    InvalidComplex,
    InvalidPoint,
    LevelBudgetExceeded,
    LevelMismatch,
)

# Stage labels join member labels with "," inside "b(...)", and simplex
# tokens join vertex labels with "|": base labels must avoid all four.
RESERVED_LABEL_CHARS = frozenset(",()|")

# Larger stages are refused before they are built: the triangle's stage 6
# has 140,161 simplices, its stage 7 would take gigabytes for 840,193.
MAX_STAGE_SIMPLICES = 250_000


def _subdivision_size(c: SimplicialComplex) -> int:
    """Simplices of the subdivision of c, one per chain of faces.  A chain
    ending at a j-vertex simplex is the simplex alone or a chain ending at
    one of its C(j, i) i-vertex faces, then the simplex: 1, 3, 13, 75, ..."""
    chains = [0]
    for j in range(1, c.dim + 2):
        total = binom = 1
        for i in range(1, j):
            binom = binom * (j - i + 1) // i
            total += binom * chains[i]
        chains.append(total)
    return sum(chains[len(s)] for s in c.simplices)


class PolyhedralSpace:
    """The ground space |K|: a base complex and its subdivision tower.

    Stages are computed on demand and cached; the tower is deterministic,
    so two spaces with equal bases have identical stages.  A stage of
    more than MAX_STAGE_SIMPLICES simplices raises LevelBudgetExceeded.
    Base vertex labels must be distinct and free of RESERVED_LABEL_CHARS,
    so that every stage labels its vertices and simplices injectively;
    InvalidComplex is raised otherwise.
    """

    def __init__(self, base: SimplicialComplex):
        names = base.by_label
        if len(names) < len(base.vertices):
            raise InvalidComplex("two base vertices have the same label")
        bad = min((n for n in names if not RESERVED_LABEL_CHARS.isdisjoint(n)), default=None)
        if bad is not None:
            raise InvalidComplex(f"base vertex label {bad!r} contains one of , ( ) |")
        self.base = base
        self._stages: list[SubdivisionStage] = [initial_stage(base)]

    def stage(self, level: int) -> SubdivisionStage:
        if level < 0:
            raise InvalidArgument("stage levels are nonnegative")
        while len(self._stages) <= level:
            size = _subdivision_size(self._stages[-1].complex)
            if size > MAX_STAGE_SIMPLICES:
                raise LevelBudgetExceeded(
                    f"stage {len(self._stages)} would have {size} simplices, "
                    f"over the limit of {MAX_STAGE_SIMPLICES}"
                )
            self._stages.append(subdivide(self._stages[-1]))
        return self._stages[level]

    def stage_complex(self, level: int) -> SimplicialComplex:
        return self.stage(level).complex

    def vertex_at(self, level: int, key):
        """The stage vertex with this id, or else with this label."""
        stage = self.stage_complex(level)
        if key in stage.vertices:
            return key
        if not isinstance(key, str):
            raise InvalidArgument(f"{key!r} is not a vertex of stage {level}")
        if key not in stage.by_label:
            raise InvalidArgument(f"no vertex labelled {key!r} at level {level}")
        return stage.by_label[key]

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PolyhedralSpace) and self.base == other.base
        )

    def __hash__(self) -> int:
        return hash(self.base)

    def __repr__(self) -> str:
        return f"PolyhedralSpace(base={self.base!r})"


class BarycentricPoint(NamedTuple):
    """A point of a geometric realisation in exact barycentric coordinates.

    `complex` is the complex the point lives on; for points on a stage of a
    PolyhedralSpace, `level` records that stage.  The level is carried
    through affine maps unchanged and is inert for non-stage targets.
    """

    level: int
    coords: dict
    complex: SimplicialComplex


def _to_fraction(x) -> Fraction:
    """x as an exact Fraction, or InvalidPoint naming the value."""
    if isinstance(x, float):
        raise InvalidPoint("float coordinates are not allowed; use Fraction or str")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidPoint(f"coordinate {x!r} is not an exact rational") from None


def stage_point(space: PolyhedralSpace, level: int, coords: dict) -> BarycentricPoint:
    """Build a point on the level-m stage; keys may be vertex ids or labels."""
    stage = space.stage(level)
    resolved = {space.vertex_at(level, k): _to_fraction(c) for k, c in coords.items()}
    return BarycentricPoint(level, resolved, stage.complex)


def carrier(p: BarycentricPoint) -> Simplex:
    """The unique simplex whose relative interior contains p."""
    total = Fraction(0)
    support = set()
    for v, c in p.coords.items():
        c = _to_fraction(c)
        if c < 0:
            raise InvalidPoint(f"negative coordinate at {vlabel(v)}")
        total += c
        if c > 0:
            support.add(v)
    if total != 1:
        raise InvalidPoint(f"coordinates sum to {total}, expected 1")
    s = frozenset(support)
    if s not in p.complex:
        raise InvalidPoint("support is not a simplex of the underlying complex")
    return s


def barycenter_point(space: PolyhedralSpace, level: int, s: Simplex) -> BarycentricPoint:
    """The uniform-weight point in the relative interior of s."""
    s = frozenset(s)
    w = Fraction(1, len(s))
    return stage_point(space, level, {v: w for v in s})


def push_point(
    space: PolyhedralSpace, p: BarycentricPoint, target_level: int
) -> BarycentricPoint:
    """Re-express a stage point at a finer stage (the identical point of |K|).

    One step works by the descending-coordinate staircase: sorting the
    support by coordinate (ties in any order), the prefix sets form a chain,
    and the point is the combination of their barycenters with weights
    i*(λ_i - λ_{i+1}), which is 0 for a prefix splitting a tie.
    """
    if target_level < p.level:
        raise CannotCoarsen("points can only be pushed to finer levels")
    if p.complex != space.stage_complex(p.level):
        raise InvalidPoint("point does not live on a stage of this space")
    q = p
    for level in range(p.level, target_level):
        carrier(q)
        tokens = space.stage_complex(level).barycenters
        items = sorted(q.coords.items(), key=lambda vc: -vc[1])
        items = [(v, c) for v, c in items if c > 0]
        coords = {}
        prefix: list = []
        for i, (v, c) in enumerate(items):
            prefix.append(v)
            nxt = items[i + 1][1] if i + 1 < len(items) else Fraction(0)
            weight = (c - nxt) * (i + 1)
            if weight > 0:
                coords[tokens[frozenset(prefix)]] = weight
        q = BarycentricPoint(level + 1, coords, space.stage_complex(level + 1))
    return q


class StarSet(NamedTuple):
    """A union of open vertex stars at a fixed subdivision level."""

    space: PolyhedralSpace
    level: int
    core_vertices: frozenset

    def __repr__(self) -> str:
        names = ",".join(sorted(vlabel(v) for v in self.core_vertices))
        return f"StarSet(level={self.level}, stars={{{names}}})"


def star_set(space: PolyhedralSpace, level: int, cores) -> StarSet:
    """Build a star-set; core entries may be vertex ids or labels."""
    resolved = {space.vertex_at(level, key) for key in cores}
    if not resolved:
        space.stage(level)
        raise InvalidArgument("a star-set needs at least one core vertex")
    return StarSet(space, level, frozenset(resolved))


def full_star(space: PolyhedralSpace, level: int) -> StarSet:
    """The whole space as a star-set: stars of every stage vertex."""
    return StarSet(space, level, space.stage_complex(level).vertices)


def star_contains(s: StarSet, p: BarycentricPoint) -> bool:
    """True iff p lies in the union of s's open vertex stars."""
    if p.level != s.level or p.complex != s.space.stage_complex(s.level):
        raise LevelMismatch(
            f"point at level {p.level} vs star-set at level {s.level}; push first"
        )
    return bool(carrier(p) & s.core_vertices)


def push_star(s: StarSet, target_level: int) -> StarSet:
    """Re-express a star-set at a finer level (the identical point set).

    A level-m vertex star equals the union of the level-(m+1) stars of the
    barycenters of all simplices containing the vertex.  A push to the
    star-set's own level returns it unchanged.
    """
    if target_level < s.level:
        raise CannotCoarsen("star-sets can only be pushed to finer levels")
    if target_level == s.level:
        return s
    core = s.core_vertices
    for level in range(s.level, target_level):
        stage = s.space.stage_complex(level)
        faces = chain.from_iterable(map(stage.stars.__getitem__, core))
        core = frozenset(map(stage.barycenters.__getitem__, faces))
    return StarSet(s.space, target_level, core)


class StarRelation(Enum):
    DISJOINT = "disjoint"
    S1_SUBSET_S2 = "s1_subset_s2"
    S2_SUBSET_S1 = "s2_subset_s1"
    OVERLAPPING = "overlapping"
    EQUAL = "equal"


def star_relation(s1: StarSet, s2: StarSet) -> StarRelation:
    """Exact point-set relation between two star-sets.

    Decided at a common level, where a star-set is the union of the
    interiors of the simplices meeting its core.  Equality and containment
    follow from the cores alone (see the module docstring).  Otherwise the
    two overlap iff the cores share a vertex or an edge joins them: a
    simplex meeting both holds u in one, w in the other, and the face {u, w}.
    """
    if s1.space is not s2.space and s1.space != s2.space:
        raise InvalidArgument("star-sets live on different spaces")
    level = max(s1.level, s2.level)
    a = push_star(s1, level).core_vertices
    b = push_star(s2, level).core_vertices
    if a == b:
        return StarRelation.EQUAL
    if a <= b:
        return StarRelation.S1_SUBSET_S2
    if b <= a:
        return StarRelation.S2_SUBSET_S1
    near = chain.from_iterable(map(s1.space.stage_complex(level).neighbours.get, a, repeat(())))
    overlap = not a.isdisjoint(b) or not b.isdisjoint(near)
    return StarRelation.OVERLAPPING if overlap else StarRelation.DISJOINT


def _least_overlap(stage: SimplicialComplex, families: list) -> tuple | None:
    """The least (n, i, j), i < j, such that star-sets i and j of family n
    overlap at this stage, or None.

    Per family, one index maps each held stage vertex to the elements
    holding it, in family order.  Two elements overlap iff both hold one
    vertex or they hold the two ends of a stage edge.  So the least pair
    is the least of the first two holders of each vertex and the first
    holders of each edge's two ends, where these differ: any other pair
    across an edge is no less than one of those.  A family whose cores
    are pairwise disjoint and whose held vertices no edge joins is passed
    at once, and a vertex none of whose neighbours is held is skipped
    without a walk over them."""
    adj = stage.neighbours
    for n, cores in enumerate(families):
        union = frozenset().union(*cores)
        near = chain.from_iterable(map(adj.get, union, repeat(())))
        if sum(map(len, cores)) == len(union) and union.isdisjoint(near):
            continue
        held: dict = {}
        for i, core in enumerate(cores):
            for v in core:
                held.setdefault(v, []).append(i)
        none = least = (len(cores), 0)
        for v, mine in held.items():
            i = mine[0]
            if len(mine) > 1:
                least = min(least, (i, mine[1]))
            near = adj.get(v, ())
            if not held.keys().isdisjoint(near):
                for w in near:
                    theirs = held.get(w)
                    if theirs is not None and i < theirs[0]:
                        least = min(least, (i, theirs[0]))
        if least != none:
            return (n, *least)
    return None


def star_subset(s1: StarSet, s2: StarSet) -> bool:
    return star_relation(s1, s2) in (StarRelation.S1_SUBSET_S2, StarRelation.EQUAL)


def realize_map(g: SimplicialMap, p: BarycentricPoint) -> BarycentricPoint:
    """Apply the affine realisation of g to p: sum coordinates over fibers."""
    support = carrier(p)
    if support not in g.source:
        raise InvalidPoint("point does not lie on the source complex")
    coords: dict = {}
    for v, c in p.coords.items():
        if c == 0:
            continue
        if v not in g.vertex_images:
            raise IncompleteMap(f"no image for vertex {vlabel(v)}")
        w = g.vertex_images[v]
        coords[w] = coords.get(w, Fraction(0)) + c
    return BarycentricPoint(p.level, coords, g.target)
