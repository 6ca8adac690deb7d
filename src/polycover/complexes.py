"""Finite abstract simplicial complexes: face closure, skeleta, cones,
barycentric subdivision, and simplicial maps.

Vertices are opaque hashable ids.  Simplices are nonempty frozensets of
vertex ids.  A complex is its facets, the maximal simplices: it keeps the
maximal sets of the family it is built from, so every builder hands over
facets (a stage its flags, a nerve its hit sets, a one-per-level complex
its products), and the face-closed family is expanded only when
`simplices` is read.  Membership, vertices, edges, dimension and
inclusion are read off the facets.  A map is simplicial iff it sends
every source facet to a target simplex, since the target is face-closed
and a face's image lies inside its facet's.
Subdivision vertices are `Barycenter` tokens naming the simplex they
subdivide, their carrier `b.of`, so stages are reproducible and maps
across stages are well-defined.  A token is the 1-tuple of its simplex,
hashed and compared in C by value.  A tower makes each token once, one per
parent simplex, and every flag shares it; a token's label is built once,
from its members' sorted labels by `barycenter_label`, and kept on it.
`subdivide` looks up each parent facet's face tokens once, indexed by
the mask of positions they take in the facet, and makes the facet's
flags by picking the masks of each ordering's prefixes from a table
computed once per facet size and call.  Adjacency (`neighbours`) is one
pass over the facets.
Every process compiles what it imports, so no class here is a dataclass:
a complex, which keeps its indexes in cached properties, is a plain
class with hand-written equality (facets, within the class) and hashing,
and maps and stages are named tuples.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import ComposeError, IncompleteMap, InvalidComplex, VertexClash

Vertex = Hashable
Simplex = frozenset


class Barycenter(tuple):
    """Vertex token for the barycenter of a previous-stage simplex `of`."""

    of = property(itemgetter(0))

    def __new__(cls, of: Simplex):
        return tuple.__new__(cls, (of,))

    def __getnewargs__(self):
        return (self.of,)

    @cached_property
    def label(self) -> str:
        return barycenter_label(sorted(map(vlabel, self.of)))

    def __repr__(self) -> str:
        return self.label


def vlabel(v) -> str:
    """Canonical printable label of a vertex id (injective per stage)."""
    if isinstance(v, Barycenter):
        return v.label
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int):
        return f"{v[0]}@{v[1]}"
    return str(v)


def barycenter_label(names) -> str:
    """The label of the barycenter of a simplex with these sorted vertex labels."""
    return "b(" + ",".join(names) + ")"


def simplex_key(s: Simplex):
    """Sort key ordering simplices by dimension, then by vertex labels."""
    return (len(s), sorted(map(vlabel, s)))


def simplex_label(s: Simplex) -> str:
    """Printable token for a simplex: its vertex labels joined by '|'."""
    return "|".join(sorted(map(vlabel, s)))


class SimplicialComplex:
    """A finite simplicial complex, stored as its facets: the maximal sets
    of the family it is built from.

    Any family of nonempty vertex sets builds one, its faces included or
    not, so equality and hashing compare facets, and a complex equals
    only another complex.  The faces are expanded into `simplices` only
    when read; `s in c` asks whether s lies in some facet.  The empty
    complex (no simplices at all) is a legal value; it arises as the
    carrier-indexed complex of an uncovered carrier.  `validate_complex`
    is the checked entry point for raw user input.
    """

    def __init__(self, facets):
        self.facets = _maximal(facets)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.facets,))

    @cached_property
    def simplices(self) -> frozenset:
        """Every face of every facet."""
        return face_closure(self.facets)

    @cached_property
    def vertices(self) -> frozenset:
        return frozenset().union(*self.facets)

    @cached_property
    def _facets_at(self) -> dict:
        """Each vertex -> the facets that contain it."""
        out: dict = {}
        for f in self.facets:
            for v in f:
                out.setdefault(v, []).append(f)
        return out

    @cached_property
    def neighbours(self) -> dict:
        """Each vertex -> the vertices joined to it by an edge."""
        out: dict = {v: set() for v in self.vertices}
        for f in self.facets:
            for v in f:
                out[v] |= f
        for v, near in out.items():
            near.discard(v)
        return out

    @cached_property
    def stars(self) -> dict:
        """Each vertex -> the simplices that contain it."""
        out: dict = {v: [] for v in self.vertices}
        for s in self.simplices:
            for v in s:
                out[v].append(s)
        return out

    @cached_property
    def by_label(self) -> dict:
        """Each vertex label -> its vertex."""
        return {vlabel(v): v for v in self.vertices}

    @cached_property
    def barycenters(self) -> dict:
        """Each simplex -> its Barycenter token, the next stage's vertex."""
        return {s: Barycenter(s) for s in self.simplices}

    @property
    def dim(self) -> int:
        """Max simplex cardinality minus one; -1 for the empty complex."""
        return max(map(len, self.facets), default=0) - 1

    def __contains__(self, s) -> bool:
        """True iff s is a simplex: a facet, or nonempty and inside a facet.
        Such a facet holds every vertex of s, so the facets at any one
        vertex of s decide."""
        s = frozenset(s)
        if s in self.facets:
            return True
        return bool(s) and any(s < f for f in self._facets_at.get(next(iter(s)), ()))

    def subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return all(f in other for f in self.facets)

    def sorted_simplices(self) -> list:
        return sorted(self.simplices, key=simplex_key)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.facets)} facets, dim={self.dim})"


def _maximal(sets) -> frozenset:
    """The sets of the family inside no other.  Larger sets are kept first,
    and a set is dropped when a kept one holds it; such a set holds each
    of its vertices, so the kept sets at any one vertex decide.  A family
    whose sets all have one size is its own maximal sets."""
    family = frozenset(sets)
    if len(set(map(len, family))) <= 1:
        return family
    kept, at = [], {}
    for s in sorted(family, key=len, reverse=True):
        if not any(s < f for f in at.get(next(iter(s)), ())):
            kept.append(s)
            for v in s:
                at.setdefault(v, []).append(s)
    return frozenset(kept)


EMPTY_COMPLEX = SimplicialComplex(frozenset())


def face_closure(sets: Iterable[Iterable[Vertex]]) -> frozenset:
    """All nonempty subsets of the given vertex sets."""
    out = set()
    for raw in sets:
        s = tuple(raw)
        for r in range(1, len(s) + 1):
            out.update(map(frozenset, itertools.combinations(s, r)))
    return frozenset(out)


def validate_complex(raw: Iterable[Iterable[Vertex]]) -> SimplicialComplex:
    """The complex of the given vertex sets and their faces; idempotent on
    closed input."""
    members = [frozenset(s) for s in raw]
    if not members:
        raise InvalidComplex("a complex needs at least one simplex")
    for s in members:
        if not s:
            raise InvalidComplex("simplices must be nonempty vertex sets")
    return SimplicialComplex(members)


def skeleton(c: SimplicialComplex, k: int) -> SimplicialComplex:
    """The subcomplex of simplices with at most k+1 vertices."""
    if k < 0:
        return EMPTY_COMPLEX
    return SimplicialComplex(frozenset(s for s in c.simplices if len(s) <= k + 1))


def coned(c: SimplicialComplex, v: Vertex) -> SimplicialComplex:
    """Cone formula without the freshness check: c with every facet
    extended by v, or {v} over the empty complex.  Idempotent when v is
    already an apex of c."""
    return SimplicialComplex([f | {v} for f in c.facets] or [frozenset([v])])


def cone(c: SimplicialComplex, v: Vertex) -> SimplicialComplex:
    """The cone over c with fresh apex v."""
    if v in c.vertices:
        raise VertexClash(f"vertex {vlabel(v)} already belongs to the complex")
    return coned(c, v)


def maximal_simplices(c: SimplicialComplex) -> list:
    """The facets of c, in canonical order."""
    return sorted(c.facets, key=simplex_key)


class SimplicialMap(NamedTuple):
    """A vertex map between complexes, intended to send simplices to simplices.

    Validity is checked by `check_simplicial_map`, never assumed, so that
    deliberately broken maps can be built and interrogated.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_images: Mapping

    def image(self, s: Simplex) -> Simplex:
        try:
            return frozenset(map(self.vertex_images.__getitem__, s))
        except KeyError as missing:
            raise IncompleteMap(
                f"no image for vertex {vlabel(missing.args[0])}"
            ) from None


def check_complete(m: SimplicialMap, vertices: frozenset | None = None) -> None:
    """Raise IncompleteMap naming the least-labelled vertex of the source (or
    of `vertices`) that has no image, so the message is one per input."""
    pool = m.source.vertices if vertices is None else vertices
    missing = min(pool.difference(m.vertex_images), key=vlabel, default=None)
    if missing is not None:
        raise IncompleteMap(f"no image for vertex {vlabel(missing)}")


def check_simplicial_map(m: SimplicialMap) -> bool:
    """True iff the image of every source simplex is a target simplex.

    The target is face-closed and a face's image lies inside the image of
    any facet holding it, so the source facets decide.
    """
    check_complete(m)
    images = m.vertex_images.__getitem__
    return all(frozenset(map(images, s)) in m.target for s in m.source.facets)


def compose_maps(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """The composite map outer∘inner."""
    if inner.target != outer.source:
        raise ComposeError("inner target differs from outer source")
    images = {v: outer.vertex_images[w] for v, w in inner.vertex_images.items()}
    return SimplicialMap(inner.source, outer.target, images)


class SubdivisionStage(NamedTuple):
    """One stage of the barycentric subdivision tower.

    Level-m vertices are Barycenter tokens over level-(m-1) simplices, each
    naming its carrier as `b.of`; level-m simplices are the chains of
    level-(m-1) simplices, and its facets the full flags of level-(m-1)
    facets.  Base vertices subdivide nothing.
    """

    level: int
    complex: SimplicialComplex


def initial_stage(c: SimplicialComplex) -> SubdivisionStage:
    return SubdivisionStage(0, c)


def subdivide(stage: SubdivisionStage) -> SubdivisionStage:
    """The next barycentric subdivision stage.

    New simplices are exactly the chains s0 ⊂ s1 ⊂ … ⊂ sk of current-stage
    simplices, each chain member replaced by its Barycenter token.  The
    maximal chains are the full flags of the facets: one per ordering of a
    facet's vertices, made of the barycenters of its prefixes (see the
    module docstring for how they are assembled).
    """
    tokens, facets = stage.complex.barycenters, stage.complex.facets
    patterns = {k: _flag_patterns(k) for k in set(map(len, facets))}
    flags = []
    for f in facets:
        masks, prefixes = patterns[len(f)]
        faces = [tokens[frozenset(itertools.compress(f, mask))] for mask in masks]
        flags += [frozenset(map(faces.__getitem__, p)) for p in prefixes]
    return SubdivisionStage(stage.level + 1, SimplicialComplex(flags))


def _flag_patterns(k: int) -> tuple:
    """For a k-vertex facet: the membership mask of each nonempty set of
    positions, the one at index m - 1 for the positions of the bits of m,
    and for each ordering of the positions, in `itertools.permutations`
    order, the indexes of its prefixes' masks."""
    masks = [[m >> i & 1 for i in range(k)] for m in range(1, 1 << k)]
    orders = itertools.permutations(range(k))
    return masks, [[m - 1 for m in itertools.accumulate(1 << i for i in o)] for o in orders]
