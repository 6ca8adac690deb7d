"""Finite abstract simplicial complexes: face closure, skeleta, cones,
barycentric subdivision, and simplicial maps.

Vertices are opaque hashable ids.  Simplices are nonempty frozensets of
vertex ids, and a complex stores the full face-closed family; its facets
(the maximal simplices) are computed once, on first use.  A map is
simplicial iff it sends every source facet to a target simplex, since the
target is face-closed and a face's image lies inside its facet's.
Subdivision vertices are `Barycenter` tokens naming the simplex they
subdivide, their carrier `b.of`, so stages are reproducible and maps
across stages are well-defined.  A token is the 1-tuple of its simplex,
hashed and compared in C by value.  A tower makes each token once, one per
parent simplex, and every chain shares it; a token's label is built once,
from its members' labels, and kept on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

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
        return "b(" + ",".join(sorted(map(vlabel, self.of))) + ")"

    def __repr__(self) -> str:
        return self.label


def vlabel(v) -> str:
    """Canonical printable label of a vertex id (injective per stage)."""
    if isinstance(v, Barycenter):
        return v.label
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int):
        return f"{v[0]}@{v[1]}"
    return str(v)


def simplex_key(s: Simplex):
    """Sort key ordering simplices by dimension, then by vertex labels."""
    return (len(s), sorted(vlabel(v) for v in s))


def simplex_label(s: Simplex) -> str:
    """Printable token for a simplex: its vertex labels joined by '|'."""
    return "|".join(sorted(vlabel(v) for v in s))


@dataclass(frozen=True)
class SimplicialComplex:
    """A face-closed family of nonempty finite vertex sets.

    The empty complex (no simplices at all) is a legal value; it arises as
    the carrier-indexed complex of an uncovered carrier.  `validate_complex`
    is the checked entry point for raw user input.
    """

    simplices: frozenset

    @cached_property
    def vertices(self) -> frozenset:
        out = set()
        for s in self.simplices:
            out.update(s)
        return frozenset(out)

    @cached_property
    def facets(self) -> frozenset:
        """The simplices contained in no other simplex.  The complex is
        face-closed, so a simplex lies in a larger one iff it is some
        simplex minus one vertex."""
        faces = {t - {v} for t in self.simplices for v in t}
        return self.simplices - faces

    @cached_property
    def neighbours(self) -> dict:
        """Each vertex -> the vertices joined to it by an edge."""
        out: dict = {v: set() for v in self.vertices}
        for u, w in (s for s in self.simplices if len(s) == 2):
            out[u].add(w)
            out[w].add(u)
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
        if not self.simplices:
            return -1
        return max(len(s) for s in self.simplices) - 1

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.simplices

    def subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    def sorted_simplices(self) -> list:
        return sorted(self.simplices, key=simplex_key)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.simplices)} simplices, dim={self.dim})"


EMPTY_COMPLEX = SimplicialComplex(frozenset())


def face_closure(sets: Iterable[Iterable[Vertex]]) -> frozenset:
    """All nonempty subsets of the given vertex sets."""
    out = set()
    for raw in sets:
        s = tuple(raw)
        for r in range(1, len(s) + 1):
            for sub in itertools.combinations(s, r):
                out.add(frozenset(sub))
    return frozenset(out)


def validate_complex(raw: Iterable[Iterable[Vertex]]) -> SimplicialComplex:
    """Face closure of the given vertex sets; idempotent on closed input."""
    members = [frozenset(s) for s in raw]
    if not members:
        raise InvalidComplex("a complex needs at least one simplex")
    for s in members:
        if not s:
            raise InvalidComplex("simplices must be nonempty vertex sets")
    return SimplicialComplex(face_closure(members))


def skeleton(c: SimplicialComplex, k: int) -> SimplicialComplex:
    """The subcomplex of simplices with at most k+1 vertices."""
    if k < 0:
        return EMPTY_COMPLEX
    return SimplicialComplex(frozenset(s for s in c.simplices if len(s) <= k + 1))


def coned(c: SimplicialComplex, v: Vertex) -> SimplicialComplex:
    """Cone formula without the freshness check: c with every simplex
    extended by v, plus {v}.  Idempotent when v is already an apex of c."""
    out = set(c.simplices)
    out.add(frozenset([v]))
    for s in c.simplices:
        out.add(s | {v})
    return SimplicialComplex(frozenset(out))


def cone(c: SimplicialComplex, v: Vertex) -> SimplicialComplex:
    """The cone over c with fresh apex v."""
    if v in c.vertices:
        raise VertexClash(f"vertex {vlabel(v)} already belongs to the complex")
    return coned(c, v)


def maximal_simplices(c: SimplicialComplex) -> list:
    """The facets of c, in canonical order."""
    return sorted(c.facets, key=simplex_key)


@dataclass(frozen=True)
class SimplicialMap:
    """A vertex map between complexes, intended to send simplices to simplices.

    Validity is checked by `check_simplicial_map`, never assumed, so that
    deliberately broken maps can be built and interrogated.
    """

    source: SimplicialComplex
    target: SimplicialComplex
    vertex_images: Mapping

    def image(self, s: Simplex) -> Simplex:
        try:
            return frozenset(self.vertex_images[v] for v in s)
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
    return all(m.image(s) in m.target.simplices for s in m.source.facets)


def compose_maps(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    """The composite map outer∘inner."""
    if inner.target != outer.source:
        raise ComposeError("inner target differs from outer source")
    images = {v: outer.vertex_images[w] for v, w in inner.vertex_images.items()}
    return SimplicialMap(inner.source, outer.target, images)


def identity_map(c: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(c, c, {v: v for v in c.vertices})


@dataclass(frozen=True)
class SubdivisionStage:
    """One stage of the barycentric subdivision tower.

    Level-m vertices are Barycenter tokens over level-(m-1) simplices, each
    naming its carrier as `b.of`; level-m simplices are the chains of
    level-(m-1) simplices.  Base vertices subdivide nothing.
    """

    level: int
    complex: SimplicialComplex


def initial_stage(c: SimplicialComplex) -> SubdivisionStage:
    return SubdivisionStage(0, c)


def subdivide(stage: SubdivisionStage) -> SubdivisionStage:
    """The next barycentric subdivision stage.

    New simplices are exactly the chains s0 ⊂ s1 ⊂ … ⊂ sk of current-stage
    simplices, each chain member replaced by its Barycenter token.
    """
    tokens = stage.complex.barycenters
    chains_ending: dict = {}
    for s in sorted(tokens, key=len):
        b = tokens[s]
        ending = [(b,)]
        for r in range(1, len(s)):
            for sub in itertools.combinations(s, r):
                ending.extend(ch + (b,) for ch in chains_ending[frozenset(sub)])
        chains_ending[s] = ending

    chains = (ch for ending in chains_ending.values() for ch in ending)
    new_simplices = frozenset(map(frozenset, chains))
    return SubdivisionStage(stage.level + 1, SimplicialComplex(new_simplices))
