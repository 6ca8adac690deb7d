"""Shared desk-scale fixtures: an edge, a solid triangle, its boundary, a
solid tetrahedron, and the three-level midpoint cover used throughout the tests and the
self-test corpus.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, validate_complex
from .covers import CoverSequence, cover_sequence
from .realization import PolyhedralSpace, star_set


def f_edge() -> SimplicialComplex:
    return validate_complex([{"a", "b"}])


def f_tri() -> SimplicialComplex:
    return validate_complex([{"a", "b", "c"}])


def f_tri_boundary() -> SimplicialComplex:
    return validate_complex([{"a", "b"}, {"b", "c"}, {"a", "c"}])


def edge_space() -> PolyhedralSpace:
    return PolyhedralSpace(f_edge())


def tri_space() -> PolyhedralSpace:
    return PolyhedralSpace(f_tri())


def boundary_space() -> PolyhedralSpace:
    return PolyhedralSpace(f_tri_boundary())


def tet_space() -> PolyhedralSpace:
    return PolyhedralSpace(validate_complex([{"a", "b", "c", "d"}]))


def rem_cover(space: PolyhedralSpace | None = None) -> CoverSequence:
    """The edge at level 1 with the midpoint overlap configuration.

    Writing a, m, b for the level-1 vertices: P covers [a,b) via stars of
    {a, m}, Q covers (a,b] via stars of {m, b}, while P' and Q' are the
    end-vertex stars.  Levels: {P, Q'}, {P', Q}, {P, Q}.  The same point
    sets P and Q reappear at level 2, which is what the unindexed variant
    trips over.
    """
    space = space or edge_space()
    a, m, b = "b(a)", "b(a,b)", "b(b)"
    big_p = star_set(space, 1, [a, m])
    big_q = star_set(space, 1, [m, b])
    p_prime = star_set(space, 1, [a])
    q_prime = star_set(space, 1, [b])
    return cover_sequence(
        space,
        [
            [("P", big_p), ("Q'", q_prime)],
            [("P'", p_prime), ("Q", big_q)],
            [("P", big_p), ("Q", big_q)],
        ],
    )


def vertex_star_cover(space: PolyhedralSpace, copies: int = 3) -> CoverSequence:
    """`copies` identical levels, each the cover by base vertex stars."""
    family = [
        (f"st({v})", star_set(space, 0, [v]))
        for v in sorted(space.base.vertices, key=str)
    ]
    return cover_sequence(space, [list(family) for _ in range(copies)])
