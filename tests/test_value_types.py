"""The value types keep the contract of the frozen records they replaced.

`SimplicialComplex` and `CoverSequence` are plain classes with
hand-written equality, hashing and repr; the other records are named
tuples.  Equality of the two classes compares their fields and holds only
within the class, the caches they carry take no part in it, and every
repr reads as before.
"""

from polycover.complexes import (
    SimplicialComplex,
    SimplicialMap,
    validate_complex,
    vlabel,
)
from polycover.covers import CoverSequence, nerve
from polycover.dimension import (
    RefinementReport,
    SearchAudit,
    SearchResult,
    n_plus_one,
)
from polycover.fixtures import edge_space, tri_space, vertex_star_cover
from polycover.selftest import stage_point


def fs(*vs):
    return frozenset(vs)


def test_equal_complexes_from_different_families_are_equal_and_hash_alike():
    facets = SimplicialComplex([fs("a", "b", "c"), fs("c", "d")])
    closed = validate_complex([{"a", "b", "c"}, {"a", "b"}, {"c"}, {"c", "d"}, {"d"}])
    stage = tri_space().stage_complex(0)
    assert facets == closed and hash(facets) == hash(closed)
    assert facets != stage and not facets == stage
    assert stage == SimplicialComplex(frozenset([fs("a", "b", "c"), fs("a")]))
    assert hash(stage) == hash(SimplicialComplex([fs("a", "b", "c")]))


def test_equal_covers_are_equal_and_hash_alike_whatever_their_caches():
    cs = vertex_star_cover(tri_space(), 2)
    nerve(cs)
    twin = vertex_star_cover(tri_space(), 2)
    assert cs.nerves and not twin.nerves
    assert cs == twin and hash(cs) == hash(twin)
    assert cs != vertex_star_cover(tri_space(), 3)
    assert cs != CoverSequence(cs.space, cs.working_level + 1, cs.levels)


def test_a_complex_or_a_cover_equals_no_tuple_of_its_fields():
    c = tri_space().stage_complex(1)
    cs = vertex_star_cover(edge_space(), 1)
    for value, fields in (
        (c, (c.facets,)),
        (cs, (cs.space, cs.working_level, cs.levels)),
    ):
        assert value != fields and fields != value
        assert not value == fields
        assert value != list(fields)


def test_the_named_tuples_keep_their_defaults_and_truth():
    assert bool(RefinementReport(False)) is False
    assert bool(RefinementReport(True)) is True
    assert RefinementReport(False).failure is None
    assert SearchResult("exhausted", 1, None).audits == ()


def test_named_tuples_compare_as_tuples():
    """The documented cost of named tuples: a record equals the plain tuple
    of its fields, and a (str, int) record reads as an (id, level) pair."""
    mode = n_plus_one(2)
    assert mode == ("n_plus_one", 2)
    assert vlabel(mode) == "n_plus_one@2"
    assert SearchAudit(1, 5, 2, False) == (1, 5, 2, False)


def test_reprs_are_unchanged():
    space = edge_space()
    c = validate_complex([{"a"}])
    assert repr(n_plus_one(2)) == "MuMode(kind='n_plus_one', n=2)"
    assert repr(SearchAudit(1, 5, 2, False)) == (
        "SearchAudit(level=1, nodes=5, prunes=2, found=False)"
    )
    assert repr(SearchResult("exhausted", 1, None)) == (
        "SearchResult(status='exhausted', level=1, refinement=None, audits=())"
    )
    assert repr(RefinementReport(False, "overlap")) == (
        "RefinementReport(ok=False, failure='overlap', witness=None)"
    )
    assert repr(space.stage(1)) == (
        "SubdivisionStage(level=1, complex=SimplicialComplex(2 facets, dim=1))"
    )
    assert repr(SimplicialMap(c, c, {"a": "a"})) == (
        "SimplicialMap(source=SimplicialComplex(1 facets, dim=0), "
        "target=SimplicialComplex(1 facets, dim=0), vertex_images={'a': 'a'})"
    )
    assert repr(stage_point(space, 0, {"a": "1/2", "b": "1/2"})) == (
        "BarycentricPoint(level=0, coords={'a': Fraction(1, 2), 'b': Fraction(1, 2)}, "
        "complex=SimplicialComplex(1 facets, dim=1))"
    )
    assert repr(vertex_star_cover(space, 1)) == (
        "CoverSequence(space=PolyhedralSpace(base=SimplicialComplex(1 facets, dim=1)), "
        "working_level=0, levels=((('st(a)', StarSet(level=0, stars={a})), "
        "('st(b)', StarSet(level=0, stars={b}))),))"
    )
