"""Refusals of malformed library calls: each raises its own error type
with its own message, checked here word for word."""

import re
from fractions import Fraction

import pytest

from polycover import (
    BarycentricPoint,
    CanonicalMap,
    CarrierMappingSequence,
    CRefinement,
    SimplicialMap,
    bootstrap_skeletal_selection,
    carrier,
    carrier_tables,
    cone_extend,
    cover_sequence,
    delta_subcomplex,
    extend_skeletal_selection,
    full_star,
    is_setvalued_selection,
    is_skeletal_selection,
    nerve,
    ostrand_refine,
    pad_levels,
    push_point,
    realize_map,
    refinement_as_cover,
    refinement_map,
    skeleton,
    stage_point,
    star_relation,
    star_set,
    validate_complex,
    verify_c_refinement,
    vertex_selection,
    why_not_canonical,
    why_not_selection,
)
from polycover import jsonio
from polycover.complexes import EMPTY_COMPLEX
from polycover.covers import FULL_NERVE
from polycover.errors import (
    ArityError,
    EmptyPrefix,
    EmptyValue,
    IncompleteMap,
    InvalidArgument,
    InvalidPoint,
    LevelMismatch,
    SchemaError,
    SkeletonViolation,
)
from polycover.fixtures import edge_space, tri_space, vertex_star_cover

from test_selections import edge_phi


def refused(error, message):
    """Expect exactly this error type with exactly this message."""
    return pytest.raises(error, match="^" + re.escape(message) + "$")


class TestSkeletalPredicates:
    def test_too_few_tables_for_the_cover_levels(self):
        _, phi = edge_phi()
        cs, f = bootstrap_skeletal_selection(phi)
        cs, f = extend_skeletal_selection(f, cs, phi)
        _, short = edge_phi(levels=1)
        with refused(ArityError, "need 2 tables for 2 cover levels"):
            is_skeletal_selection(f, cs, short)

    def test_map_off_the_prefix_complex(self):
        _, phi = edge_phi()
        cs, f = bootstrap_skeletal_selection(phi)
        longer, _ = extend_skeletal_selection(f, cs, phi)
        with refused(ArityError, "map is not defined on the prefix complex"):
            is_skeletal_selection(f, longer, phi)

    def test_cover_and_tables_on_different_stages(self):
        e, phi = edge_phi()
        cs = cover_sequence(e, [[("W", full_star(e, 1))]])
        f = SimplicialMap(delta_subcomplex(cs, 1), phi.target, {("W", 0): "z"})
        with refused(ArityError, "cover and tables disagree on the working stage"):
            is_skeletal_selection(f, cs, phi)

    def test_setvalued_level_beyond_the_cover(self):
        _, phi = edge_phi()
        cs, f = bootstrap_skeletal_selection(phi)
        with refused(ArityError, "n exceeds the tables or the cover levels"):
            is_setvalued_selection(f, cs, phi, 1)

    def test_extension_of_a_map_that_is_not_skeletal(self):
        _, phi = edge_phi()
        cs, f = bootstrap_skeletal_selection(phi)
        bad = SimplicialMap(f.source, f.target, {**f.vertex_images, ("a", 0): "t:b"})
        with refused(InvalidArgument, "the input map is not a skeletal selection"):
            extend_skeletal_selection(bad, cs, phi)

    def test_no_tables(self):
        with refused(ArityError, "need at least one table"):
            carrier_tables(edge_space(), 0, validate_complex([{"q"}]), [])

    def test_table_value_outside_the_target(self):
        e = edge_space()
        target = validate_complex([{"y1", "y2"}])
        table = {tau: validate_complex([{"y9"}]) for tau in e.stage_complex(0).simplices}
        with refused(InvalidArgument, "table 0 value is not a subcomplex of the target"):
            carrier_tables(e, 0, target, [table])


class TestCovers:
    def test_no_levels(self):
        with refused(EmptyPrefix, "a cover sequence needs at least one level"):
            cover_sequence(edge_space(), [])

    def test_star_set_of_another_space(self):
        with refused(InvalidArgument, "star-set belongs to a different space"):
            cover_sequence(edge_space(), [[("W", full_star(tri_space(), 0))]])

    def test_id_that_is_not_a_string(self):
        e = edge_space()
        with refused(InvalidArgument, "element ids must be strings"):
            cover_sequence(e, [[(7, full_star(e, 0))]])

    def test_a_family_count_other_than_kappa(self):
        cs = vertex_star_cover(edge_space(), 1)
        r = ostrand_refine(pad_levels(cs, 2), 1)
        for families, kappa in ((r.families + r.families, 1), (r.families[:1], 2)):
            with refused(InvalidArgument, "family count must equal kappa"):
                verify_c_refinement(CRefinement(families, kappa, cs))

    def test_a_family_that_repeats_an_element_id(self):
        """The verifier refuses what `refinement_as_cover` refuses, with the
        same message, and the reader refuses it as a schema error."""
        cs = vertex_star_cover(tri_space(), 3)
        r = ostrand_refine(cs, 2)
        (first, star), (_, second), *rest = r.families[0]
        families = (((first, star), (first, second), *rest), *r.families[1:])
        message = "duplicate element id 'b(a)' at level 0"
        with refused(InvalidArgument, message):
            refinement_as_cover(CRefinement(families, 3, cs))
        with refused(InvalidArgument, message):
            verify_c_refinement(CRefinement(families, 3, cs))
        doc = jsonio.refinement_to_json(CRefinement(families, 3, cs))
        with refused(SchemaError, f"$.families: {message}"):
            jsonio.refinement_from_json(cs, doc)

    def test_refinement_map_across_spaces(self):
        fine, coarse = vertex_star_cover(edge_space()), vertex_star_cover(tri_space())
        with refused(InvalidArgument, "cover sequences live on different spaces"):
            refinement_map(fine, coarse)

    def test_refinement_map_between_prefixes_of_different_lengths(self):
        e = edge_space()
        with refused(InvalidArgument, "prefix lengths differ"):
            refinement_map(vertex_star_cover(e, 2), vertex_star_cover(e, 3))


class TestStarSetsAndCones:
    def test_star_set_key_that_is_no_stage_vertex(self):
        with refused(InvalidArgument, "7 is not a vertex of stage 0"):
            star_set(edge_space(), 0, [7])

    def test_star_set_with_no_core(self):
        with refused(InvalidArgument, "a star-set needs at least one core vertex"):
            star_set(edge_space(), 0, [])

    def test_star_relation_across_spaces(self):
        with refused(InvalidArgument, "star-sets live on different spaces"):
            star_relation(full_star(edge_space(), 0), full_star(tri_space(), 0))

    def test_cone_extension_with_a_short_chain(self):
        t = validate_complex([{"y", "q"}])
        g = SimplicialMap(validate_complex([{"a"}]), t, {"a": "y"})
        with refused(SkeletonViolation, "the chain needs at least two members"):
            cone_extend(g, "v", "q", [t])


class TestCoordinates:
    @pytest.mark.parametrize("value", ["1/0", "x", None, [1]])
    def test_a_coordinate_that_is_no_rational(self, value):
        with refused(InvalidPoint, f"coordinate {value!r} is not an exact rational"):
            stage_point(tri_space(), 0, {"a": value})

    def test_the_carrier_of_a_point_built_directly(self):
        p = BarycentricPoint(0, {"a": "1/0"}, tri_space().stage_complex(0))
        with refused(InvalidPoint, "coordinate '1/0' is not an exact rational"):
            carrier(p)

    def test_a_negative_coordinate(self):
        p = BarycentricPoint(0, {"a": Fraction(-1, 2), "b": Fraction(3, 2)},
                             tri_space().stage_complex(0))
        with refused(InvalidPoint, "negative coordinate at a"):
            carrier(p)

    def test_pushing_a_point_that_lives_on_no_stage(self):
        p = BarycentricPoint(0, {"a": Fraction(1)}, validate_complex([{"a"}]))
        with refused(InvalidPoint, "point does not live on a stage of this space"):
            push_point(tri_space(), p, 1)

    def test_a_key_that_is_no_stage_vertex(self):
        with refused(InvalidArgument, "7 is not a vertex of stage 0"):
            stage_point(tri_space(), 0, {7: "1"})

    def test_an_unknown_label_in_a_point_document(self):
        doc = {"level": 0, "coords": {"zz": "1"}}
        with refused(SchemaError, "$.coords: no vertex labelled 'zz' at level 0"):
            jsonio.point_from_json(edge_space(), doc)


EDGE = validate_complex([{"a", "b"}])
HALVES = {"a": Fraction(1, 2), "b": Fraction(1, 2)}


class TestRealizeMap:
    def test_a_point_off_the_source(self):
        g = SimplicialMap(validate_complex([{"a"}]), validate_complex([{"y"}]), {"a": "y"})
        with refused(InvalidPoint, "point does not lie on the source complex"):
            realize_map(g, BarycentricPoint(0, HALVES, EDGE))

    def test_a_vertex_with_no_image(self):
        g = SimplicialMap(EDGE, validate_complex([{"y"}]), {"a": "y"})
        with refused(IncompleteMap, "no image for vertex b"):
            realize_map(g, BarycentricPoint(0, HALVES, EDGE))

    def test_a_zero_coordinate_needs_no_image(self):
        target = validate_complex([{"y"}])
        g = SimplicialMap(EDGE, target, {"a": "y"})
        p = BarycentricPoint(0, {"a": Fraction(1), "b": Fraction(0)}, EDGE)
        assert realize_map(g, p) == BarycentricPoint(0, {"y": Fraction(1)}, target)


class TestMapsAndTables:
    def test_a_map_source_that_is_not_a_stage(self):
        cs = vertex_star_cover(edge_space(), 1)
        source = validate_complex([{"a"}])
        f = CanonicalMap(0, SimplicialMap(source, nerve(cs), {}), FULL_NERVE)
        for why_not in (why_not_canonical, why_not_selection):
            with refused(LevelMismatch, "map source is not a stage of the cover's space"):
                why_not(f, cs)

    def test_an_empty_value_at_a_singleton_carrier(self):
        e = edge_space()
        target = validate_complex([{"y"}])
        table = {tau: target for tau in e.stage_complex(0).simplices}
        table[frozenset(["a"])] = EMPTY_COMPLEX
        phi = CarrierMappingSequence(e, 0, target, (table,))
        with refused(EmptyValue, "empty table value at a singleton carrier"):
            vertex_selection(phi)

    def test_the_negative_skeleton_is_the_empty_complex(self):
        assert skeleton(EDGE, -1) == EMPTY_COMPLEX
        assert EMPTY_COMPLEX.dim == -1
