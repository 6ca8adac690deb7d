"""Exact combinatorics of covers on compact polyhedra: nerves of indexed
cover sequences, canonical maps and continuous selections, cone
extensions, carrier-indexed mapping tables, and disjoint-refinement
machinery for covering-dimension experiments.

Everything is decided by finite simplex combinatorics; there is no
floating point anywhere in the predicate paths.  Exact points of the
realisation, which the self-test corpus and the tests check the
combinatorics against, live in `polycover.selftest`.
"""

from . import errors
from .complexes import (
    Barycenter,
    SimplicialComplex,
    SimplicialMap,
    SubdivisionStage,
    check_complete,
    check_simplicial_map,
    compose_maps,
    cone,
    coned,
    face_closure,
    initial_stage,
    maximal_simplices,
    simplex_key,
    skeleton,
    subdivide,
    validate_complex,
    vlabel,
)
from .covers import (
    CoverSequence,
    DELTA,
    FULL_NERVE,
    cover_sequence,
    delta_at_carrier,
    delta_subcomplex,
    kernel_query,
    level_covers,
    nerve,
    pad_levels,
    refinement_map,
    unindexed_delta,
)
from .dimension import (
    CRefinement,
    MuMode,
    MuReport,
    RefinementReport,
    SearchResult,
    dim_oracle,
    mu_driver,
    n_plus_one,
    omega,
    omega_plus_one,
    ostrand_refine,
    refinement_as_cover,
    search_c_refinement,
    verify_c_refinement,
)
from .realization import (
    PolyhedralSpace,
    StarRelation,
    StarSet,
    full_star,
    push_star,
    star_relation,
    star_set,
    star_subset,
)
from .selections import (
    CanonicalMap,
    CarrierMappingSequence,
    bootstrap_skeletal_selection,
    build_canonical,
    carrier_tables,
    cone_extend,
    extend_skeletal_selection,
    extract_c_refinement,
    is_canonical,
    is_selection,
    is_setvalued_selection,
    is_skeletal_selection,
    transfer_selection,
    vertex_selection,
    why_not_canonical,
    why_not_selection,
)

__version__ = "0.1.0"
