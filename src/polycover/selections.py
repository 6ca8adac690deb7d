"""Canonical maps into nerves, selection predicates, refinement transfer,
cone extension, and carrier-indexed mapping tables.

A canonical map is its stage level, a simplicial map from that
subdivision stage into a nerve complex (its target), and that complex's
kind.  Preimages of open vertex stars are then star-sets on the nose,
and the defining containment condition is decidable with no tolerance.
The two predicates `is_canonical` and `is_selection` are provably
equivalent for arbitrary total vertex maps.  Both read one scan of the
source vertices against `CoverSequence.holders` (`_unsound`): a vertex is
sound iff it has an image and its image holds it, and a canonical image
is a first holder.  Oracles in `tests/` sweep simplices instead.  The
table predicates walk the one-per-level faces of each carrier's hit set,
the faces of its products.

Carrier mapping tables model lower locally constant set-valued mappings:
a monotone assignment from working-stage simplices to subcomplexes of a
fixed target.  A cone witness - one target vertex coning each table into
the next - is the implemented form of asphericity; witnesses are
verified, never discovered.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    check_complete,
    check_simplicial_map,
    compose_maps,
    cone,
    coned,
    face_closure,
    vlabel,
)
from .covers import (
    DELTA,
    FULL_NERVE,
    CoverSequence,
    _check_kappa,
    _hits,
    _products,
    cover_sequence,
    delta_subcomplex,
    nerve,
    uncovered_vertex,
)
from .errors import (
    ArityError,
    DisjointnessRequired,
    EmptyValue,
    InvalidArgument,
    LevelBudgetExceeded,
    LevelMismatch,
    NoConeWitness,
    NoCoverage,
    NotCanonical,
    SkeletonViolation,
    UnknownCoverElement,
    WitnessFailure,
)
from .realization import PolyhedralSpace, StarSet, _least_overlap

DEFAULT_MAX_LEVEL = 8


class CanonicalMap(NamedTuple):
    """A simplicial map from a subdivision stage into the nerve complex of
    kind `DELTA` or `FULL_NERVE`, which is `map.target`."""

    subdivision_level: int
    map: SimplicialMap
    kind: str


def _stage_of_map(f: CanonicalMap, cs: CoverSequence) -> SimplicialComplex:
    if f.subdivision_level < cs.working_level:
        raise LevelMismatch("map is defined on a coarser stage than the cover")
    stage = cs.space.stage_complex(f.subdivision_level)
    if f.map.source != stage:
        raise LevelMismatch("map source is not a stage of the cover's space")
    return stage


def _check_elements(cs: CoverSequence, kappa: int, images) -> None:
    """Raise UnknownCoverElement at the first image naming no element of
    the first kappa levels."""
    valid = {(eid, n) for eid, n, _ in cs.elements(kappa)}
    for image in images:
        if image not in valid:
            raise UnknownCoverElement(f"image {image!r} names no cover element")


def _unsound(f: CanonicalMap, cs: CoverSequence, kappa: int | None) -> tuple:
    """(kappa, the unsound source vertices of f): those with no image, or
    whose image is not one of their holders among the first kappa levels.
    Checks kappa and that f lives on a stage of the cover's space first."""
    kappa = _check_kappa(cs, kappa)
    _stage_of_map(f, cs)
    holders = cs.holders(kappa, f.subdivision_level)
    images = f.map.vertex_images
    return kappa, [
        v for v in f.map.source.vertices if images.get(v) not in holders.get(v, ())
    ]


def is_canonical(f: CanonicalMap, cs: CoverSequence, kappa: int | None = None) -> bool:
    """True iff every vertex-star preimage sits inside its cover element.

    For a simplicial map the preimage of the open star of vertex (U, n) is
    the star-set whose core is the fiber over (U, n), so the condition is
    a per-element star-set containment.
    """
    return why_not_canonical(f, cs, kappa) is None


def why_not_canonical(
    f: CanonicalMap, cs: CoverSequence, kappa: int | None = None
) -> dict | None:
    """None when canonical, else a witness locating the first violation:
    the least (level, id) element whose fiber has a vertex outside its core
    (one not held by it), and that fiber's least-labelled such vertex."""
    kappa, unsound = _unsound(f, cs, kappa)
    images = f.map.vertex_images
    _check_elements(cs, kappa, images.values())
    stray = min(
        ((images[v][1], images[v][0], vlabel(v)) for v in unsound if v in images),
        default=None,
    )
    if stray is None:
        return None
    n, eid, v = stray
    return {"element": [eid, n], "vertex": v,
            "reason": "star of the fiber is not inside the element"}


def is_selection(f: CanonicalMap, cs: CoverSequence, kappa: int | None = None) -> bool:
    """True iff each source simplex meets the core of every element it maps to.

    This is the kernel condition: the image of a point must lie in the
    realized complex of simplices whose kernel contains the point.
    """
    return why_not_selection(f, cs, kappa) is None


def why_not_selection(
    f: CanonicalMap, cs: CoverSequence, kappa: int | None = None
) -> dict | None:
    """None for a selection, else a witness on the least unsound simplex.

    tau is unsound iff some v in tau has no known image or tau misses the
    core of v's image; then v is outside that core and {v} is unsound too.
    So the least unsound simplex is the singleton of the least-labelled
    vertex whose image is not one of its holders, if there is one."""
    kappa, unsound = _unsound(f, cs, kappa)
    v = min(unsound, key=vlabel, default=None)
    if v is None:
        return None
    (element,) = f.map.image([v])
    _check_elements(cs, kappa, [element])
    return {
        "simplex": [vlabel(v)],
        "element": list(element),
        "reason": "simplex misses the core of an element it maps to",
    }


def _check_disjoint_levels(cs: CoverSequence, kappa: int) -> None:
    families = cs.levels[:kappa]
    cores = [[star.core_vertices for _, star in family] for family in families]
    overlap = _least_overlap(cs.working_complex(), cores)
    if overlap is not None:
        n, i, j = overlap
        raise DisjointnessRequired(
            f"elements {families[n][i][0]!r} and {families[n][j][0]!r} at level "
            f"{n} are not disjoint"
        )


def build_canonical(
    cs: CoverSequence,
    kappa: int | None = None,
    target_kind: str = DELTA,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> CanonicalMap:
    """Construct a canonical map on the working stage by assigning each
    vertex its first holder: the smallest (level, id) element whose core
    contains it.

    The working stage is already fine enough: a vertex star lies inside an
    element exactly when the vertex is in the element's core, and the
    prefix covers every working vertex.  `max_level` below the working
    level raises LevelBudgetExceeded.

    For a one-per-level target the prefix must be pairwise-disjoint per
    level; the assignment map then lands in the subcomplex automatically.
    """
    kappa = _check_kappa(cs, kappa)
    stage = cs.working_complex()
    cores = (star.core_vertices for _, _, star in cs.elements(kappa))
    if uncovered_vertex(stage, cores) is not None:
        raise NoCoverage(f"the first {kappa} levels do not cover the space")
    if target_kind == DELTA:
        _check_disjoint_levels(cs, kappa)
        target = delta_subcomplex(cs, kappa)
    else:
        target_kind, target = FULL_NERVE, nerve(cs, kappa)

    if max_level < cs.working_level:
        raise LevelBudgetExceeded(
            f"no canonical assignment up to subdivision level {max_level}"
        )
    # The first kappa levels cover, so every working vertex has a holder.
    holders = cs.holders(kappa, cs.working_level)
    images = {v: held[0] for v, held in holders.items()}
    return CanonicalMap(
        cs.working_level, SimplicialMap(stage, target, images), target_kind
    )


def transfer_selection(h: CanonicalMap, r: SimplicialMap) -> CanonicalMap:
    """Compose a canonical map with a refinement map.  The refinement map's
    target, and so the result's, is the coarse one-per-level complex."""
    return CanonicalMap(h.subdivision_level, compose_maps(r, h.map), DELTA)


def extract_c_refinement(
    f: CanonicalMap, cs: CoverSequence, kappa: int | None = None
) -> list:
    """Star-set preimage families of a canonical map into the one-per-level
    nerve: per level, the fibers over its elements (empty fibers dropped).

    The map must be canonical, total (else IncompleteMap) and simplicial
    into the one-per-level complex.  Then same-level fibers are disjoint,
    since two same-level vertices never share an image simplex there, and
    each fiber's star sits inside its element by the canonical condition.
    """
    kappa = _check_kappa(cs, kappa)
    if f.kind != DELTA:
        raise NotCanonical("extraction needs a map into the one-per-level nerve")
    if not is_canonical(f, cs, kappa):
        raise NotCanonical("the map fails the canonical-map predicate")
    delta = delta_subcomplex(cs, kappa)
    if not check_simplicial_map(SimplicialMap(f.map.source, delta, f.map.vertex_images)):
        raise NotCanonical("the map is not simplicial into the one-per-level nerve")
    fibers: dict = {}
    for v, image in f.map.vertex_images.items():
        fibers.setdefault(image, set()).add(v)
    level = f.subdivision_level
    return [
        tuple((eid, StarSet(cs.space, level, frozenset(fibers[eid, n])))
              for eid, _ in cs.levels[n] if (eid, n) in fibers)
        for n in range(kappa)
    ]


def cone_extend(
    g: SimplicialMap, v, q, chain: list[SimplicialComplex]
) -> SimplicialMap:
    """Extend g over the cone with apex v by sending v to the witness q.

    `chain` lists nested subcomplexes S_0 ⊆ … ⊆ S_{n+1} of the target with
    dim(source) ≤ n; g must map every k-skeleton into S_k, and q must cone
    each S_k into S_{k+1} (verified, else WitnessFailure).  Every new
    simplex s ∪ {v} then maps into S_{card(s)}; the bare apex lands in S_1,
    and in S_0 exactly when q already belongs to S_0.
    """
    if len(chain) < 2:
        raise SkeletonViolation("the chain needs at least two members")
    n = len(chain) - 2
    target = g.target
    if [q] not in target:
        raise InvalidArgument(f"witness {vlabel(q)} is not a vertex of the target")
    for i, s_k in enumerate(chain):
        if not s_k.subcomplex_of(target):
            raise InvalidArgument(f"chain member {i} is not a subcomplex of the target")
    if g.source.dim > n:
        raise SkeletonViolation(
            f"source dimension {g.source.dim} exceeds chain bound {n}"
        )
    check_complete(g)
    for k in range(n + 1):
        for s in g.source.sorted_simplices():
            if len(s) <= k + 1 and g.image(s) not in chain[k]:
                raise SkeletonViolation(
                    f"image of {sorted(vlabel(u) for u in s)} is outside chain member {k}"
                )
    for k in range(n + 1):
        if not coned(chain[k], q).subcomplex_of(chain[k + 1]):
            raise WitnessFailure(
                f"coning chain member {k} by {vlabel(q)} leaves chain member {k + 1}"
            )
    extended = cone(g.source, v)
    images = dict(g.vertex_images)
    images[v] = q
    return SimplicialMap(extended, target, images)


class CarrierMappingSequence(NamedTuple):
    """Carrier-indexed tables modelling a sequence of lower locally constant
    set-valued mappings into a fixed target complex.

    `tables[k]` assigns to every working-stage simplex a nonempty
    subcomplex of the target; values are monotone in the carrier.  An
    optional cone witness q certifies that each table cones into the next.
    """

    space: PolyhedralSpace
    level: int
    target: SimplicialComplex
    tables: tuple
    cone_witness: object = None


def carrier_tables(
    space: PolyhedralSpace,
    level: int,
    target: SimplicialComplex,
    tables,
    cone_witness=None,
) -> CarrierMappingSequence:
    """Validate and freeze a carrier mapping sequence of one or more tables."""
    stage = space.stage_complex(level)
    frozen = []
    for k, table in enumerate(tables):
        for tau in stage.simplices:
            if tau not in table:
                raise ArityError(f"table {k} misses a value for some carrier")
        for tau, value in table.items():
            if not value.facets:
                raise EmptyValue(f"table {k} assigns an empty complex")
            if not value.subcomplex_of(target):
                raise InvalidArgument(f"table {k} value is not a subcomplex of the target")
        frozen.append(dict(table))
    if not frozen:
        raise ArityError("need at least one table")
    # Codimension-one faces suffice: every face inclusion chains through them.
    for k, table in enumerate(frozen):
        for tau in stage.simplices:
            if len(tau) > 1 and not all(
                table[tau - {v}].subcomplex_of(table[tau]) for v in tau
            ):
                raise InvalidArgument(
                    f"table {k} is not carrier-monotone at a face inclusion"
                )
    if cone_witness is not None:
        if [cone_witness] not in target:
            raise NoConeWitness("the witness is not a vertex of the target")
        for k in range(len(frozen) - 1):
            for tau in stage.simplices:
                if not coned(frozen[k][tau], cone_witness).subcomplex_of(
                    frozen[k + 1][tau]
                ):
                    raise WitnessFailure(
                        f"witness fails to cone table {k} into table {k + 1}"
                    )
    return CarrierMappingSequence(
        space, level, target, tuple(frozen), cone_witness
    )


def vertex_selection(phi: CarrierMappingSequence):
    """The star cover of the working stage with one target vertex per star,
    chosen as the least vertex of the table value at the singleton carrier.

    Carrier monotonicity makes the choice correct: any point of st(v) has a
    carrier containing v, so its table value contains the chosen vertex.
    """
    table = phi.tables[0]
    stage = phi.space.stage_complex(phi.level)
    family = []
    vertex_map = {}
    for v in sorted(stage.vertices, key=vlabel):
        value = table[frozenset([v])]
        if not value.facets:
            raise EmptyValue("empty table value at a singleton carrier")
        eid = vlabel(v)
        family.append((eid, StarSet(phi.space, phi.level, frozenset([v]))))
        vertex_map[eid] = min(value.vertices, key=vlabel)
    return family, vertex_map


def bootstrap_skeletal_selection(phi: CarrierMappingSequence):
    """Package `vertex_selection` output as a one-level cover sequence and a
    simplicial map on its one-per-level complex."""
    family, vertex_map = vertex_selection(phi)
    cs = cover_sequence(phi.space, [family])
    source = delta_subcomplex(cs, 1)
    images = {(eid, 0): vertex_map[eid] for eid in vertex_map}
    return cs, SimplicialMap(source, phi.target, images)


def is_skeletal_selection(
    f: SimplicialMap, cs: CoverSequence, phi: CarrierMappingSequence
) -> bool:
    """True iff every k-skeleton simplex of the prefix complex maps into
    table k over every carrier in its kernel, for every k up to the number
    of levels minus one."""
    n = cs.num_levels - 1
    if len(phi.tables) < n + 1:
        raise ArityError(f"need {n + 1} tables for {n + 1} cover levels")
    if f.source != delta_subcomplex(cs, n + 1):
        raise ArityError("map is not defined on the prefix complex")
    if cs.space != phi.space or cs.working_level != phi.level:
        raise ArityError("cover and tables disagree on the working stage")
    check_complete(f)
    return _maps_into_tables(f, cs, phi, n, skeletal=True)


def is_setvalued_selection(
    f: SimplicialMap, cs: CoverSequence, phi: CarrierMappingSequence, n: int
) -> bool:
    """True iff the whole level-≤n prefix complex maps into table n over
    every kernel carrier: the composite carrier-indexed mapping is a
    selection for the level-n tables."""
    if n >= len(phi.tables) or n >= cs.num_levels:
        raise ArityError("n exceeds the tables or the cover levels")
    check_complete(f, delta_subcomplex(cs, n + 1).vertices)
    return _maps_into_tables(f, cs, phi, n, skeletal=False)


def _maps_into_tables(
    f: SimplicialMap, cs: CoverSequence, phi: CarrierMappingSequence, n: int,
    skeletal: bool,
) -> bool:
    """True iff each one-per-level simplex sigma of the first n+1 levels
    maps into table k, for k from |sigma|-1 (if skeletal) or n up to n, at
    every working carrier tau whose kernel holds sigma: the one-per-level
    faces of tau's hit set (`delta_at_carrier`), the faces of its products.
    Carriers with one hit set are walked together, so each sigma's image
    is taken once per set."""
    holders = cs.holders(n + 1, cs.working_level)
    carriers: dict = {}
    for tau, hit in _hits(cs.working_complex().simplices, holders).items():
        carriers.setdefault(hit, []).append(tau)
    for hit, taus in carriers.items():
        for sigma in face_closure(_products(hit)):
            image = f.image(sigma)
            for k in range(len(sigma) - 1 if skeletal else n, n + 1):
                if any(image not in phi.tables[k][tau] for tau in taus):
                    return False
    return True


def extend_skeletal_selection(
    f: SimplicialMap, cs: CoverSequence, phi: CarrierMappingSequence
):
    """Append the star cover of the working stage as a new level and extend
    f by sending every new vertex to the cone witness.

    New simplices s ∪ {new} map to image(s) ∪ {q}, which the witness puts
    in the next table; for the predicate to survive at the new vertices
    themselves the witness must already sit in every level-0 table value.
    """
    n = cs.num_levels - 1
    if phi.cone_witness is None:
        raise NoConeWitness("extension needs a cone witness")
    if len(phi.tables) < n + 2:
        raise ArityError(f"need {n + 2} tables to extend past level {n}")
    q = phi.cone_witness
    stage = phi.space.stage_complex(phi.level)
    for tau in stage.simplices:
        if [q] not in phi.tables[0][tau]:
            raise NoConeWitness(
                "the witness vertex is missing from a level-0 table value"
            )
    if not is_skeletal_selection(f, cs, phi):
        raise InvalidArgument("the input map is not a skeletal selection")
    # The witness sits in every level-0 value, so none is empty.
    new_family, _ = vertex_selection(phi)
    extended = cover_sequence(cs.space, list(cs.levels) + [new_family])
    source = delta_subcomplex(extended, n + 2)
    images = dict(f.vertex_images)
    for eid, _ in new_family:
        images[(eid, n + 1)] = q
    return extended, SimplicialMap(source, phi.target, images)
