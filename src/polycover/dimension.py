"""Disjoint refinement families, their constructor and exhaustive search,
the dimension oracle, and the parametric equivalence driver.

A C-refinement of a cover sequence is a finite list of pairwise-disjoint
star-set families, one refining each level, jointly covering the space.
`ostrand_refine` builds one with dim+1 families from barycenter dimension
classes; `search_c_refinement` decides existence for a given family count
by exhaustive, audited search over vertex assignments at bounded
subdivision levels.  Exhaustion is a semi-decision relative to the
star-set model and the level bound, never a claim about all refinements.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import or_
from typing import NamedTuple

from .complexes import barycenter_label, check_simplicial_map, simplex_key, vlabel
from .covers import (
    DELTA,
    CoverSequence,
    _check_ids,
    cover_sequence,
    level_covers,
    pad_levels,
    refinement_map,
    uncovered_vertex,
)
from .errors import (
    DimensionTooLow,
    InvalidArgument,
    LevelBudgetExceeded,
    NoCoverage,
)
from .realization import PolyhedralSpace, StarSet, _least_overlap, push_star, star_subset
from .selections import (
    DEFAULT_MAX_LEVEL,
    build_canonical,
    extract_c_refinement,
    is_canonical,
    is_selection,
    transfer_selection,
)


class CRefinement(NamedTuple):
    """Pairwise-disjoint star-set families witnessing a cover sequence's
    refinement; `families[n]` refines level n of `source`."""

    families: tuple
    kappa: int
    source: CoverSequence


class RefinementReport(NamedTuple):
    """Outcome of `verify_c_refinement`; falsy reports carry a witness."""

    ok: bool
    failure: str | None = None
    witness: object = None

    def __bool__(self) -> bool:
        return self.ok


def _common_level(r: CRefinement) -> tuple:
    """The level at which a refinement is read, the finest of its source's
    working level and its elements' levels, and its families pushed there."""
    level = max([r.source.working_level] + [star.level for f in r.families for _, star in f])
    return level, [[(eid, push_star(star, level)) for eid, star in f] for f in r.families]


def refinement_as_cover(r: CRefinement) -> CoverSequence:
    """Treat the refinement's families as the levels of a cover sequence at
    the common level (`_common_level`), so it never sits below its source."""
    return cover_sequence(r.source.space, _common_level(r)[1])


def check_families(r: CRefinement) -> None:
    """Refuse a family count other than kappa, then any element id that
    `cover_sequence` refuses, with its message."""
    if len(r.families) != r.kappa:
        raise InvalidArgument("family count must equal kappa")
    _check_ids(r.families)


def verify_c_refinement(r: CRefinement) -> RefinementReport:
    """Check disjointness per family, per-level refinement, and coverage.

    All three checks are exact simplex combinatorics at the common level
    (`_common_level`), to which every element and every coarse element is
    pushed once; the first violation is reported with a witness.  An
    overlap witness names the least overlapping pair of elements in family
    order.  The same level is the working level of `refinement_as_cover`,
    so the fine cover never sits below the source.  An element
    is tested against candidates only: the level-n coarse elements that
    the padded cover's `holders` at the common level list for one vertex
    of its core.  A coarse element containing it holds every such vertex,
    so no container is missed, and `star_subset` decides each candidate.
    Refinements that `check_families` refuses are refused.
    """
    check_families(r)
    level, pushed = _common_level(r)
    stage = r.source.space.stage_complex(level)
    cores = [[star.core_vertices for _, star in family] for family in pushed]
    overlap = _least_overlap(stage, cores)
    if overlap is not None:
        n, i, j = overlap
        ids = [pushed[n][i][0], pushed[n][j][0]]
        return RefinementReport(False, "overlap", {"level": n, "elements": ids})

    padded = pad_levels(r.source, r.kappa)
    holders = padded.holders(r.kappa, level)
    rows = padded.pushed(r.kappa, level)
    coarse = {(eid, n): star for n, row in enumerate(rows) for eid, star in row}
    for n, family in enumerate(pushed):
        for eid, star in family:
            core = star.core_vertices
            held = holders.get(next(iter(core)), ()) if core else coarse
            if not any(star_subset(star, coarse[c]) for c in held if c[1] == n):
                return RefinementReport(
                    False, "not_a_refinement", {"level": n, "element": eid}
                )

    missing = uncovered_vertex(stage, (core for row in cores for core in row))
    if missing is not None:
        return RefinementReport(False, "uncovered", {"vertex": vlabel(missing)})
    return RefinementReport(True)


def dim_oracle(space: PolyhedralSpace) -> int:
    """Covering dimension of the ground space: max base cardinality - 1."""
    return space.base.dim


def ostrand_refine(
    cs: CoverSequence, n: int, max_level: int = DEFAULT_MAX_LEVEL
) -> CRefinement:
    """Build n+1 disjoint families from barycenter dimension classes.

    The working stage is already fine enough for the Lebesgue step: a
    vertex star lies inside an element exactly when the vertex is in the
    element's core, and every level covers the space, so every working
    vertex star fits inside some element of every level.  Subdivide once,
    and let family k hold the stars of the barycenters of the
    k-dimensional working simplices.  Equal dimension barycenters are
    never adjacent, which gives disjointness; each such star sits inside
    the pushed star of any vertex of its simplex, which gives the
    refinement.  A `max_level` at or below the working level leaves no
    room for that subdivision and raises LevelBudgetExceeded.
    """
    space = cs.space
    if n < dim_oracle(space):
        raise DimensionTooLow(
            f"{n + 1} families cannot refine a {dim_oracle(space)}-dimensional space"
        )
    padded = pad_levels(cs, n + 1)
    for k in range(n + 1):
        if not level_covers(padded, k):
            raise NoCoverage(f"level {k} does not cover the space")

    if max_level <= cs.working_level:
        raise LevelBudgetExceeded(
            f"the refinement needs stage {cs.working_level + 1}, "
            f"beyond the max level {max_level}"
        )

    stage = cs.working_complex()
    families: list = [[] for _ in range(n + 1)]
    for (size, names), s in sorted(zip(map(simplex_key, stage.simplices), stage.simplices)):
        star = StarSet(space, cs.working_level + 1, frozenset([stage.barycenters[s]]))
        families[size - 1].append((barycenter_label(names), star))
    return CRefinement(tuple(map(tuple, families)), n + 1, cs)


class SearchAudit(NamedTuple):
    level: int
    nodes: int
    prunes: int
    found: bool


class SearchResult(NamedTuple):
    status: str  # "found" | "exhausted"
    level: int | None
    refinement: CRefinement | None
    audits: tuple = ()


# Search table cap: a level-3 triangle search has no end yet, and without a
# bound its table grows until memory runs out.  65,536 entries of that search
# take about 28 MB (keys, counts and the dict, by `sys.getsizeof`), and a
# 60 s run of it peaks at about 46 MB of resident memory.  Clearing a full
# table only costs repeated walks, never counts.
SEARCH_TABLE_CAP = 65_536


def _search_at_level(cs: CoverSequence, kappa: int, level: int):
    """Exhaustive assignment search at one subdivision level.

    Complete for star-set families at this level: any valid family
    sequence induces a total assignment of stage vertices to families
    whose per-family adjacency components each fit inside one source
    element, and conversely every such assignment yields a valid
    refinement with the components as elements.

    Domains are forward-checked (Haralick & Elliott 1980) and kept
    transposed.  `holds[fam][e]` is the mask of vertices that element e of
    family fam (the level-fam source elements, in cover order) could still
    hold: those whose star e contains (`CoverSequence.containing`, read off
    the padded cover's holders at the common level), less the neighbours of
    every fam component that e cannot hold.  Vertex j's domain in fam is
    the set of e whose `holds[fam][e]` has bit j, and `live[fam]`, the OR of
    `holds[fam]`, is the set of vertices with a nonempty domain (both are
    read only under `unassigned`; bits of assigned vertices mean nothing).
    A component is its (member mask, neighbour mask).  Assigning i to fam
    merges i with the fam components whose neighbours hold i, and clears
    the merged neighbours from each element that does not hold i, so those
    neighbours may only join that component through an element that can
    hold all of it; backtracking restores the family's row and components.
    A vertex in no live mask kills the branch, and the branching vertex is
    the one in the fewest live masks, ties going to the lowest index.

    Failed subtrees are answered from a table (nogood recording, Dechter
    1990, storing counts as in Bacchus, Dalmao & Pitassi 2003).  Below a
    node that survives the prune check, the walk reads only its residual
    state, and the table keys that state canonically, so that states whose
    subtrees are provably equal share one entry.  A twin class is a set of
    families with equal core multisets, found once per level, and the twin
    rule opens a member only once its predecessor in the class is open.
    The key holds the unassigned set U, then, for each twin class in
    family order, the sorted multiset of its open members' descriptors.
    A member's descriptor is the set of its nonzero `holds` masks within U
    and the set of its components' nonzero neighbour masks within
    U & `live[fam]`.  Closed (unopened) members are left out.  The key is exact:

    - The walk reads a family's rows only through their OR and the per-row
      update, so row order and repeated rows do not matter, and a row that
      is zero within U stays zero and adds nothing.
    - A component's members matter only to the certificate, which a
      failed subtree never reaches.  A neighbour bit outside `live[fam]`
      never triggers a merge, since no vertex outside it is assigned to
      fam; it only clears bits that no row holds.  A zero mask never
      merges.
    - In a reachable state the open members of a class are a prefix of it,
      so their number fixes which members are closed, and a closed
      member's rows are its initial rows within U.
    - Permuting the open members of a class mirrors the subtree: the
      branching vertex is symmetric in the families, and the twin rule
      reads only the class prefix.  Node and prune counts are equal.
      Families of different classes are never permuted, since their
      closed members differ; nor are base automorphisms applied, since
      ties break by vertex index and those subtrees differ.

    Two nodes with equal keys therefore root subtrees with equal node and
    prune counts, so a failed subtree's counts are stored under its key
    and added, without a walk, wherever the key recurs.  A found subtree ends the search and is never
    stored, so the tree, the audits and the first certificate are those of
    the walk without a table.  The audit counts every node and prune of
    the full tree, looked up or walked, in Python ints: one level-3 subtree
    holds more than 2**32 nodes.  The table is released when the level's
    search ends, and cleared whenever it reaches `SEARCH_TABLE_CAP`
    entries.

    The walk recurses once per assigned vertex.  A stage too deep for the
    interpreter's stack raises LevelBudgetExceeded instead of a
    RecursionError; which level trips depends on the caller's depth.
    """
    space = cs.space
    common = max(level, cs.working_level)
    stage = space.stage_complex(level)
    verts = sorted(stage.vertices, key=vlabel)
    index = {v: i for i, v in enumerate(verts)}
    nv = len(verts)

    # Two stage vertices share a simplex iff they share an edge.
    adj = [sum(1 << index[w] for w in stage.neighbours[v]) for v in verts]

    padded = pad_levels(cs, kappa)
    rows = padded.pushed(kappa, common)
    position = {
        (eid, n): j for n, row in enumerate(rows) for j, (eid, _) in enumerate(row)
    }

    holds = [[0] * len(row) for row in rows]
    for i, v in enumerate(verts):
        star = push_star(StarSet(space, level, frozenset([v])), common)
        for eid, fam in padded.containing(kappa, common, star.core_vertices):
            holds[fam][position[eid, fam]] |= 1 << i
    live = [reduce(or_, row, 0) for row in holds]
    comps: list = [[] for _ in range(kappa)]

    # Families whose element point sets agree are interchangeable.  The twin
    # classes, each in family order; breaking that symmetry (a member may
    # only be opened once the member `before` it in its class is open)
    # preserves satisfiability.
    twins: dict = {}
    for fam, row in enumerate(rows):
        cores = frozenset(Counter(star.core_vertices for _, star in row).items())
        twins.setdefault(cores, []).append(fam)
    classes = list(twins.values())
    before = {fam: g for members in classes for g, fam in zip(members, members[1:])}
    # Key fields are `width` bits: enough for a mask of nv bits, a count of
    # open members (at most kappa), of rows, and of components (at most nv).
    width = max(nv, kappa.bit_length(), max(map(len, rows)).bit_length())

    table: dict = {}
    nodes = prunes = 0

    def dfs(unassigned: int) -> bool:
        nonlocal nodes, prunes
        if unassigned == 0:
            return True
        # at_least[c]: unassigned vertices viable in at least c families.
        at_least = [unassigned] + [0] * (kappa + 1)
        for mask in live:
            for c in range(kappa, 0, -1):
                at_least[c] |= at_least[c - 1] & mask
        if unassigned != at_least[1]:
            prunes += 1
            return False
        # The canonical residual state as one int: a leading 1, then U and
        # per twin class the count of its open members in `width`-bit
        # fields, each followed by the class's descriptors in sorted order.
        # A descriptor is a leading 1, then its count of nonzero holds masks
        # within U, those masks in order, its count of nonzero neighbour
        # masks within U & live, and those masks in order.  Each part
        # says where it ends, so the key is injective.
        key = 1 << width | unassigned
        for members in classes:
            descriptors = []
            for fam in members:
                fam_comps = comps[fam]
                if not fam_comps:
                    continue
                masks = {h & unassigned for h in holds[fam]}
                masks.discard(0)
                d = 1 << width | len(masks)
                for h in sorted(masks):
                    d = d << width | h
                near = unassigned & live[fam]
                masks = {a & near for _, a in fam_comps}
                masks.discard(0)
                d = d << width | len(masks)
                for a in sorted(masks):
                    d = d << width | a
                descriptors.append(d)
            descriptors.sort()
            key = key << width | len(descriptors)
            for d in descriptors:
                key = key << d.bit_length() | d
        counts = table.get(key)
        if counts is not None:
            nodes += counts[0]
            prunes += counts[1]
            return False
        nodes_before, prunes_before = nodes, prunes
        for c in range(1, kappa + 1):
            fewest = at_least[c] & ~at_least[c + 1]
            if fewest:
                break
        bit = fewest & (-fewest)
        for fam in range(kappa):
            if not live[fam] & bit:
                continue
            fam_comps = comps[fam]
            if not fam_comps and fam in before and not comps[before[fam]]:
                continue
            nodes += 1
            members, around = bit, adj[bit.bit_length() - 1]
            kept = []
            for comp in fam_comps:
                if comp[1] & bit:
                    members |= comp[0]
                    around |= comp[1]
                else:
                    kept.append(comp)
            kept.append((members, around))
            comps[fam] = kept
            row = holds[fam]
            fam_live = live[fam]
            holds[fam] = [h if h & bit else h & ~around for h in row]
            live[fam] = reduce(or_, holds[fam], 0)
            if dfs(unassigned ^ bit):
                return True
            comps[fam] = fam_comps
            holds[fam] = row
            live[fam] = fam_live
        if len(table) >= SEARCH_TABLE_CAP:
            table.clear()
        table[key] = (nodes - nodes_before, prunes - prunes_before)
        return False

    try:
        found = dfs((1 << nv) - 1)
    except RecursionError:
        raise LevelBudgetExceeded(f"the level-{level} search is too deep for the stack") from None
    finally:
        table.clear()
    audit = SearchAudit(level, nodes, prunes, found)
    if not found:
        return None, audit
    families = []
    for fam_comps in comps:
        row = []
        for members, _ in fam_comps:
            vs = frozenset(verts[i] for i in range(nv) if members >> i & 1)
            row.append((min(vlabel(v) for v in vs), StarSet(space, level, vs)))
        families.append(tuple(sorted(row, key=lambda e: e[0])))
    return CRefinement(tuple(families), kappa, cs), audit


def search_c_refinement(
    cs: CoverSequence, kappa: int, max_level: int, min_level: int = 0
) -> SearchResult:
    """Scan subdivision levels for a kappa-family refinement certificate.

    Returns the first certificate found, or model-relative exhaustion at
    `max_level` with the full per-level enumeration audit.  An empty range
    of levels (`max_level` below `min_level`) raises InvalidArgument.
    """
    if kappa < 1:
        raise InvalidArgument("kappa must be at least 1")
    if max_level < min_level:
        raise InvalidArgument(f"no levels from {min_level} up to {max_level}")
    audits = []
    for level in range(min_level, max_level + 1):
        refinement, audit = _search_at_level(cs, kappa, level)
        audits.append(audit)
        if refinement is not None:
            return SearchResult("found", level, refinement, tuple(audits))
    return SearchResult("exhausted", max_level, None, tuple(audits))


class MuMode(NamedTuple):
    """Family-count regime for the equivalence driver."""

    kind: str  # "omega_plus_one" | "omega" | "n_plus_one"
    n: int | None = None


def omega_plus_one() -> MuMode:
    return MuMode("omega_plus_one")


def omega() -> MuMode:
    return MuMode("omega")


def n_plus_one(n: int) -> MuMode:
    if n < 0:
        raise InvalidArgument("n must be nonnegative")
    return MuMode("n_plus_one", n)


class MuReport(NamedTuple):
    """Certificates and predicate outcomes of one driver run."""

    mode: str
    n: int | None
    kappa: int
    dim: int
    success: bool
    failure: str | None = None
    refinement_method: str | None = None
    refinement_ok: bool = False
    family_sizes: tuple = ()
    canonical_level: int | None = None
    map_is_simplicial: bool = False
    map_is_canonical: bool = False
    map_is_selection: bool = False
    roundtrip_ok: bool = False
    roundtrip_family_sizes: tuple = ()
    search_audits: tuple = ()
    # "found" | "exhausted" when the refinement was searched for, else None.
    search_status: str | None = None


def mu_driver(
    cs: CoverSequence, mode: MuMode, max_level: int = DEFAULT_MAX_LEVEL
) -> MuReport:
    """Run both equivalence directions for the family count set by `mode`.

    (a) find a refinement (barycenter constructor when the dimension
    allows, audited search otherwise); (b) build a canonical map for the
    refinement and transfer it along the refinement map; (c) extract the
    star-set fibers back and verify them against the original covers.
    """
    d = dim_oracle(cs.space)
    if mode.kind == "n_plus_one":
        kappa = mode.n + 1
    else:
        kappa = d + 1
    base = dict(mode=mode.kind, n=mode.n, kappa=kappa, dim=d)

    padded = pad_levels(cs, kappa)
    refinement = None
    method = None
    audits: tuple = ()
    status = None

    def report(**outcome) -> MuReport:
        """The report of the run so far (method, audits and status as they
        stand now) with the given outcome fields."""
        return MuReport(
            refinement_method=method, search_audits=audits, search_status=status,
            **base, **outcome,
        )

    try:
        if kappa > d and all(level_covers(padded, k) for k in range(kappa)):
            method = "constructor"
            refinement = ostrand_refine(padded, kappa - 1, max_level)
        else:
            method = "search"
            result = search_c_refinement(padded, kappa, max_level)
            audits = result.audits
            status = result.status
            if status == "found":
                refinement = result.refinement
            else:
                return report(
                    success=False, failure=f"search exhausted at level {max_level}"
                )

        verdict = verify_c_refinement(refinement)
        fine = refinement_as_cover(refinement)
        rmap = refinement_map(fine, padded, kappa)
        h = build_canonical(fine, kappa, DELTA, max_level)
        f = transfer_selection(h, rmap)
        simplicial = check_simplicial_map(f.map)
        canonical = is_canonical(f, padded, kappa)
        selection = is_selection(f, padded, kappa)
        extracted = extract_c_refinement(f, padded, kappa)
        back = CRefinement(tuple(extracted), kappa, padded)
        roundtrip = verify_c_refinement(back)
        success = bool(
            verdict and simplicial and canonical and selection and roundtrip
        )
        return report(
            success=success,
            failure=None if success else "a certificate failed verification",
            refinement_ok=bool(verdict),
            family_sizes=tuple(len(f) for f in refinement.families),
            canonical_level=f.subdivision_level,
            map_is_simplicial=simplicial,
            map_is_canonical=canonical,
            map_is_selection=selection,
            roundtrip_ok=bool(roundtrip),
            roundtrip_family_sizes=tuple(len(f) for f in back.families),
        )
    except LevelBudgetExceeded as budget:
        budget.report = report(success=False, failure=str(budget))
        raise
