"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is computed exactly; the random suites are seeded
and deterministic.  Runtime budgets are asserted where stated.
"""

import ast
import pathlib
import random
import time

import polycover
from polycover import (
    CanonicalMap,
    CRefinement,
    SimplicialMap,
    bootstrap_skeletal_selection,
    build_canonical,
    carrier_tables,
    check_simplicial_map,
    cone_extend,
    coned,
    delta_at_carrier,
    delta_subcomplex,
    extend_skeletal_selection,
    extract_c_refinement,
    is_canonical,
    is_selection,
    is_setvalued_selection,
    is_skeletal_selection,
    nerve,
    ostrand_refine,
    pad_levels,
    refinement_as_cover,
    refinement_map,
    search_c_refinement,
    transfer_selection,
    unindexed_delta,
    validate_complex,
    verify_c_refinement,
    vertex_selection,
    vlabel,
)
from polycover.covers import FULL_NERVE
from polycover.dimension import dim_oracle
from polycover.fixtures import (
    boundary_space,
    edge_space,
    rem_cover,
    tri_space,
    vertex_star_cover,
)

from helpers import random_cover, random_disjoint_cover


def fs(*vs):
    return frozenset(vs)


SPACES = (edge_space, tri_space, boundary_space)


def test_criterion_1_disjoint_levels_nerve_equality():
    started = time.monotonic()
    rng = random.Random(20260808)
    trials = 0
    while trials < 200:
        for space_fn in SPACES:
            space = space_fn()
            level = rng.randint(0, 2)
            if space_fn is tri_space and level == 2:
                level = rng.randint(0, 1)
            cs = random_disjoint_cover(space, rng, level, rng.randint(1, 3))
            assert delta_subcomplex(cs) == nerve(cs)
            trials += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"\nPASS criterion 1: {trials} disjoint-level sequences, "
        f"one-per-level complex equals nerve exactly ({elapsed:.2f}s)"
    )


def test_criterion_2_prefix_cone_monotonicity():
    rng = random.Random(97)
    trials = 0
    checks = 0
    while trials < 200:
        for space_fn in SPACES:
            space = space_fn()
            level = rng.randint(0, 1 if space_fn is tri_space else 2)
            cs = random_cover(space, rng, level, rng.randint(2, 3))
            for tau in cs.working_complex().simplices:
                for n in range(cs.num_levels - 1):
                    small = delta_at_carrier(cs, n + 1, tau)
                    big = delta_at_carrier(cs, n + 2, tau)
                    for eid, star in cs.levels[n + 1]:
                        if tau & star.core_vertices:
                            assert coned(small, (eid, n + 1)).subcomplex_of(big)
                            checks += 1
            trials += 1
    print(
        f"\nPASS criterion 2: {trials} sequences, {checks} carrier/element "
        "cone inclusions, zero violations"
    )


def test_criterion_3_indexed_vs_unindexed_prefixes():
    cs = rem_cover()
    for kappa in (1, 2):
        small = delta_subcomplex(cs, kappa)
        big = delta_subcomplex(cs, kappa + 1)
        assert small.subcomplex_of(big)
    u2 = unindexed_delta(cs, 2)
    u3 = unindexed_delta(cs, 3)
    witness = fs("P@0", "Q@1")
    assert witness in u2.simplices
    assert witness not in u3.simplices
    assert not u2.subcomplex_of(u3)
    print(
        "\nPASS criterion 3: indexed prefixes monotone; unindexed variant "
        "breaks at the duplicated pair"
    )


def test_criterion_4_canonical_iff_selection():
    rng = random.Random(424242)
    agreements = 0
    canonical_seen = 0

    def check(f, cs, kappa):
        nonlocal agreements, canonical_seen
        a = is_canonical(f, cs, kappa)
        b = is_selection(f, cs, kappa)
        assert a == b
        agreements += 1
        if a:
            canonical_seen += 1

    covers = [rem_cover()]
    for space_fn in SPACES:
        covers.append(random_cover(space_fn(), rng, 1, 2, per_level_cover=True))
    per_cover = 500 // len(covers) + 1
    for cs in covers:
        kappa = cs.num_levels
        target = nerve(cs, kappa)
        stage = cs.space.stage_complex(cs.working_level)
        verts = sorted(stage.vertices, key=vlabel)
        elements = [(eid, n) for eid, n, _ in cs.elements(kappa)]
        built = build_canonical(cs, kappa, FULL_NERVE)
        check(built, cs, kappa)
        for _ in range(per_cover):
            style = rng.random()
            if style < 0.6:
                images = {v: rng.choice(elements) for v in verts}
                level = cs.working_level
                source = stage
            else:
                # corrupt the honest map at a few vertices
                level = built.subdivision_level
                source = built.map.source
                images = dict(built.map.vertex_images)
                for v in rng.sample(sorted(source.vertices, key=vlabel), 2):
                    images[v] = rng.choice(elements)
            f = CanonicalMap(
                level, SimplicialMap(source, target, images), FULL_NERVE
            )
            check(f, cs, kappa)
    assert agreements >= 500
    assert canonical_seen > 0
    print(
        f"\nPASS criterion 4: {agreements} maps (honest and corrupted), "
        "canonical-map predicate equals selection predicate on every one"
    )


def _roundtrip(cov, n):
    kappa = n + 1
    padded = pad_levels(cov, kappa)
    refinement = ostrand_refine(padded, n)
    fine = refinement_as_cover(refinement)
    rmap = refinement_map(fine, padded, kappa)
    assert check_simplicial_map(rmap)
    h = build_canonical(fine, kappa)
    f = transfer_selection(h, rmap)
    assert is_canonical(f, padded, kappa)
    assert is_selection(f, padded, kappa)
    families = extract_c_refinement(f, padded, kappa)
    back = CRefinement(tuple(families), kappa, padded)
    report = verify_c_refinement(back)
    assert report.ok, report
    return refinement


def test_criterion_5_refinement_canonical_roundtrip():
    started = time.monotonic()
    tri_cov = vertex_star_cover(tri_space(), 3)
    refinement = _roundtrip(tri_cov, 2)
    assert refinement.kappa == 3
    rng = random.Random(661)
    trials = 0
    while trials < 50:
        for space_fn in SPACES:
            space = space_fn()
            level = rng.randint(0, 1)
            cov = random_cover(space, rng, level, 3, per_level_cover=True)
            _roundtrip(cov, dim_oracle(space))
            trials += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"\nPASS criterion 5: triangle star cover at kappa=3 plus {trials} "
        f"random cover triples, full roundtrip verified ({elapsed:.2f}s)"
    )


def test_criterion_6_dimension_separation():
    started = time.monotonic()
    tri2 = vertex_star_cover(tri_space(), 2)
    exhausted = search_c_refinement(tri2, 2, max_level=2)
    assert exhausted.status == "exhausted"
    assert [a.level for a in exhausted.audits] == [0, 1, 2]
    assert all(a.nodes > 0 and not a.found for a in exhausted.audits)
    assert sum(a.prunes for a in exhausted.audits) > 0
    # The level-2 tree is pinned: any change to the vertex or family order or
    # to pruning moves these counts.
    assert [(a.level, a.nodes, a.prunes) for a in exhausted.audits] == [
        (0, 2, 1),
        (1, 15, 4),
        (2, 345064, 72576),
    ]

    tri3 = vertex_star_cover(tri_space(), 3)
    constructed = ostrand_refine(tri3, 2)
    found = search_c_refinement(tri3, 3, max_level=2)
    assert found.status == "found"
    assert len(found.refinement.families) == len(constructed.families) == 3
    assert verify_c_refinement(found.refinement).ok
    assert verify_c_refinement(constructed).ok

    edge2 = vertex_star_cover(edge_space(), 2)
    edge_found = search_c_refinement(edge2, 2, max_level=1)
    assert edge_found.status == "found" and edge_found.level <= 1
    at_one = search_c_refinement(edge2, 2, max_level=1, min_level=1)
    assert at_one.status == "found" and at_one.level == 1
    assert verify_c_refinement(at_one.refinement).ok

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    nodes = sum(a.nodes for a in exhausted.audits)
    print(
        f"\nPASS criterion 6: two families exhaust on the triangle "
        f"({nodes} nodes audited), three succeed; the edge splits at "
        f"level 1 ({elapsed:.2f}s)"
    )


def _random_subcomplex(rng, c, force_vertex=None):
    pool = sorted(c.simplices, key=lambda s: sorted(vlabel(v) for v in s))
    picked = [s for s in pool if rng.random() < 0.5]
    if force_vertex is not None:
        picked.append(fs(force_vertex))
    if not picked:
        picked = [pool[0]]
    return validate_complex([set(s) for s in picked])


def _random_cone_instance(rng):
    names = ["p", "r", "s", "t"][: rng.randint(2, 4)]
    base = validate_complex(
        [set(rng.sample(names, rng.randint(1, len(names)))) for _ in range(2)]
    )
    target = coned(base, "q")
    n = rng.randint(0, 2)
    chain = [_random_subcomplex(rng, target, force_vertex="q")]
    for _ in range(n + 1):
        grown = coned(chain[-1], "q")
        extra = _random_subcomplex(rng, target)
        chain.append(validate_complex([set(s) for s in grown.simplices | extra.simplices]))
    anchor = max(chain[0].simplices, key=len)
    letters = ["x", "y", "z"][: rng.randint(1, 3)]
    sigma_sets = [set(rng.sample(letters, rng.randint(1, min(n + 1, len(letters)))))
                  for _ in range(2)]
    sigma = validate_complex(sigma_sets)
    anchor_list = sorted(anchor, key=vlabel)
    images = {v: rng.choice(anchor_list) for v in sigma.vertices}
    g = SimplicialMap(sigma, target, images)
    return g, chain


def test_criterion_7_cone_extension_suite():
    rng = random.Random(12321)
    single = 0
    iterated = 0
    for _ in range(100):
        g, chain = _random_cone_instance(rng)
        h = cone_extend(g, "v*", "q", chain)
        assert check_simplicial_map(h)
        for v in g.source.vertices:
            assert h.vertex_images[v] == g.vertex_images[v]
        for k, member in enumerate(chain):
            for s in h.source.simplices:
                if len(s) <= k + 1:
                    assert h.image(s) in member.simplices
        single += 1
        extended = chain + [coned(chain[-1], "q")]
        h2 = cone_extend(h, "w*", "q", extended)
        assert check_simplicial_map(h2)
        for v in h.source.vertices:
            assert h2.vertex_images[v] == h.vertex_images[v]
        for k, member in enumerate(extended):
            for s in h2.source.simplices:
                if len(s) <= k + 1:
                    assert h2.image(s) in member.simplices
        iterated += 1
    print(
        f"\nPASS criterion 7: {single} cone extensions restrict exactly and "
        f"respect every skeleton bound; {iterated} iterated twice"
    )


def _phi_for(space, base_names):
    """q-coned carrier tables at level 0: the value at a carrier is the
    full complex on the targets of its vertices, coned by the witness."""
    target = coned(validate_complex([set(base_names.values())]), "z")
    table = {}
    for tau in space.stage_complex(0).simplices:
        table[tau] = coned(
            validate_complex([{base_names[v] for v in tau}]), "z"
        )
    return carrier_tables(space, 0, target, [table] * 5, "z")


def test_criterion_8_skeletal_selection_suite():
    for space_fn in (edge_space, tri_space):
        space = space_fn()
        names = {v: f"t:{v}" for v in space.base.vertices}
        phi = _phi_for(space, names)
        family, vmap = vertex_selection(phi)
        for eid, star in family:
            (v,) = star.core_vertices
            for tau in space.stage_complex(0).simplices:
                if v in tau:
                    assert fs(vmap[eid]) in phi.tables[0][tau].simplices
        cs, f = bootstrap_skeletal_selection(phi)
        assert is_skeletal_selection(f, cs, phi)
        for _ in range(3):
            cs, f = extend_skeletal_selection(f, cs, phi)
            assert is_skeletal_selection(f, cs, phi)
        for n in range(cs.num_levels):
            assert is_setvalued_selection(f, cs, phi, n)
    print(
        "\nPASS criterion 8: vertex selections satisfy the table at every "
        "carrier; three extensions keep the skeletal predicate on the edge "
        "and the triangle, and the composite stays inside every level table"
    )


def test_criterion_9_exact_arithmetic_audit():
    src = pathlib.Path(polycover.__file__).parent
    forbidden_modules = {"math", "cmath", "random", "statistics", "numpy", "scipy"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                offenders.append(f"{path.name}:{node.lineno} float literal")
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] in forbidden_modules:
                        offenders.append(f"{path.name}:{node.lineno} import {alias.name}")
            if isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] in forbidden_modules:
                    offenders.append(f"{path.name}:{node.lineno} from {node.module}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                offenders.append(f"{path.name}:{node.lineno} float() call")
    assert not offenders, offenders

    # runtime guard: float coordinates are rejected outright
    import pytest
    from polycover.selftest import stage_point
    from polycover.errors import InvalidPoint

    with pytest.raises(InvalidPoint):
        stage_point(edge_space(), 0, {"a": 0.5, "b": 0.5})
    print(
        "\nPASS criterion 9: no float literals, float() calls, or "
        "floating-point module imports anywhere in the package; float "
        "coordinates rejected at runtime"
    )
