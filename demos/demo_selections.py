"""Canonical maps, selections, and stepwise extensions over cones.

Run with:  python3 demos/demo_selections.py
"""

from polycover import (
    CanonicalMap,
    SimplicialMap,
    bootstrap_skeletal_selection,
    build_canonical,
    carrier_tables,
    check_simplicial_map,
    cone_extend,
    coned,
    cover_sequence,
    extend_skeletal_selection,
    extract_c_refinement,
    is_canonical,
    is_selection,
    is_skeletal_selection,
    refinement_map,
    star_set,
    transfer_selection,
    validate_complex,
    vlabel,
)
from polycover.fixtures import edge_space, rem_cover

# --- canonical maps -----------------------------------------------------
# Shrink the midpoint cover to two disjoint levels: the star of end a, and
# the stars of midpoint+end b.  They still cover the edge jointly.
cs = rem_cover()
space = cs.space
fine = cover_sequence(
    space,
    [
        [("P'", star_set(space, 1, ["b(a)"]))],
        [("Q", star_set(space, 1, ["b(a,b)", "b(b)"]))],
    ],
)

# A canonical map pulls the open star of each nerve vertex back inside the
# matching cover element.  The builder subdivides until each vertex star
# fits somewhere and then assigns greedily.
h = build_canonical(fine, 2)
print("built at subdivision level", h.subdivision_level)
for v, image in sorted(h.map.vertex_images.items(), key=lambda kv: vlabel(kv[0])):
    print(f"  {vlabel(v)} -> {image}")
print("canonical:", is_canonical(h, fine, 2), " selection:", is_selection(h, fine, 2))

# The two predicates are two readings of the same condition (star preimages
# inside elements vs simplices meeting the cores they map onto) and agree on
# every total vertex map, broken ones included.
bad_images = {v: ("P'", 0) for v in h.map.source.vertices}
bad = CanonicalMap(1, SimplicialMap(h.map.source, h.map.target, bad_images), h.kind)
print("constant-to-P' map:", is_canonical(bad, fine, 2), is_selection(bad, fine, 2))

# Since the fine families refine the original cover, composing with the
# refinement map transfers the selection to the original.
r = refinement_map(fine, cs, 2)
f = transfer_selection(h, r)
print("transferred map is a selection for the original cover:",
      is_selection(f, cs, 2))

# And back again: fibers of a canonical map into the one-per-level complex
# are pairwise-disjoint star-set families refining the cover.
families = extract_c_refinement(f, cs, 2)
for n, family in enumerate(families):
    for eid, star in family:
        print(f"  fiber of ({eid},{n}) =",
              sorted(vlabel(v) for v in star.core_vertices))

# --- extension over a cone ----------------------------------------------
# Given nested targets S_0 within S_1 and one witness vertex q coning S_0
# into S_1, any map of two points into S_0 extends over the cone on its
# source, with the apex going to q.
t = validate_complex([{"ya", "yb", "q"}])
g = SimplicialMap(validate_complex([{"a"}, {"b"}]), t, {"a": "ya", "b": "yb"})
chain = [validate_complex([{"ya"}, {"yb"}]), t]
extended = cone_extend(g, "v", "q", chain)
print("\ncone extension valid:", check_simplicial_map(extended))
print("new edges:", sorted(sorted(vlabel(u) for u in extended.image(s))
                           for s in extended.source.simplices if len(s) == 2))

# --- skeletal selections -------------------------------------------------
# Carrier tables model a lower locally constant set-valued target: bigger
# carriers see bigger values.  With a cone witness in every level-0 value,
# a one-vertex-per-star selection extends level by level forever.
e = edge_space()
target = coned(validate_complex([{"t:a", "t:b"}]), "z")
table = {
    tau: coned(validate_complex([{f"t:{vlabel(v)}" for v in tau}]), "z")
    for tau in e.stage_complex(0).simplices
}
phi = carrier_tables(e, 0, target, [table] * 5, "z")
cover, f0 = bootstrap_skeletal_selection(phi)
print("\nskeletal at level 0:", is_skeletal_selection(f0, cover, phi))
for step in range(3):
    cover, f0 = extend_skeletal_selection(f0, cover, phi)
    print(f"after extension {step + 1}: levels={cover.num_levels},",
          "skeletal:", is_skeletal_selection(f0, cover, phi))
