"""Tour of cover sequences and their nerves on a subdivided edge.

Run with:  python3 demos/demo_covers_and_nerves.py
"""

from polycover import (
    delta_at_carrier,
    delta_subcomplex,
    kernel_query,
    nerve,
    unindexed_delta,
    vlabel,
)
from polycover.fixtures import rem_cover


def show(complex_like, title):
    print(f"  {title}:")
    for s in complex_like.sorted_simplices():
        print("    ", sorted(vlabel(v) for v in s))


# The ground space is an edge subdivided once, so its level-1 vertices are
# the two ends and the midpoint.  Three families cover it:
#
#   level 0:  P  = stars of {end a, midpoint}     Q' = star of end b
#   level 1:  P' = star of end a                  Q  = stars of {midpoint, end b}
#   level 2:  P and Q again, this time side by side
cs = rem_cover()
print("working level:", cs.working_level)
for n, family in enumerate(cs.levels):
    names = ", ".join(
        f"{eid}={{{','.join(sorted(vlabel(v) for v in star.core_vertices))}}}"
        for eid, star in family
    )
    print(f"  level {n}: {names}")

# P (level 0) and Q (level 1) overlap around the midpoint; the kernel query
# hands back a simplex all of whose interior points lie in both.
witness = kernel_query(cs, [("P", 0), ("Q", 1)])
print("\nkernel of {(P,0),(Q,1)} is witnessed by", sorted(vlabel(v) for v in witness))
print("kernel of {(Q',0),(P',1)}:", kernel_query(cs, [("Q'", 0), ("P'", 1)]))

# The nerve of the first two levels records every overlap; the one-per-level
# subcomplex additionally refuses pairs drawn from the same level.
print()
show(nerve(cs, 2), "nerve of levels 0-1")
show(delta_subcomplex(cs, 2), "one-per-level subcomplex")

# Every point of the space sees a sub-collection: the simplices whose kernel
# contains it.  Points only know their carrier, so that value is indexed by
# working-stage simplices.
m = cs.space.vertex_at(1, "b(a,b)")
show(delta_at_carrier(cs, 2, frozenset({m})), "value at the midpoint carrier")

# Why index by (element, level) pairs rather than by raw point sets?  P and Q
# reappear verbatim at level 2.  With indexed vertices the prefixes only ever
# grow; with deduplicated raw sets the pair {P, Q} is legal for two levels
# and then abruptly illegal once level 2 enters.
u2, u3 = unindexed_delta(cs, 2), unindexed_delta(cs, 3)
print("\nindexed prefixes monotone:",
      delta_subcomplex(cs, 2).subcomplex_of(delta_subcomplex(cs, 3)))
print("unindexed prefixes monotone:", u2.subcomplex_of(u3))
print("offending pair present at kappa=2:", frozenset({"P@0", "Q@1"}) in u2.simplices)
print("still present at kappa=3:", frozenset({"P@0", "Q@1"}) in u3.simplices)
