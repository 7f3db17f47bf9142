"""Finite spaces, set families, and listed covers.

Ground items are integers 0..size-1 and subsets are bitmasks, so a
topology is literally a set of ints closed under | and &.  This script
walks through building spaces, reading family flags, judging listed
covers, and the one genuinely surprising finite phenomenon: an ideal
base that covers the universe admits no covers at all.
"""

from selgames import (
    build_topology,
    classify_cover,
    closure_family,
    discrete_space,
    family_of,
    indiscrete_space,
    min_covers,
    refines,
    singleton_family,
)


def show(title):
    print(f"\n== {title}")


show("building topologies from a subbasis")
space = build_topology(3, [0b001, 0b011])  # {0} and {0,1}
print("opens:", sorted(f"{u:03b}" for u in space.opens))
print("is {1} open?", space.is_open(0b010), "| closed?", space.is_closed(0b010))

show("closure replaces members by their smallest closed supersets")
fam = family_of(space, [{0}, {1}])
closed = closure_family(space, fam)
print("members before:", [f"{m:03b}" for m in fam.members])
print("members after: ", [f"{m:03b}" for m in closed.members])

show("family flags are read off the members")
d3 = discrete_space(3)
ideal = family_of(d3, [{0}, {1}, {0, 1}])
print("ideal base?", ideal.ideal_base, "| covers universe?", ideal.covers_universe)
singles = singleton_family(d3)
print("singletons ideal base?", singles.ideal_base)

show("judging a listed cover: plain verdict, multiplicity, window width")
verdict = classify_cover(d3, singles, [0b011, 0b110])
print("[{0,1},{1,2}] vs singletons ->", verdict)
print("note: {1} lies in both listed sets, {0} and {2} in one each")
interleaved = classify_cover(d3, singles, [0b011, 0b110, 0b101, 0b011])
print("longer interleaved list ->", interleaved)

show("the window width is order-sensitive; nothing else is")
d2 = discrete_space(2)
s2 = singleton_family(d2)
print("[{0},{1},{0},{1}] window:", classify_cover(d2, s2, [1, 2, 1, 2]).window)
print("[{0},{0},{1},{1}] window:", classify_cover(d2, s2, [1, 1, 2, 2]).window)

show("minimal covers, enumerated exactly")
print("singletons on 2 points:", min_covers(d2, s2).covers)
print("(the only proper open above {x} is {x} itself)")

show("an ideal base covering the universe admits no covers")
base = family_of(d2, [{0}, {1}, {0, 1}])
print("ideal base?", base.ideal_base, "| covers?", base.covers_universe)
print("min covers:", min_covers(d2, base).covers)
print("(closing under unions puts the whole space in the family, and the")
print(" whole space has no proper open superset)")

show("refinement says exactly which cover classes embed")
pairs = family_of(d3, [{0, 1}, {0, 2}, {1, 2}])
print("singletons refine pairs?", refines(singles, pairs))
print("pairs refine singletons?", refines(pairs, singles))
print("so every cover judged good for pairs is good for singletons, not vice versa")

show("degenerate spaces behave")
tiny = indiscrete_space(2)
print("indiscrete opens:", sorted(tiny.opens))
print("points closed?", tiny.points_closed())
