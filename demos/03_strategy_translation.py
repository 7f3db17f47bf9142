"""Carrying strategies between games along a translation pack.

A pack pulls the target game's moves back to source moves and pushes
source selections forward to target selections.  Once its two axioms
check out (pushed selections are legal; pushed winning sequences stay
winning), four transfers follow mechanically: Markov and full tables
for Two push forward, scripts and full strategies for One pull back.
The full transfers take the state-keyed witness ``solve`` returns as it
is.  Here the pack comes from a single item map, lifted pointwise.
"""

import itertools

from selgames import (
    Direction,
    ExplicitSet,
    Kind,
    apply_translation,
    check_translation_axioms,
    find_markov_two,
    find_predetermined_one,
    lift_item_map,
    make_game,
    solve,
    verify,
)

# target game: items 0,1,2 where 0 and 1 are interchangeable for the
# source game obtained by collapsing them
phi = {0: 0, 1: 0, 2: 2}
dst_family = (frozenset({0, 1}), frozenset({2}))
src_family = (frozenset({0}), frozenset({2}))

src = make_game(
    [src_family] * 2, 2, Kind.SINGLE,
    ExplicitSet(winning=(frozenset({0}), frozenset({2}), frozenset({0, 2}))),
)
winning_dst = tuple(
    frozenset(t)
    for r in range(4)
    for t in itertools.combinations((0, 1, 2), r)
    if frozenset(phi[y] for y in t) in src.target.winning
)
dst = make_game([dst_family] * 2, 2, Kind.SINGLE, ExplicitSet(winning=winning_dst))

pack = lift_item_map(lambda y, r: phi[y], src, dst)
print("pack move pullbacks per round:", pack.t_one)
print("axioms check:", bool(check_translation_axioms(pack, src, dst)))

print("\n== pushing Two's strategies forward")
markov = find_markov_two(src)
out = apply_translation(pack, src, dst, Direction.MARKOV_TWO, markov)
print("source Markov:", markov.table)
print("target Markov:", out.table)
print("target Markov verifies:", verify(dst, out).valid)

out_full = apply_translation(pack, src, dst, Direction.FULL_TWO, solve(src).witness)
print("full-table transfer verifies:", verify(dst, out_full).valid)

print("\n== pulling One's strategies back")
family = (frozenset({0}), frozenset({1}))
target = ExplicitSet(winning=(frozenset({0, 1}),))
mirror_src = make_game([family] * 2, 2, Kind.SINGLE, target)
mirror_dst = make_game([family] * 2, 2, Kind.SINGLE, target)
identity = lift_item_map(lambda y, r: y, mirror_src, mirror_dst)
script = find_predetermined_one(mirror_dst)
pulled = apply_translation(
    identity, mirror_src, mirror_dst, Direction.PRE_ONE_PULLBACK, script
)
print("target script:", script.indices, "-> source script:", pulled.indices)
print("pulled script verifies:", verify(mirror_src, pulled).valid)

pulled_full = apply_translation(
    identity, mirror_src, mirror_dst, Direction.FULL_ONE_PULLBACK,
    solve(mirror_dst).witness,
)
print("pulled full strategy verifies:", verify(mirror_src, pulled_full).valid)
