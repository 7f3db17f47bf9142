"""Strengthening One's strategies over filter-base move families.

Winning a cover game at one horizon says nothing about subsequences of
the play.  Over a filter base One can do better: answer each history
with a move inside the intersection of everything the original strategy
would have offered along every subsequence.  Then each subsequence of a
play is itself a play of the original, so wins at horizons m..n force
every length->=m subsequence of the selections into the target.  The
script version replaces intersections by running unions inside an ideal
base and upgrades plain covers to window covers.
"""

from selgames import (
    CoversFamily,
    EverySubsequence,
    Kind,
    Not,
    PreOne,
    build_point_open,
    discrete_space,
    family_of,
    find_predetermined_one,
    intersect_predetermined,
    make_game,
    strengthen_one_for_subsequences,
    verify,
)
from selgames.transforms import is_filter_base

space = discrete_space(3)
base = family_of(space, [{0}, {1}, {0, 1}])
targets = family_of(space, [{0}])

print("== neighborhoods of an ideal base form a filter base")
game = build_point_open(space, base, targets, 3)
print("filter base?", is_filter_base(game.moves[0]))

print("\n== uniform wins strengthen to subsequence-proof wins")
low = 1  # a single reply above {0} already covers the target family
# One's least winning script at one round, padded: it wins every horizon
pre = find_predetermined_one(game.truncated(low))
s = PreOne(indices=pre.indices + (0,) * (3 - low))
sigma = strengthen_one_for_subsequences(s, game, low)
core = Not(EverySubsequence(
    inner=CoversFamily(full=space.full, members=targets.members), m=low,
))
core_game = make_game([game.moves[0]] * 3, 3, Kind.SINGLE, core)
print("result wins the every-subsequence target:",
      verify(core_game, sigma).valid)

print("\n== the script version: running unions upgrade covers to windows")
both = family_of(space, [{0}, {1}])
script = PreOne(indices=(0, 1, 0))
for h in (2, 3):
    ok = verify(
        build_point_open(space, base, both, h),
        PreOne(indices=script.indices[:h]),
    ).valid
    print(f"script wins the plain cover target at horizon {h}: {ok}")
upgraded = intersect_predetermined(script, base)
print("upgraded script (family indices):", script.indices, "->", upgraded.indices)
window_game = build_point_open(space, base, both, 3, window=2)
print("upgraded script wins width-2 windows at horizon 3:",
      verify(window_game, upgraded).valid)

print("\n== the predetermined synthesizer agrees")
print("least winning script for the window game:",
      find_predetermined_one(window_game))
