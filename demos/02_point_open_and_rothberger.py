"""The two stock cover games, solved exactly, and their duality.

In the point-open shape One names a family member and Two answers with a
proper open superset; Two wins by never assembling a cover of the second
family.  In the Rothberger shape One offers a minimal cover and Two
picks one open per round, trying to assemble a cover.  The two games
mirror each other: whoever wins one game, the other player wins the
mirrored game, at full information and at the script/table level alike.
"""

from selgames import (
    build_point_open,
    build_rothberger,
    check_duality,
    discrete_space,
    find_markov_two,
    find_predetermined_one,
    play,
    singleton_family,
    solve,
    verify,
)

space = discrete_space(2)
singles = singleton_family(space)

print("== point-open on two points, singleton families")
for horizon in (1, 2):
    game = build_point_open(space, singles, singles, horizon)
    det = solve(game)
    report = verify(game, det.witness)
    print(f"horizon {horizon}: winner {det.winner.value}"
          f" ({det.nodes_explored} nodes, witness verifies: {report.valid})")
    print(f"  witness: {len(det.witness.table)} (round, state) rows,"
          f" plays checked: {report.plays_checked}")

print("\nOne needs as many rounds as the cofinality of the family pair:")
game2 = build_point_open(space, singles, singles, 2)
script = find_predetermined_one(game2)
print("winning script at horizon 2:", script)
print("script at horizon 1:", find_predetermined_one(
    build_point_open(space, singles, singles, 1)))

print("\n== a full transcript")
rec = play(game2, script, [1, 2])  # Two replies {0} then {1}
print("moves:", rec.one_moves, "| replies:", rec.two_selections,
      "| winner:", rec.winner.value)

print("\n== Rothberger on the same data")
for horizon in (1, 2):
    game = build_rothberger(space, singles, singles, horizon)
    det = solve(game)
    print(f"horizon {horizon}: winner {det.winner.value}")
markov = find_markov_two(build_rothberger(space, singles, singles, 2))
print("Markov table at horizon 2 (move index, round) -> open:", markov.table)

print("\n== the duality report, computed from both solved games")
report = check_duality(
    build_rothberger(space, singles, singles, 2),
    build_point_open(space, singles, singles, 2),
)
for key, value in report.facts.items():
    print(f"  {key}: {value}")
print("every duality clause holds:", report.all_hold)
