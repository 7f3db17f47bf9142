"""Seeded property fuzzing with replayable, byte-stable reports.

The fuzzer draws instances deterministically per (seed, suite), checks a
property family per suite, and serializes any violation as a scenario
payload ready for replay.  Every suite gates: a violation fails the
run.  A suite may also record findings, such as the translation suite's
count of transfers per direction; findings never fail a run.

Command-line equivalents:
    selgames fuzz --seed 42 --count 100 --json
    selgames fuzz --seed 1 --count 30 --suite translation
    selgames corpus run
"""

from selgames import fuzz
from selgames.serialize import canonical_dumps

print("== a clean gated run")
report = fuzz(seed=42, count=30)
for name, result in report.results.items():
    print(f"  {name}: {result.instances} instances,"
          f" {len(result.violations)} violations,"
          f" {result.budget_exceeded} budget-exceeded")
print("total violations:", report.total_violations)

print("\n== identical seeds give identical bytes")
again = fuzz(seed=42, count=30)
print("byte-identical:",
      canonical_dumps(report.to_json()) == canonical_dumps(again.to_json()))

print("\n== findings record what a suite did, and never gate")
for finding in report.results["translation"].findings:
    print("  ", finding)
print("(the translation suite transferred this many winning strategies in")
print(" each direction, each verified on the game it plays)")
