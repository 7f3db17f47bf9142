"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance and instance count is pinned here.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from brute import brute_family_flags
from selgames import (
    Player,
    build_point_open,
    classify_cover,
    discrete_space,
    find_predetermined_one,
    inclusion_pair,
    min_covers,
    refines,
    relative_cofinality,
    solve,
)
from selgames.cli import main
from selgames.fuzzing import (
    suite_determinacy,
    suite_duality,
    suite_gamma,
    suite_ground,
    suite_translation,
    suite_tukey,
    _suite_rng,
)
from selgames.ground import SetFamily, all_topologies

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@contextmanager
def criterion(num: int, name: str, budget: float):
    t0 = time.monotonic()
    failures: list = []
    yield failures
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= budget
    print(
        f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
        f" ({elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert not failures, f"criterion {num}: {failures[:5]}"
    assert elapsed <= budget, f"criterion {num} over budget: {elapsed:.1f}s"


def _family_pair_sample(seed: int, count: int):
    """Seeded sample of (space, fam_a, fam_b) across discrete sizes <= 4.

    One-item spaces admit no legal first family (the only nonempty subset
    is the whole space, which has no proper open superset), so the sample
    ranges over sizes 2..4.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        size = rng.choice([2, 2, 3, 3, 3, 4])
        space = discrete_space(size)
        full = space.full
        proper = list(range(1, full))
        cap_a = 2 if size == 4 else 3
        fam_a = SetFamily.build(
            space, rng.sample(proper, rng.randint(1, min(cap_a, len(proper))))
        )
        fam_b = SetFamily.build(
            space, rng.sample(range(1, full + 1), rng.randint(1, min(3, full)))
        )
        out.append((space, fam_a, fam_b))
    return out


def test_criterion_01_determinacy_and_hierarchy():
    with criterion(1, "determinacy + hierarchy (500 games)", 120.0) as failures:
        res = suite_determinacy(_suite_rng(42, "determinacy"), 500)
        if res.instances != 500:
            failures.append(f"only {res.instances} instances")
        if res.budget_exceeded:
            failures.append(f"{res.budget_exceeded} budget exhaustions")
        failures.extend(v["property"] for v in res.violations)


def test_criterion_02_translation_suite():
    with criterion(2, "strategy translation (200 per direction)", 180.0) as failures:
        res = suite_translation(_suite_rng(42, "translation"), 200)
        per_direction = res.findings[-1]["transferred-per-direction"]
        for direction, n in per_direction.items():
            if n < 200:
                failures.append(f"{direction}: only {n} transfers")
        failures.extend(v["property"] for v in res.violations)


def test_criterion_03_duality_suite():
    with criterion(3, "reflection duality (200 pairs)", 180.0) as failures:
        res = suite_duality(_suite_rng(42, "duality"), 200)
        if res.instances != 200:
            failures.append(f"only {res.instances} instances")
        if res.budget_exceeded:
            failures.append(f"{res.budget_exceeded} budget exhaustions")
        failures.extend(v["property"] for v in res.violations)


def test_criterion_04_predetermined_iff_cofinality():
    with criterion(4, "script existence = bounded cofinality (300 pairs)", 120.0) as failures:
        for space, fam_a, fam_b in _family_pair_sample(2024, 300):
            cof = relative_cofinality(inclusion_pair(fam_a.members, fam_b.members))
            for n in range(0, 5):
                game = build_point_open(space, fam_a, fam_b, n)
                got = find_predetermined_one(game) is not None
                if got != cof.at_most(n):
                    failures.append(
                        (space.size, fam_a.members, fam_b.members, n, repr(cof), got)
                    )


def test_criterion_05_full_win_iff_predetermined():
    with criterion(5, "full-information = script (all-open families)", 60.0) as failures:
        for space, fam_a, fam_b in _family_pair_sample(2024, 300):
            # discrete spaces: the hypothesis is free
            assert brute_family_flags(space, fam_a.members)["all_open"]
            for n in range(0, 5):
                game = build_point_open(space, fam_a, fam_b, n)
                one_wins = solve(game).winner is Player.ONE
                script = find_predetermined_one(game) is not None
                if one_wins != script:
                    failures.append(
                        (space.size, fam_a.members, fam_b.members, n, one_wins, script)
                    )


def test_criterion_06_refinement_vs_cover_inclusion():
    with criterion(6, "refinement = cover inclusion (all small topologies)", 60.0) as failures:
        rng = random.Random(4096)
        spaces = [
            s
            for size in (1, 2, 3, 4)
            for s in all_topologies(size)
            if len(s.opens) <= 12
        ]
        pairs_checked = 0
        for space in spaces:
            full = space.full
            opens = sorted(space.opens)
            for _ in range(100):
                fam_a = SetFamily.build(
                    space,
                    rng.sample(range(1, full + 1), rng.randint(1, min(3, full))),
                )
                fam_b = SetFamily.build(
                    space, rng.sample(opens, rng.randint(1, min(3, len(opens))))
                )
                pairs_checked += 1
                covers = min_covers(space, fam_b).covers
                all_good = all(
                    classify_cover(space, fam_a, list(c)).covers_all
                    for c in covers
                )
                if refines(fam_a, fam_b) != all_good:
                    failures.append(
                        (space.opens, fam_a.members, fam_b.members)
                    )
        if pairs_checked < 100 * len(spaces):
            failures.append("sample size shortfall")


def test_criterion_07_gamma_constructions():
    with criterion(7, "subsequence/window strengthenings (100 instances)", 120.0) as failures:
        res = suite_gamma(_suite_rng(42, "gamma"), 100)
        if res.instances != 100:
            failures.append(f"only {res.instances} instances")
        failures.extend(v["property"] for v in res.violations)


def test_criterion_08_tukey_suite():
    with criterion(8, "Tukey criterion vs oracle + invariance (500 posets)", 120.0) as failures:
        res = suite_tukey(_suite_rng(42, "tukey"), 500)
        if res.instances != 500:
            failures.append(f"only {res.instances} instances")
        failures.extend(v["property"] for v in res.violations)


def test_criterion_09_ground_structure():
    with criterion(9, "cover-emptiness + order asymmetry (200 families)", 30.0) as failures:
        res = suite_ground(_suite_rng(42, "ground"), 200)
        if res.instances != 200:
            failures.append(f"only {res.instances} instances")
        failures.extend(v["property"] for v in res.violations)


def test_criterion_10_reproducibility_and_exit_codes(capsys):
    with criterion(10, "byte-stable reports + exit-code contract", 60.0) as failures:
        code1 = main(["fuzz", "--seed", "42", "--count", "100", "--json"])
        out1 = capsys.readouterr().out
        code2 = main(["fuzz", "--seed", "42", "--count", "100", "--json"])
        out2 = capsys.readouterr().out
        if out1 != out2:
            failures.append("reports differ between identical runs")
        if code1 != 0 or code2 != 0:
            failures.append(f"fuzz exit codes {code1}/{code2}")
        report = json.loads(out1)
        if report["total_violations"] != 0 or report["total_budget_exceeded"] != 0:
            failures.append("seed-42 run not clean")

        win = main(["solve", str(SCENARIOS / "point-open-discrete-2-h2.json")])
        capsys.readouterr()
        if win != 0:
            failures.append(f"clean solve exited {win}")
        bad = main([
            "verify",
            str(SCENARIOS / "point-open-discrete-2-h2.json"),
            str(SCENARIOS / "losing-script-point-open-2.json"),
        ])
        capsys.readouterr()
        if bad != 2:
            failures.append(f"violation run exited {bad}")
        broke = main([
            "synth", "markov-two",
            str(SCENARIOS / "point-open-discrete-2-h1.json"),
            "--budget", "0",
        ])
        capsys.readouterr()
        if broke != 3:
            failures.append(f"budget run exited {broke}")
        usage = main(["fuzz", "--seed", "1", "--count", "0"])
        capsys.readouterr()
        if usage != 1:
            failures.append(f"usage run exited {usage}")
