"""Seeded property fuzzing with replayable, byte-stable reports.

Each suite draws instances from its own deterministic generator, checks
one family of properties, and records violations as scenario payloads
that can be replayed by hand.  A check takes a builder with no
arguments and builds the payload only when it fails.  Budget exhaustion
inside a synthesizer is counted separately from both success and
violation.  Reports serialize canonically: two runs with the same seed
are byte-identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Callable, Optional

from ._bits import is_subset, items_of
from .duality import (
    check_duality,
    is_reflection,
    transversals,
)
from .errors import BudgetExceeded, InvalidCount
from .game import (
    CoversFamily,
    EverySubsequence,
    ExplicitSet,
    GameSpec,
    Kind,
    MultiCover,
    Not,
    Player,
    PreOne,
    WindowCover,
    make_game,
)
from .ground import SetFamily, classify_cover, discrete_space, min_covers
from .orders import (
    OMEGA,
    RelPair,
    UNDEFINED,
    _checked_rel_pair,
    brute_tukey_oracle,
    check_tukey_map,
    inclusion_pair,
    is_cofinal,
    lift_omega_cof,
    make_rel_pair,
    projection_map,
    relative_cofinality,
    truncate_product,
)
from .scenarios import (
    Scenario,
    abstract_scenario,
    build_point_open,
    scenario_to_json,
)
from .serialize import rel_pair_to_json
from .solver import DEFAULT_NODE_BUDGET, Search, verify, winner
from .transforms import (
    Direction,
    _input_search,
    _transfer,
    check_translation_axioms,
    intersect_predetermined,
    is_filter_base,
    lift_item_map,
    strengthen_one_for_subsequences,
)

GATED_SUITES = (
    "determinacy",
    "translation",
    "duality",
    "cofinality",
    "tukey",
    "gamma",
    "ground",
)
EXPLORATORY_SUITES = ("open-question-gamma-two",)
ALL_SUITES = GATED_SUITES + EXPLORATORY_SUITES

SPACE_SIZES = (2, 3, 4)  # discrete spaces the cofinality suite draws
HORIZONS = (1, 2, 3, 4)  # horizons of _random_game's games


@dataclass
class SuiteResult:
    instances: int = 0
    attempts: int = 0
    budget_exceeded: int = 0
    violations: list = field(default_factory=list)  # [{"property", "instance"}]
    findings: list = field(default_factory=list)

    def violate(self, prop: str, payload: Callable[[], object]) -> None:
        """Record a violation; ``payload()`` builds its replayable instance."""
        self.violations.append({"property": prop, "instance": payload()})

    def check(self, prop: str, ok: bool, payload: Callable[[], object]) -> bool:
        if not ok:
            self.violate(prop, payload)
        return ok


@dataclass
class FuzzReport:
    seed: int
    count: int
    suites: tuple[str, ...]
    results: dict

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.results.values())

    @property
    def total_budget_exceeded(self) -> int:
        return sum(r.budget_exceeded for r in self.results.values())

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "suites": list(self.suites),
            "results": {
                name: {
                    "instances": r.instances,
                    "attempts": r.attempts,
                    "budget_exceeded": r.budget_exceeded,
                    "violations": r.violations,
                    "findings": r.findings,
                }
                for name, r in self.results.items()
            },
            "total_violations": self.total_violations,
            "total_budget_exceeded": self.total_budget_exceeded,
        }


def _suite_rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}/{suite}")


# -- shared generators ---------------------------------------------------


def _random_explicit_target(rng: random.Random, items: list[int]):
    winning = []
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if rng.random() < 0.5:
                winning.append(frozenset(combo))
    return ExplicitSet(winning=tuple(winning))


def _random_game(rng: random.Random) -> GameSpec:
    horizon = rng.choice(HORIZONS)
    kind = Kind.FINITE if rng.random() < 0.15 else Kind.SINGLE
    def sample_move(items) -> frozenset:
        cap = 2 if kind is Kind.FINITE else 3
        return frozenset(rng.sample(items, rng.randint(1, min(cap, len(items)))))

    if rng.random() < 0.55:
        # abstract items with an explicit winning list
        n = rng.randint(2, 6)
        items = list(range(n))
        families = [
            tuple(sample_move(items) for _ in range(rng.randint(1, 3)))
            for _ in range(horizon)
        ]
        used = sorted(set().union(*[set().union(*f) for f in families]))
        target = _random_explicit_target(rng, used)
        if rng.random() < 0.3:
            target = Not(target)
    else:
        # items are subset masks over a tiny ground set; cover-style target
        g = rng.randint(2, 3)
        full = (1 << g) - 1
        items = list(range(1, full))  # nonempty proper masks: at most 6 items
        if rng.random() < 0.5:
            # round-constant families make states collide across move
            # orders, which is where unsound memoization would show
            family = tuple(sample_move(items) for _ in range(rng.randint(1, 3)))
            families = [family] * horizon
        else:
            families = [
                tuple(sample_move(items) for _ in range(rng.randint(1, 3)))
                for _ in range(horizon)
            ]
        members = tuple(
            sorted(rng.sample(range(1, full + 1), rng.randint(1, 2)))
        )
        roll = rng.random()
        base = (
            CoversFamily(full=full, members=members)
            if roll < 0.5
            else MultiCover(full=full, members=members, m=rng.randint(1, 2))
            if roll < 0.75
            else WindowCover(full=full, members=members, w=rng.randint(1, max(1, horizon)))
        )
        if rng.random() < 0.2 and horizon >= 1:
            base = EverySubsequence(inner=base, m=rng.randint(1, horizon))
        target = Not(base) if rng.random() < 0.5 else base
    return make_game(families, horizon, kind, target)


def _discrete_payload(name: str, fam_a: SetFamily, fam_b: SetFamily, horizon: int) -> dict:
    """A point-open scenario on the families' discrete space, as JSON."""
    size = fam_a.space.size
    return scenario_to_json(Scenario(
        name=name, space_size=size, subbasis=tuple(1 << i for i in range(size)),
        fam_a=fam_a.members, fam_b=fam_b.members, horizon=horizon, flavor="point-open-o",
    ))


# -- suites ----------------------------------------------------------------


def suite_determinacy(rng: random.Random, count: int,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    while res.instances < count:
        res.attempts += 1
        game = _random_game(rng)

        def payload(k=res.instances) -> dict:
            return scenario_to_json(abstract_scenario(f"determinacy-{k}", game))

        res.check(
            "determinacy/instance-bounds",
            len(game.universe) <= 6 and game.horizon <= 4,
            payload,
        )
        searches = Search(game)
        det = searches.solve()
        res.check("determinacy/witness-verifies", searches.verify(det.witness).valid, payload)
        try:
            pre = searches.find_predetermined_one(node_budget)
            markov = searches.find_markov_two(node_budget)
        except BudgetExceeded:
            res.budget_exceeded += 1
            res.instances += 1
            continue
        if pre is not None:
            res.check("hierarchy/pre-implies-one-wins", det.winner is Player.ONE, payload)
            res.check("hierarchy/pre-verifies", searches.verify(pre).valid, payload)
        if markov is not None:
            res.check("hierarchy/markov-implies-two-wins", det.winner is Player.TWO, payload)
            res.check("hierarchy/markov-verifies", searches.verify(markov).valid, payload)
        if det.winner is Player.ONE:
            res.check("determinacy/loser-side-markov-none", markov is None, payload)
        else:
            res.check("determinacy/loser-side-pre-none", pre is None, payload)
        res.instances += 1
    return res


def _translation_instance(rng: random.Random):
    h = rng.choice([1, 2, 2, 3, 3, 4])
    n_dst = rng.randint(2, 4)
    n_src = rng.randint(2, 4)
    phi_table = {y: rng.randrange(n_src) for y in range(n_dst)}
    dst_families, src_families = [], []
    for _ in range(h):
        fam_d = [
            frozenset(rng.sample(range(n_dst), rng.randint(1, min(3, n_dst))))
            for _ in range(rng.randint(1, 2))
        ]
        fam_s = [frozenset(phi_table[y] for y in b) for b in fam_d]
        if rng.random() < 0.3:
            fam_s.append(frozenset(rng.sample(range(n_src), rng.randint(1, 2))))
        dst_families.append(tuple(fam_d))
        src_families.append(tuple(fam_s))
    src_items = sorted(set().union(*[set().union(*f) for f in src_families]))
    dst_items = sorted(set().union(*[set().union(*f) for f in dst_families]))
    src_target = _random_explicit_target(rng, src_items)
    winning_d = tuple(
        frozenset(t)
        for r in range(len(dst_items) + 1)
        for t in itertools.combinations(dst_items, r)
        if frozenset(phi_table[y] for y in t) in src_target.winning
    )
    dst_target = ExplicitSet(winning=winning_d)
    src = make_game(src_families, h, Kind.SINGLE, src_target)
    dst = make_game(dst_families, h, Kind.SINGLE, dst_target)
    pack = lift_item_map(lambda y, r: phi_table[y], src, dst)
    return pack, src, dst


def suite_translation(rng: random.Random, count: int,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    done = {d: 0 for d in Direction}
    max_attempts = 80 * count + 400
    while any(v < count for v in done.values()) and res.attempts < max_attempts:
        res.attempts += 1
        pack, src, dst = _translation_instance(rng)

        def payload() -> dict:
            return {
                "src": scenario_to_json(abstract_scenario("translation-src", src)),
                "dst": scenario_to_json(abstract_scenario("translation-dst", dst)),
            }

        if not res.check(
            "translation/lifted-pack-satisfies-axioms",
            bool(check_translation_axioms(pack, src, dst)),
            payload,
        ):
            continue
        # each game is searched only for the directions still short of
        # count, so every input found is transferred and budget_exceeded
        # counts only the syntheses that ran; the transfers reuse the contexts
        contexts = Search(src), Search(dst)
        inputs = {}
        for full, limited in (
            (Direction.FULL_TWO, Direction.MARKOV_TWO),
            (Direction.FULL_ONE_PULLBACK, Direction.PRE_ONE_PULLBACK),
        ):
            if done[full] >= count and done[limited] >= count:
                continue
            searches, side, synthesize = _input_search(limited, *contexts)
            if searches.winner() is not side:
                continue
            if done[full] < count:
                inputs[full] = searches.solve().witness
            if done[limited] < count:
                try:
                    strategy = synthesize(searches, node_budget)
                except BudgetExceeded:
                    res.budget_exceeded += 1
                    strategy = None
                if strategy is not None:
                    inputs[limited] = strategy
        progressed = False
        for direction, strategy in inputs.items():
            # the pack passed its axiom check above; _transfer refuses an
            # output that loses, so a violation is anything it raises
            try:
                _transfer(pack, *contexts, direction, strategy)
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                res.violate(
                    f"translation/{direction.value}-raised:{type(exc).__name__}",
                    payload,
                )
            done[direction] += 1
            progressed = True
        if progressed:
            res.instances += 1
    res.findings.append(
        {"transferred-per-direction": {d.value: n for d, n in sorted(done.items(), key=lambda kv: kv[0].value)}}
    )
    return res


def _duality_instance(rng: random.Random):
    n = rng.randint(2, 5)
    items = list(range(n))
    refl = [
        frozenset(rng.sample(items, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 2))
    ]
    ranges = sorted(set(frozenset(t) for t in transversals(refl)), key=sorted)
    fam = list(ranges)
    for _ in range(rng.randint(0, 2)):
        base = rng.choice(ranges)
        extra = frozenset(rng.sample(items, rng.randint(0, 2)))
        cand = base | extra
        if cand not in fam:
            fam.append(cand)
    horizon = rng.choice([1, 2, 2, 3, 3, 4])
    while len(fam) * horizon > 16 and len(fam) > len(ranges):
        fam.pop()
    while len(fam) * horizon > 16:
        horizon -= 1
    used = sorted(set().union(*fam) | set().union(*refl))
    target = _random_explicit_target(rng, used)
    g_fam = make_game([tuple(fam)] * horizon, horizon, Kind.SINGLE, target)
    g_refl = make_game([tuple(refl)] * horizon, horizon, Kind.SINGLE, Not(target))
    return refl, fam, g_fam, g_refl


def suite_duality(rng: random.Random, count: int,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    while res.instances < count:
        res.attempts += 1
        refl, fam, g_fam, g_refl = _duality_instance(rng)

        def payload() -> dict:
            return {
                "family-game": scenario_to_json(abstract_scenario("duality-fam", g_fam)),
                "reflection-game": scenario_to_json(abstract_scenario("duality-refl", g_refl)),
            }

        report = is_reflection(refl, fam)
        if not res.check("duality/constructed-reflection", report.is_reflection, payload):
            continue
        try:
            dual = check_duality(g_fam, g_refl, node_budget)
        except BudgetExceeded:
            res.budget_exceeded += 1
            res.instances += 1
            continue
        res.check("duality/all-clauses-hold", dual.all_hold, payload)
        res.instances += 1
    return res


def _cof_families(rng: random.Random, size: int):
    full = (1 << size) - 1
    proper = list(range(1, full))
    na = rng.randint(1, 2 if size >= 4 else 3)
    nb = rng.randint(1, 2 if size >= 4 else 3)
    fam_a = tuple(rng.sample(proper, min(na, len(proper))))
    pool_b = list(range(1, full + 1))  # the full set is allowed on the target side
    fam_b = tuple(rng.sample(pool_b, min(nb, len(pool_b))))
    return fam_a, fam_b


def suite_cofinality(rng: random.Random, count: int,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    while res.instances < count:
        res.attempts += 1
        size = rng.choice(SPACE_SIZES)
        space = discrete_space(size)
        fam_a_masks, fam_b_masks = _cof_families(rng, size)
        fam_a = SetFamily.build(space, fam_a_masks)
        fam_b = SetFamily.build(space, fam_b_masks)
        cof = relative_cofinality(inclusion_pair(fam_a.members, fam_b.members))

        def payload(k=res.instances) -> dict:  # at the horizon checked
            return _discrete_payload(f"cofinality-{k}", fam_a, fam_b, horizon)

        for horizon in sorted(rng.sample(range(0, 5), 2)):
            game = build_point_open(space, fam_a, fam_b, horizon)
            searches = Search(game)
            try:
                pre = searches.find_predetermined_one(node_budget)
            except BudgetExceeded:
                res.budget_exceeded += 1
                continue
            res.check(
                "cofinality/pre-iff-cof-at-most-horizon",
                (pre is not None) == cof.at_most(horizon),
                payload,
            )
            res.check(
                "cofinality/full-win-iff-pre-win",
                (searches.winner() is Player.ONE) == (pre is not None),
                payload,
            )
        res.instances += 1
    return res


def _random_order_pair(rng: random.Random) -> RelPair:
    n = rng.randint(3, 8)
    if rng.random() < 0.5:
        g = rng.randint(2, 4)
        pool = list(range(1 << g))
        carrier = rng.sample(pool, min(n, len(pool)))
        up = [sum(1 << j for j, y in enumerate(carrier) if is_subset(x, y))
              for x in carrier]
    else:
        rows = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    rows[i] |= 1 << j
        carrier = list(range(n))
        up = _transitive_closure(rows)
    m = len(carrier)
    sub_a = rng.sample(range(m), rng.randint(1, min(6, m)))
    sub_b = rng.sample(range(m), rng.randint(1, min(5, m)))
    return _checked_rel_pair(carrier, up, sub_a, sub_b)


def _transitive_closure(rows: list[int]) -> list[int]:
    """Warshall's closure on bit rows: row i gains row k whenever it holds k."""
    rows = list(rows)
    for k in range(len(rows)):
        bit = 1 << k
        for i, row in enumerate(rows):
            if row & bit:
                rows[i] = row | rows[k]
    return rows


def _permuted_copy(rng: random.Random, pair: RelPair):
    n = len(pair.carrier)
    perm = list(range(n))
    rng.shuffle(perm)
    inverse = {old: new for new, old in enumerate(perm)}
    copy = _checked_rel_pair(
        list(range(n)),
        [sum(1 << inverse[j] for j in items_of(pair.up[old])) for old in perm],
        sub_a=[inverse[i] for i in pair.sub_a],
        sub_b=[inverse[i] for i in pair.sub_b],
    )
    fwd = {i: inverse[i] for i in pair.sub_a}
    back = {inverse[i]: i for i in pair.sub_a}
    return copy, fwd, back


def suite_tukey(rng: random.Random, count: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    while res.instances < count:
        res.attempts += 1
        src = _random_order_pair(rng)
        dst = _random_order_pair(rng)
        phi = {a: rng.choice(dst.sub_a) for a in src.sub_a}

        def payload() -> dict:
            return {
                "src": rel_pair_to_json(src),
                "dst": rel_pair_to_json(dst),
                "phi": sorted([a, c] for a, c in phi.items()),
            }

        res.check(
            "tukey/criterion-matches-oracle",
            check_tukey_map(phi, src, dst) == brute_tukey_oracle(phi, src, dst),
            payload,
        )

        cof = relative_cofinality(src)
        grown_a = RelPair(
            carrier=src.carrier,
            up=src.up,
            sub_a=tuple(range(len(src.carrier))),
            sub_b=src.sub_b,
        )
        grown_b = RelPair(
            carrier=src.carrier,
            up=src.up,
            sub_a=src.sub_a,
            sub_b=tuple(range(len(src.carrier))),
        )

        def at_most_of(v, w) -> bool:
            # v <= w with UNDEFINED as the top element
            return w.is_undefined or (v.is_finite and w.is_finite and v.n <= w.n)

        res.check(
            "cofinality/enlarging-candidates-never-increases",
            at_most_of(relative_cofinality(grown_a), cof),
            payload,
        )
        res.check(
            "cofinality/enlarging-obligations-never-decreases",
            at_most_of(cof, relative_cofinality(grown_b)),
            payload,
        )

        copy, fwd, back = _permuted_copy(rng, src)
        if res.check(
            "tukey/permuted-copy-maps-both-ways",
            check_tukey_map(fwd, src, copy) and check_tukey_map(back, copy, src),
            payload,
        ):
            res.check(
                "cofinality/invariant-under-two-way-maps",
                cof == relative_cofinality(copy),
                payload,
            )

        # product projection and the symbolic counter lift
        g = rng.randint(2, 3)
        base_carrier = rng.sample(range(1 << g), rng.randint(2, 3))
        q = rng.sample(range(len(base_carrier)), rng.randint(1, len(base_carrier)))
        base = make_rel_pair(
            base_carrier, lambda x, y: is_subset(x, y),
            sub_a=q, sub_b=range(len(base_carrier)),
        )
        base_cof = relative_cofinality(base)
        prods = [truncate_product(base, bound) for bound in (2, 3, 4)]
        stabilized = [
            (check_tukey_map(projection_map(prod, base), prod, base),
             relative_cofinality(prod))
            for prod in prods
        ]
        res.check(
            "tukey/projection-validates-at-every-truncation",
            all(ok for ok, _ in stabilized),
            payload,
        )
        res.check(
            "tukey/truncated-cofinality-stabilizes",
            len(set(stabilized)) == 1,
            payload,
        )
        res.check(
            "tukey/truncation-agrees-with-base",
            stabilized[0][1] == base_cof,
            payload,
        )
        # base.sub_b is every index of the base carrier, so never empty
        res.check(
            "tukey/symbolic-lift-table",
            lift_omega_cof(base_cof, b_empty=False)
            == (UNDEFINED if base_cof.is_undefined else OMEGA),
            payload,
        )
        if base_cof.is_finite:
            # No fixed finite family survives raising the counter bound:
            # every trunc-2 candidate embeds into trunc-3, where obligations
            # at counter 3 escape them all.  This is why the symbolic lift
            # answers OMEGA rather than any finite value.
            prod2, prod3 = prods[:2]
            pos3 = {prod3.carrier[i]: i for i in prod3.sub_a}
            embedded = [pos3[prod2.carrier[i]] for i in prod2.sub_a]
            res.check(
                "tukey/fixed-family-goes-stale",
                not is_cofinal(prod3, embedded),
                payload,
            )
        res.instances += 1
    return res


def _ideal_base_family(rng: random.Random, space) -> SetFamily:
    full = space.full
    seeds = rng.sample(range(1, full), min(rng.randint(1, 3), full - 1))
    return SetFamily.build(space, _union_closure(seeds))


def suite_gamma(rng: random.Random, count: int,
                node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    while res.instances < count:
        res.attempts += 1
        size = rng.choice([2, 2, 3])
        space = discrete_space(size)
        fam_a = _ideal_base_family(rng, space)
        if any(m == space.full for m in fam_a.members):
            fam_a = SetFamily.build(space, [m for m in fam_a.members if m != space.full])
            if not fam_a.members or not fam_a.ideal_base:
                continue
        full = space.full
        fam_b = SetFamily.build(space, rng.sample(range(1, full), rng.randint(1, 2)))
        n = rng.choice([2, 3] if size == 3 else [2, 3, 4])
        game = build_point_open(space, fam_a, fam_b, n)
        low = None

        def payload(k=res.instances) -> dict:
            out = _discrete_payload(f"gamma-{k}", fam_a, fam_b, n)
            if low is not None:  # read when called: the least winning horizon
                out["low"] = low
            return out

        res.check(
            "gamma/neighborhoods-of-ideal-base-form-filter-base",
            is_filter_base(game.moves[0]),
            payload,
        )
        # One's move sets form a finite filter base, so its least member lies
        # inside every other: One offering it every round wins the n-round
        # game iff One wins the one-round game, and one round decides it.
        searches = Search(game.truncated(1))
        if searches.winner() is Player.TWO:
            continue  # constructions need a winning horizon; try again
        low = 1

        try:
            pre = searches.find_predetermined_one(node_budget)
        except BudgetExceeded:
            res.budget_exceeded += 1
            res.instances += 1
            continue
        if not res.check("gamma/full-win-gives-script-on-discrete",
                         pre is not None, payload):
            res.instances += 1
            continue
        script = PreOne(indices=pre.indices + (0,) * (n - low))
        try:
            sigma = strengthen_one_for_subsequences(script, game, low)
        except Exception as exc:  # noqa: BLE001
            res.violate(f"gamma/strengthen-raised:{type(exc).__name__}", payload)
            res.instances += 1
            continue
        core_target = Not(
            EverySubsequence(
                inner=CoversFamily(full=full, members=fam_b.members), m=low
            )
        )
        core_game = make_game(
            [game.moves[0]] * n, n, Kind.SINGLE, core_target
        )
        res.check(
            "gamma/strengthened-wins-subsequence-core",
            verify(core_game, sigma).valid,
            payload,
        )

        try:
            upgraded = intersect_predetermined(script, fam_a)
        except Exception as exc:  # noqa: BLE001
            res.violate(f"gamma/intersect-raised:{type(exc).__name__}", payload)
            res.instances += 1
            continue
        window_game = build_point_open(space, fam_a, fam_b, n, window=low)
        res.check(
            "gamma/intersected-script-wins-window",
            verify(window_game, upgraded).valid,
            payload,
        )
        res.instances += 1
    return res


def suite_ground(rng: random.Random, count: int,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> SuiteResult:
    res = SuiteResult()
    while res.instances < count:
        res.attempts += 1
        size = rng.choice([2, 3, 3, 4])
        space = discrete_space(size)
        fam = _ideal_base_family(rng, space)
        if rng.random() < 0.6 and not fam.covers_universe:
            extra = space.full & ~reduce(or_, fam.members, 0)
            fam = SetFamily.build(space, fam.members + (extra | fam.members[0],))
            fam = SetFamily.build(space, _union_closure(fam.members))

        def payload() -> dict:
            return {
                "space": {"size": size, "subbasis": [list(items_of(1 << i)) for i in range(size)]},
                "family": [list(items_of(m)) for m in fam.members],
            }

        if fam.ideal_base and fam.covers_universe:
            result = min_covers(space, fam)
            res.check(
                "ground/ideal-base-covering-has-no-covers",
                result.covers == () and not result.truncated,
                payload,
            )
        # permutation asymmetry: the plain verdict and the multiplicity are
        # order-blind, the window width is not
        opens = sorted(space.opens)
        listed = [rng.choice(opens) for _ in range(rng.randint(0, 5))]
        perm = listed[:]
        rng.shuffle(perm)
        before = classify_cover(space, fam, listed)
        after = classify_cover(space, fam, perm)
        res.check(
            "ground/permutations-preserve-cover-and-multiplicity",
            (before.covers_all, before.multiplicity)
            == (after.covers_all, after.multiplicity),
            lambda: dict(payload(), listed=[list(items_of(u)) for u in listed]),
        )
        res.instances += 1
    return res


def _union_closure(masks) -> list[int]:
    """The masks closed under pairwise union, ascending."""
    members = set(masks)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(members), 2):
            if a | b not in members:
                members.add(a | b)
                changed = True
    return sorted(members)


def suite_open_question_gamma_two(
    rng: random.Random, count: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> SuiteResult:
    """Exploratory search: plain-cover versus window-cover status for Two.

    Bounded discrete spaces with singleton families across horizons; any
    disagreement between the two game values is archived as a finding,
    never a violation (the suite is excluded from gating).
    """
    res = SuiteResult()
    combos = [
        (size, horizon, w)
        for size in (2, 3)
        for horizon in range(1, 7)
        for w in range(1, min(horizon, 3) + 1)
        if (size * (2 ** (size - 1))) ** horizon <= 5 * 10**4
    ]
    for size, horizon, w in combos[:count]:
        res.attempts += 1
        space = discrete_space(size)
        singles = SetFamily.build(space, [1 << i for i in range(size)])
        plain = build_point_open(space, singles, singles, horizon)
        window = build_point_open(space, singles, singles, horizon, window=w)
        two_plain = winner(plain) is Player.TWO
        two_window = winner(window) is Player.TWO
        res.instances += 1
        if two_plain != two_window:
            res.findings.append(
                {
                    "size": size,
                    "horizon": horizon,
                    "window": w,
                    "two-wins-plain-cover-game": two_plain,
                    "two-wins-window-game": two_window,
                }
            )
    return res


SUITES = {
    "determinacy": suite_determinacy,
    "translation": suite_translation,
    "duality": suite_duality,
    "cofinality": suite_cofinality,
    "tukey": suite_tukey,
    "gamma": suite_gamma,
    "ground": suite_ground,
    "open-question-gamma-two": suite_open_question_gamma_two,
}


def fuzz(
    seed: int,
    count: int,
    suites: Optional[tuple[str, ...]] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> FuzzReport:
    """Run the selected suites deterministically; same seed, same bytes."""
    if count < 1:
        raise InvalidCount(f"count must be at least 1, got {count}")
    chosen = tuple(dict.fromkeys(suites)) if suites else GATED_SUITES  # a repeated suite runs once
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    results = {}
    for name in chosen:
        results[name] = SUITES[name](_suite_rng(seed, name), count, node_budget)
    return FuzzReport(seed=seed, count=count, suites=chosen, results=results)
