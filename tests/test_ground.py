import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from brute import (
    brute_classify_cover,
    brute_family_flags,
    brute_min_covers,
    brute_topology,
)
from selgames import (
    CoverVerdict,
    SetFamily,
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
from selgames.errors import CapExceeded, NotOpen, TopologyTooLarge
from selgames.fuzzing import _union_closure
from selgames.ground import all_topologies


def masks(*sets):
    return tuple(sum(1 << i for i in s) for s in sets)


def small_topologies():
    """Every topology on 1 to 3 points."""
    return [space for size in (1, 2, 3) for space in all_topologies(size)]


class TestBuildTopology:
    def test_closure_by_hand(self):
        space = build_topology(3, masks({0}, {0, 1}))
        assert sorted(space.opens) == [0b000, 0b001, 0b011, 0b111]

    def test_indiscrete(self):
        assert sorted(indiscrete_space(2).opens) == [0b00, 0b11]

    def test_singletons_generate_discrete(self):
        space = build_topology(2, masks({0}, {1}))
        assert sorted(space.opens) == [0, 1, 2, 3]

    def test_size_cap(self):
        with pytest.raises(CapExceeded):
            build_topology(17, [])

    def test_opens_cap(self):
        with pytest.raises(TopologyTooLarge):
            build_topology(13, list(range(1, 5000)))

    def test_discrete_space_is_the_closure_of_singletons(self):
        for n in range(1, 13):
            assert discrete_space(n) == build_topology(n, [1 << i for i in range(n)])
        for n in (0, 17):
            with pytest.raises(CapExceeded):
                build_topology(n, [1 << i for i in range(n)])
            with pytest.raises(CapExceeded):
                discrete_space(n)
        # 2^13 opens exceed the cap: the closure would raise
        # TopologyTooLarge only after building 4,097 of them
        with pytest.raises(TopologyTooLarge):
            discrete_space(13)

    def test_least_fixpoint(self):
        # every non-subbasis, non-forced open is regenerated by a pairwise
        # union or intersection of the remaining opens
        subbases = [masks({0}, {0, 1}), masks({0, 1}, {1, 2}), masks({0}, {2})]
        for sub in subbases:
            space = build_topology(3, sub)
            forced = set(sub) | {0, space.full}
            for u in space.opens - forced:
                rest = space.opens - {u}
                assert any(
                    a | b == u or a & b == u
                    for a, b in itertools.combinations(rest, 2)
                ), f"open {u:#b} not regenerated"

    def test_matches_the_literal_fixpoint(self):
        # every subbasis of at most 3 members on at most 3 points
        for n in range(1, 4):
            masks_n = range(1 << n)
            for k in range(4):
                for sub in itertools.combinations(masks_n, k):
                    assert build_topology(n, sub).opens == brute_topology(n, sub), sub

    def test_member_outside_the_universe(self):
        with pytest.raises(ValueError):
            build_topology(2, [0b100])


class TestSetFamily:
    def test_flags_ideal_base(self, d3):
        fam = family_of(d3, [{0}, {1}, {0, 1}])
        assert fam.ideal_base
        assert not fam.covers_universe
        assert fam.all_open and fam.all_closed

    def test_flags_not_ideal_base(self, singles3):
        assert not singles3.ideal_base
        assert singles3.covers_universe

    def test_duplicates_merged(self, d2):
        fam = SetFamily.build(d2, [1, 1, 2])
        assert fam.members == (1, 2)

    def test_flags_match_their_definitions(self):
        # every family, over every topology on at most 3 points
        for space in small_topologies():
            subsets = range(space.full + 1)
            for k in range(len(subsets) + 1):
                for members in itertools.combinations(subsets, k):
                    fam = SetFamily.build(space, members)
                    got = {flag: getattr(fam, flag) for flag in (
                        "ideal_base", "covers_universe", "all_open", "all_closed")}
                    assert got == brute_family_flags(space, members), (
                        space.opens, members)

    def test_member_outside_universe(self, d2):
        with pytest.raises(ValueError):
            SetFamily.build(d2, [0b100])

    def test_all_open_flag_on_sierpinski(self):
        space = build_topology(2, masks({0}))
        fam = family_of(space, [{0}])
        assert fam.all_open and not fam.all_closed
        closed_fam = family_of(space, [{1}])
        assert closed_fam.all_closed and not closed_fam.all_open

    def test_ambient_family_constructors(self, d2):
        from selgames.ground import finite_subsets_family, nonempty_opens_family

        subsets = finite_subsets_family(d2)
        opens = nonempty_opens_family(d2)
        assert len(subsets.members) == 3
        assert len(opens.members) == 3  # discrete: the two readings coincide
        sierpinski = build_topology(2, masks({0}))
        assert len(finite_subsets_family(sierpinski).members) == 3
        assert len(nonempty_opens_family(sierpinski).members) == 2


class TestClosureFamily:
    def test_discrete_fixed(self, d3, singles3):
        assert closure_family(d3, singles3).members == singles3.members

    def test_nontrivial_closures(self):
        space = build_topology(3, masks({0}, {0, 1}))
        fam = family_of(space, [{0}])
        assert closure_family(space, fam).members == masks({0, 1, 2})
        fam1 = family_of(space, [{1}])
        assert closure_family(space, fam1).members == masks({1, 2})

    def test_merges_duplicates(self):
        space = build_topology(3, masks({0}, {0, 1}))
        fam = family_of(space, [{0}, {0, 2}])
        assert closure_family(space, fam).members == masks({0, 1, 2})


class TestClassifyCover:
    def test_direct_count(self, d3, singles3):
        verdict = classify_cover(d3, singles3, list(masks({0, 1}, {1, 2})))
        assert verdict == CoverVerdict(covers_all=True, multiplicity=1, window=2)

    def test_universe_listed_fails(self, d3, singles3):
        verdict = classify_cover(d3, singles3, [d3.full, 0b011, 0b110])
        assert not verdict.covers_all
        assert verdict.multiplicity == 0 and verdict.window is None

    def test_vacuous(self, d3):
        fam = SetFamily.build(d3, [])
        assert classify_cover(d3, fam, []) == CoverVerdict(True, 0, 0)

    def test_not_open(self):
        space = build_topology(2, masks({0}))
        fam = singleton_family(space)
        with pytest.raises(NotOpen):
            classify_cover(space, fam, [0b10])

    def test_multiplicity_counts_distinct_sets(self, d2, singles2):
        # repeating one open adds nothing: the cover is judged as a set
        verdict = classify_cover(d2, singles2, [1, 1, 2])
        assert verdict.multiplicity == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_permutation_preserves_cover_and_multiplicity(self, data):
        space = discrete_space(3)
        fam = singleton_family(space)
        listed = data.draw(
            st.lists(st.sampled_from(sorted(space.opens)), max_size=5)
        )
        perm = data.draw(st.permutations(listed))
        base = classify_cover(space, fam, listed)
        other = classify_cover(space, fam, perm)
        assert base.covers_all == other.covers_all
        assert base.multiplicity == other.multiplicity

    def test_window_is_order_sensitive(self, d2, singles2):
        interleaved = classify_cover(d2, singles2, [1, 2, 1, 2])
        blocked = classify_cover(d2, singles2, [1, 1, 2, 2])
        assert interleaved.window == 2
        assert blocked.window == 3

    def test_against_literal_classifier(self):
        # the verdict read off the cover targets against the definitions
        rng = random.Random(23)
        for space in small_topologies():
            opens, subsets = sorted(space.opens), range(space.full + 1)
            for _ in range(20):
                members = rng.sample(subsets, rng.randint(0, min(3, len(subsets))))
                fam = SetFamily.build(space, members)
                listed = [rng.choice(opens) for _ in range(rng.randint(0, 5))]
                assert classify_cover(space, fam, listed) == brute_classify_cover(
                    space, fam.members, listed
                ), (space.opens, members, listed)


class TestRefines:
    def test_singletons_refine_pairs(self, d3, singles3):
        pairs = family_of(d3, [{0, 1}, {0, 2}, {1, 2}])
        assert refines(singles3, pairs)

    def test_pair_does_not_refine_singleton(self, d2):
        a = family_of(d2, [{0, 1}])
        b = family_of(d2, [{0}])
        assert not refines(a, b)

    def test_reflexive(self, singles3):
        assert refines(singles3, singles3)

    def test_mismatched_universe(self, singles2, singles3):
        with pytest.raises(ValueError):
            refines(singles2, singles3)


class TestMinCovers:
    def test_unique_cover(self, d2, singles2):
        result = min_covers(d2, singles2)
        assert result.covers == ((1, 2),)
        assert not result.truncated

    def test_ideal_base_covering_is_empty(self, d2):
        fam = family_of(d2, [{0}, {1}, {0, 1}])
        assert fam.ideal_base and fam.covers_universe
        assert min_covers(d2, fam).covers == ()

    def test_empty_family_has_empty_cover(self, d2):
        fam = SetFamily.build(d2, [])
        assert min_covers(d2, fam).covers == ((),)

    def test_truncation_flag(self, d3, singles3):
        result = min_covers(d3, singles3, max_count=1)
        assert result.truncated
        assert len(result.covers) == 1

    def test_against_powerset_enumeration(self):
        # second route: filter the full powerset of proper opens, on every
        # topology up to 3 points, for seeded families and their union closures
        rng = random.Random(5)
        for space in small_topologies():
            for _ in range(6):
                seeds = rng.sample(
                    range(1, space.full + 1), rng.randint(1, min(3, space.full))
                )
                for fam_members in (seeds, _union_closure(seeds)):
                    fam = SetFamily.build(space, fam_members)
                    got = min_covers(space, fam).covers
                    want = tuple(brute_min_covers(space, fam.members, space.opens))
                    assert got == want, (space.opens, fam_members)


class TestRefinementMatchesCoverInclusion:
    """Covers of the coarser family are covers of the finer one.

    Quantified over every topology on 3 items and open-membered second
    families; the acceptance suite repeats this at 4 items.
    """

    def test_exhaustive_small(self):
        rng = random.Random(7)
        spaces = [s for s in all_topologies(3) if len(s.opens) <= 12]
        for space in spaces:
            full = space.full
            opens = sorted(space.opens)
            for _ in range(6):
                fam_a = SetFamily.build(
                    space,
                    rng.sample(range(1, full + 1), rng.randint(1, 3)),
                )
                fam_b = SetFamily.build(
                    space, rng.sample(opens, rng.randint(1, min(3, len(opens))))
                )
                covers = min_covers(space, fam_b).covers
                all_good = all(
                    classify_cover(space, fam_a, list(cover)).covers_all
                    for cover in covers
                )
                assert refines(fam_a, fam_b) == all_good, (
                    space.opens,
                    fam_a.members,
                    fam_b.members,
                )

    def test_counterexample_without_open_members(self):
        # with a non-open obligation the equivalence genuinely fails:
        # every proper open above {0} also contains {1} here
        space = build_topology(3, [0b011])
        fam_a = SetFamily.build(space, [0b010])
        fam_b = SetFamily.build(space, [0b001])
        assert not refines(fam_a, fam_b)
        covers = min_covers(space, fam_b).covers
        assert covers == ((0b011,),)
        assert all(
            classify_cover(space, fam_a, list(c)).covers_all for c in covers
        )
