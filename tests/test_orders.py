import itertools
import random

import pytest

from brute import brute_truncate_product
from selgames import (
    OMEGA,
    UNDEFINED,
    ExtendedNat,
    brute_tukey_oracle,
    check_tukey_map,
    inclusion_pair,
    lift_omega_cof,
    make_rel_pair,
    relative_cofinality,
    truncate_product,
)
from selgames.errors import CarrierTooLarge
from selgames.fuzzing import _random_order_pair
from selgames.orders import RelPair, is_cofinal, projection_map


def subset_pair(members_a, members_b):
    return inclusion_pair(members_a, members_b)


class TestExtendedNat:
    def test_at_most(self):
        assert ExtendedNat.finite(2).at_most(3)
        assert not ExtendedNat.finite(4).at_most(3)
        assert not OMEGA.at_most(10**9)
        assert not UNDEFINED.at_most(10**9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtendedNat.finite(-1)

    def test_repr(self):
        assert repr(ExtendedNat.finite(3)) == "3"
        assert repr(OMEGA) == "OMEGA"
        assert repr(UNDEFINED) == "UNDEFINED"


class TestRelativeCofinality:
    def test_antichain(self):
        pair = subset_pair([1, 2, 4], [1, 2, 4])
        assert relative_cofinality(pair) == ExtendedNat.finite(3)

    def test_pairs_over_singletons(self):
        pair = subset_pair([0b011, 0b110, 0b101], [1, 2, 4])
        assert relative_cofinality(pair) == ExtendedNat.finite(2)

    def test_undefined(self):
        pair = subset_pair([1], [0b11])
        assert relative_cofinality(pair) is UNDEFINED or relative_cofinality(pair).is_undefined

    def test_empty_obligations(self):
        pair = subset_pair([1, 2], [])
        assert relative_cofinality(pair) == ExtendedNat.finite(0)

    def test_exhaustive_against_subset_search(self):
        rng = random.Random(5)
        for _ in range(40):
            universe = 1 << rng.randint(2, 4)
            a = rng.sample(range(universe), rng.randint(1, min(5, universe)))
            b = rng.sample(range(universe), rng.randint(1, min(4, universe)))
            pair = subset_pair(a, b)
            got = relative_cofinality(pair)
            best = None
            for r in range(len(pair.sub_a) + 1):
                for combo in itertools.combinations(pair.sub_a, r):
                    if is_cofinal(pair, combo):
                        best = r
                        break
                if best is not None:
                    break
            if best is None:
                assert got.is_undefined
            else:
                assert got == ExtendedNat.finite(best)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_rel_pair([0, 1], lambda x, y: x < y, [0], [1])  # irreflexive
        with pytest.raises(ValueError):
            make_rel_pair(
                [0, 1, 2],
                lambda x, y: (x, y) in {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)},
                [0],
                [1],
            )  # not transitive


class TestTukeyMaps:
    def test_identity(self):
        pair = subset_pair([1, 2, 3], [1, 2])
        phi = {a: a for a in pair.sub_a}
        assert check_tukey_map(phi, pair, pair)
        assert brute_tukey_oracle(phi, pair, pair)

    def test_constant_map_to_useless_element_fails(self):
        src = subset_pair([1], [1])
        dst = make_rel_pair(
            ["c", "d"], lambda x, y: x == y, sub_a=[0], sub_b=[1]
        )
        phi = {a: 0 for a in src.sub_a}
        assert not check_tukey_map(phi, src, dst)
        assert not brute_tukey_oracle(phi, src, dst)

    def test_criterion_equals_oracle_on_random_pairs(self):
        rng = random.Random(23)
        for _ in range(60):
            universe = 1 << rng.randint(2, 4)
            src = subset_pair(
                rng.sample(range(universe), rng.randint(1, min(5, universe))),
                rng.sample(range(universe), rng.randint(1, min(4, universe))),
            )
            dst = subset_pair(
                rng.sample(range(universe), rng.randint(1, min(5, universe))),
                rng.sample(range(universe), rng.randint(1, min(4, universe))),
            )
            phi = {a: rng.choice(dst.sub_a) for a in src.sub_a}
            assert check_tukey_map(phi, src, dst) == brute_tukey_oracle(phi, src, dst)

    def test_oracle_carrier_cap(self):
        pair = subset_pair(list(range(1, 14)), [1])
        phi = {a: a for a in pair.sub_a}
        with pytest.raises(CarrierTooLarge):
            brute_tukey_oracle(phi, pair, pair)

    def test_phi_must_be_total(self):
        pair = subset_pair([1, 2], [1])
        with pytest.raises(ValueError):
            check_tukey_map({}, pair, pair)


class TestProductAndLift:
    def test_projection_validates_at_truncations(self):
        base = subset_pair([1, 3, 7], [1, 3, 7])
        results = []
        for bound in (2, 3, 4):
            prod = truncate_product(base, bound)
            proj = projection_map(prod, base)
            results.append(
                (
                    check_tukey_map(proj, prod, base),
                    relative_cofinality(prod),
                )
            )
        assert all(ok for ok, _ in results)
        assert len(set(results)) == 1  # stabilized across bounds

    def test_truncated_cofinality_equals_base(self):
        base = subset_pair([1, 2, 4], [1, 2, 4])
        for bound in (1, 2, 3):
            assert relative_cofinality(truncate_product(base, bound)) == (
                relative_cofinality(base)
            )

    def test_fixed_family_goes_stale(self):
        base = subset_pair([1, 2], [1, 2])
        prod2 = truncate_product(base, 2)
        prod3 = truncate_product(base, 3)
        pos3 = {prod3.carrier[i]: i for i in prod3.sub_a}
        embedded = [pos3[prod2.carrier[i]] for i in prod2.sub_a]
        assert is_cofinal(prod2, prod2.sub_a)
        assert not is_cofinal(prod3, embedded)

    def test_rows_match_the_coordinatewise_order(self):
        # the bitmask rows equal the product order tabulated pair by pair,
        # on seeded subset and preorder bases
        rng = random.Random(31)
        bases = [subset_pair([1, 3, 7], [1, 2]), subset_pair([], [1])]
        bases += [_random_order_pair(rng) for _ in range(40)]
        for base in bases:
            for bound in range(5):
                assert truncate_product(base, bound) == brute_truncate_product(
                    base, bound
                ), (base, bound)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            truncate_product(inclusion_pair([1, 2], [3]), -1)

    def test_lift_table(self):
        assert lift_omega_cof(ExtendedNat.finite(3), b_empty=False) == OMEGA
        assert lift_omega_cof(OMEGA, b_empty=False) == OMEGA
        assert lift_omega_cof(UNDEFINED, b_empty=False) == UNDEFINED
        assert lift_omega_cof(ExtendedNat.finite(3), b_empty=True) == ExtendedNat.finite(0)


class TestMonotonicity:
    def test_grow_candidates_and_obligations(self):
        rng = random.Random(31)
        for _ in range(30):
            universe = 1 << 3
            a = rng.sample(range(universe), rng.randint(1, 4))
            b = rng.sample(range(universe), rng.randint(1, 4))
            pair = subset_pair(a, b)
            n = len(pair.carrier)
            grown_a = RelPair(pair.carrier, pair.up, tuple(range(n)), pair.sub_b)
            grown_b = RelPair(pair.carrier, pair.up, pair.sub_a, tuple(range(n)))
            base, ga, gb = map(
                relative_cofinality, (pair, grown_a, grown_b)
            )

            def leq(v, w):
                return w.is_undefined or (v.is_finite and w.is_finite and v.n <= w.n)

            assert leq(ga, base)
            assert leq(base, gb)


class TestCofinalityInvariance:
    def test_two_way_maps_preserve_cofinality(self):
        rng = random.Random(41)
        for _ in range(25):
            universe = 1 << 3
            a = rng.sample(range(universe), rng.randint(1, 5))
            b = rng.sample(range(universe), rng.randint(1, 4))
            pair = subset_pair(a, b)
            n = len(pair.carrier)
            perm = list(range(n))
            rng.shuffle(perm)
            inverse = {old: new for new, old in enumerate(perm)}
            copy = make_rel_pair(
                list(range(n)),
                lambda x, y: pair.leq(perm[x], perm[y]),
                sub_a=[inverse[i] for i in pair.sub_a],
                sub_b=[inverse[i] for i in pair.sub_b],
            )
            fwd = {i: inverse[i] for i in pair.sub_a}
            back = {inverse[i]: i for i in pair.sub_a}
            assert check_tukey_map(fwd, pair, copy)
            assert check_tukey_map(back, copy, pair)
            v, w = relative_cofinality(pair), relative_cofinality(copy)
            assert (v.kind, v.n) == (w.kind, w.n)
