from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from streamsub.errors import InvalidParams
from streamsub.hard_matroid import (MatHardParams, approx_ratio, blue_ceiling,
                                    instantiate, level_value, optimal_value,
                                    output_bound, profile_value, singleton_values)
from streamsub.oracles import verify_monotone_submodular

from _reference import closed_form_3class

# hand-transcribed 3-class reference grids: grids[last_red][(r1, r2)][b1][b2]
GRIDS = {
    0: {
        (0, 0): [[0, 48, 72], [48, 72, 84], [84, 92, 96], [108, 108, 108], [120, 120, 120]],
        (1, 0): [[48, 96, 120], [84, 108, 120], [108, 116, 120], [120, 120, 120], [120, 120, 120]],
        (0, 1): [[48, 72, 72], [72, 84, 84], [92, 96, 96], [108, 108, 108], [120, 120, 120]],
        (1, 1): [[96, 120, 120], [108, 120, 120], [116, 120, 120], [120, 120, 120], [120, 120, 120]],
    },
    1: {
        (0, 0): [[24, 48, 72], [60, 72, 84], [88, 92, 96], [108, 108, 108], [120, 120, 120]],
        (1, 0): [[72, 96, 120], [96, 108, 120], [112, 116, 120], [120, 120, 120], [120, 120, 120]],
        (0, 1): [[72, 72, 72], [84, 84, 84], [96, 96, 96], [108, 108, 108], [120, 120, 120]],
        (1, 1): [[120, 120, 120], [120, 120, 120], [120, 120, 120], [120, 120, 120], [120, 120, 120]],
    },
}


def all_k3_profiles():
    for r1, r2, r3 in product((0, 1), repeat=3):
        for b1 in range(5):
            for b2 in range(3):
                yield (r1, r2, r3), (b1, b2, 0)


class TestLevelValue:
    def test_base_level(self):
        assert level_value(1, (1,), (0,)) == 1
        assert level_value(1, (0,), (0,)) == 0

    def test_k3_landmarks(self):
        assert level_value(3, (0, 0, 1), (0, 0, 0)) == 24
        assert level_value(3, (1, 0, 0), (0, 0, 0)) == 48

    def test_reference_grids(self):
        for r3, blocks in GRIDS.items():
            for (r1, r2), grid in blocks.items():
                for b1 in range(5):
                    for b2 in range(3):
                        got = level_value(3, (r1, r2, r3), (b1, b2, 0))
                        assert got == grid[b1][b2], (r1, r2, r3, b1, b2)

    def test_chain_last_red_all_blues(self):
        for t in range(1, 11):
            reds = (0,) * (t - 1) + (1,)
            blues = (1,) * (t - 1) + (0,)
            assert level_value(t, reds, blues) == t * factorial(2 * t - 2)


class TestProfileValue:
    def test_all_zero_is_minimum(self):
        for K in range(1, 7):
            assert profile_value(K, (0,) * K, (0,) * K) == 0

    def test_all_red_is_optimal(self):
        for K in range(1, 11):
            assert profile_value(K, (1,) * K, (0,) * K) == factorial(2 * K - 1)

    def test_last_red_plus_blues_is_reachable_bound(self):
        for K in range(1, 11):
            reds = (0,) * (K - 1) + (1,)
            blues = (1,) * (K - 1) + (0,)
            assert profile_value(K, reds, blues) == K * factorial(2 * K - 2)

    def test_clamp_invariance(self):
        K = 4
        for i in range(K - 1):
            ceiling = blue_ceiling(K, i + 1)
            base = [0] * K
            base[i] = ceiling
            lifted = list(base)
            lifted[i] = ceiling + 5
            assert profile_value(K, (0,) * K, tuple(base)) == \
                profile_value(K, (0,) * K, tuple(lifted))

    def test_monotone_in_every_coordinate(self):
        K = 3
        for reds, blues in all_k3_profiles():
            val = profile_value(K, reds, blues)
            for i in range(K):
                if reds[i] == 0:
                    up = list(reds)
                    up[i] = 1
                    assert profile_value(K, tuple(up), blues) >= val
                if i < K - 1:
                    up_b = list(blues)
                    up_b[i] += 1
                    assert profile_value(K, reds, tuple(up_b)) >= val

    def test_prefix_red_blue_swap(self):
        # converting "red present" to "one more blue" in class i leaves the
        # value unchanged whenever later classes are empty
        for K in (2, 3, 4):
            for i in range(K - 1):
                for r_prefix in product((0, 1), repeat=i):
                    for b_prefix in product(range(3), repeat=i):
                        for b_i in range(3):
                            with_red = (*r_prefix, 1) + (0,) * (K - i - 1)
                            no_red = (*r_prefix, 0) + (0,) * (K - i - 1)
                            blues_red = (*b_prefix, b_i) + (0,) * (K - i - 1)
                            blues_swap = (*b_prefix, b_i + 1) + (0,) * (K - i - 1)
                            assert profile_value(K, with_red, blues_red) == \
                                profile_value(K, no_red, blues_swap)

    def test_last_blue_rejected(self):
        with pytest.raises(InvalidParams):
            profile_value(3, (0, 0, 0), (0, 0, 1))


class TestDiminishingProfileFamilies:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_both_marginal_families(self, K):
        ranges = [range(blue_ceiling(K, i + 1) + 1) for i in range(K)]
        profiles = [(r, b)
                    for r in product((0, 1), repeat=K)
                    for b in product(*ranges)]

        def dominates(p1, p2):
            return all(x >= y for x, y in zip(p1[0], p2[0])) and \
                all(x >= y for x, y in zip(p1[1], p2[1]))

        def val(p):
            return level_value(K, p[0], p[1])

        for p1 in profiles:
            for p2 in profiles:
                if not dominates(p1, p2):
                    continue
                for i in range(K):
                    if p1[0][i] == 0:
                        up1 = list(p1[0]); up1[i] = 1
                        up2 = list(p2[0]); up2[i] = 1
                        lhs = level_value(K, tuple(up1), p1[1]) - val(p1)
                        rhs = level_value(K, tuple(up2), p2[1]) - val(p2)
                        assert lhs <= rhs, ("red", i, p1, p2)
                    up1 = list(p1[1]); up1[i] += 1
                    up2 = list(p2[1]); up2[i] += 1
                    lhs = level_value(K, p1[0], tuple(up1)) - val(p1)
                    rhs = level_value(K, p2[0], tuple(up2)) - val(p2)
                    assert lhs <= rhs, ("blue", i, p1, p2)


class TestClosedForm3Class:
    def test_reference_points(self):
        assert closed_form_3class((0, 0, 0), (0, 0, 0)) == 0
        assert closed_form_3class((1, 1, 1), (0, 0, 0)) == 120
        assert closed_form_3class((0, 0, 0), (4, 0, 0)) == 120

    def test_matches_recursion_everywhere(self):
        for reds, blues in all_k3_profiles():
            assert closed_form_3class(reds, blues) == profile_value(3, reds, blues)


class TestSingletons:
    def test_k3(self):
        assert singleton_values(3) == (48, 48, 24)

    def test_k2_matches_recursion(self):
        early, blue, last = singleton_values(2)
        assert early == level_value(2, (1, 0), (0, 0)) == 4
        assert blue == level_value(2, (0, 0), (1, 0)) == 4
        assert last == level_value(2, (0, 1), (0, 0)) == 2

    def test_one_red_per_class_sums_to_optimum(self):
        for K in range(2, 8):
            early, _, last = singleton_values(K)
            assert (K - 1) * early + last == optimal_value(K)


class TestLandmarks:
    def test_k3(self):
        assert optimal_value(3) == 120
        assert output_bound(3) == 72
        assert approx_ratio(3) == Fraction(3, 5)

    def test_k1_degenerate(self):
        assert optimal_value(1) == 1
        assert output_bound(1) == 1
        assert approx_ratio(1) == 1

    def test_exact_rational(self):
        assert approx_ratio(10) == Fraction(10, 19)


class TestInstantiate:
    def test_empty_and_single_values(self):
        inst = instantiate(MatHardParams(3, 4), 2)
        assert inst.fn.value(frozenset()) == 0
        assert inst.fn.value({inst.fn.n - 1}) == factorial(2 * 3 - 2)

    def test_colorwise_symmetry_within_classes(self):
        inst = instantiate(MatHardParams(3, 3), 4)
        by_profile = {}
        for mask in range(1 << inst.fn.n):
            s = frozenset(e for e in range(inst.fn.n) if mask >> e & 1)
            key = inst.profile_of(s)
            val = inst.fn.value(s)
            assert by_profile.setdefault(key, val) == val

    def test_block_layout_and_hidden_reds(self):
        inst = instantiate(MatHardParams(4, 5), 8)
        n = inst.params.n
        assert n == 16
        for i, block in enumerate(inst.class_blocks[:-1], start=1):
            assert all(inst.class_of[e] == i for e in block)
            assert sum(1 for e in block if e in inst.red_ids) == 1
        assert inst.class_blocks[-1] == [n - 1]
        assert n - 1 in inst.red_ids

    def test_determinism(self):
        a = instantiate(MatHardParams(3, 5), 6)
        b = instantiate(MatHardParams(3, 5), 6)
        assert a.red_ids == b.red_ids

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            MatHardParams(0, 3)
        with pytest.raises(InvalidParams):
            MatHardParams(2, 0)
        with pytest.raises(InvalidParams):
            MatHardParams(1, 3)


class TestStructure:
    @pytest.mark.parametrize("K,m", [(1, 0), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_monotone_submodular(self, K, m):
        inst = instantiate(MatHardParams(K, m), 1)
        assert verify_monotone_submodular(inst.fn).ok
