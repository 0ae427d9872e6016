from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub.errors import InvalidParams
from streamsub.hard_cardinality import (CardHardInstance, CardHardParams, blue_marginal,
                                        limiting_ratio, optimal_value, output_bound,
                                        profile_value, ratio_bound, red_marginal)
from streamsub.oracles import verify_monotone_submodular

P44 = CardHardParams(n=14, K=4, h=4)

# hand-transcribed reference grid for K=h=4, purple absent: f[r][b] and
# red-marginal[r][b]
F_GRID = {
    0: [0, 7, 13, 18, 22, 25, 27, 29, 30, 31, 31],
    1: [7, 13, 18, 22, 25, 27, 29, 30, 31, 31, 31],
    2: [14, 19, 23, 26, 28, 29, 30, 31, 31, 31, 31],
    3: [21, 25, 28, 30, 31, 31, 31, 31, 31, 31, 31],
}
DR_GRID = {
    0: [7, 6, 5, 4, 3, 2, 2, 1, 1, 0],
    1: [7, 6, 5, 4, 3, 2, 1, 1, 0, 0],
    2: [7, 6, 5, 4, 3, 2, 1, 0, 0, 0],
}


class TestRedMarginal:
    def test_reference_grid(self):
        for r, col in DR_GRID.items():
            for b, want in enumerate(col):
                assert red_marginal(P44, b, r) == want, (b, r)

    def test_spot_values(self):
        assert red_marginal(P44, 0, 0) == 7
        assert red_marginal(P44, 4, 0) == 3
        assert red_marginal(P44, 9, 0) == 0

    def test_non_increasing_in_b_and_r(self):
        for params in (P44, CardHardParams(30, 5, 8)):
            for r in range(params.K - 1):
                vals = [red_marginal(params, b, r) for b in range(25)]
                assert vals == sorted(vals, reverse=True)
            for b in range(25):
                vals = [red_marginal(params, b, r) for r in range(params.K - 1)]
                assert vals == sorted(vals, reverse=True)


class TestBlueMarginal:
    def test_spot_values(self):
        assert blue_marginal(P44, 2, 0) == 5
        assert blue_marginal(P44, 2, 1) == 3

    def test_no_purple_equals_red_marginal(self):
        for params in (P44, CardHardParams(40, 6, 9)):
            for b in range(30):
                assert blue_marginal(params, b, 0) == red_marginal(params, b, 0)


class TestProfileValue:
    def test_base(self):
        assert profile_value(P44, 0, 0, 0) == 0
        assert profile_value(P44, 0, 0, 1) == 10

    def test_reference_grid(self):
        for r, col in F_GRID.items():
            for b, want in enumerate(col):
                assert profile_value(P44, b, r, 0) == want, (b, r)

    def test_landmarks(self):
        assert profile_value(P44, 4, 0, 0) == 22
        assert profile_value(P44, 0, 3, 0) == 21
        assert profile_value(P44, 9, 3, 0) == 31
        assert profile_value(P44, 3, 0, 1) == 19

    def test_closed_forms_match(self):
        for K in range(2, 7):
            for h in range(K, 2 * K + 1):
                params = CardHardParams(n=40, K=K, h=h)
                assert profile_value(params, K, 0, 0) == h * K + (K - 1) * K // 2
                assert profile_value(params, K - 1, 1, 0) == h * K + (K - 1) * K // 2
                assert profile_value(params, K - 1, 0, 1) == (K - 1) ** 2 + h * (h + 1) // 2
                assert profile_value(params, 0, K - 1, 1) == optimal_value(params)
                assert output_bound(params) == max(
                    profile_value(params, K, 0, 0), profile_value(params, K - 1, 0, 1))

    def test_blue_red_swap_identity(self):
        for K in (2, 3, 4, 6):
            for h in (K, K + 2, 2 * K):
                params = CardHardParams(n=30, K=K, h=h)
                for b in range(params.blues - 1):
                    assert profile_value(params, b + 1, 0, 0) == \
                        profile_value(params, b, 1, 0)

    def test_bounds_validated(self):
        with pytest.raises(InvalidParams):
            profile_value(P44, 11, 0, 0)
        with pytest.raises(InvalidParams):
            profile_value(P44, 0, 4, 0)
        with pytest.raises(InvalidParams):
            profile_value(P44, 0, 0, 2)


class TestMarginalMonotonicityFamilies:
    """The three profile-level diminishing-returns families, checked by
    direct enumeration over profiles with b <= 12."""

    @pytest.mark.parametrize("K,h", [(3, 3), (4, 4), (4, 6), (5, 7)])
    def test_families(self, K, h):
        params = CardHardParams(n=K + 13, K=K, h=h)
        b_hi = 12
        r_hi = K - 1
        # purple marginal is non-negative and shrinks as (b, r) grow
        purple = {(b, r): profile_value(params, b, r, 1) - profile_value(params, b, r, 0)
                  for b in range(b_hi + 1) for r in range(r_hi + 1)}
        for (b1, r1), m1 in purple.items():
            assert m1 >= 0
            for (b2, r2), m2 in purple.items():
                if b1 <= b2 and r1 <= r2:
                    assert m1 >= m2
        # red marginal shrinks along (b, r, p)
        for p1 in (0, 1):
            for p2 in (p1, 1):
                for b1 in range(b_hi + 1):
                    for b2 in range(b1, b_hi + 1):
                        for r1 in range(r_hi):
                            for r2 in range(r1, r_hi):
                                lhs = profile_value(params, b1, r1 + 1, p1) - \
                                    profile_value(params, b1, r1, p1)
                                rhs = profile_value(params, b2, r2 + 1, p2) - \
                                    profile_value(params, b2, r2, p2)
                                assert lhs >= rhs >= 0
        # blue marginal shrinks along (b, r, p)
        for p1 in (0, 1):
            for p2 in (p1, 1):
                for b1 in range(b_hi):
                    for b2 in range(b1, b_hi):
                        for r1 in range(r_hi + 1):
                            for r2 in range(r1, r_hi + 1):
                                lhs = profile_value(params, b1 + 1, r1, p1) - \
                                    profile_value(params, b1, r1, p1)
                                rhs = profile_value(params, b2 + 1, r2, p2) - \
                                    profile_value(params, b2, r2, p2)
                                assert lhs >= rhs >= 0


class TestInstantiate:
    def test_empty_set_is_zero(self):
        inst = CardHardInstance(P44, 3)
        assert inst.fn.value(frozenset()) == 0

    def test_colorwise_symmetry_exhaustive(self):
        inst = CardHardInstance(CardHardParams(8, 3, 3), 5)
        by_profile = {}
        for mask in range(1 << 8):
            s = frozenset(e for e in range(8) if mask >> e & 1)
            key = inst.profile_of(s)
            val = inst.fn.value(s)
            assert by_profile.setdefault(key, val) == val

    def test_planted_solution_values(self):
        inst = CardHardInstance(P44, 9)
        blues = sorted(inst.blue_ids)[:3]
        assert inst.fn.value(set(blues) | {inst.purple_id}) == \
            profile_value(P44, 3, 0, 1)
        assert inst.fn.value(inst.red_ids | {inst.purple_id}) == optimal_value(P44)

    def test_coloring_sizes_and_determinism(self):
        a = CardHardInstance(P44, 12)
        b = CardHardInstance(P44, 12)
        c = CardHardInstance(P44, 13)
        assert a.colors == b.colors
        assert a.colors != c.colors
        assert len(a.blue_ids) == P44.blues
        assert len(a.red_ids) == P44.reds

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            CardHardParams(n=6, K=4, h=4)
        with pytest.raises(InvalidParams):
            CardHardParams(n=20, K=4, h=3)


class TestStructure:
    @pytest.mark.parametrize("K,h,n", [(3, 3, 8), (3, 6, 10), (4, 4, 10)])
    def test_monotone_submodular(self, K, h, n):
        inst = CardHardInstance(CardHardParams(n, K, h), 1)
        assert verify_monotone_submodular(inst.fn).ok


class TestRatioBound:
    def test_small_K_clamps_h(self):
        h, _ = ratio_bound(2)
        assert h == 2

    def test_K4_value(self):
        h, ratio = ratio_bound(4)
        assert (h, ratio) == (5, Fraction(2, 3))

    def test_large_K_near_limit(self):
        _, ratio = ratio_bound(100)
        assert abs(float(ratio) - limiting_ratio()) < 0.01

    def test_ratio_definition(self):
        for K in (3, 7, 20):
            h, ratio = ratio_bound(K)
            params = CardHardParams(n=4 * K + 2 * h, K=K, h=h)
            assert ratio == Fraction(output_bound(params), optimal_value(params))

    @settings(max_examples=30, deadline=None)
    @given(K=st.integers(2, 300))
    def test_ratio_above_limit(self, K):
        _, ratio = ratio_bound(K)
        assert float(ratio) > limiting_ratio()
