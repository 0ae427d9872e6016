from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub import hard_cardinality
from streamsub.errors import InvalidParams
from streamsub.hard_cardinality import (CardHardInstance, CardHardParams, blue_marginal,
                                        limiting_ratio, optimal_value, output_bound,
                                        profile_value, ratio_bound, red_marginal)
from streamsub.oracles import CheckReport, verify_monotone_submodular

from _reference import prefix_profile_value, ref_blue_marginal

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

    def test_matches_piecewise_rule(self):
        for K in range(2, 11):
            for h in range(K, 3 * K + 1):
                params = CardHardParams(2 * K, K, h)
                for b in range(params.blue_cap + 4):
                    for p in (0, 1):
                        assert blue_marginal(params, b, p) == ref_blue_marginal(params, b, p), \
                            (K, h, b, p)

    def test_negative_blue_count(self):
        for p in (0, 1):
            with pytest.raises(InvalidParams, match="^negative blue count$"):
                blue_marginal(P44, -1, p)


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


class TestClampedCoreDifferential:
    """``profile_value`` and the instance's oracle, which clamp the blue
    count at ``blue_cap``, agree with unclamped prefix sums of the gains."""

    @settings(max_examples=40, deadline=None)
    @given(K=st.integers(2, 8), data=st.data())
    def test_matches_prefix_sums(self, K, data):
        h = data.draw(st.integers(K, 3 * K + 2))
        cap = CardHardParams(2 * K, K, h).blue_cap
        # blues from K (n = 2K) to past the cap
        params = CardHardParams(K + data.draw(st.integers(K, cap + 4)), K, h)
        inst = CardHardInstance(params, data.draw(st.integers(0, 99)))
        blues, reds = sorted(inst.blue_ids), sorted(inst.red_ids)
        for b in range(params.blues + 1):
            for r in range(params.reds + 1):
                for p in (0, 1):
                    want = prefix_profile_value(params, b, r, p)
                    assert profile_value(params, b, r, p) == want, (b, r, p)
                    subset = blues[:b] + reds[:r] + [inst.purple_id] * p
                    assert inst.fn.value(subset) == want, (b, r, p)

    def test_gains_vanish_at_the_cap(self):
        for K in range(2, 9):
            for h in range(K, 3 * K + 3):
                cap = CardHardParams(2 * K, K, h).blue_cap
                params = CardHardParams(K + cap + 3, K, h)
                for b in range(cap, params.blues + 1):
                    assert blue_marginal(params, b, 0) == blue_marginal(params, b, 1) == 0
                    assert all(red_marginal(params, b, r) == 0 for r in range(K - 1))


CARD_SHAPES = [(4, 2, 2), (14, 4, 4), (50, 8, 12), (100_000, 2, 2), (100_000, 10, 14)]


@pytest.fixture(scope="module", params=CARD_SHAPES, ids=lambda nkh: "n{}-K{}-h{}".format(*nkh))
def card_instance(request):
    n, K, h = request.param
    return CardHardInstance(CardHardParams(n, K, h), n + K)


class TestPackedDifferential:
    """The oracle's packed profile integer gives the value of ``profile_of``
    and ``profile_value``: on random sets, on infeasible ones with more
    blues than ``blue_cap``, on all of one color, and at the largest ground
    set the family accepts (n=100,000)."""

    @staticmethod
    def check(inst, subset):
        want = profile_value(inst.params, *inst.profile_of(subset))
        assert inst.fn.value(subset) == want
        assert inst._value(tuple(subset)) == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_sets(self, card_instance, data):
        inst = card_instance
        subset = set(data.draw(st.lists(st.integers(0, inst.params.n - 1), max_size=40)))
        cap = inst.params.blue_cap
        blues = sorted(inst.blue_ids)
        subset |= set(blues[:data.draw(st.integers(0, min(len(blues), cap + 5)))])
        self.check(inst, frozenset(subset))

    def test_whole_colors(self, card_instance):
        inst = card_instance
        everything = frozenset(range(inst.params.n))
        for subset in (frozenset(), everything, inst.blue_ids, inst.red_ids,
                       inst.red_ids | {inst.purple_id}, everything - inst.red_ids,
                       everything - {inst.purple_id}):
            self.check(inst, subset)


class TestCheckClosedForms:
    """``check_closed_forms`` holds over criterion 3's grid, and under a
    perturbed value it names the first landmark broken."""

    def test_ok_over_criterion_3_grid(self):
        for K in range(2, 9):
            for h in range(K, 3 * K + 1):
                assert hard_cardinality.check_closed_forms(CardHardParams(n=50, K=K, h=h))

    @pytest.mark.parametrize("profile, kind, witness", [
        ((10, 0, 0), "blue/red swap", (9,)),
        ((6, 0, 0), "blue/red swap", (5,)),
        ((4, 1, 0), "blue/red swap", (4,)),
        ((4, 0, 0), "blue/red swap", (3,)),
        ((3, 0, 1), "reachable closed form", (3, 0, 1)),
        ((0, 3, 1), "optimal closed form", (0, 3, 1)),
    ])
    def test_perturbed_value_is_the_witness(self, profile, kind, witness, monkeypatch):
        real = hard_cardinality.profile_value
        monkeypatch.setattr(hard_cardinality, "profile_value",
                            lambda params, *counts: real(params, *counts) + (counts == profile))
        assert hard_cardinality.check_closed_forms(P44) == CheckReport(False, kind, witness)

    def test_perturbed_reachable_term(self, monkeypatch):
        real = hard_cardinality._reachable
        monkeypatch.setattr(hard_cardinality, "_reachable",
                            lambda K, h: (real(K, h)[0] + 1, real(K, h)[1]))
        assert hard_cardinality.check_closed_forms(P44) == \
            CheckReport(False, "reachable closed form", (4, 0, 0))
