from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub import hard_cardinality, hard_matroid
from streamsub.errors import InvalidParams
from streamsub.hard_matroid import (MatHardInstance, MatHardParams, _level, approx_ratio,
                                    blue_ceiling, level_value, optimal_value,
                                    output_bound, profile_value, singleton_values)
from streamsub.harness import run_experiment
from streamsub.oracles import CheckReport, verify_monotone_submodular

from _reference import closed_form_3class, first_dominance_violation, profile_lattice, ref_level

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

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), t=st.integers(1, 200))
    def test_loop_matches_the_recursion(self, data, t):
        """The bottom-up loop gives the value of the recursion on slices
        (``_reference.ref_level``) on random profiles, clamped ones and
        ones with blue counts up to 3 above a class's ceiling, which the
        loop clamps itself."""
        reds = tuple(data.draw(st.lists(st.integers(0, 1), min_size=t, max_size=t)))
        over = data.draw(st.integers(0, 3))
        blues = tuple(data.draw(st.integers(0, blue_ceiling(t, j + 1) + over)) for j in range(t))
        clamped = tuple(min(b, blue_ceiling(t, j + 1)) for j, b in enumerate(blues))
        assert _level(t, reds, blues) == ref_level(t, reds, clamped)


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


class TestCheckedMemo:
    """``level_value`` memoizes checked profiles: a valid profile, asked
    twice and in list form, gets the value of the clamped recursion, and
    an invalid one raises the same error on every call, unhashable
    entries included."""

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_values_match_the_clamped_recursion(self, K):
        for reds, blues in profile_lattice(K):
            over = tuple(b + 2 for b in blues)
            clamped = tuple(min(b, blue_ceiling(K, j + 1)) for j, b in enumerate(over))
            want = _level(K, reds, clamped)
            for _ in range(2):
                assert level_value(K, reds, over) == want
                assert level_value(K, list(reds), list(over)) == want

    @pytest.mark.parametrize("t,reds,blues,message", [
        (0, (), (), "one red flag and one blue count per level"),
        (2, (0,), (0, 0), "one red flag and one blue count per level"),
        (2, (0, 2), (0, 0), "red entries must be 0/1"),
        (2, (0, 1), (0, -1), "blue counts must be non-negative"),
        (2, ([1], 0), (0, 0), "red entries must be 0/1"),
        (2, (0, {1}), (0, 0), "red entries must be 0/1"),
        (2, [[0], 1], [0, 0], "red entries must be 0/1"),
        (2, (0, 0), ("a", 0), "blue counts must be non-negative integers"),
        (2, (0, 0), ([1], 0), "blue counts must be non-negative integers"),
        (2, (0, 0), (None, 0), "blue counts must be non-negative integers"),
    ])
    def test_invalid_profiles_raise_every_time(self, t, reds, blues, message):
        for _ in range(2):
            with pytest.raises(InvalidParams, match=message):
                level_value(t, reds, blues)


def _up(profile, move):
    """``profile`` after the unit move ("red", i) or ("blue", i)."""
    (colour, i), (reds, blues) = move, profile
    if colour == "red":
        return reds[:i] + (1,) + reds[i + 1:], blues
    return reds, blues[:i] + (blues[i] + 1,) + blues[i + 1:]


def first_local_violation(K, value):
    """The first (x, j, i) on the profile lattice where the unit move j
    keeps x on the lattice and raises the gain of the unit move i, or None.
    A red move applies where that class has no red; a blue move may go one
    past its ceiling, so ``value(reds, blues)`` must take that. Every
    dominating pair of a product of chains is joined by unit moves, so by
    telescoping this gives the verdict of the all-pairs dominance scan
    (Soma and Yoshida, NIPS 2015)."""
    moves = [(colour, i) for i in range(K) for colour in ("red", "blue")]
    gains = {}
    for x in profile_lattice(K):
        base = value(*x)
        gains[x] = {move: value(*_up(x, move)) - base for move in moves
                    if move[0] == "blue" or not x[0][move[1]]}
    for x, here in gains.items():
        for j in here:
            there = gains.get(_up(x, j))
            if there is None:
                continue
            for i, gain in there.items():
                if gain > here[i]:
                    return x, j, i
    return None


class TestDiminishingProfileFamilies:
    """Diminishing returns of both unit-move families over the profile
    lattice, checked in local form; the all-pairs scan in ``_reference``
    is the reference it is checked against."""

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_both_marginal_families(self, K):
        assert first_local_violation(K, lambda reds, blues: level_value(K, reds, blues)) is None

    @pytest.mark.parametrize("K", [2, 3])
    def test_local_check_agrees_with_scan(self, K):
        def value(reds, blues):
            return level_value(K, reds, blues)
        assert first_local_violation(K, value) is first_dominance_violation(K, value) is None

    @settings(max_examples=80, deadline=None)
    @given(K=st.sampled_from([2, 3]), data=st.data())
    def test_same_verdict_on_mutated_tables(self, K, data):
        """A non-decreasing concave term per class keeps the table's
        diminishing returns, and edits of single values on top may break
        them; the two checkers must give the same verdict either way."""
        ceilings = [blue_ceiling(K, i + 1) for i in range(K)]
        steps = [sorted(data.draw(st.lists(st.integers(0, 4), min_size=c, max_size=c)),
                        reverse=True) for c in ceilings]
        table = {(reds, blues): level_value(K, reds, blues)
                 + sum(sum(step[:b]) for step, b in zip(steps, blues))
                 for reds, blues in profile_lattice(K)}
        edits = st.tuples(st.sampled_from(sorted(table)), st.integers(-3, 3))
        for profile, delta in data.draw(st.lists(edits, max_size=2)):
            table[profile] += delta

        def value(reds, blues):
            return table[reds, tuple(map(min, blues, ceilings))]
        assert ((first_local_violation(K, value) is None)
                == (first_dominance_violation(K, value) is None))


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
        inst = MatHardInstance(MatHardParams(3, 4), 2)
        assert inst.fn.value(frozenset()) == 0
        assert inst.fn.value({inst.fn.n - 1}) == factorial(2 * 3 - 2)

    def test_colorwise_symmetry_within_classes(self):
        inst = MatHardInstance(MatHardParams(3, 3), 4)
        by_profile = {}
        for mask in range(1 << inst.fn.n):
            s = frozenset(e for e in range(inst.fn.n) if mask >> e & 1)
            key = inst.profile_of(s)
            val = inst.fn.value(s)
            assert by_profile.setdefault(key, val) == val

    def test_block_layout_and_hidden_reds(self):
        inst = MatHardInstance(MatHardParams(4, 5), 8)
        n = inst.params.n
        assert n == 16
        for i, block in enumerate(inst.class_blocks[:-1], start=1):
            assert all(inst.class_of[e] == i for e in block)
            assert sum(1 for e in block if e in inst.red_ids) == 1
        assert inst.class_blocks[-1] == [n - 1]
        assert n - 1 in inst.red_ids

    def test_determinism(self):
        a = MatHardInstance(MatHardParams(3, 5), 6)
        b = MatHardInstance(MatHardParams(3, 5), 6)
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
        inst = MatHardInstance(MatHardParams(K, m), 1)
        assert verify_monotone_submodular(inst.fn).ok


class TestCheckClosedForms:
    """``check_closed_forms`` holds over criterion 3's range of K, and
    names the landmark that a perturbed closed form breaks."""

    def test_ok_over_criterion_3_range(self):
        for K in range(1, 11):
            assert hard_matroid.check_closed_forms(K)

    @pytest.mark.parametrize("name, kind", [("optimal_value", "all-red closed form"),
                                            ("output_bound", "reachable closed form")])
    def test_perturbed_landmark_is_named(self, name, kind, monkeypatch):
        real = getattr(hard_matroid, name)
        monkeypatch.setattr(hard_matroid, name, lambda K: real(K) - 1)
        assert hard_matroid.check_closed_forms(5) == CheckReport(False, kind, (5,))


MAT_SHAPES = [(1, 0), (2, 1), (3, 4), (4, 12), (3, 667), (200, 1), (2, 99_999), (5, 16)]


@pytest.fixture(scope="module", params=MAT_SHAPES, ids=lambda km: f"K{km[0]}-m{km[1]}")
def mat_instance(request):
    K, m = request.param
    return MatHardInstance(MatHardParams(K, m), K + m)


class TestPackedDifferential:
    """The oracle's packed profile integer gives the value of ``profile_of``
    and the checked recursion: on random sets, on infeasible ones with more
    blues than a class's ceiling, on whole classes, at K=1 and K=200 and at
    the largest ground set the family accepts (K=2, m=99,999)."""

    @staticmethod
    def check(inst, subset):
        want = profile_value(inst.params.K, *inst.profile_of(subset))
        assert inst.fn.value(subset) == want
        assert inst._value(tuple(subset)) == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_sets(self, mat_instance, data):
        inst = mat_instance
        n = inst.params.n
        subset = set(data.draw(st.lists(st.integers(0, n - 1), max_size=40)))
        # pile blues into one class, past its ceiling
        block = data.draw(st.sampled_from(inst.class_blocks))
        pile = st.lists(st.sampled_from(block), max_size=2 * len(inst.class_blocks) + 4)
        subset |= set(data.draw(pile))
        self.check(inst, frozenset(subset))

    def test_whole_classes(self, mat_instance):
        inst = mat_instance
        blocks = inst.class_blocks
        self.check(inst, frozenset())
        self.check(inst, frozenset(range(inst.params.n)))
        for block in blocks[:3] + blocks[-3:]:
            self.check(inst, frozenset(block))
            self.check(inst, frozenset(block) - inst.red_ids)
            self.check(inst, frozenset(block) | {inst.params.n - 1})
        reds = sorted(inst.red_ids)
        self.check(inst, frozenset(reds))
        self.check(inst, frozenset(reds[::2]))


class TestMemoBound:
    """Every memo of the two hard families has a finite bound and keeps to
    it, also through a K=200 sieve trial and through more distinct
    profiles than the bound, both checked and packed."""

    @staticmethod
    def memos() -> dict:
        return {(module.__name__, name): memo
                for module in (hard_matroid, hard_cardinality)
                for name, memo in vars(module).items() if hasattr(memo, "cache_info")}

    def test_every_memo_is_bounded(self):
        memos = self.memos()
        assert {("streamsub.hard_matroid", "_packed_level"),
                ("streamsub.hard_matroid", "_checked_level"),
                ("streamsub.hard_cardinality", "_packed_value")} <= set(memos)
        for memo in memos.values():
            assert memo.cache_parameters()["maxsize"] is not None

    def test_sizes_stay_within_bounds(self):
        checked, packed = hard_matroid._checked_level, hard_matroid._packed_level
        before = checked.cache_info().misses, packed.cache_info().misses
        run_experiment(MatHardInstance(MatHardParams(200, 1), 0), "sieve", "2/5", 1)
        # that trial misses _packed_level 400 times and _checked_level not
        # at all; 2^14 profiles of distinct reds overflow both
        inst = MatHardInstance(MatHardParams(14, 1), 0)
        for reds in product((0, 1), repeat=14):
            level_value(14, reds, (0,) * 14)
            inst.fn.value(e for e in range(14) if reds[e])
        for memo, misses in zip((checked, packed), before):
            assert memo.cache_info().misses - misses > memo.cache_parameters()["maxsize"]
        for memo in self.memos().values():
            assert memo.cache_info().currsize <= memo.cache_parameters()["maxsize"]
