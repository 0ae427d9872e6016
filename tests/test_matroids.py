from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.matroids import PartitionMatroid, UniformMatroid, check_axioms

from _reference import ExplicitMatroid


class TestIsIndependent:
    def test_uniform_cardinality_rule(self):
        m = UniformMatroid(4, 2)
        assert m.is_independent({0, 1})
        assert not m.is_independent({0, 1, 2})

    def test_partition_capacity_one(self):
        m = PartitionMatroid([0, 0, 1], capacity=1)
        assert not m.is_independent({0, 1})
        assert m.is_independent({0, 2})

    def test_explicit_from_bases(self):
        fam = [frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
               frozenset({0, 1}), frozenset({0, 2})]
        m = ExplicitMatroid(3, fam)
        assert not m.is_independent({1, 2})
        assert m.is_independent({0, 2})


class TestCanExtend:
    """``fits(load(S), e)``: can e extend the independent set S."""

    def test_empty_extends_anywhere(self):
        m = UniformMatroid(3, 1)
        assert m.fits(m.load(frozenset()), 2)

    def test_partition_class_exhausted(self):
        m = PartitionMatroid([0, 0, 1], capacity=1)
        assert not m.fits(m.load({0}), 1)
        assert m.fits(m.load({0}), 2)

    def test_uniform_rank_reached(self):
        m = UniformMatroid(5, 3)
        full = m.load({0, 1, 2})
        assert all(not m.fits(full, e) for e in (3, 4))

    @settings(max_examples=60, deadline=None)
    @given(rank=st.integers(0, 4), subset=st.sets(st.integers(0, 5)), e=st.integers(0, 5))
    def test_matches_direct_query(self, rank, subset, e):
        m = UniformMatroid(6, rank)
        # fits requires e outside S
        if not m.is_independent(subset) or e in subset:
            return
        assert m.fits(m.load(subset), e) == m.is_independent(set(subset) | {e})


class TestCheckAxioms:
    def test_uniform_ok(self):
        assert check_axioms(UniformMatroid(4, 2)).ok

    def test_heredity_witness(self):
        broken = ExplicitMatroid(2, [frozenset(), frozenset({0}), frozenset({0, 1})])
        report = check_axioms(broken)
        assert not report.ok and report.kind == "heredity"

    def test_exchange_witness(self):
        # two maximal sets of different sizes with no valid exchange
        broken = ExplicitMatroid(3, [frozenset(), frozenset({0}), frozenset({1}),
                                     frozenset({2}), frozenset({1, 2})])
        report = check_axioms(broken)
        assert not report.ok and report.kind == "exchange"

    @pytest.mark.parametrize("classes,cap", [([0, 0, 1, 1], 1), ([0, 1, 2, 0, 1], 2)])
    def test_partition_ok_by_enumeration(self, classes, cap):
        assert check_axioms(PartitionMatroid(classes, cap)).ok


class TestAgainstExplicitEnumeration:
    @pytest.mark.parametrize("matroid", [
        UniformMatroid(7, 3),
        PartitionMatroid([0, 0, 0, 1, 1, 2, 2, 2], 1),
        PartitionMatroid([0, 1, 0, 1, 0, 1], {0: 2, 1: 1}),
    ])
    def test_oracles_agree_with_enumerated_family(self, matroid):
        explicit = ExplicitMatroid.from_oracle(matroid)
        assert check_axioms(explicit).ok
        for mask in range(1 << matroid.n):
            s = frozenset(e for e in range(matroid.n) if mask >> e & 1)
            assert matroid.is_independent(s) == explicit.is_independent(s)

    def test_hard_matroid_feasibility_is_one_per_class(self):
        inst = MatHardInstance(MatHardParams(3, 3), 2)
        m = inst.matroid
        for mask in range(1 << inst.fn.n):
            s = frozenset(e for e in range(inst.fn.n) if mask >> e & 1)
            per_class_ok = all(
                sum(1 for e in s if inst.class_of[e] == c) <= 1
                for c in range(1, inst.params.K + 1))
            assert m.is_independent(s) == per_class_ok


class TestRank:
    def test_partition_rank_counts_reachable(self):
        m = PartitionMatroid([0, 0, 1], capacity=1)
        assert m.rank == 2

    def test_uniform_rank_clamped_to_n(self):
        assert UniformMatroid(3, 9).rank == 3


def _greedy_independent(matroid, order, size):
    """The independent set grown along ``order``, at most ``size`` long."""
    chosen = frozenset()
    for e in order:
        if len(chosen) >= size:
            break
        if matroid.is_independent(chosen | {e}):
            chosen = chosen | {e}
    return chosen


@st.composite
def matroids(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["uniform", "partition", "explicit"]))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, 4)))
    labels = draw(st.lists(st.sampled_from([0, 1, "a", (2, "b"), None]),
                           min_size=n, max_size=n))
    if draw(st.booleans()):
        capacity = draw(st.integers(0, 3))
    else:
        capacity = {c: draw(st.integers(0, 3)) for c in dict.fromkeys(labels)}
    matroid = PartitionMatroid(labels, capacity)
    return matroid if kind == "partition" else ExplicitMatroid.from_oracle(matroid)


def counted_independent(matroid: PartitionMatroid, subset) -> bool:
    """The per-class count rule, by ``Counter``: the reference for the
    packed loads of ``PartitionMatroid.is_independent``."""
    counts = Counter(matroid.class_of[e] for e in frozenset(subset))
    return all(counts[c] <= matroid.capacity[c] for c in counts)


class TestIsIndependentDifferential:
    """``PartitionMatroid.is_independent`` walks packed loads; it answers
    what counting each class answers, over mixed capacities, classes of
    capacity 0 and inputs that repeat ids."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_class_counts(self, data):
        n = data.draw(st.integers(1, 10))
        labels = data.draw(st.lists(st.sampled_from([0, 1, 2, "a", (3, "b")]),
                                    min_size=n, max_size=n))
        capacity = data.draw(st.one_of(
            st.integers(0, 5),
            st.fixed_dictionaries({c: st.integers(0, 5) for c in dict.fromkeys(labels)})))
        matroid = PartitionMatroid(labels, capacity)
        ids = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
        for subset in (ids, frozenset(ids), tuple(reversed(ids))):
            assert matroid.is_independent(subset) == counted_independent(matroid, subset)

    def test_repeated_ids_count_once(self):
        m = PartitionMatroid([0, 0, 1], {0: 1, 1: 0})
        assert m.is_independent([0, 0, 0])
        assert not m.is_independent([0, 1, 0])
        assert not m.is_independent([2, 2])
        assert m.is_independent([])

    def test_full_fields_next_to_each_other(self):
        # capacities 3 and 1 share a 2-bit width: a full class must not
        # carry into its neighbour's field
        m = PartitionMatroid([0, 0, 0, 0, 1, 1], {0: 3, 1: 1})
        assert m.is_independent({0, 1, 2, 4})
        assert not m.is_independent({0, 1, 2, 3})
        assert not m.is_independent({0, 1, 2, 4, 5})


class TestLoads:
    """``load``/``fits``/``plus`` answer what ``is_independent`` answers."""

    @settings(max_examples=300, deadline=None)
    @given(matroid=matroids(), data=st.data())
    def test_fits_and_plus_match_is_independent(self, matroid, data):
        order = data.draw(st.permutations(range(matroid.n)))
        size = data.draw(st.integers(0, matroid.n))
        base = _greedy_independent(matroid, order, size)
        load = matroid.load(base)
        for e in range(matroid.n):
            if e in base:
                continue
            grown = base | {e}
            assert matroid.fits(load, e) == matroid.is_independent(grown)
            if matroid.is_independent(grown):
                assert matroid.plus(load, e) == matroid.load(grown)

    @settings(max_examples=100, deadline=None)
    @given(matroid=matroids(), data=st.data())
    def test_plus_chain_equals_load(self, matroid, data):
        order = data.draw(st.permutations(range(matroid.n)))
        chosen, load = frozenset(), matroid.load(frozenset())
        for e in order:
            if matroid.fits(load, e):
                chosen, load = chosen | {e}, matroid.plus(load, e)
        assert load == matroid.load(chosen)
        assert matroid.is_independent(chosen)
        assert len(chosen) == matroid.rank

    def test_partition_capacity_zero_class_never_fits(self):
        m = PartitionMatroid(["x", "y", "y"], {"x": 0, "y": 2})
        empty = m.load(frozenset())
        assert not m.fits(empty, 0)
        one = m.plus(empty, 1)
        assert m.fits(one, 2)
        assert not m.fits(m.plus(one, 2), 0)

    def test_partition_fields_do_not_interfere(self):
        m = PartitionMatroid([0, 0, 0, 1, 1, 1], {0: 3, 1: 1})
        load = m.load({0, 1, 2})
        assert m.fits(load, 3)
        assert not m.fits(m.plus(load, 3), 4)
