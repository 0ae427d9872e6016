import pytest

from streamsub.coverage import CoverageInstance
from streamsub.errors import IncompatibleDistribution
from streamsub.hard_cardinality import CardHardInstance, CardHardParams
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.samplers import sample_stream


class TestCardOrdering:
    def test_purple_always_last(self):
        inst = CardHardInstance(CardHardParams(12, 3, 3), 7)
        for seed in range(50):
            order = sample_stream(inst, "purple-last", seed)
            assert order[-1] == inst.purple_id
            assert sorted(order) == list(range(12))

    def test_incompatible(self):
        inst = CoverageInstance(6, 8, 2, 1)
        with pytest.raises(IncompatibleDistribution,
                           match="^purple-last needs a cardinality-hard instance$"):
            sample_stream(inst, "purple-last", 0)


class TestMatroidOrdering:
    def test_class_blocks_in_position(self):
        inst = MatHardInstance(MatHardParams(4, 5), 9)
        m, K = inst.params.m, inst.params.K
        for seed in range(30):
            order = sample_stream(inst, "class-blocks", seed)
            for i in range(1, K):
                block = order[(i - 1) * m: i * m]
                assert all(inst.class_of[e] == i for e in block)
            assert inst.class_of[order[-1]] == K

    def test_incompatible(self):
        inst = CardHardInstance(CardHardParams(8, 3, 3), 1)
        with pytest.raises(IncompatibleDistribution,
                           match="^class-blocks needs a matroid-hard instance$"):
            sample_stream(inst, "class-blocks", 0)


class TestDeterminismAndSpread:
    def test_same_seed_same_order(self):
        inst = CardHardInstance(CardHardParams(10, 3, 3), 2)
        a = sample_stream(inst, "purple-last", 42)
        b = sample_stream(inst, "purple-last", 42)
        assert a == b

    def test_distinct_seeds_usually_differ(self):
        inst = CardHardInstance(CardHardParams(10, 3, 3), 2)
        orders = {sample_stream(inst, "purple-last", s) for s in range(100)}
        assert len(orders) >= 99

    def test_uniform_is_a_permutation(self):
        inst = CoverageInstance(9, 8, 3, 3)
        order = sample_stream(inst, "uniform", 5)
        assert sorted(order) == list(range(9))

    def test_unknown_distribution(self):
        inst = CoverageInstance(5, 8, 2, 1)
        with pytest.raises(IncompatibleDistribution, match="^unknown distribution 'zigzag'$"):
            sample_stream(inst, "zigzag", 0)

    def test_defaults_by_kind(self):
        assert CoverageInstance(5, 8, 2, 1).distribution == "uniform"
        assert CardHardInstance(CardHardParams(8, 3, 3), 1).distribution == "purple-last"
        assert MatHardInstance(MatHardParams(2, 2), 1).distribution == "class-blocks"
