import random
from fractions import Fraction

import pytest

from streamsub.baselines import brute_force_optimum
from streamsub.branching import (CardTree, GuessDriver, MatroidTree,
                                 cardinality_branch, gamma_bound,
                                 matroid_branch, run_fixed_guess,
                                 run_guess_driver, to_fraction)
from streamsub.coverage import random_coverage
from streamsub.errors import InvalidParams, NotIndependent
from streamsub.hard_cardinality import CardHardParams
from streamsub.hard_cardinality import instantiate as card_instantiate
from streamsub.hard_matroid import MatHardParams
from streamsub.hard_matroid import instantiate as mat_instantiate
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.oracles import OracleAudit, QueryGate, WeakPolicy, additive
from streamsub.samplers import sample_stream

from _reference import ref_cardinality, ref_matroid


def weak_gate(fn, matroid):
    return QueryGate(fn, WeakPolicy(matroid), OracleAudit())


def run_card_tree(stream, gate, k, s, v, trace=False):
    tree = CardTree(gate, k, s, v, trace=trace)
    for t, e in enumerate(stream):
        tree.step(t, e)
    return tree


def run_mat_tree(stream, gate, matroid, k, v, trace=False):
    tree = MatroidTree(gate, matroid, k, v, trace=trace)
    for t, e in enumerate(stream):
        tree.step(t, e)
    return tree


class TestCardinalityBranch:
    def test_hand_example_additive(self):
        f = additive([3, 2, 2])
        gate = weak_gate(f, UniformMatroid(3, 2))
        sol, val = cardinality_branch([0, 1, 2], gate, k=2, s=2, v=5)
        assert sol == {0, 1} and val == 5
        assert 3 * val >= 2 * 5  # s/(k+s-1) = 2/3 of the target

    def test_k_or_s_one_returns_best_singleton(self):
        f = additive([1, 4, 2])
        gate = QueryGate(f)
        assert cardinality_branch([0, 1, 2], gate, 1, 3, 10) == (frozenset({1}), 4)
        assert cardinality_branch([0, 1, 2], gate, 3, 1, 10) == (frozenset({1}), 4)

    def test_empty_stream(self):
        gate = QueryGate(additive([1]))
        assert cardinality_branch([], gate, 2, 2, 5) == (frozenset(), 0)

    def test_invalid_budgets(self):
        gate = QueryGate(additive([1]))
        with pytest.raises(InvalidParams):
            cardinality_branch([0], gate, 0, 1, 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_reference_simulator(self, seed):
        rnd = random.Random(seed)
        n = rnd.randrange(3, 9)
        K = rnd.randrange(2, 4)
        inst = random_coverage(n, 10, K, seed)
        stream = list(range(n))
        rnd.shuffle(stream)
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        for v in (opt, Fraction(opt, 2), Fraction(3 * opt, 4), opt + 1):
            gate = QueryGate(inst.fn)
            got = cardinality_branch(stream, gate, K, K, v)
            want = ref_cardinality(inst.fn, stream, K, K, to_fraction(v))
            assert got == want

    @pytest.mark.parametrize("seed", range(40))
    def test_guarantee_when_target_is_feasible(self, seed):
        rnd = random.Random(1000 + seed)
        n = rnd.randrange(4, 10)
        K = rnd.randrange(1, 4)
        if seed % 3 == 0:
            inst = card_instantiate(CardHardParams(max(n, 2 * K + 2), K + 1, K + 1), seed)
            K = K + 1
        else:
            inst = random_coverage(n, 10, K, seed)
        stream = list(range(inst.fn.n))
        rnd.shuffle(stream)
        _, opt = brute_force_optimum(inst.fn, UniformMatroid(inst.fn.n, K))
        v = opt  # qualifying set exists by definition of the optimum
        gate = weak_gate(inst.fn, UniformMatroid(inst.fn.n, K))
        sol, val = cardinality_branch(stream, gate, K, K, v)
        assert len(sol) <= K
        assert val * (2 * K - 1) >= K * v
        assert gate.audit.compliant

    def test_node_count_recurrence(self):
        inst = random_coverage(8, 12, 3, 99)
        gate = QueryGate(inst.fn)
        tree = run_card_tree(list(range(8)), gate, 3, 3, 6)
        for node in tree.nodes:
            assert node.subtree_size() <= gamma_bound(node.k, node.s)


class TestMatroidBranch:
    def test_branch_zero_best_independent_singleton(self):
        f = additive([5, 7, 1])
        m = PartitionMatroid([0, 0, 1], 1)
        gate = weak_gate(f, m)
        sol, val = matroid_branch([0, 1, 2], gate, m, k=1, v=100)
        assert sol == {1} and val == 7

    def test_modular_two_classes_takes_both_maxima(self):
        f = additive([5, 1, 4, 2])
        m = PartitionMatroid([0, 0, 1, 1], 1)
        gate = weak_gate(f, m)
        sol, val = matroid_branch([0, 1, 2, 3], gate, m, k=2, v=9)
        assert sol == {0, 2} and val == 9

    def test_carried_set_must_be_independent(self):
        f = additive([1, 1, 1])
        m = UniformMatroid(3, 1)
        with pytest.raises(NotIndependent):
            matroid_branch([2], QueryGate(f), m, k=1, v=1, indep={0, 1})

    def test_rank_guardrail(self):
        f = additive([1] * 6)
        m = UniformMatroid(6, 5)
        with pytest.raises(InvalidParams):
            matroid_branch(range(6), QueryGate(f), m, k=5, v=1)
        matroid_branch(range(6), QueryGate(f), m, k=5, v=1, allow_large_rank=True)

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_reference_simulator(self, seed):
        rnd = random.Random(7000 + seed)
        n = rnd.randrange(3, 7)
        if seed % 2:
            matroid = UniformMatroid(n, rnd.randrange(1, 4))
        else:
            matroid = PartitionMatroid([rnd.randrange(2) for _ in range(n)],
                                       capacity=1)
        inst = random_coverage(n, 9, matroid.rank, seed)
        stream = list(range(n))
        rnd.shuffle(stream)
        _, opt = brute_force_optimum(inst.fn, matroid)
        K = matroid.rank
        for v in (max(opt, 1), Fraction(max(opt, 1), 2)):
            gate = QueryGate(inst.fn)
            got = matroid_branch(stream, gate, matroid, max(K, 1), v)
            want = ref_matroid(inst.fn, matroid, stream, max(K, 1), v)
            assert got == want

    @pytest.mark.parametrize("seed", range(30))
    def test_guarantee_and_feasibility(self, seed):
        rnd = random.Random(4000 + seed)
        if seed % 3 == 0:
            inst = mat_instantiate(MatHardParams(2, rnd.randrange(2, 5)), seed)
        else:
            n = rnd.randrange(4, 9)
            inst = random_coverage(n, 10, 0, seed)
            inst.matroid = PartitionMatroid([rnd.randrange(3) for _ in range(n)], 1)
        matroid = inst.matroid
        K = matroid.rank
        if K < 1 or K > 4:
            return
        stream = list(range(inst.fn.n))
        rnd.shuffle(stream)
        opt_set, opt = brute_force_optimum(inst.fn, matroid)
        if opt == 0:
            return
        k = len(opt_set)
        if k == 0:
            return
        gate = weak_gate(inst.fn, matroid)
        sol, val = matroid_branch(stream, gate, matroid, k, opt)
        assert matroid.is_independent(sol)
        # target met: val >= opt * (1 - 1/(2K-k)) / 2
        assert 2 * val * (2 * K - k) >= (2 * K - k - 1) * opt
        assert gate.audit.compliant


class TestSinglePassDiscipline:
    def test_card_tree_each_node_sees_each_position_once(self):
        inst = random_coverage(8, 12, 3, 5)
        gate = QueryGate(inst.fn)
        tree = run_card_tree(list(range(8)), gate, 3, 3, 5, trace=True)
        seen = {}
        for node_id, t in tree.trace_log:
            assert t not in seen.setdefault(node_id, set())
            seen[node_id].add(t)
        for node in tree.nodes:
            for t in seen.get(id(node), ()):
                assert t >= node.start

    def test_mat_tree_each_node_sees_each_position_once(self):
        inst = random_coverage(6, 10, 2, 6)
        gate = QueryGate(inst.fn)
        tree = run_mat_tree(list(range(6)), gate, inst.matroid, 2, 4, trace=True)
        seen = {}
        for node_id, t in tree.trace_log:
            assert t not in seen.setdefault(node_id, set())
            seen[node_id].add(t)
        for node in tree.nodes:
            for t in seen.get(id(node), ()):
                assert t >= node.start


class TestIncrementalState:
    """The running footprint equals the sum over all nodes, and each step
    reaches exactly the nodes a scan of all nodes would, in creation order."""

    @pytest.mark.parametrize("seed", range(12))
    def test_card_tree(self, seed):
        rnd = random.Random(300 + seed)
        if seed % 3 == 0:
            K = 3
            inst = card_instantiate(CardHardParams(10, K, K), seed)
        else:
            K = rnd.randrange(2, 4)
            inst = random_coverage(rnd.randrange(5, 9), 12, K, seed)
        stream = list(range(inst.fn.n))
        rnd.shuffle(stream)
        _, opt = brute_force_optimum(inst.fn, UniformMatroid(inst.fn.n, K))
        for v in (opt, Fraction(opt, 2)):
            tree = CardTree(QueryGate(inst.fn), K, K, v, trace=True)
            for t, e in enumerate(stream):
                want = [id(n) for n in tree.nodes
                        if n.start <= t and (n.leaf or n.collecting)]
                mark = len(tree.trace_log)
                tree.step(t, e)
                assert tree.trace_log[mark:] == [(node_id, t) for node_id in want]
                assert tree.footprint() == sum(n.local_stored() for n in tree.nodes)

    @pytest.mark.parametrize("seed", range(8))
    def test_mat_tree(self, seed):
        rnd = random.Random(600 + seed)
        n = rnd.randrange(4, 7)
        if seed % 2:
            matroid = UniformMatroid(n, rnd.randrange(1, 3))
        else:
            matroid = PartitionMatroid([rnd.randrange(2) for _ in range(n)], capacity=1)
        inst = random_coverage(n, 9, matroid.rank, seed)
        stream = list(range(n))
        rnd.shuffle(stream)
        _, opt = brute_force_optimum(inst.fn, matroid)
        tree = MatroidTree(QueryGate(inst.fn), matroid, matroid.rank, max(opt, 1),
                           trace=True)
        for t, e in enumerate(stream):
            want = [id(node) for node in tree.nodes if node.start <= t]
            mark = len(tree.trace_log)
            tree.step(t, e)
            assert tree.trace_log[mark:] == [(node_id, t) for node_id in want]
            assert tree.footprint() == sum(node.local_stored() for node in tree.nodes)


class TestGuessDriver:
    def test_all_equal_values_reaches_feasible_max(self):
        f = additive([2] * 6)
        m = UniformMatroid(6, 3)
        gate = weak_gate(f, m)
        report = run_guess_driver(list(range(6)), gate, m, "1/10", "cardinality")
        assert report.value == 6
        assert len(report.solution) == 3

    def test_active_roots_bounded_by_grid_window(self):
        inst = random_coverage(8, 12, 3, 11)
        gate = weak_gate(inst.fn, inst.matroid)
        eps = Fraction(1, 10)
        report = run_guess_driver(list(range(8)), gate, inst.matroid, eps, "cardinality")
        import math
        K = 3
        window_span = (1 + eps) ** 2 * K / eps
        bound = math.log(float(window_span)) / math.log(float(1 + eps)) + 2
        assert report.live_roots_peak <= bound

    @pytest.mark.parametrize("seed", range(25))
    def test_cardinality_driver_guarantee(self, seed):
        inst = random_coverage(8, 12, (seed % 3) + 1, 500 + seed)
        stream = sample_stream(inst, "uniform", seed).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        report = run_guess_driver(stream, gate, inst.matroid, "1/10", "cardinality")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert report.value >= (Fraction(K, 2 * K - 1) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(report.solution)
        assert gate.audit.compliant

    @pytest.mark.parametrize("seed", range(15))
    def test_matroid_driver_guarantee(self, seed):
        inst = random_coverage(7, 12, (seed % 3) + 1, 900 + seed)
        stream = sample_stream(inst, "uniform", seed).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        report = run_guess_driver(stream, gate, inst.matroid, "1/10", "matroid")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert report.value >= (Fraction(1, 2) - Fraction(1, 2 * K) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(report.solution)
        assert gate.audit.compliant

    def test_hard_matroid_driver_reaches_reachable_bound(self):
        inst = mat_instantiate(MatHardParams(2, 3), 3)
        stream = sample_stream(inst, "class-blocks", 1).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        report = run_guess_driver(stream, gate, inst.matroid, "1/10", "matroid")
        # reachable bound K*(2K-2)! = 4; target (1/2 - 1/(2K)) of best guess
        assert report.value >= Fraction(1, 4) * report.v_used
        assert report.value >= 4

    def test_v_used_is_exact_rational(self):
        inst = random_coverage(6, 10, 2, 77)
        gate = weak_gate(inst.fn, inst.matroid)
        report = run_guess_driver(list(range(6)), gate, inst.matroid, "1/10", "cardinality")
        assert report.v_used is None or isinstance(report.v_used, Fraction)


class TestSpaceAccounting:
    @pytest.mark.parametrize("K", [2, 3])
    def test_cardinality_fixed_guess_bound(self, K):
        inst = card_instantiate(CardHardParams(10, K, K), 21)
        stream = sample_stream(inst, "purple-last", 2).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        report = run_fixed_guess(stream, gate, inst.matroid, inst.optimal_value,
                                 "cardinality")
        assert report.max_stored <= K * 2 ** (2 * K)

    @pytest.mark.parametrize("K", [2, 3])
    def test_matroid_fixed_guess_bound(self, K):
        inst = mat_instantiate(MatHardParams(K, 2 * (K - 1)), 22)
        stream = sample_stream(inst, "class-blocks", 2).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        report = run_fixed_guess(stream, gate, inst.matroid, inst.optimal_value,
                                 "matroid")
        assert report.max_stored <= K ** (5 * K + 1)
