import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub.baselines import brute_force_optimum
from streamsub.branching import (CardTree, GuessDriver, GuessGrid, MatroidTree,
                                 gamma_bound, to_fraction)
from streamsub.coverage import random_coverage
from streamsub.errors import InvalidParams
from streamsub.hard_cardinality import CardHardParams
from streamsub.hard_cardinality import instantiate as card_instantiate
from streamsub.hard_matroid import MatHardParams
from streamsub.hard_matroid import instantiate as mat_instantiate
from streamsub.harness import stream_run
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate, WeakPolicy,
                               additive)
from streamsub.samplers import sample_stream

from _reference import ref_cardinality, ref_matroid, ref_stored_set, ref_window


def weak_gate(fn, matroid):
    return QueryGate(fn, WeakPolicy(matroid), OracleAudit())


def run_driver(stream, gate, matroid, eps, constraint):
    driver = GuessDriver(gate, matroid, eps, constraint)
    solution, value = stream_run(driver, stream, gate)
    return driver, solution, value


class TestCardinalityBranch:
    def test_hand_example_additive(self):
        f = additive([3, 2, 2])
        gate = weak_gate(f, UniformMatroid(3, 2))
        sol, val = stream_run(CardTree(gate, k=2, s=2, v=5), [0, 1, 2], gate)
        assert sol == {0, 1} and val == 5
        assert 3 * val >= 2 * 5  # s/(k+s-1) = 2/3 of the target

    def test_k_or_s_one_returns_best_singleton(self):
        f = additive([1, 4, 2])
        gate = QueryGate(f)
        assert stream_run(CardTree(gate, 1, 3, 10), [0, 1, 2], gate) == (frozenset({1}), 4)
        assert stream_run(CardTree(gate, 3, 1, 10), [0, 1, 2], gate) == (frozenset({1}), 4)

    def test_empty_stream(self):
        gate = QueryGate(additive([1]))
        assert stream_run(CardTree(gate, 2, 2, 5), [], gate) == (frozenset(), 0)

    def test_invalid_budgets(self):
        gate = QueryGate(additive([1]))
        with pytest.raises(InvalidParams):
            CardTree(gate, 0, 1, 1)

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
            got = stream_run(CardTree(gate, K, K, v), stream, gate)
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
        sol, val = stream_run(CardTree(gate, K, K, v), stream, gate)
        assert len(sol) <= K
        assert val * (2 * K - 1) >= K * v
        assert gate.audit.compliant

    def test_node_count_recurrence(self):
        inst = random_coverage(8, 12, 3, 99)
        gate = QueryGate(inst.fn)
        tree = CardTree(gate, 3, 3, 6)
        stream_run(tree, list(range(8)), gate)
        for node in tree.nodes:
            assert node.subtree_size() <= gamma_bound(node.k, node.s)


class TestMatroidBranch:
    def test_branch_zero_best_independent_singleton(self):
        f = additive([5, 7, 1])
        m = PartitionMatroid([0, 0, 1], 1)
        gate = weak_gate(f, m)
        sol, val = stream_run(MatroidTree(gate, m, k=1, v=100), [0, 1, 2], gate)
        assert sol == {1} and val == 7

    def test_modular_two_classes_takes_both_maxima(self):
        f = additive([5, 1, 4, 2])
        m = PartitionMatroid([0, 0, 1, 1], 1)
        gate = weak_gate(f, m)
        sol, val = stream_run(MatroidTree(gate, m, k=2, v=9), [0, 1, 2, 3], gate)
        assert sol == {0, 2} and val == 9

    def test_rank_guardrail(self):
        f = additive([1] * 6)
        m = UniformMatroid(6, 5)
        with pytest.raises(InvalidParams, match="ranks above 4 are not supported"):
            MatroidTree(QueryGate(f), m, k=5, v=1)

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
            got = stream_run(MatroidTree(gate, matroid, max(K, 1), v), stream, gate)
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
        sol, val = stream_run(MatroidTree(gate, matroid, k, opt), stream, gate)
        assert matroid.is_independent(sol)
        # target met: val >= opt * (1 - 1/(2K-k)) / 2
        assert 2 * val * (2 * K - k) >= (2 * K - k - 1) * opt
        assert gate.audit.compliant


class StepRecorder:
    """``stream_run`` watcher for a traced branch tree. For every step it
    records how many nodes the tree held before the step (``mark``), the
    ids of the pre-step nodes the step should reach (for a cardinality
    tree the leaves and collecting nodes, for a matroid tree all), the
    trace entries the step appended, the running footprint with the sum
    over all nodes, and the stored set with its per-node union reference."""

    def __init__(self, tree):
        self.tree = tree
        self.steps = []

    def before(self, t, e):
        nodes = self.tree.nodes
        self.mark = len(nodes)
        if isinstance(self.tree, CardTree):
            self.want = [id(node) for node in nodes if node.leaf or node.collecting]
        else:
            self.want = [id(node) for node in nodes]
        self.log_mark = len(self.tree.trace_log)

    def after(self, t, e, stored):
        tree = self.tree
        self.steps.append({
            "t": t, "mark": self.mark, "want": self.want,
            "entries": tree.trace_log[self.log_mark:],
            "footprint": (tree.footprint(), sum(n.local_stored() for n in tree.nodes)),
            "stored": (stored, ref_stored_set(tree)),
        })


def record(tree, stream, gate):
    recorder = StepRecorder(tree)
    stream_run(tree, stream, gate, recorder)
    return recorder.steps


def card_case(seed):
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
    return inst, K, stream, opt


def mat_case(seed):
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
    return inst, matroid, stream, opt


class TestSinglePassDiscipline:
    """A node created during step t first sees element t+1, and no node
    sees a position twice."""

    @staticmethod
    def check(tree, steps):
        seen = {}
        for step in steps:
            t = step["t"]
            later = {id(node) for node in tree.nodes[step["mark"]:]}
            for node_id, pos in step["entries"]:
                assert pos == t
                assert node_id not in later
                assert t not in seen.setdefault(node_id, set())
                seen[node_id].add(t)
        assert len(tree.nodes) > steps[0]["mark"]

    def test_card_tree_each_node_sees_each_position_once(self):
        inst = random_coverage(8, 12, 3, 5)
        gate = QueryGate(inst.fn)
        tree = CardTree(gate, 3, 3, 5, trace=True)
        self.check(tree, record(tree, list(range(8)), gate))

    def test_mat_tree_each_node_sees_each_position_once(self):
        inst = random_coverage(6, 10, 2, 6)
        gate = QueryGate(inst.fn)
        tree = MatroidTree(gate, inst.matroid, 2, 4, trace=True)
        self.check(tree, record(tree, list(range(6)), gate))


class TestIncrementalState:
    """After every step the running footprint equals the sum over all
    nodes, and each step reaches exactly the pre-step nodes that can still
    take an element, in creation order."""

    @staticmethod
    def check(steps):
        for step in steps:
            assert step["entries"] == [(node_id, step["t"]) for node_id in step["want"]]
            running, total = step["footprint"]
            assert running == total

    @pytest.mark.parametrize("seed", range(12))
    def test_card_tree(self, seed):
        inst, K, stream, opt = card_case(seed)
        for v in (opt, Fraction(opt, 2)):
            gate = QueryGate(inst.fn)
            self.check(record(CardTree(gate, K, K, v, trace=True), stream, gate))

    @pytest.mark.parametrize("seed", range(8))
    def test_mat_tree(self, seed):
        inst, matroid, stream, opt = mat_case(seed)
        gate = QueryGate(inst.fn)
        tree = MatroidTree(gate, matroid, matroid.rank, max(opt, 1), trace=True)
        self.check(record(tree, stream, gate))


class TestStoredSetReference:
    """Under the element-store policy, the stored set after every step
    equals the per-node union that also counts each node's pinned or
    carried elements, and no query is refused."""

    @staticmethod
    def check(gate, steps):
        for step in steps:
            stored, want = step["stored"]
            assert stored == want
        assert gate.audit.compliant

    @pytest.mark.parametrize("seed", range(12))
    def test_card_tree(self, seed):
        inst, K, stream, opt = card_case(seed)
        for v in (opt, Fraction(opt, 2)):
            gate = QueryGate(inst.fn, ElementStorePolicy(), OracleAudit())
            self.check(gate, record(CardTree(gate, K, K, v, trace=True), stream, gate))

    @pytest.mark.parametrize("seed", range(8))
    def test_mat_tree(self, seed):
        inst, matroid, stream, opt = mat_case(seed)
        gate = QueryGate(inst.fn, ElementStorePolicy(), OracleAudit())
        tree = MatroidTree(gate, matroid, matroid.rank, max(opt, 1), trace=True)
        self.check(gate, record(tree, stream, gate))


class TestGuessGrid:
    """The advancing window equals a scan from index 0 for every
    nondecreasing sequence of best singletons m, in the sieve's window
    [m, 2Km], in the driver's [m/(1+eps)^2, Km/eps], and in [m, m], which
    mostly holds no grid point at all."""

    @settings(max_examples=60, deadline=None)
    @given(eps=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=20),
           K=st.integers(1, 6), rises=st.lists(st.integers(0, 40), max_size=10))
    def test_window_matches_scan_from_zero(self, eps, K, rises):
        shapes = {
            "sieve": lambda m: (m, 2 * K * m),
            "driver": lambda m: (Fraction(m) / (1 + eps) ** 2, Fraction(K * m) / eps),
            "narrow": lambda m: (m, m),
        }
        for shape in shapes.values():
            grid = GuessGrid(eps)
            m = 0
            for rise in [0, *rises]:
                m += rise
                lo, hi = shape(m)
                first, last = grid.window(lo, hi)
                assert (first, last) == ref_window(eps, lo, hi)
                assert grid[last] == (1 + eps) ** last

    @pytest.mark.parametrize("eps", [0, -1, Fraction(11, 10)])
    def test_eps_out_of_range(self, eps):
        with pytest.raises(InvalidParams):
            GuessGrid(eps)


class TestGuessDriver:
    def test_all_equal_values_reaches_feasible_max(self):
        f = additive([2] * 6)
        m = UniformMatroid(6, 3)
        gate = weak_gate(f, m)
        _, solution, value = run_driver(list(range(6)), gate, m, "1/10", "cardinality")
        assert value == 6
        assert len(solution) == 3
        assert m.is_independent(solution)

    def test_finish_queries_the_champion_once(self):
        inst = random_coverage(8, 12, 3, 11)
        gate = weak_gate(inst.fn, inst.matroid)
        driver = GuessDriver(gate, inst.matroid, "1/10")
        for t, e in enumerate(range(8)):
            driver.step(t, e)
        before = gate.audit.query_count
        solution, value = driver.finish()
        assert gate.audit.query_count == before + 1
        assert value == inst.fn.value(solution)
        assert solution == driver.champion[0]

    def test_active_roots_bounded_by_grid_window(self):
        inst = random_coverage(8, 12, 3, 11)
        gate = weak_gate(inst.fn, inst.matroid)
        eps = Fraction(1, 10)
        driver, solution, _ = run_driver(list(range(8)), gate, inst.matroid, eps,
                                         "cardinality")
        import math
        K = 3
        window_span = (1 + eps) ** 2 * K / eps
        bound = math.log(float(window_span)) / math.log(float(1 + eps)) + 2
        assert driver.live_roots_peak <= bound
        assert inst.matroid.is_independent(solution)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 7), K=st.integers(1, 3),
           eps=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1)]),
           constraint=st.sampled_from(["cardinality", "matroid"]), data=st.data())
    def test_spawns_each_window_index_once(self, seed, n, K, eps, constraint, data):
        inst = random_coverage(n, 12, K, seed)
        stream = data.draw(st.permutations(range(n)))
        gate = weak_gate(inst.fn, inst.matroid)
        driver = GuessDriver(gate, inst.matroid, eps, constraint)
        windows, spawned = [], []
        grid_window, spawn = driver.grid.window, driver._spawn

        def record_window(lo, hi):
            windows.append(grid_window(lo, hi))
            return windows[-1]

        def record_spawn(i):
            spawned.append(i)
            spawn(i)

        driver.grid.window, driver._spawn = record_window, record_spawn
        stream_run(driver, stream, gate)
        union = {i for first, last in windows for i in range(first, last + 1)}
        assert spawned == sorted(union)
        assert driver.roots_spawned == len(spawned)

    def test_window_jump_skips_the_gap(self):
        # m jumps from 1 to 100: the window [0, 0] becomes [5, 6] (eps=1,
        # K=1), and guesses 1..4 never enter it
        f = additive([1, 100])
        m = UniformMatroid(2, 1)
        gate = weak_gate(f, m)
        driver = GuessDriver(gate, m, 1)
        _, value = stream_run(driver, [0, 1], gate)
        assert value == 100
        assert driver.roots_spawned == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_cardinality_driver_guarantee(self, seed):
        inst = random_coverage(8, 12, (seed % 3) + 1, 500 + seed)
        stream = sample_stream(inst, "uniform", seed).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        _, solution, value = run_driver(stream, gate, inst.matroid, "1/10", "cardinality")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert value >= (Fraction(K, 2 * K - 1) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(solution)
        assert gate.audit.compliant

    @pytest.mark.parametrize("seed", range(15))
    def test_matroid_driver_guarantee(self, seed):
        inst = random_coverage(7, 12, (seed % 3) + 1, 900 + seed)
        stream = sample_stream(inst, "uniform", seed).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        _, solution, value = run_driver(stream, gate, inst.matroid, "1/10", "matroid")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert value >= (Fraction(1, 2) - Fraction(1, 2 * K) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(solution)
        assert gate.audit.compliant

    def test_hard_matroid_driver_reaches_reachable_bound(self):
        inst = mat_instantiate(MatHardParams(2, 3), 3)
        stream = sample_stream(inst, "class-blocks", 1).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        driver, solution, value = run_driver(stream, gate, inst.matroid, "1/10", "matroid")
        # reachable bound K*(2K-2)! = 4; target (1/2 - 1/(2K)) of best guess
        assert value >= Fraction(1, 4) * driver.champion_v
        assert value >= 4
        assert inst.matroid.is_independent(solution)

    def test_v_used_is_exact_rational(self):
        inst = random_coverage(6, 10, 2, 77)
        gate = weak_gate(inst.fn, inst.matroid)
        driver, solution, _ = run_driver(list(range(6)), gate, inst.matroid, "1/10",
                                         "cardinality")
        assert driver.champion_v is None or isinstance(driver.champion_v, Fraction)
        assert inst.matroid.is_independent(solution)


class TestSpaceAccounting:
    @pytest.mark.parametrize("K", [2, 3])
    def test_cardinality_fixed_guess_bound(self, K):
        inst = card_instantiate(CardHardParams(10, K, K), 21)
        stream = sample_stream(inst, "purple-last", 2).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        tree = CardTree(gate, K, K, inst.optimal_value)
        solution, _ = stream_run(tree, stream, gate)
        assert gate.audit.max_stored <= K * 2 ** (2 * K)
        assert inst.matroid.is_independent(solution)

    @pytest.mark.parametrize("K", [2, 3])
    def test_matroid_fixed_guess_bound(self, K):
        inst = mat_instantiate(MatHardParams(K, 2 * (K - 1)), 22)
        stream = sample_stream(inst, "class-blocks", 2).ordering
        gate = weak_gate(inst.fn, inst.matroid)
        tree = MatroidTree(gate, inst.matroid, K, inst.optimal_value)
        solution, _ = stream_run(tree, stream, gate)
        assert gate.audit.max_stored <= K ** (5 * K + 1)
        assert inst.matroid.is_independent(solution)
