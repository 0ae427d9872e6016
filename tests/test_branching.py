import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from streamsub import branching
from streamsub.baselines import SieveStreaming, brute_force_optimum
from streamsub.branching import (MAX_GUESSES, CardTree, GuessDriver, GuessGrid, MatroidTree,
                                 to_fraction)
from streamsub.coverage import CoverageFunction, CoverageInstance
from streamsub.errors import InvalidParams
from streamsub.hard_cardinality import CardHardInstance, CardHardParams
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.harness import stream_run
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate, StrongPolicy,
                               WeakPolicy, additive)
from streamsub.samplers import sample_stream

from _reference import (ExplicitMatroid, FractionSieve, PerIndexMatNode, PerInvocationCardTree,
                        gamma_bound, ref_cardinality, ref_footprint, ref_matroid,
                        ref_stored_set, ref_window, subtree_size)


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
        inst = CoverageInstance(n, 10, K, seed)
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
            inst = CardHardInstance(CardHardParams(max(n, 2 * K + 2), K + 1, K + 1), seed)
            K = K + 1
        else:
            inst = CoverageInstance(n, 10, K, seed)
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
        inst = CoverageInstance(8, 12, 3, 99)
        gate = QueryGate(inst.fn)
        tree = CardTree(gate, 3, 3, 6)
        stream_run(tree, list(range(8)), gate)
        for node in tree.nodes:
            for i, (k, *_) in enumerate(node.chains):
                assert subtree_size(node, i) <= gamma_bound(k, node.s)
        ref_gate = QueryGate(inst.fn)
        ref = PerInvocationCardTree(ref_gate, 3, 3, 6)
        stream_run(ref, list(range(8)), ref_gate)
        assert subtree_size(tree.root, 0) == len(ref.nodes)


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
        inst = CoverageInstance(n, 9, matroid.rank, seed)
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
            inst = MatHardInstance(MatHardParams(2, rnd.randrange(2, 5)), seed)
        else:
            n = rnd.randrange(4, 9)
            inst = CoverageInstance(n, 10, 0, seed)
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
    ids of the pre-step nodes the step should reach (all of them), the
    trace entries the step appended, the running footprint with the sum
    over all nodes, and the stored set with its per-node union reference."""

    def __init__(self, tree):
        self.tree = tree
        self.steps = []

    def before(self, t, e):
        nodes = self.tree.nodes
        self.mark = len(nodes)
        self.want = [id(node) for node in nodes]
        self.log_mark = len(self.tree.trace_log)

    def after(self, t, e, stored):
        tree = self.tree
        self.steps.append({
            "t": t, "mark": self.mark, "want": self.want,
            "entries": tree.trace_log[self.log_mark:],
            "footprint": (tree.footprint(), ref_footprint(tree)),
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
        inst = CardHardInstance(CardHardParams(10, K, K), seed)
    else:
        K = rnd.randrange(2, 4)
        inst = CoverageInstance(rnd.randrange(5, 9), 12, K, seed)
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
    inst = CoverageInstance(n, 9, matroid.rank, seed)
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
        inst = CoverageInstance(8, 12, 3, 5)
        gate = QueryGate(inst.fn)
        tree = CardTree(gate, 3, 3, 5, trace=True)
        self.check(tree, record(tree, list(range(8)), gate))

    def test_mat_tree_each_node_sees_each_position_once(self):
        inst = CoverageInstance(6, 10, 2, 6)
        gate = QueryGate(inst.fn)
        tree = MatroidTree(gate, inst.matroid, 2, 4, trace=True)
        self.check(tree, record(tree, list(range(6)), gate))


class TestIncrementalState:
    """After every step the running footprint equals the sum over all
    nodes, and each step reaches every pre-step node once, in creation
    order."""

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

    @staticmethod
    def shapes(eps, K):
        return {"sieve": (1, 2 * K), "driver": (1 / (1 + eps) ** 2, K / eps), "narrow": (1, 1)}

    @settings(max_examples=60, deadline=None)
    @given(eps=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=20),
           K=st.integers(1, 6), rises=st.lists(st.integers(0, 40), max_size=10))
    def test_window_matches_scan_from_zero(self, eps, K, rises):
        for lo, hi in self.shapes(eps, K).values():
            grid = GuessGrid(eps, lo, hi)
            m = 0
            for rise in rises:
                m += rise
                grid.advance(m)
                if m > 0:
                    assert (grid.first, grid.last) == ref_window(eps, lo * m, hi * m)
                    assert Fraction(*grid[grid.last]) == (1 + eps) ** grid.last

    @settings(max_examples=60, deadline=None)
    @given(eps=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=20),
           K=st.integers(1, 6), rises=st.lists(st.integers(0, 40), max_size=10))
    def test_entered_covers_each_index_once(self, eps, K, rises):
        """The ``entered`` ranges are ascending, disjoint and inside their
        window, and together they hold every index any window held. After
        every raise, the indices entered and not left are the window of a
        scan from 0; ``left`` and ``entered`` are ascending and disjoint,
        and both are empty when m does not rise."""
        for lo, hi in self.shapes(eps, K).values():
            grid = GuessGrid(eps, lo, hi)
            m = 0
            entered_all, left_all, windowed = [], [], set()
            for rise in rises:
                m += rise
                left, entered = grid.advance(m)
                assert list(left) == sorted(set(left))
                assert list(entered) == sorted(set(entered))
                assert not set(left) & set(entered)
                if rise == 0:
                    assert not left and not entered
                entered_all.extend(entered)
                left_all.extend(left)
                assert set(left_all) <= set(entered_all)
                if m > 0:
                    first, last = ref_window(eps, lo * m, hi * m)
                    assert set(entered_all) - set(left_all) == set(range(first, last + 1))
                    assert all(first <= i <= last for i in entered)
                    windowed.update(range(first, last + 1))
            assert entered_all == sorted(set(entered_all))
            assert left_all == sorted(set(left_all))
            assert set(entered_all) == windowed

    @settings(max_examples=60, deadline=None)
    @given(eps=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=1000),
           K=st.integers(0, 6), rises=st.lists(st.integers(0, 10 ** 6), max_size=10))
    def test_pair_bounds_match_fraction_scan(self, eps, K, rises):
        """Integer pairs as the driver and the sieve build them give the
        window a ``Fraction`` scan from index 0 finds, and ``grid[i]`` is
        (1+eps)^i."""
        p, q = eps.numerator, eps.denominator
        for lo, hi in [((q * q, (p + q) ** 2), (K * q, p)), ((1, 1), (2 * K, 1))]:
            grid = GuessGrid(eps, lo, hi)
            m = 0
            for rise in rises:
                m += rise
                grid.advance(m)
                if m > 0:
                    assert (grid.first, grid.last) == ref_window(eps, m * Fraction(*lo),
                                                                 m * Fraction(*hi))
                    assert Fraction(*grid[grid.last]) == (1 + eps) ** grid.last

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(2, 5), Fraction(1, 20)])
    @pytest.mark.parametrize("K", [0, 1, 3])
    def test_bounds_on_grid_points(self, eps, K):
        """A bound equal to a guess keeps that guess in the window, at
        either end: with bounds over m of 1/q^J and (p+q)^K/q^(J+K), the
        integer m = (p+q)^j q^(J-j) puts them on v_j and v_(j+K)."""
        p, q, J = eps.numerator, eps.denominator, 29
        grid = GuessGrid(eps, (1, q ** J), ((p + q) ** K, q ** (J + K)))
        for j in range(J + 1):
            grid.advance((p + q) ** j * q ** (J - j))
            assert (grid.first, grid.last) == (j, j + K)

    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 1000), Fraction(1, 3000),
                                     Fraction(1, 10 ** 6)])
    @pytest.mark.parametrize("span", ["bar", "below", "above", 6, 7000])
    def test_limit_refuses_more_than_max_guesses(self, eps, span):
        """A window of span hi/lo can hold more than ``MAX_GUESSES`` guesses
        exactly when (1+eps)^MAX_GUESSES <= span; spans at, just below and
        just above that power take each of the three exact tests."""
        bar = (1 + eps) ** MAX_GUESSES
        span = Fraction({"bar": bar, "below": bar - Fraction(1, 10 ** 9),
                         "above": bar + Fraction(1, 10 ** 9)}.get(span, span))
        shapes = [(1, span), ((span.denominator, 1), (span.numerator, 1))]
        for lo, hi in shapes:
            if bar <= span:
                with pytest.raises(InvalidParams, match=f"more than {MAX_GUESSES} guesses"):
                    GuessGrid(eps, lo, hi)
            else:
                GuessGrid(eps, lo, hi)

    @pytest.mark.parametrize("K", [1, 6, 50])
    @pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(1, 10), Fraction(2, 5), 1])
    def test_limit_keeps_the_eps_in_use(self, K, eps):
        gate = QueryGate(additive([1] * K))
        GuessDriver(gate, UniformMatroid(K, K), eps)
        SieveStreaming(gate, UniformMatroid(K, K), eps)

    @pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(1, 10 ** 300)])
    def test_driver_and_sieve_refuse_tiny_eps(self, eps):
        gate = QueryGate(additive([1] * 6))
        with pytest.raises(InvalidParams, match="guesses in one window"):
            GuessDriver(gate, UniformMatroid(6, 6), eps)
        with pytest.raises(InvalidParams, match="guesses in one window"):
            SieveStreaming(gate, UniformMatroid(6, 6), eps / 10)

    @pytest.mark.parametrize("eps", [0, -1, Fraction(11, 10)])
    def test_eps_out_of_range(self, eps):
        with pytest.raises(InvalidParams):
            GuessGrid(eps, 1, 1)
        with pytest.raises(InvalidParams):
            GuessDriver(QueryGate(additive([1] * 3)), UniformMatroid(3, 3), eps)


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
        inst = CoverageInstance(8, 12, 3, 11)
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
        inst = CoverageInstance(8, 12, 3, 11)
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
        inst = CoverageInstance(n, 12, K, seed)
        stream = data.draw(st.permutations(range(n)))
        gate = weak_gate(inst.fn, inst.matroid)
        driver = GuessDriver(gate, inst.matroid, eps, constraint)
        moves, spawned = [], []
        advance, spawn = driver.grid.advance, driver._spawn

        def record_advance(m):
            left, entered = advance(m)
            moves.append((entered, driver.grid.first, driver.grid.last))
            return left, entered

        def record_spawn(i):
            spawned.append(i)
            spawn(i)

        driver.grid.advance, driver._spawn = record_advance, record_spawn
        stream_run(driver, stream, gate)
        union = {i for _, first, last in moves for i in range(first, last + 1)}
        assert spawned == sorted(union) == [i for entered, _, _ in moves for i in entered]
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
        inst = CoverageInstance(8, 12, (seed % 3) + 1, 500 + seed)
        stream = sample_stream(inst, "uniform", seed)
        gate = weak_gate(inst.fn, inst.matroid)
        _, solution, value = run_driver(stream, gate, inst.matroid, "1/10", "cardinality")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert value >= (Fraction(K, 2 * K - 1) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(solution)
        assert gate.audit.compliant

    @pytest.mark.parametrize("seed", range(15))
    def test_matroid_driver_guarantee(self, seed):
        inst = CoverageInstance(7, 12, (seed % 3) + 1, 900 + seed)
        stream = sample_stream(inst, "uniform", seed)
        gate = weak_gate(inst.fn, inst.matroid)
        _, solution, value = run_driver(stream, gate, inst.matroid, "1/10", "matroid")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert value >= (Fraction(1, 2) - Fraction(1, 2 * K) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(solution)
        assert gate.audit.compliant

    def test_hard_matroid_driver_reaches_reachable_bound(self):
        inst = MatHardInstance(MatHardParams(2, 3), 3)
        stream = sample_stream(inst, "class-blocks", 1)
        gate = weak_gate(inst.fn, inst.matroid)
        driver, solution, value = run_driver(stream, gate, inst.matroid, "1/10", "matroid")
        # reachable bound K*(2K-2)! = 4; target (1/2 - 1/(2K)) of best guess
        assert value >= Fraction(1, 4) * driver.champion_v
        assert value >= 4
        assert inst.matroid.is_independent(solution)

    def test_v_used_is_exact_rational(self):
        inst = CoverageInstance(6, 10, 2, 77)
        gate = weak_gate(inst.fn, inst.matroid)
        driver, solution, _ = run_driver(list(range(6)), gate, inst.matroid, "1/10",
                                         "cardinality")
        assert driver.champion_v is None or isinstance(driver.champion_v, Fraction)
        assert inst.matroid.is_independent(solution)


class TestSpaceAccounting:
    @pytest.mark.parametrize("K", [2, 3])
    def test_cardinality_fixed_guess_bound(self, K):
        inst = CardHardInstance(CardHardParams(10, K, K), 21)
        stream = sample_stream(inst, "purple-last", 2)
        gate = weak_gate(inst.fn, inst.matroid)
        tree = CardTree(gate, K, K, inst.optimal_value)
        solution, _ = stream_run(tree, stream, gate)
        assert gate.audit.max_stored <= K * 2 ** (2 * K)
        assert inst.matroid.is_independent(solution)

    @pytest.mark.parametrize("K", [2, 3])
    def test_matroid_fixed_guess_bound(self, K):
        inst = MatHardInstance(MatHardParams(K, 2 * (K - 1)), 22)
        stream = sample_stream(inst, "class-blocks", 2)
        gate = weak_gate(inst.fn, inst.matroid)
        tree = MatroidTree(gate, inst.matroid, K, inst.optimal_value)
        solution, _ = stream_run(tree, stream, gate)
        assert gate.audit.max_stored <= K ** (5 * K + 1)
        assert inst.matroid.is_independent(solution)


class StepLog:
    """``stream_run`` watcher that records, after every step, the
    footprint and the gate's query count."""

    def __init__(self, alg, gate):
        self.alg = alg
        self.gate = gate
        self.steps = []

    def before(self, t, e):
        pass

    def after(self, t, e, stored):
        self.steps.append((self.alg.footprint(), self.gate.audit.query_count))


def loads_case(seed):
    """(fn, partition matroid, stream): hard-matroid K=2..3, or a coverage
    function under a partition matroid with capacities 0..2."""
    rnd = random.Random(9100 + seed)
    if seed % 2 == 0:
        K = 2 + seed // 2 % 2
        inst = MatHardInstance(MatHardParams(K, rnd.randrange(2, 6)), seed)
        stream = sample_stream(inst, "class-blocks", seed)
        return inst.fn, inst.matroid, stream
    n = rnd.randrange(5, 11)
    labels = [rnd.choice("abc") for _ in range(n)]
    matroid = PartitionMatroid(labels, {"a": 0, "b": 1, "c": 2})
    inst = CoverageInstance(n, 10, matroid.rank, seed)
    stream = list(range(n))
    rnd.shuffle(stream)
    return inst.fn, matroid, stream


class TestLoadsDifferential:
    """Packed partition loads and the generic frozenset loads of the same
    matroid, written out as an ``ExplicitMatroid``, drive every algorithm
    to the same run."""

    @staticmethod
    def run(make, fn, matroid, stream):
        gate = weak_gate(fn, matroid)
        alg = make(gate, matroid)
        log = StepLog(alg, gate)
        solution, value = stream_run(alg, stream, gate, log)
        assert gate.audit.compliant
        trace = None
        if isinstance(alg, MatroidTree):
            trace = [t for _, t in alg.trace_log]
            for node in alg.nodes:
                # runs tile 0..beta in order; a run is closed exactly when
                # I + T reached the rank, and an open run's load is that of I + T
                bounds = [(lo, hi) for lo, hi, _, _ in node.runs]
                if node.k > 1:
                    assert [lo for lo, _ in bounds] == [0] + [hi + 1 for _, hi in bounds[:-1]]
                    assert bounds[-1][1] == alg.beta
                for lo, hi, tracked, load in node.runs:
                    assert lo <= hi
                    full = len(node.g.pinned) + len(tracked) >= alg.rank
                    assert (load is None) == full
                    if not full:
                        assert load == matroid.load(node.g.pinned | tracked)
        return {"solution": solution, "value": value,
                "max_stored": gate.audit.max_stored,
                "branches": getattr(alg, "branches_spawned", None),
                "steps": log.steps, "trace": trace}

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("alg", ["tree", "driver", "sieve"])
    def test_same_run_as_generic_loads(self, seed, alg):
        fn, packed, stream = loads_case(seed)
        generic = ExplicitMatroid.from_oracle(packed)
        assert generic.rank == packed.rank
        if alg == "tree":
            _, opt = brute_force_optimum(fn, packed)

            def make(gate, matroid):
                return MatroidTree(gate, matroid, max(matroid.rank, 1), max(opt, 1),
                                   trace=True)
        elif alg == "driver":
            def make(gate, matroid):
                return GuessDriver(gate, matroid, Fraction(1, 4), "matroid")
        else:
            def make(gate, matroid):
                return SieveStreaming(gate, matroid, Fraction(1, 4))
        want = self.run(make, fn, generic, stream)
        got = self.run(make, fn, packed, stream)
        assert got == want
        assert packed.is_independent(got["solution"])



def per_index(node):
    """A matroid-tree node's runs written out as one (T_b, load) per
    threshold index; a closed index has load None."""
    return [(tracked, load) for lo, hi, tracked, load in node.runs
            for _ in range(lo, hi + 1)]


class NodeStates:
    """``stream_run`` watcher that records, after every step, the stored
    set, the footprint, the gate's query count and, for every live matroid
    tree, its running footprint with the sum over its nodes, and each
    node's carried set and per-index tracking state."""

    def __init__(self, alg, gate):
        self.alg = alg
        self.gate = gate
        self.steps = []

    def before(self, t, e):
        pass

    def after(self, t, e, stored):
        alg = self.alg
        trees = list(alg.roots.values()) if isinstance(alg, GuessDriver) else [alg]
        self.steps.append({
            "stored": stored, "footprint": alg.footprint(),
            "queries": self.gate.audit.query_count,
            "trees": [(tree.footprint(), ref_footprint(tree),
                       [(node.g.pinned, per_index(node)) for node in tree.nodes])
                      for tree in trees],
        })


class TestRunsDifferential:
    """Matroid-tree nodes that keep threshold runs drive a tree, and the
    guess driver, to the same run as the per-index nodes they replaced
    (``PerIndexMatNode``): after every step each node's runs, written out
    per index, equal the reference's T_b with its load or closed state."""

    @staticmethod
    def run(make, fn, matroid, stream, node_class=None):
        with pytest.MonkeyPatch.context() as mp:
            if node_class is not None:
                mp.setattr(branching, "_MatNode", node_class)
            gate = weak_gate(fn, matroid)
            alg = make(gate, matroid)
            log = NodeStates(alg, gate)
            solution, value = stream_run(alg, stream, gate, log)
        out = {"solution": solution, "value": value, "steps": log.steps,
               "queries": gate.audit.query_count,
               "max_stored": gate.audit.max_stored,
               "branches": alg.branches_spawned}
        if isinstance(alg, MatroidTree):
            index = {id(node): i for i, node in enumerate(alg.nodes)}
            out["trace"] = [(index[node_id], t) for node_id, t in alg.trace_log]
        return out

    def check(self, fn, matroid, stream, make):
        got = self.run(make, fn, matroid, stream)
        want = self.run(make, fn, matroid, stream, PerIndexMatNode)
        assert got == want
        for step in got["steps"]:
            for running, summed, _ in step["trees"]:
                assert running == summed

    @pytest.mark.parametrize("frac", [Fraction(1), Fraction(1, 8), Fraction(0)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_hard_matroid_tree(self, K, m, frac):
        inst = MatHardInstance(MatHardParams(K, m), 10 * K + m)
        stream = sample_stream(inst, "class-blocks", m)

        def make(gate, matroid):
            return MatroidTree(gate, matroid, K, inst.optimal_value * frac, trace=True)

        self.check(inst.fn, inst.matroid, stream, make)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_hard_matroid_driver(self, K, m):
        inst = MatHardInstance(MatHardParams(K, m), 10 * K + m)
        stream = sample_stream(inst, "class-blocks", m)

        def make(gate, matroid):
            return GuessDriver(gate, matroid, Fraction(1, 4), "matroid")

        self.check(inst.fn, inst.matroid, stream, make)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7),
           capacity=st.lists(st.integers(0, 3), min_size=3, max_size=3),
           k=st.integers(1, 4),
           v=st.fractions(min_value=0, max_value=24, max_denominator=6))
    def test_coverage_partition_tree(self, data, n, capacity, k, v):
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        matroid = PartitionMatroid(labels, dict(enumerate(capacity)))
        assume(matroid.rank <= MatroidTree.MAX_RANK)
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 9), max_size=5),
                                                 min_size=n, max_size=n)))
        stream = data.draw(st.permutations(range(n)))

        def make(gate, matroid):
            return MatroidTree(gate, matroid, k, v, trace=True)

        self.check(fn, matroid, stream, make)


class StoredSteps:
    """``stream_run`` watcher that records, after every step, the
    footprint and the stored set."""

    def __init__(self, alg):
        self.alg = alg
        self.steps = []

    def before(self, t, e):
        pass

    def after(self, t, e, stored):
        self.steps.append((self.alg.footprint(), stored))


def policy_gate(fn, policy):
    if policy == "weak":
        checks = WeakPolicy(UniformMatroid(fn.n, 4))
    elif policy == "strong":
        checks = StrongPolicy()
    else:
        checks = ElementStorePolicy()
    return QueryGate(fn, checks, OracleAudit(record_log=True))


class TestChainsDifferential:
    """Cardinality nodes that hold every invocation one acceptance starts
    drive a fixed-guess tree, and the guess driver, to the same run as one
    node per invocation (``PerInvocationCardTree``): the same footprint and
    stored set after every step, and the same solution, value, query
    count, query log, refusals, ``max_stored`` and ``branches_spawned``."""

    POLICIES = ("weak", "strong", "element-store")

    @staticmethod
    def run(make, fn, stream, policy, reference):
        with pytest.MonkeyPatch.context() as mp:
            if reference:
                mp.setattr(branching, "CardTree", PerInvocationCardTree)
            gate = policy_gate(fn, policy)
            alg = make(gate)
            log = StoredSteps(alg)
            solution, value = stream_run(alg, stream, gate, log)
        audit = gate.audit
        return {"solution": solution, "value": value, "steps": log.steps,
                "queries": audit.query_count, "log": audit.log,
                "rejected": audit.rejected, "max_stored": audit.max_stored,
                "branches": alg.branches_spawned}

    def check(self, fn, stream, make):
        for policy in self.POLICIES:
            got = self.run(make, fn, stream, policy, False)
            want = self.run(make, fn, stream, policy, True)
            assert got == want

    def check_trees(self, fn, stream, opt):
        for k in range(1, 5):
            for s in range(1, 5):
                for v in (opt, Fraction(opt, 2), 0):
                    self.check(fn, stream, lambda gate: branching.CardTree(gate, k, s, v))

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_hard_cardinality(self, K):
        inst = CardHardInstance(CardHardParams(2 * K + 4, K, K), K)
        stream = sample_stream(inst, "purple-last", K)
        self.check_trees(inst.fn, stream, inst.optimal_value)
        self.check(inst.fn, stream,
                   lambda gate: GuessDriver(gate, inst.matroid, Fraction(1, 4)))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), K=st.integers(1, 4))
    def test_coverage(self, data, n, K):
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 9), max_size=5),
                                                 min_size=n, max_size=n)))
        stream = data.draw(st.permutations(range(n)))
        _, opt = brute_force_optimum(fn, UniformMatroid(n, K))
        self.check_trees(fn, stream, opt)
        self.check(fn, stream,
                   lambda gate: GuessDriver(gate, UniformMatroid(n, K), Fraction(1, 4)))

    @pytest.mark.parametrize("weights,stream", [
        # a negative leaf under a chain that took nothing
        ([-3, -1], [0, 1]),
        ([-3, -1], [1, 0]),
        ([2, -1, 3, -2, 1], [1, 0, 3, 2, 4]),
        ([-1, -2, -3, 4], [3, 2, 1, 0]),
        # zero gains tie take children of one chain with different sets
        ([1, 1, 2, 0], [2, 3, 1, 0]),
        ([1, 0, 0, 1, 2, 0], [1, 4, 2, 0, 3, 5]),
    ])
    def test_additive(self, weights, stream):
        fn = additive(weights)
        for opt in (1, 5):
            self.check_trees(fn, stream, opt)
        self.check(fn, stream,
                   lambda gate: GuessDriver(gate, UniformMatroid(fn.n, 2), Fraction(1, 4)))


class TestTiesOnTheBar:
    """Integer ``(num, den)`` thresholds take the same decisions as the
    ``Fraction`` thresholds of the reference code paths when gains sit
    exactly on the bar, where a sign or rounding slip shows: gain*(k+s-1)
    = v in the cardinality tree, gain*K^4 = b*v in the matroid tree, and
    (new_val - val)*(K - |S|) = v/2 - val in the sieve. Each case checks
    that the reference met ties, and compares, under all three policies,
    the footprint and stored set after every step, the solution, value,
    query count, query log, refusals, ``max_stored`` and, for the trees,
    ``branches_spawned``."""

    @staticmethod
    def run(alg, gate, stream):
        log = StoredSteps(alg)
        solution, value = stream_run(alg, stream, gate, log)
        audit = gate.audit
        return {"solution": solution, "value": value, "steps": log.steps,
                "queries": audit.query_count, "log": audit.log,
                "rejected": audit.rejected, "max_stored": audit.max_stored,
                "branches": getattr(alg, "branches_spawned", None)}

    def check(self, fn, stream, make, make_ref, ties):
        met = 0
        for policy in TestChainsDifferential.POLICIES:
            gate = policy_gate(fn, policy)
            got = self.run(make(gate), gate, stream)
            ref_gate = policy_gate(fn, policy)
            ref = make_ref(ref_gate)
            want = self.run(ref, ref_gate, stream)
            assert got == want
            met += ties(ref)
        assert met > 0

    @pytest.mark.parametrize("weights,stream", [
        ([2] * 6, [0, 1, 2, 3, 4, 5]),
        ([2, 1, 2, 3, 2, 1, 2], [0, 1, 2, 3, 4, 5, 6]),
        ([3, 1, 2, 2, 1, 3], [1, 2, 5, 0, 3, 4]),
        ([2, 0, -1, 2, 4, 2], [1, 2, 0, 3, 5, 4]),
    ])
    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
    def test_cardinality_tree(self, weights, stream, k, s):
        fn = additive(weights)
        # the root's bar v/(k+s-1) is 2, and with equal weights w a take
        # child's member j has target w(j+s-2), on its bar again
        v = 2 * (k + s - 1)
        self.check(fn, stream, lambda gate: CardTree(gate, k, s, v),
                   lambda gate: PerInvocationCardTree(gate, k, s, v), lambda ref: ref.ties)

    @pytest.mark.parametrize("weights,stream", [
        ([4, 2, 4, 1, 3, 4], [0, 1, 2, 3, 4, 5]),
        ([2, 4, 1, 4, 2, 3], [3, 1, 0, 5, 2, 4]),
    ])
    @pytest.mark.parametrize("K,b", [(2, 1), (2, 3), (2, 8), (3, 2), (3, 27), (3, 40)])
    def test_matroid_tree(self, weights, stream, K, b):
        fn = additive(weights)
        matroid = UniformMatroid(fn.n, K)
        # gain 4 sits on bar b: 4*K^4 = b*v
        v = Fraction(4 * K ** 4, b)

        def make(gate):
            return MatroidTree(gate, matroid, K, v)

        def make_ref(gate):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(branching, "_MatNode", PerIndexMatNode)
                tree = MatroidTree(gate, matroid, K, v)
            # a PerIndexMatNode makes its children itself, so only the root
            # needs the patch
            return tree

        self.check(fn, stream, make, make_ref,
                   lambda ref: sum(node.ties for node in ref.nodes))

    @pytest.mark.parametrize("weights,stream", [
        ([4, 2, 1, 8, 2, 4, 1], [0, 1, 2, 3, 4, 5, 6]),
        ([1, 2, 4, 8, 16, 8, 4], [0, 1, 2, 3, 4, 5, 6]),
        ([8, 4, 4, 2, 2, 1, 1, 3], [0, 7, 1, 2, 3, 4, 5, 6]),
    ])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_sieve(self, weights, stream, K):
        fn = additive(weights)
        matroid = UniformMatroid(fn.n, K)
        # eps = 1 makes the guesses 2^i, so powers-of-two gains meet the bar
        self.check(fn, stream, lambda gate: SieveStreaming(gate, matroid, 1),
                   lambda gate: FractionSieve(gate, matroid, 1), lambda ref: ref.ties)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), K=st.integers(1, 3),
           eps=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 5), Fraction(1, 10)]))
    def test_sieve_coverage(self, data, n, K, eps):
        """Off the bar too: the integer sieve makes the ``Fraction`` sieve's
        run on coverage functions."""
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 9), max_size=5),
                                                 min_size=n, max_size=n)))
        stream = data.draw(st.permutations(range(n)))
        matroid = UniformMatroid(n, K)
        for policy in TestChainsDifferential.POLICIES:
            gate, ref_gate = policy_gate(fn, policy), policy_gate(fn, policy)
            assert self.run(SieveStreaming(gate, matroid, eps), gate, stream) == \
                self.run(FractionSieve(ref_gate, matroid, eps), ref_gate, stream)
