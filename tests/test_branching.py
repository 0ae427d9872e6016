import gc
import importlib.util
import pathlib
import random
import sys
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamsub import branching
from streamsub.baselines import SieveStreaming, brute_force_optimum
from streamsub.branching import (MAX_EPS_DIGITS, MAX_GUESSES, CardTree, GuessDriver, GuessGrid,
                                 MatroidTree, to_fraction)
from streamsub.coverage import CoverageFunction, CoverageInstance
from streamsub.errors import InvalidParams
from streamsub.hard_cardinality import CardHardInstance, CardHardParams
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.harness import stream_run
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate, StrongPolicy,
                               WeakPolicy, additive)
from streamsub.samplers import sample_stream

from _reference import (ExplicitMatroid, FractionSieve, PerGuessDriver, PerGuessMatroidTree,
                        PerIndexMatNode, PerInvocationCardTree, StepGuessGrid, gamma_bound,
                        guess_runs, guess_trees, ref_cardinality, ref_driver_footprint,
                        ref_footprint, ref_matroid, ref_stored_set, ref_window, subtree_size)


def weak_gate(fn, matroid):
    return QueryGate(fn, WeakPolicy(matroid), OracleAudit())


def run_driver(stream, gate, matroid, eps):
    driver = GuessDriver(gate, matroid, eps)
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


@contextmanager
def offer_trace():
    """Trace the node offers of the package's branch trees made inside the
    block: per tree, one ``(id(node), gate.audit.step)`` per offer, in
    order. A tree with no offer maps to an empty list."""
    traces = defaultdict(list)

    def tracing(offer):
        def traced(node, tree, e):
            traces[tree].append((id(node), tree.gate.audit.step))
            return offer(node, tree, e)
        return traced

    with pytest.MonkeyPatch.context() as mp:
        for node in (branching._CardNode, branching._MatNode):
            mp.setattr(node, "offer", tracing(node.offer))
        yield traces


class StepRecorder:
    """``stream_run`` watcher for a branch tree whose offers go to
    ``trace``. For every step it records how many nodes the tree held
    before the step (``mark``), the ids of the pre-step nodes the step
    should reach (all of them), the trace entries the step appended, the
    running footprint with the sum over all nodes, and the stored set with
    its per-node union reference."""

    def __init__(self, tree, trace):
        self.tree = tree
        self.trace = trace
        self.steps = []

    def before(self, t, e):
        nodes = self.tree.nodes
        self.mark = len(nodes)
        self.want = [id(node) for node in nodes]
        self.log_mark = len(self.trace)

    def after(self, t, e, stored):
        tree = self.tree
        self.steps.append({
            "t": t, "mark": self.mark, "want": self.want,
            "entries": self.trace[self.log_mark:],
            "footprint": (tree.footprint(), ref_footprint(tree)),
            "stored": (stored, ref_stored_set(tree)),
        })


def record(tree, stream, gate):
    with offer_trace() as traces:
        recorder = StepRecorder(tree, traces[tree])
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
        tree = CardTree(gate, 3, 3, 5)
        self.check(tree, record(tree, list(range(8)), gate))

    def test_mat_tree_each_node_sees_each_position_once(self):
        inst = CoverageInstance(6, 10, 2, 6)
        gate = QueryGate(inst.fn)
        tree = MatroidTree(gate, inst.matroid, 2, 4)
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
            self.check(record(CardTree(gate, K, K, v), stream, gate))

    @pytest.mark.parametrize("seed", range(8))
    def test_mat_tree(self, seed):
        inst, matroid, stream, opt = mat_case(seed)
        gate = QueryGate(inst.fn)
        tree = MatroidTree(gate, matroid, matroid.rank, max(opt, 1))
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
            self.check(gate, record(CardTree(gate, K, K, v), stream, gate))

    @pytest.mark.parametrize("seed", range(8))
    def test_mat_tree(self, seed):
        inst, matroid, stream, opt = mat_case(seed)
        gate = QueryGate(inst.fn, ElementStorePolicy(), OracleAudit())
        tree = MatroidTree(gate, matroid, matroid.rank, max(opt, 1))
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
    @pytest.mark.parametrize("shape", ["sieve", "driver", "narrow"])
    def test_cache_keeps_only_the_window(self, eps, shape):
        """As m rises far (to about 2^5000 at eps=1), the grid caches no
        pair below ``first`` and at most one above ``last``, and ``grid[i]``
        is still ((p+q)^i, q^i) for every index, retired ones included."""
        p, q = eps.numerator, eps.denominator
        grid = GuessGrid(eps, *self.shapes(eps, 3)[shape])
        top = 2 ** 5000 if eps == 1 else 2 ** 400  # first ends at 824 to 5,682
        for m in (1, 3, 2 ** 100, 2 ** 100 + 1, 3 ** 200, top):
            grid.advance(m)
            assert len(grid._pow) <= grid.last - grid.first + 2
            for i in {0, 1, grid.first // 2, grid.first - 1, grid.first, grid.last,
                      grid.last + 1} - {-1}:
                assert grid[i] == ((p + q) ** i, q ** i)
        assert grid.first > 800

    @settings(max_examples=20, deadline=None)
    @given(eps=st.fractions(min_value=Fraction(1, 20), max_value=1, max_denominator=20),
           K=st.integers(1, 200), shape=st.sampled_from(["sieve", "driver"]),
           rises=st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 10 ** 6)),
                          min_size=1, max_size=8))
    @example(eps=Fraction(1), K=200, shape="sieve", rises=[(1, 3), (2500, 1), (0, 5), (400, 0)])
    @example(eps=Fraction(1, 2), K=3, shape="driver", rises=[(1200, 9), (1, 0), (299, 1)])
    @example(eps=Fraction(2, 5), K=200, shape="sieve", rises=[(590, 1), (0, 10 ** 6), (9, 0)])
    def test_jump_matches_one_step_walk(self, eps, K, shape, rises):
        """``advance``, which may jump ``first`` to an estimate, agrees with
        the walk one index at a time (``_reference.StepGuessGrid``) on
        ``first``, ``last``, the left and entered ranges and the pairs, in
        the sieve's window (1, 2K) and the driver's (1/(1+eps)^2, K/eps).
        Each rise multiplies m by 10^d, d up to 2,000, and adds up to 10^6,
        so m rises by thousands of digits or by a few indices. With eps =
        p/q the walk's pairs grow by about log2(q(p+q)) bits per index, so
        m stops growing at 3000/q digits: 3,000 at eps = 1, 150 at q = 20."""
        p, q = eps.numerator, eps.denominator
        lo, hi = {"sieve": (1, 2 * K), "driver": ((q * q, (p + q) ** 2), (K * q, p))}[shape]
        grid, ref = GuessGrid(eps, lo, hi), StepGuessGrid(eps, lo, hi)
        m, cap = 0, 10 ** (3000 // q)
        for digits, extra in rises:
            m = min(m * 10 ** digits + extra, cap)
            assert grid.advance(m) == ref.advance(m)
            assert (grid.first, grid.last) == (ref.first, ref.last)
            for i in {0, grid.first // 2, grid.first - 1, grid.first, grid.last,
                      grid.last + 1} - {-1}:
                assert grid[i] == ref[i] == ((p + q) ** i, q ** i)

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

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(2, 5), Fraction(1, 20)])
    def test_jumps_onto_grid_points(self, eps):
        """A bound that a far rise of m puts exactly on a guess keeps that
        guess, so a jump may land on it but never past it: with the bounds
        of ``test_bounds_on_grid_points``, m jumps by hundreds of indices at
        a time onto v_j."""
        p, q, J, K = eps.numerator, eps.denominator, 1200, 2
        grid = GuessGrid(eps, (1, q ** J), ((p + q) ** K, q ** (J + K)))
        for j in (3, 250, 251, 600, 977, 1200):
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

    @pytest.mark.parametrize("eps", [Fraction(10 ** (MAX_EPS_DIGITS - 2) + 1,
                                              10 ** (MAX_EPS_DIGITS - 1)),
                                     Fraction(10 ** MAX_EPS_DIGITS - 3, 10 ** MAX_EPS_DIGITS - 1)])
    def test_digit_cap_keeps_eps_at_the_cap(self, eps):
        """Numerators and denominators of ``MAX_EPS_DIGITS`` digits pass."""
        assert len(str(eps.denominator)) == MAX_EPS_DIGITS
        GuessGrid(eps, 1, 12)

    @pytest.mark.parametrize("eps", [Fraction(10 ** (MAX_EPS_DIGITS - 1) + 1,
                                              3 * 10 ** MAX_EPS_DIGITS),
                                     Fraction(10 ** MAX_EPS_DIGITS, 10 ** MAX_EPS_DIGITS + 1),
                                     Fraction(10 ** 300 + 1, 10 ** 301)])
    def test_digit_cap_refuses_longer_eps(self, eps):
        """A numerator or denominator of more than ``MAX_EPS_DIGITS`` digits
        is refused. Only a window that the two cheap guess-count bounds
        refuse is refused for its guesses first; the exact power test comes
        after this cap."""
        with pytest.raises(InvalidParams, match=f"more than {MAX_EPS_DIGITS} digits"):
            GuessGrid(eps, 1, 12)

    def test_digit_cap_comes_before_the_exact_power(self):
        """eps ~ 1/1000 with 301 digits in the driver's K=3 window, of span
        about 3000: 1 + MAX_GUESSES*eps is below the span and
        MAX_GUESSES*eps > 1, so neither cheap bound decides, and the exact
        power would refuse the window for its guesses. The digit cap
        refuses eps before that power is taken."""
        eps = Fraction(10 ** 297 + 1, 10 ** 300)
        p, q = eps.numerator, eps.denominator
        assert 1 + MAX_GUESSES * eps < 3000 and MAX_GUESSES * eps > 1
        with pytest.raises(InvalidParams, match=f"more than {MAX_EPS_DIGITS} digits"):
            GuessGrid(eps, (q * q, (p + q) ** 2), (3 * q, p))
        with pytest.raises(InvalidParams, match=f"more than {MAX_EPS_DIGITS} digits"):
            GuessDriver(QueryGate(additive([1] * 3)), UniformMatroid(3, 3), eps)

    @pytest.mark.parametrize("K", [1, 6, 50])
    @pytest.mark.parametrize("eps", [Fraction(1, 20), Fraction(1, 10), Fraction(2, 5), 1])
    def test_limit_keeps_the_eps_in_use(self, K, eps):
        gate = QueryGate(additive([1] * K))
        eps = to_fraction(eps)
        p, q = eps.numerator, eps.denominator
        # the driver's window; above the tree's cap the driver refuses K itself
        GuessGrid(eps, (q * q, (p + q) ** 2), (K * q, p))
        if K <= CardTree.MAX_K:
            GuessDriver(gate, UniformMatroid(K, K), eps)
        else:
            with pytest.raises(InvalidParams, match=f"K={K} cardinality branch tree"):
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
        _, solution, value = run_driver(list(range(6)), gate, m, "1/10")
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
        driver, solution, _ = run_driver(list(range(8)), gate, inst.matroid, eps)
        import math
        K = 3
        window_span = (1 + eps) ** 2 * K / eps
        bound = math.log(float(window_span)) / math.log(float(1 + eps)) + 2
        assert driver.live_roots_peak <= bound
        assert inst.matroid.is_independent(solution)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 7), K=st.integers(1, 3),
           eps=st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1)]),
           one_class=st.booleans(), data=st.data())
    def test_spawns_each_window_index_once(self, seed, n, K, eps, one_class, data):
        inst = CoverageInstance(n, 12, K, seed)
        stream = data.draw(st.permutations(range(n)))
        gate = weak_gate(inst.fn, inst.matroid)
        matroid = PartitionMatroid([0] * n, capacity=K) if one_class else inst.matroid
        driver = GuessDriver(gate, matroid, eps)
        moves, spawned = [], []
        advance, new_tree, join = driver.grid.advance, driver._new_tree, branching._Tree.join

        def record_advance(m):
            left, entered = advance(m)
            moves.append((entered, driver.grid.first, driver.grid.last))
            return left, entered

        def record_new_tree(v, index):
            spawned.append(index)
            return new_tree(v, index=index)

        def record_join(tree, i, v):
            spawned.append(i)
            join(tree, i, v)

        driver.grid.advance, driver._new_tree = record_advance, record_new_tree
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(branching._Tree, "join", record_join)
            stream_run(driver, stream, gate)
        union = {i for _, first, last in moves for i in range(first, last + 1)}
        assert spawned == sorted(union) == [i for entered, _, _ in moves for i in entered]
        assert driver.roots_spawned == len(spawned)

    @pytest.mark.parametrize("matroid,tree", [
        (UniformMatroid(6, 3), CardTree),
        (PartitionMatroid([0, 0, 1, 1, 2, 2]), branching.MatroidTree),
        (PartitionMatroid([0] * 6, capacity=3), branching.MatroidTree),
    ])
    def test_the_matroid_picks_the_tree(self, matroid, tree):
        """A uniform matroid gets cardinality trees and any other matroid,
        a one-class partition matroid included, matroid trees, which the
        weak policy lets run."""
        fn = additive([3, 2, 2, 1, 4, 1])
        gate = weak_gate(fn, matroid)
        driver = GuessDriver(gate, matroid, "1/10")
        trees, new_tree = [], driver._new_tree

        def record_new_tree(v, index):
            trees.append(new_tree(v, index=index))
            return trees[-1]

        driver._new_tree = record_new_tree
        solution, _ = stream_run(driver, range(6), gate)
        assert trees and {type(made) for made in trees} == {tree}
        assert matroid.is_independent(solution)

    def test_card_cap_runs_every_benchmark_budget(self, monkeypatch):
        """``CardTree.MAX_K`` refuses the K=12 probe and still runs every
        cardinality budget of the benchmark's workloads."""
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up by name
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        budgets = [int(flags[flags.index("--K") + 1])
                   for w in workloads.WORKLOADS.values() if w.kind != "hard-matroid"
                   for flags in (w.gen_full, w.gen_tiny)]
        assert max(budgets) <= CardTree.MAX_K < 12

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
        _, solution, value = run_driver(stream, gate, inst.matroid, "1/10")
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
        one_class = PartitionMatroid([0] * inst.n, capacity=inst.matroid.rank)
        _, solution, value = run_driver(stream, gate, one_class, "1/10")
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        K = inst.matroid.rank
        assert value >= (Fraction(1, 2) - Fraction(1, 2 * K) - Fraction(1, 5)) * opt
        assert inst.matroid.is_independent(solution)
        assert gate.audit.compliant

    def test_hard_matroid_driver_reaches_reachable_bound(self):
        inst = MatHardInstance(MatHardParams(2, 3), 3)
        stream = sample_stream(inst, "class-blocks", 1)
        gate = weak_gate(inst.fn, inst.matroid)
        driver, solution, value = run_driver(stream, gate, inst.matroid, "1/10")
        # reachable bound K*(2K-2)! = 4; target (1/2 - 1/(2K)) of best guess
        assert value >= Fraction(1, 4) * driver.champion_v
        assert value >= 4
        assert inst.matroid.is_independent(solution)

    def test_v_used_is_exact_rational(self):
        inst = CoverageInstance(6, 10, 2, 77)
        gate = weak_gate(inst.fn, inst.matroid)
        driver, solution, _ = run_driver(list(range(6)), gate, inst.matroid, "1/10")
        assert driver.champion_v is None or isinstance(driver.champion_v, Fraction)
        assert inst.matroid.is_independent(solution)


class TestNoReferenceCycles:
    """Branch trees hold no reference cycle: with the cyclic collector off,
    the trees of a dropped driver are freed at once."""

    @pytest.mark.parametrize("matroid", [UniformMatroid(8, 3),
                                         PartitionMatroid([0, 0, 1, 1, 2, 2, 0, 1])])
    def test_a_dropped_driver_frees_its_trees(self, matroid):
        inst = CoverageInstance(8, 12, 3, 11)
        gate = weak_gate(inst.fn, matroid)
        driver = GuessDriver(gate, matroid, Fraction(1, 10))
        enabled = gc.isenabled()
        gc.disable()
        try:
            for t, e in enumerate(range(8)):
                gate.audit.step = t
                driver.step(t, e)
            trees = [weakref.ref(tree) for tree in driver.trees]
            assert trees and all(ref().nodes for ref in trees)
            del driver
            assert [ref() for ref in trees] == [None] * len(trees)
        finally:
            if enabled:
                gc.enable()


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
        with offer_trace() as traces:
            solution, value = stream_run(alg, stream, gate, log)
        assert gate.audit.compliant
        trace = None
        if isinstance(alg, MatroidTree):
            trace = [t for _, t in traces[alg]]
            for node in alg.nodes:
                # runs tile 0..beta in order; a run is closed exactly when
                # I + T reached the rank, and an open run's load is that of I + T
                (runs,) = guess_runs(alg, node)
                bounds = [(lo, hi) for lo, hi, _, _ in runs]
                if node.k > 1:
                    assert [lo for lo, _ in bounds] == [0] + [hi + 1 for _, hi in bounds[:-1]]
                    assert bounds[-1][1] == alg.beta
                for lo, hi, tracked, load in runs:
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
                return MatroidTree(gate, matroid, max(matroid.rank, 1), max(opt, 1))
        elif alg == "driver":
            def make(gate, matroid):
                return GuessDriver(gate, matroid, Fraction(1, 4))
        else:
            def make(gate, matroid):
                return SieveStreaming(gate, matroid, Fraction(1, 4))
        want = self.run(make, fn, generic, stream)
        got = self.run(make, fn, packed, stream)
        assert got == want
        assert packed.is_independent(got["solution"])



def per_index(runs):
    """One guess's threshold runs of a matroid-tree node written out as
    one (T_b, load) per threshold index; a closed index has load None."""
    return [(tracked, load) for lo, hi, tracked, load in runs for _ in range(lo, hi + 1)]


def guess_nodes(tree, i: int) -> list:
    """The nodes of a branch tree that serve guess ``i``, in order, each
    with the position of ``i`` among the node's guesses; every node of a
    reference tree, at position 0."""
    if not isinstance(tree, branching._Tree):
        return [(node, 0) for node in tree.nodes]
    out = []
    for node in tree.nodes:
        first = node.run[0][0]
        if first <= i < first + len(node.run):
            out.append((node, i - first))
    return out


def live_trees(alg) -> dict:
    """Per live guess, ascending, the tree that serves it: of a guess
    driver, of the reference driver, or of a lone tree (as guess 0)."""
    if isinstance(alg, GuessDriver):
        return guess_trees(alg)
    return alg.roots if isinstance(alg, PerGuessDriver) else {0: alg}


def guess_states(alg):
    """Per live guess, ascending, of a matroid tree or a guess driver: each
    of its nodes' carried set and per-index tracking state for that
    guess."""
    return [[(node.g.pinned, per_index(guess_runs(tree, node)[j]))
             for node, j in guess_nodes(tree, i)] for i, tree in live_trees(alg).items()]


class NodeStates:
    """``stream_run`` watcher that records, after every step, the stored
    set, the footprint, the gate's query count, the running footprint of
    every live matroid tree with the sum over its nodes, and per live guess
    each node's carried set and per-index tracking state."""

    def __init__(self, alg, gate):
        self.alg = alg
        self.gate = gate
        self.steps = []
        self.footprints = []

    def before(self, t, e):
        pass

    def after(self, t, e, stored):
        alg = self.alg
        trees = dict.fromkeys(live_trees(alg).values())
        self.footprints.extend((tree.footprint(), ref_footprint(tree)) for tree in trees)
        self.steps.append({
            "stored": stored, "footprint": alg.footprint(),
            "queries": self.gate.audit.query_count, "guesses": guess_states(alg),
        })


class TestRunsDifferential:
    """Matroid-tree nodes that keep threshold runs for each guess of a run
    drive a tree, and the guess driver, to the same run as one tree per
    guess of the per-index nodes they replaced (``PerIndexMatNode`` in a
    ``PerGuessMatroidTree``): after every step, for every live guess, each
    node's runs, written out per index, equal the reference's T_b with its
    load or closed state."""

    @staticmethod
    def run(make, fn, matroid, stream):
        gate = weak_gate(fn, matroid)
        alg = make(gate, matroid)
        log = NodeStates(alg, gate)
        with offer_trace() as traces:
            solution, value = stream_run(alg, stream, gate, log)
        for running, summed in log.footprints:
            assert running == summed
        out = {"solution": solution, "value": value, "steps": log.steps,
               "queries": gate.audit.query_count,
               "max_stored": gate.audit.max_stored,
               "branches": alg.branches_spawned}
        if not isinstance(alg, (GuessDriver, PerGuessDriver)):
            # the reference tree traces its own offers
            trace = traces[alg] if isinstance(alg, MatroidTree) else alg.trace_log
            index = {id(node): i for i, node in enumerate(alg.nodes)}
            out["trace"] = [(index[node_id], t) for node_id, t in trace]
        return out

    def check(self, fn, matroid, stream, make, make_ref):
        assert self.run(make, fn, matroid, stream) == self.run(make_ref, fn, matroid, stream)

    def check_tree(self, fn, matroid, stream, k, v):
        self.check(fn, matroid, stream,
                   lambda gate, matroid: MatroidTree(gate, matroid, k, v),
                   lambda gate, matroid: PerGuessMatroidTree(gate, matroid, k, v, trace=True,
                                                             node=PerIndexMatNode))

    @pytest.mark.parametrize("frac", [Fraction(1), Fraction(1, 8), Fraction(0)])
    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_hard_matroid_tree(self, K, m, frac):
        inst = MatHardInstance(MatHardParams(K, m), 10 * K + m)
        stream = sample_stream(inst, "class-blocks", m)
        self.check_tree(inst.fn, inst.matroid, stream, K, inst.optimal_value * frac)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_hard_matroid_driver(self, K, m):
        inst = MatHardInstance(MatHardParams(K, m), 10 * K + m)
        stream = sample_stream(inst, "class-blocks", m)
        per_index = partial(PerGuessMatroidTree, node=PerIndexMatNode)
        self.check(inst.fn, inst.matroid, stream,
                   lambda gate, matroid: GuessDriver(gate, matroid, Fraction(1, 4)),
                   lambda gate, matroid: PerGuessDriver(gate, matroid, Fraction(1, 4),
                                                        mat_tree=per_index))

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
        self.check_tree(fn, matroid, data.draw(st.permutations(range(n))), k, v)


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
    node per invocation (``PerInvocationCardTree``, under the driver one
    per guess in ``PerGuessDriver``): the same footprint and stored set
    after every step, and the same solution, value, query count, query
    log, refusals, ``max_stored`` and ``branches_spawned``."""

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

    def check(self, fn, stream, make, make_ref=None):
        for policy in self.POLICIES:
            got = self.run(make, fn, stream, policy, False)
            want = self.run(make_ref or make, fn, stream, policy, True)
            assert got == want

    @staticmethod
    def drivers(matroid):
        return (lambda gate: GuessDriver(gate, matroid, Fraction(1, 4)),
                lambda gate: PerGuessDriver(gate, matroid, Fraction(1, 4),
                                            card_tree=PerInvocationCardTree))

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
        self.check(inst.fn, stream, *self.drivers(inst.matroid))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7), K=st.integers(1, 4))
    def test_coverage(self, data, n, K):
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 9), max_size=5),
                                                 min_size=n, max_size=n)))
        stream = data.draw(st.permutations(range(n)))
        _, opt = brute_force_optimum(fn, UniformMatroid(n, K))
        self.check_trees(fn, stream, opt)
        self.check(fn, stream, *self.drivers(UniformMatroid(n, K)))

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
        self.check(fn, stream, *self.drivers(UniformMatroid(fn.n, 2)))


def node_runs(driver) -> list:
    """Per live tree of a guess driver, the guess indices each of its
    nodes serves, in order."""
    return [[[i for i, _, _ in node.run] for node in tree.nodes]
            for tree in driver.trees]


class TestRunsOfGuesses:
    """One ``CardTree`` or ``MatroidTree`` per entering group of guesses,
    whose nodes split where the guesses disagree, drives the guess driver
    to the run of one tree per guess (``PerGuessDriver``, with
    ``PerGuessMatroidTree`` for matroids): the same footprint and
    stored set after every step, and the same solution, value, query
    count, query log, refusals, ``max_stored``, ``branches_spawned``,
    ``roots_spawned``, ``live_roots_peak`` and ``champion_v``, under all
    three policies."""

    EPS = st.sampled_from([Fraction(1, 10), Fraction(1, 4), Fraction(1)])

    @staticmethod
    def run(alg, gate, stream):
        log = StoredSteps(alg)
        if not isinstance(alg.matroid, UniformMatroid):
            # and each live guess's node states
            log.after = lambda t, e, stored: log.steps.append(
                (alg.footprint(), stored, guess_states(alg)))
        solution, value = stream_run(alg, stream, gate, log)
        audit = gate.audit
        return {"solution": solution, "value": value, "steps": log.steps,
                "queries": audit.query_count, "log": audit.log,
                "rejected": audit.rejected, "max_stored": audit.max_stored,
                "branches": alg.branches_spawned, "roots": alg.roots_spawned,
                "peak": alg.live_roots_peak, "champion_v": alg.champion_v}

    def check(self, fn, matroid, stream, eps):
        for policy in TestChainsDifferential.POLICIES:
            gate, ref_gate = policy_gate(fn, policy), policy_gate(fn, policy)
            assert self.run(GuessDriver(gate, matroid, eps), gate, stream) == \
                self.run(PerGuessDriver(ref_gate, matroid, eps), ref_gate, stream)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), K=st.integers(1, 4), eps=EPS)
    def test_coverage(self, data, n, K, eps):
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 11), max_size=5),
                                                 min_size=n, max_size=n)))
        self.check(fn, UniformMatroid(n, K), data.draw(st.permutations(range(n))), eps)

    @settings(max_examples=15, deadline=None)
    @given(K=st.integers(2, 4), extra=st.integers(0, 6), seed=st.integers(0, 10 ** 6),
           distribution=st.sampled_from(["purple-last", "uniform"]), eps=EPS)
    def test_hard_cardinality(self, K, extra, seed, distribution, eps):
        inst = CardHardInstance(CardHardParams(2 * K + 2 + extra, K, K), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, distribution, seed), eps)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), K=st.integers(1, 4), eps=EPS,
           weights=st.sampled_from([[2] * 6, [2, 1, 2, 3, 2, 1, 2], [3, 1, 2, 2, 1, 3],
                                    [2, 0, -1, 2, 4, 2], [4, 0, 1, 8, 2, 4, 1, 16]]))
    def test_additive_ties(self, data, K, eps, weights):
        """Small integer and power-of-two gains put offers on the bars
        of guesses (1+eps)^i and of the targets derived from them."""
        fn = additive(weights)
        self.check(fn, UniformMatroid(fn.n, K), data.draw(st.permutations(range(fn.n))), eps)

    def test_one_element_splits_the_run(self):
        """K=3, eps=1, gains 4, 0, 1. The first element sets m=4, so the
        guesses 1, 2, 4, 8 enter together, in one tree, and take it at the
        root's bar v/5. Member 3 of the take child then has the bar
        (v - 4)/4, which a gain of 0 clears for v <= 4 and not for v = 8:
        the second element splits that child there, and only its variant
        for v = 8 takes the third (gain 1). The root serves all four
        guesses throughout."""
        fn = additive([4, 0, 1])
        matroid = UniformMatroid(3, 3)
        gate = weak_gate(fn, matroid)
        driver = GuessDriver(gate, matroid, 1)
        runs = []
        for t, e in enumerate(range(3)):
            driver.step(t, e)
            runs.append(node_runs(driver))
        low, high, all4 = [0, 1, 2], [3], [0, 1, 2, 3]
        assert runs == [[[all4, all4]], [[all4, low, high, low]],
                        [[all4, low, high, low, high]]]
        trees = guess_trees(driver)
        assert [trees[i] for i in range(4)] == [trees[0]] * 4
        self.check(fn, matroid, [0, 1, 2], 1)

    def test_a_tie_at_the_top_keeps_the_run(self):
        """As above, but the second gain is 1, exactly on member 3's bar
        (8 - 4)/4 at the top guess v = 8: every guess takes it, and no
        node splits."""
        fn = additive([4, 1, 0])
        matroid = UniformMatroid(3, 3)
        gate = weak_gate(fn, matroid)
        driver = GuessDriver(gate, matroid, 1)
        for t, e in enumerate(range(3)):
            driver.step(t, e)
            (tree,) = node_runs(driver)
            assert tree == [[0, 1, 2, 3]] * len(tree)
        assert len(tree) == 3
        self.check(fn, matroid, [0, 1, 2], 1)

    @settings(max_examples=10, deadline=None)
    @given(K=st.integers(2, 4), m=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
           distribution=st.sampled_from(["class-blocks", "uniform"]),
           eps=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    def test_hard_matroid(self, K, m, seed, distribution, eps):
        """At K=4 one tree per guess takes seconds under eps=1/10; the
        golden ``run_hard_matroid_K4.json`` pins that eps on the
        ``driver-matroid`` shape."""
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, distribution, seed), eps)

    @staticmethod
    def partition(data, n):
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        capacity = data.draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        matroid = PartitionMatroid(labels, dict(enumerate(capacity)))
        assume(matroid.rank <= MatroidTree.MAX_RANK)
        return matroid

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), eps=EPS)
    def test_partition_additive(self, data, n, eps):
        """Gains on and off the bars, negative ones included, so that some
        targets fall to 0 and below."""
        matroid = self.partition(data, n)
        fn = additive(data.draw(st.lists(st.sampled_from([-2, 0, 1, 2, 3, 4, 8, 16, 32]),
                                         min_size=n, max_size=n)))
        self.check(fn, matroid, data.draw(st.permutations(range(n))), eps)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), eps=EPS)
    def test_partition_coverage(self, data, n, eps):
        matroid = self.partition(data, n)
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 11), max_size=5),
                                                 min_size=n, max_size=n)))
        self.check(fn, matroid, data.draw(st.permutations(range(n))), eps)

    def test_a_later_larger_gain_splits_a_matroid_run(self):
        """Rank K=2, eps=1, additive gains: z=32 in a class of its own,
        then x=2 and y=3 of one class. z sets m=32, so the guesses v = 8,
        16, 32, 64 enter together, in one tree, and every T_b takes z. x
        clears T_0's bar at every guess, and bar b for b <= 32/v; each T_b
        that took x is full. y fits only the others and clears bar b for b
        <= 48/v: b = 5, 6 at v=8 and b = 3 at v=16, but at v = 32 and 64,
        48/v and 32/v have the same floor. Only the two low guesses spawn
        a child for y, and the root splits between them and the high
        ones. u=5, of the class of x and y, then fits a T_b of every guess
        again, at v=32 and at v=64 in different ones: both variants of the
        root take it, each with a child of its own on one residual, and
        nothing splits."""
        fn = additive([32, 2, 3, 5])
        matroid = PartitionMatroid([1, 0, 0, 0])
        gate = weak_gate(fn, matroid)
        driver = GuessDriver(gate, matroid, 1)
        runs = []
        for t, e in enumerate(range(4)):
            driver.step(t, e)
            runs.append(node_runs(driver))
        low, high, all4 = [3, 4], [5, 6], [3, 4, 5, 6]
        assert runs == [[[all4] * 2], [[all4] * 3], [[low, high, all4, all4, low]],
                        [[low, high, all4, all4, low, low, high]]]
        trees = guess_trees(driver)
        tree = trees[3]
        assert trees[5] is tree
        low, high, u_low, u_high = tree.nodes[0], tree.nodes[1], tree.nodes[5], tree.nodes[6]
        assert list(low.children) == [0, 1, 2, 3] and list(high.children) == [0, 1, 3]
        assert low.g is high.g and u_low.g is u_high.g and u_low is not u_high
        assert [[(lo, hi, sorted(tracked)) for lo, hi, tracked, _ in runs]
                for runs in guess_runs(tree, high)] == \
            [[(0, 1, [0, 1]), (2, 2, [0, 3]), (3, 8, [0])],
             [(0, 0, [0, 1]), (1, 1, [0, 3]), (2, 8, [0])]]
        self.check(fn, matroid, [0, 1, 2, 3], 1)

    def test_few_trees_serve_the_driver_card_shape(self):
        """Hard cardinality K=6, n=80, h=6 under eps=1/10, the weak policy
        and purple-last order: the 45 live guesses are served by at most 2
        trees at any step, one per group of guesses that entered together,
        so the 80 elements make 81 tree steps; 6 node splits per trial
        serve the guesses where they disagree."""
        for seed in range(4):
            inst = CardHardInstance(CardHardParams(80, 6, 6), seed)
            gate = weak_gate(inst.fn, inst.matroid)
            driver = GuessDriver(gate, inst.matroid, Fraction(1, 10))
            trees, splits = [], []
            with pytest.MonkeyPatch.context() as mp:
                step, split = CardTree.step, CardTree._split

                def counted(tree, t, e):
                    trees[-1] += 1
                    return step(tree, t, e)

                def counted_split(tree, node, cut):
                    splits.append(cut)
                    return split(tree, node, cut)

                mp.setattr(CardTree, "step", counted)
                mp.setattr(CardTree, "_split", counted_split)
                for t, e in enumerate(sample_stream(inst, "purple-last", seed)):
                    trees.append(0)
                    gate.audit.step = t
                    driver.step(t, e)
            assert driver.live_roots_peak == 45
            assert max(trees) == 2
            assert sum(trees) == 81
            assert len(splits) == 6


    def test_one_tree_serves_the_driver_matroid_shape(self):
        """Hard matroid K=4, m=12 under eps=1/10, the weak policy and
        class-blocks order: one tree, of 15 nodes, none of them split,
        serves the 41 live guesses from the first element on, so each of
        the 37 elements is one tree step."""
        for seed in range(2):
            inst = MatHardInstance(MatHardParams(4, 12), seed)
            gate = weak_gate(inst.fn, inst.matroid)
            driver = GuessDriver(gate, inst.matroid, Fraction(1, 10))
            trees = set()
            for t, e in enumerate(sample_stream(inst, "class-blocks", seed)):
                gate.audit.step = t
                driver.step(t, e)
                trees.update(driver.trees)
            (tree,) = trees
            assert driver.live_roots_peak == len(tree.run) == 41
            assert len(tree.nodes) == 15 and t == 36
            assert all(node.run is tree.run for node in tree.nodes)


class TestSplitsShareNothing:
    """A node splits into variants that share what their guesses agree
    on and copy the rest. After every step of a guess driver, in every
    live tree:

    * no two nodes share both a residual and a chain or child state (a
      node's ``chains``, each chain, its ``waiting`` list, its
      ``children`` or its ``runs``), and no two residuals pin the same set;
    * no two trees share a per-guess list or a node;
    * every per-guess list stays as long as the interval it covers:
      ``taken`` as the run, whose indices are consecutive, and a split
      node's own run is a nonempty, consecutive part of it.

    :meth:`drive` returns the count of node splits, so that a case can
    check that it split."""

    @staticmethod
    def check(trees):
        owner = {}
        for tree in trees:
            run = [i for i, _, _ in tree.run]
            assert run == list(range(run[0], run[0] + len(run)))
            assert len(tree.taken) == len(run)
            residuals = {}
            for obj in (tree.run, tree.taken):
                assert owner.setdefault(id(obj), tree) is tree
            for node in tree.nodes:
                guesses = [i for i, _, _ in node.run]
                assert guesses == list(range(guesses[0], guesses[0] + len(guesses)))
                assert set(guesses) <= set(run)
                assert residuals.setdefault(node.g.pinned, node.g) is node.g
                state = [node.chains, *node.chains] if isinstance(tree, CardTree) else \
                    [node.children, node.runs]
                if getattr(node, "waiting", None) is not None:
                    state.append(node.waiting)
                for obj in [node, *state]:
                    assert owner.setdefault(id(obj), (tree, node)) in (tree, (tree, node))
            assert len(set(map(id, residuals.values()))) == len(residuals)

    def drive(self, fn, matroid, stream, eps) -> int:
        gate = weak_gate(fn, matroid)
        driver = GuessDriver(gate, matroid, eps)
        splits = []
        with pytest.MonkeyPatch.context() as mp:
            split = branching._Tree._split
            mp.setattr(branching._Tree, "_split",
                       lambda tree, *args: splits.append(split(tree, *args)) or splits[-1])
            for t, e in enumerate(stream):
                gate.audit.step = t
                driver.step(t, e)
                self.check(driver.trees)
        return len(splits)

    def test_hand_built_splits(self):
        """The streams of ``TestRunsOfGuesses`` that split a node, of each
        kind of tree."""
        assert self.drive(additive([4, 0, 1]), UniformMatroid(3, 3), range(3), 1) == 1
        assert self.drive(additive([32, 2, 3, 5]), PartitionMatroid([1, 0, 0, 0]),
                          range(4), 1) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_hard_instances(self, seed):
        inst = CardHardInstance(CardHardParams(24, 4, 4), seed)
        assert self.drive(inst.fn, inst.matroid, sample_stream(inst, "purple-last", seed),
                          Fraction(1, 10)) > 0
        inst = MatHardInstance(MatHardParams(4, 3), seed)
        assert self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed),
                          Fraction(1, 4)) > 0

    @settings(max_examples=15, deadline=None)
    @given(K=st.integers(2, 4), extra=st.integers(0, 8), seed=st.integers(0, 10 ** 6),
           m=st.integers(1, 3), eps=TestRunsOfGuesses.EPS)
    def test_hard_families(self, K, extra, seed, m, eps):
        inst = CardHardInstance(CardHardParams(2 * K + 2 + extra, K, K), seed)
        self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed), eps)
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed), eps)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), eps=TestRunsOfGuesses.EPS)
    def test_partition_additive(self, data, n, eps):
        matroid = TestRunsOfGuesses.partition(data, n)
        fn = additive(data.draw(st.lists(st.sampled_from([-2, 0, 1, 2, 3, 4, 8, 16, 32]),
                                         min_size=n, max_size=n)))
        self.drive(fn, matroid, data.draw(st.permutations(range(n))), eps)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), K=st.integers(1, 4),
           eps=TestRunsOfGuesses.EPS)
    def test_coverage(self, data, n, K, eps):
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 11), max_size=5),
                                                 min_size=n, max_size=n)))
        self.drive(fn, UniformMatroid(n, K), data.draw(st.permutations(range(n))), eps)


class TestRunningState:
    """The guess driver keeps current what the runner reads every step.
    After every step, under the weak and the element-store policy:

    * every tree's run is nonempty, and the runs of ``trees``,
      concatenated, are the grid's window ``first..last``, the live
      guesses, so each is ascending and they are in ascending order;
    * ``footprint()`` equals the champion's size plus each tree's
      footprint recomputed from its nodes (``ref_driver_footprint``);
    * every tree's ``held`` is each node's ``hold`` once per guess it
      serves, plus the branches its guesses spawned (``taken``); this is
      also checked after every retirement, those of ``finish`` included.

    After ``finish`` no tree is live. :meth:`drive` returns the count of
    node splits and the count of the retirements, made while the stream
    runs, that drop some but not all of the guesses of a tree with a
    split node, so that a case can check that these happen."""

    POLICIES = ("weak", "element-store")

    @classmethod
    def drive(cls, fn, matroid, stream, eps) -> tuple[int, int]:
        splits, cuts = [], []

        def held(tree):
            return sum(node.hold * len(node.run) for node in tree.nodes) + sum(tree.taken)

        for policy in cls.POLICIES:
            gate = QueryGate(fn, WeakPolicy(matroid) if policy == "weak" else
                             ElementStorePolicy(), OracleAudit())
            driver = GuessDriver(gate, matroid, eps)
            steps = []

            def after(t, e, stored):
                runs = [[i for i, _, _ in tree.run] for tree in driver.trees]
                assert all(runs)
                assert sum(runs, []) == list(range(driver.grid.first, driver.grid.last + 1))
                assert driver.footprint() == ref_driver_footprint(driver)
                assert all(tree.held == held(tree) for tree in driver.trees)
                steps.append(t)

            def drop_lowest(tree, k):
                if len(steps) < len(stream) and k < len(tree.run) and \
                        any(node.run is not tree.run for node in tree.nodes):
                    cuts.append(k)
                spawned = drop(tree, k)
                assert tree.held == held(tree)
                return spawned
            with pytest.MonkeyPatch.context() as mp:
                split, drop = branching._Tree._split, branching._Tree.drop_lowest
                mp.setattr(branching._Tree, "_split",
                           lambda tree, *args: splits.append(split(tree, *args)) or splits[-1])
                mp.setattr(branching._Tree, "drop_lowest", drop_lowest)
                stream_run(driver, stream, gate,
                           SimpleNamespace(before=lambda t, e: None, after=after))
            assert steps == list(range(len(stream)))
            assert driver.trees == [] and driver.footprint() == len(driver.champion[0])
        return len(splits), len(cuts)

    @pytest.mark.parametrize("seed", range(3))
    def test_hard_instances(self, seed):
        inst = CardHardInstance(CardHardParams(24, 4, 4), seed)
        assert self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed),
                          Fraction(1, 10))[0] > 0
        inst = MatHardInstance(MatHardParams(4, 3), seed)
        assert self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed),
                          Fraction(1, 4))[0] > 0

    def test_a_split_matroid_tree_retires_part_of_its_guesses(self):
        """Coverage under a partition matroid, uniform order, eps=1/4: at
        the seventh element a matroid tree whose nodes have split retires
        one of its 12 guesses and keeps serving the others, under both
        policies."""
        inst = CoverageInstance(8, 12, 2, 2, 0.3)
        matroid = PartitionMatroid([0, 1, 0, 2, 2, 1, 1, 2], 1)
        assert self.drive(inst.fn, matroid, sample_stream(inst, "uniform", 2),
                          Fraction(1, 4)) == (10, 2)

    @settings(max_examples=15, deadline=None)
    @given(K=st.integers(2, 4), extra=st.integers(0, 8), seed=st.integers(0, 10 ** 6),
           m=st.integers(1, 3), eps=TestRunsOfGuesses.EPS)
    def test_hard_families(self, K, extra, seed, m, eps):
        inst = CardHardInstance(CardHardParams(2 * K + 2 + extra, K, K), seed)
        self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed), eps)
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.drive(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed), eps)

    @pytest.mark.parametrize("matroid", [UniformMatroid(4, 1), PartitionMatroid([0] * 4)])
    def test_whole_trees_leave(self, matroid):
        """K=1, eps=1, gains 1, 5, 30, 200: each element raises m past the
        window [m/4, m] of the one before, so each tree's guesses all leave
        in one step while the stream runs, under both trees."""
        fn = additive([1, 5, 30, 200])
        self.drive(fn, matroid, [0, 1, 2, 3], 1)
        driver = GuessDriver(weak_gate(fn, matroid), matroid, 1)
        runs = []
        for t in range(4):
            driver.step(t, t)
            runs.append([[i for i, _, _ in tree.run] for tree in driver.trees])
        assert runs == [[[0]], [[1, 2]], [[3, 4]], [[6, 7]]]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), K=st.integers(1, 4),
           eps=TestRunsOfGuesses.EPS)
    def test_coverage(self, data, n, K, eps):
        """Under both trees: a uniform matroid runs cardinality trees, a
        partition matroid matroid trees."""
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 11), max_size=5),
                                                 min_size=n, max_size=n)))
        stream = data.draw(st.permutations(range(n)))
        self.drive(fn, UniformMatroid(n, K), stream, eps)
        self.drive(fn, TestRunsOfGuesses.partition(data, n), stream, eps)


def node_state(tree, node, j: int) -> tuple:
    """What one guess's tree holds at ``node``, for the guess at position
    ``j`` of the node's guesses: the pinned set, and the chains, leaf and
    query count (cardinality), or the carried load, fallback, children and
    per-index tracking state (matroid)."""
    if hasattr(node, "chains"):
        return (node.g.pinned, node.s, node.best, node.times,
                [(k, target, pin) for k, target, pin, _, _ in node.chains])
    return (node.g.pinned, node.k, node.iload, node.best_single, list(node.children),
            per_index(guess_runs(tree, node)[j]))


class TestTwinsAskOnce:
    """The variants of a node share its residual, and a node reads its
    gain from its residual: in each step the gate is asked at most once
    per residual object, always with ``times`` 0, while every variant's
    offer still reaches it. Each live guess is served by exactly one
    variant of every node its own tree would hold: after every step, the
    nodes that serve a guess, in order, hold the states of the nodes of
    that guess's tree in ``PerGuessDriver`` (one ``CardTree`` or
    ``PerGuessMatroidTree`` per guess). The trees count the queries, so
    the query count, the full query log, the oracle calls, the refusals
    and ``max_stored`` equal those of one tree per guess, under all three
    policies."""

    class Served:
        """``stream_run`` watcher: after every step, per live guess, the
        states of the nodes that serve it."""

        def __init__(self, driver):
            self.driver = driver
            self.steps = []

        def before(self, t, e):
            pass

        def after(self, t, e, stored):
            # a reference tree serves its one guess with all its nodes
            own = not isinstance(self.driver, GuessDriver)
            self.steps.append({
                i: [node_state(tree, node, j) for node, j in
                    ([(node, 0) for node in tree.nodes] if own else guess_nodes(tree, i))]
                for i, tree in live_trees(self.driver).items()})

    @classmethod
    def run(cls, alg, gate, stream, wrap):
        offers, asks, keep = [], [], []
        served = cls.Served(alg)
        with pytest.MonkeyPatch.context() as mp:
            if wrap:
                real_value = QueryGate.value
                current = []

                def value(gate, subset, times=1):
                    if current:
                        asks.append((gate.audit.step, id(current[-1]), times))
                    return real_value(gate, subset, times)

                def offering(offer):
                    def wrapped(node, tree, e):
                        # holding the residual keeps its id unique
                        keep.append(node.g)
                        offers.append((gate.audit.step, id(node.g)))
                        current.append(node.g)
                        try:
                            return offer(node, tree, e)
                        finally:
                            current.pop()
                    return wrapped

                mp.setattr(QueryGate, "value", value)
                for node in (branching._CardNode, branching._MatNode):
                    mp.setattr(node, "offer", offering(node.offer))
            solution, val = stream_run(alg, stream, gate, served)
        audit = gate.audit
        return offers, asks, {
            "solution": solution, "value": val, "queries": audit.query_count,
            "log": audit.log, "oracle_calls": audit.oracle_calls,
            "rejected": audit.rejected, "max_stored": audit.max_stored,
            "served": served.steps}

    def check(self, fn, matroid, stream, eps, shared=False):
        for policy in TestChainsDifferential.POLICIES:
            gate, ref_gate = policy_gate(fn, policy), policy_gate(fn, policy)
            offers, asks, got = self.run(GuessDriver(gate, matroid, eps), gate, stream, True)
            _, _, want = self.run(PerGuessDriver(ref_gate, matroid, eps), ref_gate, stream,
                                  False)
            assert got == want
            asked = [(step, residual) for step, residual, _ in asks]
            assert len(asked) == len(set(asked))
            assert {times for _, _, times in asks} <= {0}
            assert set(asked) <= set(offers)
            if shared:
                # variants read a gain the gate gave another node on their residual
                assert {key for key, n in Counter(offers).items() if n > 1} & set(asked)

    @pytest.mark.parametrize("seed", range(2))
    def test_hard_cardinality(self, seed):
        inst = CardHardInstance(CardHardParams(24, 4, 4), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, "purple-last", seed),
                   Fraction(1, 10), shared=True)

    @pytest.mark.parametrize("K,m,seed", [(3, 3, 0), (3, 3, 1), (4, 3, 1)])
    def test_hard_matroid(self, K, m, seed):
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed),
                   Fraction(1, 4), shared=True)

    @settings(max_examples=8, deadline=None)
    @given(K=st.integers(2, 4), extra=st.integers(0, 6), m=st.integers(1, 3),
           seed=st.integers(0, 10 ** 6), eps=st.sampled_from([Fraction(1, 4), Fraction(1)]))
    def test_hard_families(self, K, extra, m, seed, eps):
        inst = CardHardInstance(CardHardParams(2 * K + 2 + extra, K, K), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed), eps)
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, "uniform", seed), eps)

    @settings(max_examples=12, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8), K=st.integers(1, 4),
           eps=TestRunsOfGuesses.EPS)
    def test_coverage(self, data, n, K, eps):
        fn = CoverageFunction(data.draw(st.lists(st.sets(st.integers(0, 11), max_size=5),
                                                 min_size=n, max_size=n)))
        stream = data.draw(st.permutations(range(n)))
        self.check(fn, UniformMatroid(n, K), stream, eps)
        matroid = TestRunsOfGuesses.partition(data, n)
        self.check(fn, matroid, stream, eps)

    def test_a_tree_stepped_outside_a_stream_evaluates_each_query_once(self):
        """Stepped directly, with no stream step set, the gate keeps no
        memo; a tree still evaluates each query once, at its ask, as under
        ``stream_run``: 455 queries, 91 oracle calls."""
        inst = CardHardInstance(CardHardParams(24, 4, 4), 1)
        stream = sample_stream(inst, "purple-last", 1)
        audits = []
        for direct in (True, False):
            gate = weak_gate(inst.fn, inst.matroid)
            tree = CardTree(gate, 4, 4, inst.optimal_value)
            if direct:
                for t, e in enumerate(stream):
                    tree.step(t, e)
                assert gate.audit.step == -1
            else:
                stream_run(tree, stream, gate)
            audits.append((gate.audit.query_count, gate.audit.oracle_calls))
        assert audits == [(455, 91)] * 2


class TestLevelRuns:
    """A matroid node keeps one list of threshold runs over the levels
    b*v/K^4 for every guess of its tree. Hand-built streams for the cases
    that list must get right, each also checked against one tree per
    guess: per index (``PerIndexMatNode``) after every step, and under the
    three policies (``PerGuessDriver``)."""

    @staticmethod
    def levels(node):
        return [(lo, hi, sorted(tracked)) for lo, hi, tracked, _ in node.runs]

    @staticmethod
    def check_driver(fn, matroid, stream):
        TestRunsOfGuesses().check(fn, matroid, stream, 1)
        per_index = partial(PerGuessMatroidTree, node=PerIndexMatNode)
        TestRunsDifferential().check(
            fn, matroid, stream,
            lambda gate, matroid: GuessDriver(gate, matroid, 1),
            lambda gate, matroid: PerGuessDriver(gate, matroid, 1, mat_tree=per_index))

    def test_gains_between_two_index_levels_add_no_run(self):
        """Rank 2, one guess v = 160, so index b sits at level 10b. The
        gains 1, 2, ..., 9 all fit, and all lie between the levels of
        indices 0 and 1. The first splits the line at 1. Each later one
        would split the upper run into a part below its gain that holds no
        index, so that run skips it, and the node keeps two runs."""
        fn = additive(list(range(1, 10)))
        matroid = UniformMatroid(9, 2)
        gate = weak_gate(fn, matroid)
        tree = MatroidTree(gate, matroid, 2, 160)
        for t in range(9):
            gate.audit.step = t
            tree.step(t, t)
            assert len(tree.root.runs) == 2
        assert self.levels(tree.root) == [(None, 1, [0, 1]), (1, None, [])]
        TestRunsDifferential().check_tree(fn, matroid, list(range(9)), 2, 160)

    def test_a_gain_on_the_bars_of_several_guesses(self):
        """Rank 2, eps = 1, additive gains. z = 32, in a class of its own,
        sets m = 32, and the guesses v = 8, 16, 32, 64 enter in one tree.
        x = 4, of the other class, lies exactly on a bar of each, b*v/16 =
        4 at b = 8, 4, 2, 1: the root's runs split once, at 4, and every
        guess takes x on its indices up to the tie. y = 5, of x's class,
        fits only above level 4; v = 16 takes it on index 5, again on the
        bar, and the other guesses have no index in (4, 5]: the root
        splits into variants for v = 8, for v = 16 and for v = 32, 64,
        each with the same runs."""
        matroid = PartitionMatroid([0, 1, 1])
        fn = additive([32, 4, 5])
        driver = GuessDriver(weak_gate(fn, matroid), matroid, 1)
        driver.step(0, 0)
        driver.step(1, 1)
        tree = guess_trees(driver)[3]
        assert self.levels(tree.root) == [(None, 4, [0, 1]), (4, None, [0])]
        assert [tree.index_runs(tree.root, i)[0][1] for i in range(3, 7)] == [8, 4, 2, 1]
        driver.step(2, 2)
        roots = tree.nodes[:3]
        assert [[i for i, _, _ in node.run] for node in roots] == [[3], [4], [5, 6]]
        assert [list(node.children) for node in roots] == [[0, 1], [0, 1, 2], [0, 1]]
        assert [self.levels(node) for node in roots] == \
            [[(None, 4, [0, 1]), (4, 5, [0, 2]), (5, None, [0])]] * 3
        self.check_driver(fn, matroid, [0, 1, 2])

    # rank 3, eps = 1, additive gains: x = 3 of class 0, then y = -2 and
    # z = 32 of class 1
    BOTH_SIDES = (PartitionMatroid([1, 0, 1], {0: 1, 1: 2}), additive([32, 3, -2]), [1, 2, 0])

    def test_one_node_serves_targets_on_both_sides_of_zero(self):
        """x sets m = 3, and the guesses v = 1, 2, 4, 8 enter in one tree;
        every guess takes x at index 0. The child on x has the target
        v(1 - 1/81) - 6, at most 0 for v = 1, 2, 4 and above 0 for v = 8.
        The negative gain of y clears every bar of the three low guesses,
        whose indices all sit at level -inf, and no bar of v = 8: the
        child's runs split at -2, and the child itself between v = 4 and
        v = 8."""
        matroid, fn, stream = self.BOTH_SIDES
        driver = GuessDriver(weak_gate(fn, matroid), matroid, 1)
        driver.step(0, 1)
        tree = guess_trees(driver)[0]
        child, _ = tree.root.children[1]
        alpha, beta, _ = child.t
        assert [alpha * num - beta * den > 0 for _, num, den in tree.run] == \
            [False, False, False, True]
        driver.step(1, 2)
        assert [[i for i, _, _ in node.run] for node in tree.nodes] == \
            [[0, 1, 2, 3], [0, 1, 2], [3], [0, 1, 2]]
        assert tree.nodes[1:3] == [child, child.next]
        assert list(child.children) == [2] and not child.next.children
        assert self.levels(child) == self.levels(child.next) == [(None, -2, [2]), (-2, None, [])]
        self.check_driver(fn, matroid, stream)

    def test_a_twin_stores_only_the_runs_that_hold_its_indices(self):
        """As above. The child's variant for v = 8 copies the child's runs,
        and the one up to -2, which holds y, holds indices only of the
        guesses of the other variant. z then sets m = 32, so v = 1, 2, 4
        retire, with the nodes that served only them, and z replaces y as
        the fallback of the variant for v = 8. Now y lies only in a run that
        holds no index of a live guess, and is not stored, as in the tree of
        v = 8 alone."""
        matroid, fn, stream = self.BOTH_SIDES
        driver = GuessDriver(weak_gate(fn, matroid), matroid, 1)
        for t, e in enumerate(stream):
            driver.step(t, e)
        tree = guess_trees(driver)[3]
        child, _ = tree.root.children[1]
        variant = child.next
        assert child not in tree.nodes and variant in tree.nodes
        assert [[i for i, _, _ in node.run] for node in tree.nodes] == [[3]] * 4
        assert self.levels(variant) == [(None, -2, [2]), (-2, None, [0])]
        assert [(lo, hi, sorted(tracked))
                for lo, hi, tracked, _ in tree.index_runs(variant, 3)] == [(0, 40, [0])]
        assert 2 not in tree.stored_set() and 2 not in driver.stored_set()
        self.check_driver(fn, matroid, stream)


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
            return PerGuessMatroidTree(gate, matroid, K, v, node=PerIndexMatNode)

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
