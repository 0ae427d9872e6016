import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import ExplicitMatroid, FractionSieve, ref_brute_force
from streamsub.baselines import (SieveStreaming, StoreEverything,
                                 brute_force_optimum, offline_greedy)
from streamsub.coverage import CoverageFunction, CoverageInstance
from streamsub.errors import GroundSetTooLarge, InvalidParams
from streamsub.hard_cardinality import CardHardInstance, CardHardParams
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.harness import stream_run
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate, SetFunction,
                               WeakPolicy, additive)
from streamsub.samplers import sample_stream


class TestBruteForce:
    def test_hard_cardinality_matches_closed_form(self):
        inst = CardHardInstance(CardHardParams(8, 3, 3), 4)
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        assert opt == inst.optimal_value

    def test_hard_matroid_matches_closed_form(self):
        inst = MatHardInstance(MatHardParams(3, 2), 4)
        sol, opt = brute_force_optimum(inst.fn, inst.matroid)
        assert opt == 120
        assert sol == inst.red_ids

    def test_rank_zero(self):
        f = additive([3, 1])
        assert brute_force_optimum(f, UniformMatroid(2, 0)) == (frozenset(), 0)

    def test_limits(self):
        f = additive([1] * 21)
        with pytest.raises(GroundSetTooLarge):
            brute_force_optimum(f, UniformMatroid(21, 2))
        with pytest.raises(GroundSetTooLarge):
            brute_force_optimum(additive([1] * 17), PartitionMatroid([0] * 17, 2))

    def test_general_matroid_agrees_with_uniform_path(self):
        for seed in range(10):
            inst = CoverageInstance(7, 10, 3, seed)
            a = brute_force_optimum(inst.fn, inst.matroid)
            explicit_rank3 = PartitionMatroid([0] * 7, 3)
            b = brute_force_optimum(inst.fn, explicit_rank3)
            assert a == b

    @pytest.mark.parametrize("matroid", [UniformMatroid(3, 3), PartitionMatroid([0, 1, 2], 1)],
                             ids=["uniform", "partition"])
    def test_ties_go_to_the_smallest_maximizer(self, matroid):
        # the depth-first walk once kept {0, 1, 2} under a partition matroid
        assert brute_force_optimum(additive([0, 0, 5]), matroid) == (frozenset({2}), 5)


def _graphic_family(n_vertices, edges):
    """The forests among ``edges``, as sets of edge ids."""
    def acyclic(ids):
        parent = list(range(n_vertices))

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v
        for i in ids:
            a, b = root(edges[i][0]), root(edges[i][1])
            if a == b:
                return False
            parent[a] = b
        return True
    return [frozenset(c) for k in range(len(edges) + 1)
            for c in combinations(range(len(edges)), k) if acyclic(c)]


@st.composite
def function_and_matroid(draw, ties=False):
    """A coverage function, or with ``ties`` one that ties often: coverage
    on a few sets shared by several elements, or additive weights with
    zeros; and a uniform, partition or graphic matroid."""
    n = draw(st.integers(3, 8) if ties else st.integers(1, 7))
    if not ties:
        fn = CoverageFunction(draw(st.lists(st.sets(st.integers(0, 7)), min_size=n, max_size=n)))
    elif draw(st.booleans()):
        pool = draw(st.lists(st.sets(st.integers(0, 4)), min_size=1, max_size=4))
        fn = CoverageFunction(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    else:
        fn = additive(draw(st.lists(st.sampled_from([0, 1, 2, 3]), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["uniform", "partition", "explicit"]))
    if kind == "uniform":
        return fn, UniformMatroid(n, draw(st.integers(0, n)))
    if kind == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        return fn, PartitionMatroid(labels, {c: draw(st.integers(0, 3)) for c in set(labels)})
    edges = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=n, max_size=n))
    return fn, ExplicitMatroid(n, _graphic_family(4, edges))


def counted(fn):
    """``fn`` as a set function that records each query as a frozenset."""
    calls = []
    return SetFunction(fn.n, lambda s: calls.append(frozenset(s)) or fn.value(s)), calls


class TestBruteForceDifferential:
    """Branch and bound on matroid loads against plain subset enumeration
    with ``is_independent`` (``_reference.ref_brute_force``): the same set
    and value, from independent sets that enumeration also queries, none
    of them twice."""

    @staticmethod
    def check(fn, matroid, via_gate):
        ref_fn, ref_calls = counted(fn)
        expected = ref_brute_force(ref_fn, matroid)
        walk_fn, walk_calls = counted(fn)
        if via_gate:
            gate = QueryGate(walk_fn)
            assert brute_force_optimum(gate, matroid) == expected
            assert gate.audit.query_count == len(walk_calls)
        else:
            assert brute_force_optimum(walk_fn, matroid) == expected
        assert all(map(matroid.is_independent, walk_calls))
        assert len(set(walk_calls)) == len(walk_calls)
        assert set(walk_calls) <= set(ref_calls)

    @settings(max_examples=200, deadline=None)
    @given(case=function_and_matroid(), via_gate=st.booleans())
    def test_matches_subset_enumeration(self, case, via_gate):
        self.check(*case, via_gate)

    @settings(max_examples=200, deadline=None)
    @given(case=function_and_matroid(ties=True), via_gate=st.booleans())
    # {1, 2, 3} is found first, and a skip on a bound equal to 4 would miss {0, 1, 2}
    @example(case=(additive([1, 2, 1, 1]), UniformMatroid(4, 3)), via_gate=False)
    def test_tie_rule_under_pruning(self, case, via_gate):
        self.check(*case, via_gate)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_prunes_on_the_benchmark_shape(self, seed):
        # coverage n=20, K=4, universe 48 has 6,196 independent sets; the
        # walk queried at most 2,874 on seeds 0-199
        inst = CoverageInstance(20, 48, 4, seed)
        fn, calls = counted(inst.fn)
        assert brute_force_optimum(fn, inst.matroid) == ref_brute_force(inst.fn, inst.matroid)
        assert len(calls) <= 6196 // 2

    def test_witnessed_violation_of_submodularity_raises(self):
        # f = 1 iff {0, 1} is in S: the gain of 1 at {0} is above its gain at {}
        both = SetFunction(3, lambda s: int({0, 1} <= set(s)))
        with pytest.raises(InvalidParams, match=r"not submodular at \[0, 1\]"):
            brute_force_optimum(both, UniformMatroid(3, 2))


class TestGreedy:
    def test_modular_is_optimal(self):
        f = additive([4, 2, 7, 1])
        sol, val = offline_greedy(f, UniformMatroid(4, 2))
        assert sol == {0, 2} and val == 11

    def test_greedy_ratio_on_coverage_suite(self):
        bound = 1 - 1 / math.e
        for seed in range(100):
            K = (seed % 3) + 1
            inst = CoverageInstance(7, 10, K, seed)
            _, opt = brute_force_optimum(inst.fn, inst.matroid)
            _, val = offline_greedy(inst.fn, inst.matroid)
            assert val >= bound * opt - 1e-9

    def test_greedy_exact_on_hard_cardinality(self):
        inst = CardHardInstance(CardHardParams(40, 4, 4), 17)
        _, val = offline_greedy(inst.fn, inst.matroid)
        assert val == inst.optimal_value == 31


def run_sieve(inst, eps, seed, policy=None):
    stream = sample_stream(inst, "uniform", seed)
    audit = OracleAudit()
    policy = policy or ElementStorePolicy()
    gate = QueryGate(inst.fn, policy, audit)
    alg = SieveStreaming(gate, inst.matroid, eps)
    sol, val = stream_run(alg, stream, gate)
    assert inst.matroid.is_independent(sol)
    return sol, val, audit


class TestSieve:
    def test_sieve_ratio_on_coverage_suite(self):
        eps = Fraction(1, 5)
        for seed in range(100):
            K = (seed % 3) + 1
            inst = CoverageInstance(7, 10, K, seed)
            _, opt = brute_force_optimum(inst.fn, inst.matroid)
            _, val, audit = run_sieve(inst, eps, seed)
            assert val >= (Fraction(1, 2) - eps) * opt
            assert audit.compliant

    def test_sieve_respects_matroid_feasibility(self):
        inst = MatHardInstance(MatHardParams(3, 4), 5)
        sol, val, audit = run_sieve(inst, Fraction(2, 5), 3)
        assert inst.matroid.is_independent(sol)
        assert audit.compliant

    def test_sieve_footprint_small(self):
        inst = MatHardInstance(MatHardParams(3, 30), 5)
        _, _, audit = run_sieve(inst, Fraction(2, 5), 3)
        assert audit.max_stored <= 20


class Recount:
    """``stream_run`` watcher that, after every step, compares the sieve's
    running stored set and footprint with both recomputed from its
    candidate sets."""

    def __init__(self, sieve):
        self.sieve = sieve
        self.steps = 0

    def before(self, t, e):
        pass

    def after(self, t, e, stored):
        sets = [s for s, *_ in self.sieve.sets.values()]
        assert stored == self.sieve.stored_set() == frozenset().union(*sets)
        assert self.sieve.footprint() == sum(map(len, sets))
        self.steps += 1


class TestSieveAccounting:
    """Under the element-store policy of the audits, the stored set and
    footprint the sieve keeps as its sets change equal the ones recomputed
    from its sets, after every step, while guesses enter and leave."""

    @staticmethod
    def check(inst, stream, eps):
        gate = QueryGate(inst.fn, ElementStorePolicy(), OracleAudit())
        sieve = SieveStreaming(gate, inst.matroid, eps)
        watcher = Recount(sieve)
        stream_run(sieve, stream, gate, watcher)
        assert watcher.steps == len(stream)
        assert gate.audit.compliant

    @settings(max_examples=30, deadline=None)
    @given(K=st.integers(2, 4), m=st.integers(1, 12), seed=st.integers(0, 10 ** 6),
           eps=st.sampled_from(["2/5", "1/10", "1"]))
    def test_hard_matroid_audit(self, K, m, seed, eps):
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.check(inst, sample_stream(inst, "class-blocks", seed), eps)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), K=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
           eps=st.sampled_from(["2/5", "1/10", "1"]))
    def test_coverage(self, n, K, seed, eps):
        inst = CoverageInstance(n, 16, K, seed)
        self.check(inst, sample_stream(inst, "uniform", seed), eps)


class TestSieveOnLargeBars:
    """Where the guesses v are large, the sieve's bars ceil(v) are large
    integers: the integer sieve makes the ``Fraction`` sieve's run there,
    under the weak and the element-store policies."""

    @staticmethod
    def run(alg, gate, stream):
        solution, value = stream_run(alg, stream, gate)
        audit = gate.audit
        return {"solution": solution, "value": value, "queries": audit.query_count,
                "log": audit.log, "max_stored": audit.max_stored}

    def check(self, fn, matroid, stream, eps) -> SieveStreaming:
        """Compare the two runs under both policies; return the last
        integer sieve."""
        for make_policy in (lambda: WeakPolicy(matroid), ElementStorePolicy):
            gate, ref_gate = (QueryGate(fn, make_policy(), OracleAudit(record_log=True))
                              for _ in range(2))
            sieve = SieveStreaming(gate, matroid, eps)
            assert self.run(sieve, gate, stream) == \
                self.run(FractionSieve(ref_gate, matroid, eps), ref_gate, stream)
        return sieve

    @settings(max_examples=30, deadline=None)
    @given(K=st.integers(5, 12), m=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
           eps=st.sampled_from(["1/10", "2/5"]), distribution=st.sampled_from(
               ["class-blocks", "uniform"]))
    def test_hard_matroid(self, K, m, seed, eps, distribution):
        # values reach (2K-1)!, and 23! > 2^64 at K=12
        inst = MatHardInstance(MatHardParams(K, m), seed)
        self.check(inst.fn, inst.matroid, sample_stream(inst, distribution, seed), eps)

    @pytest.mark.parametrize("below", [0, 1, 2])
    def test_gain_on_the_ceiling(self, below):
        # v_j = (11/10)^j has about 70 bits and is not an integer; K=2,
        # and the second element's gain puts 2 (gain + f(S)) exactly on
        # ceil(v_j), or 1 or 2 below it, where a bar that is floor(v_j) or
        # rounded in floating point errs
        v = Fraction(11, 10)
        j = next(j for j in range(500, 520) if (math.ceil(v ** j) - below) % 2 == 0)
        first = math.ceil(v ** (j - 8))  # v_j / first ~ 2.14
        fn = additive([first, (math.ceil(v ** j) - below) // 2 - first])
        sieve = self.check(fn, UniformMatroid(2, 2), [0, 1], "1/10")
        assert (1 in sieve.sets[j][0]) == (below == 0)


class TestStoreEverything:
    def test_reaches_optimum(self):
        inst = CoverageInstance(7, 10, 3, 12)
        stream = sample_stream(inst, "uniform", 1)
        audit = OracleAudit()
        policy = ElementStorePolicy()
        gate = QueryGate(inst.fn, policy, audit)
        alg = StoreEverything(gate, inst.matroid)
        sol, val = stream_run(alg, stream, gate)
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        assert val == opt
        assert inst.matroid.is_independent(sol)
        assert audit.compliant
        assert audit.max_stored == inst.fn.n
