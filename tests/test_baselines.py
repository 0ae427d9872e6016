import math
import random
from fractions import Fraction

import pytest

from streamsub.baselines import (SieveStreaming, StoreEverything,
                                 brute_force_optimum, offline_greedy)
from streamsub.coverage import random_coverage
from streamsub.errors import GroundSetTooLarge
from streamsub.hard_cardinality import CardHardParams
from streamsub.hard_cardinality import instantiate as card_instantiate
from streamsub.hard_matroid import MatHardParams
from streamsub.hard_matroid import instantiate as mat_instantiate
from streamsub.harness import stream_run
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.oracles import ElementStorePolicy, OracleAudit, QueryGate, additive
from streamsub.samplers import sample_stream


class TestBruteForce:
    def test_hard_cardinality_matches_closed_form(self):
        inst = card_instantiate(CardHardParams(8, 3, 3), 4)
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        assert opt == inst.optimal_value

    def test_hard_matroid_matches_closed_form(self):
        inst = mat_instantiate(MatHardParams(3, 2), 4)
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
            inst = random_coverage(7, 10, 3, seed)
            _, a = brute_force_optimum(inst.fn, inst.matroid)
            explicit_rank3 = PartitionMatroid([0] * 7, 3)
            _, b = brute_force_optimum(inst.fn, explicit_rank3)
            assert a == b


class TestGreedy:
    def test_modular_is_optimal(self):
        f = additive([4, 2, 7, 1])
        sol, val = offline_greedy(f, UniformMatroid(4, 2))
        assert sol == {0, 2} and val == 11

    def test_greedy_ratio_on_coverage_suite(self):
        bound = 1 - 1 / math.e
        for seed in range(100):
            K = (seed % 3) + 1
            inst = random_coverage(7, 10, K, seed)
            _, opt = brute_force_optimum(inst.fn, inst.matroid)
            _, val = offline_greedy(inst.fn, inst.matroid)
            assert val >= bound * opt - 1e-9

    def test_greedy_exact_on_hard_cardinality(self):
        inst = card_instantiate(CardHardParams(40, 4, 4), 17)
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
            inst = random_coverage(7, 10, K, seed)
            _, opt = brute_force_optimum(inst.fn, inst.matroid)
            _, val, audit = run_sieve(inst, eps, seed)
            assert val >= (Fraction(1, 2) - eps) * opt
            assert audit.compliant

    def test_sieve_respects_matroid_feasibility(self):
        inst = mat_instantiate(MatHardParams(3, 4), 5)
        sol, val, audit = run_sieve(inst, Fraction(2, 5), 3)
        assert inst.matroid.is_independent(sol)
        assert audit.compliant

    def test_sieve_footprint_small(self):
        inst = mat_instantiate(MatHardParams(3, 30), 5)
        _, _, audit = run_sieve(inst, Fraction(2, 5), 3)
        assert audit.max_stored <= 20


class TestStoreEverything:
    def test_reaches_optimum(self):
        inst = random_coverage(7, 10, 3, 12)
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
