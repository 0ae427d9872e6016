from fractions import Fraction

import pytest

from streamsub.baselines import SieveStreaming, StoreEverything, brute_force_optimum
from streamsub.branching import GuessDriver
from streamsub.coverage import CoverageInstance
from streamsub.errors import PolicyViolation
from streamsub.hard_cardinality import CardHardInstance, CardHardParams
from streamsub.harness import (build_instance, canonical_audit, exact_optimum,
                               instance_from_json, instance_to_json,
                               report_to_json, run_experiment, run_trial,
                               stream_run, wilson_interval)
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.matroids import UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate, WeakPolicy,
                               additive)
from streamsub.samplers import sample_stream

from _reference import PlainGate


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("kind,params", [
        ("hard-cardinality", {"n": 12, "K": 3, "h": 4}),
        ("hard-matroid", {"K": 3, "m": 4}),
        ("coverage", {"n": 7, "K": 2, "universe": 10}),
    ])
    def test_json_round_trip_rebuilds_same_oracle(self, kind, params):
        inst = build_instance(kind, params, seed=11)
        clone = instance_from_json(instance_to_json(inst))
        assert clone.describe() == inst.describe()
        probe = frozenset(range(0, inst.fn.n, 2))
        assert clone.fn.value(probe) == inst.fn.value(probe)


class TestExactOptimum:
    def test_hard_kinds_use_closed_forms(self):
        inst = build_instance("hard-matroid", {"K": 3, "m": 2}, 1)
        assert exact_optimum(inst) == 120
        _, enumerated = brute_force_optimum(inst.fn, inst.matroid)
        assert enumerated == 120

    def test_coverage_uses_enumeration(self):
        inst = build_instance("coverage", {"n": 6, "K": 2}, 1)
        _, want = brute_force_optimum(inst.fn, inst.matroid)
        assert exact_optimum(inst) == want

    def test_cardinality_closed_form_equals_enumeration(self):
        inst = build_instance("hard-cardinality", {"n": 9, "K": 3, "h": 4}, 6)
        _, enumerated = brute_force_optimum(inst.fn, inst.matroid)
        assert exact_optimum(inst) == enumerated


class TestRunExperiment:
    def test_reports_are_byte_identical(self):
        inst = build_instance("hard-matroid", {"K": 2, "m": 3}, 5)
        a = report_to_json(run_experiment(inst, "branching", "1/10", trials=4))
        b = report_to_json(run_experiment(inst, "branching", "1/10", trials=4))
        assert a == b

    def test_hard_matroid_driver_min_ratio(self):
        inst = build_instance("hard-matroid", {"K": 3, "m": 4}, 9)
        report = run_experiment(inst, "branching", "1/20", trials=20)
        assert report["aggregates"]["min_ratio"] >= 3 / 5 - 0.1
        assert report["aggregates"]["all_feasible"]
        assert report["aggregates"]["total_violations"] == 0

    def test_offline_greedy_hits_cardinality_optimum(self):
        inst = build_instance("hard-cardinality", {"n": 40, "K": 4, "h": 4}, 3)
        report = run_experiment(inst, "greedy", policy="strong", trials=2)
        assert report["aggregates"]["max_value"] == 31
        assert report["aggregates"]["min_ratio"] == 1.0

    @pytest.mark.parametrize("algorithm", ["branching", "sieve", "greedy"])
    def test_one_brute_force_per_experiment(self, monkeypatch, algorithm):
        import streamsub.harness as harness
        calls = []

        def counting(fn, matroid):
            calls.append(fn)
            return brute_force_optimum(fn, matroid)
        monkeypatch.setattr(harness, "brute_force_optimum", counting)
        inst = build_instance("coverage", {"n": 7, "K": 2}, 4)
        report = run_experiment(inst, algorithm, trials=3)
        assert len(calls) == 1
        assert report["aggregates"]["optimum"] == brute_force_optimum(
            calls[0], UniformMatroid(7, 2))[1]

    def test_trial_fields(self):
        inst = build_instance("coverage", {"n": 6, "K": 2}, 2)
        trial = run_trial(inst, "sieve", Fraction(1, 5), 7, exact_optimum(inst))
        assert trial.feasible
        assert trial.value == inst.fn.value(trial.solution)
        assert trial.violations == 0

    def test_branching_complies_under_element_store(self):
        inst = build_instance("hard-matroid", {"K": 2, "m": 3}, 4)
        trial = run_trial(inst, "branching", Fraction(1, 10), 5, exact_optimum(inst),
                          policy_kind="element-store")
        assert trial.violations == 0
        assert trial.feasible

    def test_greedy_rejects_element_store(self):
        from streamsub.errors import InvalidParams
        inst = build_instance("coverage", {"n": 6, "K": 2}, 2)
        with pytest.raises(InvalidParams):
            run_trial(inst, "greedy", Fraction(1, 5), 7, exact_optimum(inst),
                      policy_kind="element-store")


class TestMemoDifferential:
    """The guess driver gives the same results and the same accounting with
    the memoizing gate as with a gate that evaluates every query."""

    @staticmethod
    def drive(gate_cls, instance, constraint, stream):
        audit = OracleAudit(record_log=True)
        policy = WeakPolicy(instance.matroid)
        gate = gate_cls(instance.fn, policy, audit)
        driver = GuessDriver(gate, instance.matroid, Fraction(1, 10), constraint)
        solution, value = stream_run(driver, stream, gate)
        assert instance.matroid.is_independent(solution)
        return {"solution": solution, "value": value,
                "query_count": audit.query_count, "max_stored": audit.max_stored,
                "branches_spawned": driver.branches_spawned,
                "roots_spawned": driver.roots_spawned, "v_used": driver.champion_v,
                "violations": len(audit.rejected), "log": audit.log,
                "rejected": audit.rejected}, audit

    def check(self, instance, constraint, stream):
        got, audit = self.drive(QueryGate, instance, constraint, stream)
        want, _ = self.drive(PlainGate, instance, constraint, stream)
        assert got == want
        assert audit.oracle_calls <= audit.query_count

    @pytest.mark.parametrize("stream_seed", range(3))
    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_hard_cardinality(self, K, stream_seed):
        inst = CardHardInstance(CardHardParams(3 * K, K, K), 77)
        stream = sample_stream(inst, "purple-last", stream_seed)
        self.check(inst, "cardinality", stream)

    @pytest.mark.parametrize("seed", range(12))
    def test_coverage(self, seed):
        inst = CoverageInstance(8, 12, (seed % 3) + 1, seed)
        stream = sample_stream(inst, "uniform", seed)
        self.check(inst, "cardinality", stream)
        self.check(inst, "matroid", stream)


def ask(gate, subset):
    """The gate's answer, or None when the policy refuses the query."""
    try:
        return gate.value(subset)
    except PolicyViolation:
        return None


class Forgetful:
    """Toy streaming algorithm whose queries the element-store policy
    accepts at one step and refuses at a later one: it keeps each element
    for two steps only. At each step it asks for {e}, twice for
    {first}, for {e, first} and twice for {prev, e}, where e is the
    arrival, first the stream's first element and prev the previous
    arrival."""

    def __init__(self, gate):
        self.gate = gate
        self.kept = {}
        self.first = None
        self.prev = None
        self.answers = []

    def step(self, t, e):
        if self.first is None:
            self.first = e
        asks = [{e}, {self.first}, {self.first}, {e, self.first}]
        if self.prev is not None:
            asks += [{self.prev, e}, {self.prev, e}]
        self.answers += [ask(self.gate, s) for s in asks]
        self.kept = {x: u for x, u in self.kept.items() if u > t - 2}
        self.kept[e] = t
        self.prev = e

    def stored_set(self):
        return frozenset(self.kept)

    def footprint(self):
        return len(self.kept)

    def finish(self):
        return self.answers, ask(self.gate, {self.first})


class TestQueryLogDifferential:
    """Under the element-store policy, where a set's verdict changes from
    step to step, the memoizing gate logs and refuses exactly the queries
    the memo-free gate does, in the same order."""

    @staticmethod
    def drive(gate_cls, instance, make_alg, stream):
        audit = OracleAudit(record_log=True)
        gate = gate_cls(instance.fn, ElementStorePolicy(), audit)
        result = stream_run(make_alg(gate, instance.matroid), stream, gate)
        return {"result": result, "query_count": audit.query_count,
                "max_stored": audit.max_stored, "log": audit.log,
                "rejected": audit.rejected}

    def check(self, instance, make_alg, stream):
        got = self.drive(QueryGate, instance, make_alg, stream)
        want = self.drive(PlainGate, instance, make_alg, stream)
        assert got == want
        return got

    @pytest.mark.parametrize("stream_seed", range(3))
    @pytest.mark.parametrize("m", [3, 4])
    def test_sieve_and_store_everything(self, m, stream_seed):
        inst = MatHardInstance(MatHardParams(3, m), 5)
        stream = sample_stream(inst, "class-blocks", stream_seed)
        for make_alg in (lambda gate, matroid: SieveStreaming(gate, matroid, "2/5"),
                         StoreEverything):
            got = self.check(inst, make_alg, stream)
            assert got["rejected"] == []
            assert got["log"]

    @pytest.mark.parametrize("stream_seed", range(3))
    def test_refused_queries(self, stream_seed):
        inst = MatHardInstance(MatHardParams(3, 4), 5)
        stream = sample_stream(inst, "class-blocks", stream_seed)
        got = self.check(inst, lambda gate, matroid: Forgetful(gate), stream)
        assert got["rejected"] and got["log"]

    def test_finish_after_drop_is_refused(self):
        # {0} is accepted at step 1 while 0 is stored; the algorithm then
        # drops 0, and the same query from finish() is checked against the
        # final window, not answered from step 1's memo
        class AskDropAsk:
            def __init__(self, gate):
                self.gate = gate
                self.kept = set()

            def step(self, t, e):
                if t == 1:
                    assert ask(self.gate, {0}) == 1
                    self.kept.discard(0)
                self.kept.add(e)

            def stored_set(self):
                return frozenset(self.kept)

            def footprint(self):
                return len(self.kept)

            def finish(self):
                return ask(self.gate, {0})

        audit = OracleAudit()
        gate = QueryGate(additive([1, 1]), ElementStorePolicy(), audit)
        assert stream_run(AskDropAsk(gate), [0, 1], gate) is None
        assert [subset for subset, _ in audit.rejected] == [frozenset({0})]
        assert audit.query_count == 1


class TestWilson:
    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(5, 50)
        assert lo <= 0.1 <= hi
        assert 0.0 <= lo < hi <= 1.0

    def test_shrinks_with_n(self):
        lo1, hi1 = wilson_interval(5, 50)
        lo2, hi2 = wilson_interval(50, 500)
        assert hi2 - lo2 < hi1 - lo1


class TestCanonicalAudit:
    def test_store_everything_always_deviates_and_hits_optimum(self):
        inst = build_instance("hard-cardinality", {"n": 8, "K": 3, "h": 3}, 1)
        report = canonical_audit(inst, "store-everything", trials=20, seed=2)
        assert report["deviation_freq"] == 1.0
        assert report["max_value"] == inst.optimal_value
        assert report["exceed_freq"] > 0

    def test_sieve_on_hard_matroid_stays_at_bound(self):
        inst = MatHardInstance(MatHardParams(3, 40), 6)
        report = canonical_audit(inst, "sieve", trials=40, seed=3, eps="2/5",
                                 budget=20)
        assert report["within_budget"]
        assert report["mean_ratio"] <= 3 / 5 + 0.05
        assert report["exceed_freq"] <= 0.1
        lo, hi = report["deviation_ci95"]
        assert 0.0 <= lo <= report["deviation_freq"] <= hi <= 1.0

    def test_sieve_on_hard_cardinality_rarely_beats_bound(self):
        # bounded-memory threshold streaming on the cardinality family:
        # values above the reachable bound need a hoarded red, which the
        # O(K^2 s / n) band makes rare at this scale
        inst = build_instance("hard-cardinality", {"n": 600, "K": 3, "h": 3}, 5)
        report = canonical_audit(inst, "sieve", trials=50, seed=7, eps="2/5",
                                 budget=20)
        assert report["within_budget"]
        assert report["exceed_freq"] <= 0.15
        assert report["max_value"] <= inst.optimal_value

    def test_deviation_decreases_as_m_grows(self):
        # qualitative trend at fixed budget: frequencies cannot grow
        # noticeably when the class size doubles
        freqs = {}
        for m in (30, 120):
            inst = MatHardInstance(MatHardParams(3, m), 8)
            rep = canonical_audit(inst, "sieve", trials=60, seed=4, eps="2/5")
            freqs[m] = (rep["deviation_freq"], rep["deviation_ci95"])
        f_small, ci_small = freqs[30]
        f_big, ci_big = freqs[120]
        assert f_big <= max(f_small, ci_small[1]) + 0.05
