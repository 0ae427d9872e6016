from fractions import Fraction

import pytest

from streamsub.baselines import brute_force_optimum
from streamsub.branching import GuessDriver
from streamsub.coverage import random_coverage
from streamsub.hard_cardinality import CardHardParams
from streamsub.hard_cardinality import instantiate as card_instantiate
from streamsub.harness import (ExperimentConfig, build_instance,
                               canonical_audit, exact_optimum,
                               instance_from_json, instance_to_json,
                               report_to_json, run_experiment, run_trial,
                               stream_run, wilson_interval)
from streamsub.hard_matroid import MatHardParams
from streamsub.hard_matroid import instantiate as mat_instantiate
from streamsub.matroids import UniformMatroid
from streamsub.oracles import OracleAudit, QueryGate, WeakPolicy
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
        config = ExperimentConfig(kind="hard-matroid", params={"K": 2, "m": 3},
                                  algorithm="branching", epsilon="1/10",
                                  trials=4, seed=5)
        a = report_to_json(run_experiment(config))
        b = report_to_json(run_experiment(config))
        assert a == b

    def test_hard_matroid_driver_min_ratio(self):
        config = ExperimentConfig(kind="hard-matroid", params={"K": 3, "m": 4},
                                  algorithm="branching", epsilon="1/20",
                                  trials=20, seed=9)
        report = run_experiment(config)
        assert report["aggregates"]["min_ratio"] >= 3 / 5 - 0.1
        assert report["aggregates"]["all_feasible"]
        assert report["aggregates"]["total_violations"] == 0

    def test_offline_greedy_hits_cardinality_optimum(self):
        config = ExperimentConfig(kind="hard-cardinality",
                                  params={"n": 40, "K": 4, "h": 4},
                                  algorithm="greedy", policy="strong",
                                  trials=2, seed=3)
        report = run_experiment(config)
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
        config = ExperimentConfig(kind="coverage", params={"n": 7, "K": 2},
                                  algorithm=algorithm, trials=3, seed=4)
        report = run_experiment(config)
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
        audit = OracleAudit()
        policy = WeakPolicy(instance.matroid)
        gate = gate_cls(instance.fn, policy, audit)
        driver = GuessDriver(gate, instance.matroid, Fraction(1, 10), constraint)
        solution, value = stream_run(driver, stream, gate)
        assert instance.matroid.is_independent(solution)
        return {"solution": solution, "value": value,
                "query_count": audit.query_count, "max_stored": audit.max_stored,
                "branches_spawned": driver.branches_spawned,
                "roots_spawned": driver.roots_spawned, "v_used": driver.champion_v,
                "violations": len(audit.rejected)}, audit

    def check(self, instance, constraint, stream):
        got, audit = self.drive(QueryGate, instance, constraint, stream)
        want, _ = self.drive(PlainGate, instance, constraint, stream)
        assert got == want
        assert audit.oracle_calls <= audit.query_count

    @pytest.mark.parametrize("stream_seed", range(3))
    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_hard_cardinality(self, K, stream_seed):
        inst = card_instantiate(CardHardParams(3 * K, K, K), 77)
        stream = sample_stream(inst, "purple-last", stream_seed).ordering
        self.check(inst, "cardinality", stream)

    @pytest.mark.parametrize("seed", range(12))
    def test_coverage(self, seed):
        inst = random_coverage(8, 12, (seed % 3) + 1, seed)
        stream = sample_stream(inst, "uniform", seed).ordering
        self.check(inst, "cardinality", stream)
        self.check(inst, "matroid", stream)


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
        inst = mat_instantiate(MatHardParams(3, 40), 6)
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
            inst = mat_instantiate(MatHardParams(3, m), 8)
            rep = canonical_audit(inst, "sieve", trials=60, seed=4, eps="2/5")
            freqs[m] = (rep["deviation_freq"], rep["deviation_ci95"])
        f_small, ci_small = freqs[30]
        f_big, ci_big = freqs[120]
        assert f_big <= max(f_small, ci_small[1]) + 0.05
