from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub.errors import GroundSetTooLarge, PolicyViolation, UnknownElement
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.hard_cardinality import (CardHardInstance, CardHardParams, blue_marginal,
                                        profile_value)
from streamsub.matroids import UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate,
                               Residual, SetFunction, StrongPolicy, WeakPolicy,
                               additive, verify_monotone_submodular)
from conftest import random_function, random_monotone_function
from _reference import verify_by_pairs


def card_instance(n=8, K=3, h=3, seed=1):
    return CardHardInstance(CardHardParams(n, K, h), seed)


class TestEvaluate:
    def test_strong_allows_everything_and_counts(self):
        f = additive({0: 3, 1: 2})
        audit = OracleAudit()
        assert QueryGate(f, StrongPolicy(), audit).value({0, 1}) == 5
        assert audit.query_count == 1
        assert audit.compliant

    def test_weak_rejects_infeasible_without_revealing(self):
        f = additive({0: 1, 1: 1, 2: 1})
        audit = OracleAudit()
        policy = WeakPolicy(UniformMatroid(3, 2))
        with pytest.raises(PolicyViolation):
            QueryGate(f, policy, audit).value({0, 1, 2})
        assert audit.query_count == 0
        assert len(audit.rejected) == 1
        assert QueryGate(f, policy, audit).value({0, 1}) == 2

    def test_element_store_window(self):
        f = additive({0: 1, 1: 1, 2: 1, 3: 1})
        audit = OracleAudit()
        policy = ElementStorePolicy()
        policy.commit({0, 1})
        policy.begin_step(2)
        assert QueryGate(f, policy, audit).value({0, 2}) == 2
        with pytest.raises(PolicyViolation):
            QueryGate(f, policy, audit).value({0, 3})
        assert [r[0] for r in audit.rejected] == [frozenset({0, 3})]

    def test_require_raises(self):
        f = additive({0: 1})
        gate = QueryGate(f, WeakPolicy(UniformMatroid(1, 0)))
        with pytest.raises(PolicyViolation):
            gate.value({0})


class TestMarginal:
    def test_hard_cardinality_red_on_blues(self):
        inst = card_instance(n=14, K=4, h=4)
        blues = sorted(inst.blue_ids)[:4]
        red = next(iter(inst.red_ids))
        assert inst.fn.value({red, *blues}) - inst.fn.value(blues) == 3


class TestRestrict:
    def test_empty_pin_is_identity(self):
        f = additive({0: 3, 1: 2, 2: 1})
        r = Residual(QueryGate(f), frozenset())
        for mask in range(8):
            s = {e for e in range(3) if mask >> e & 1}
            assert r.value(s) == f.value(s)

    def test_nesting_equals_union_pin_exhaustive(self, rng):
        f = random_monotone_function(6, rng)
        gate = QueryGate(f)
        s1, s2 = {0, 3}, {1, 3, 5}
        nested = Residual(gate, s1)
        for e in sorted(s2 - s1):
            nested = nested.extend(e, nested.singleton(e))
        flat = Residual(gate, s1 | s2)
        for mask in range(1 << 6):
            s = frozenset(e for e in range(6) if mask >> e & 1)
            assert nested.value(s) == flat.value(s)

    def test_hard_instance_blue_residual(self):
        inst = card_instance()
        params = inst.params
        one_blue = next(iter(inst.blue_ids))
        other_blue = next(b for b in inst.blue_ids if b != one_blue)
        res = Residual(QueryGate(inst.fn), {one_blue})
        assert res.value({other_blue}) == blue_marginal(params, 1, 0)

    def test_one_base_query_per_restriction(self):
        audit = OracleAudit()
        gate = QueryGate(additive({0: 1, 1: 2}), audit=audit)
        Residual(gate, {0})
        assert audit.query_count == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8))
    def test_residual_correctness_property(self, data, n):
        seed = data.draw(st.integers(0, 10 ** 6))
        import random as _random
        f = random_monotone_function(n, _random.Random(seed))
        pin = data.draw(st.sets(st.integers(0, n - 1)))
        t = data.draw(st.sets(st.integers(0, n - 1)))
        res = Residual(QueryGate(f), pin)
        assert res.value(t) == f.value(set(t) | set(pin)) - f.value(pin)


class TestVerifyStructure:
    def test_additive_ok(self):
        assert verify_monotone_submodular(additive([1, 2, 3])).ok

    def test_square_cardinality_witness(self):
        f = SetFunction(3, lambda s: len(s) ** 2, name="size-squared")
        report = verify_monotone_submodular(f)
        assert not report.ok
        assert report.kind == "submodularity"

    def test_hard_cardinality_instance_ok(self):
        inst = card_instance(n=8, K=3, h=3)
        assert verify_monotone_submodular(inst.fn).ok

    def test_limit_enforced(self):
        f = additive([1] * 15)
        with pytest.raises(GroundSetTooLarge):
            verify_monotone_submodular(f)

    def test_checkers_agree_on_random_functions(self, rng):
        agree = 0
        for trial in range(50):
            n = rng.randrange(2, 7)
            f = (random_monotone_function(n, rng) if trial % 2
                 else random_function(n, rng))
            a = verify_monotone_submodular(f)
            b = verify_by_pairs(f)
            assert a.ok == b.ok
            agree += 1
        assert agree == 50


class TestElementStoreReplay:
    def test_query_log_stays_inside_windows(self):
        # replay a recorded sieve run against its stored-set history
        from streamsub.baselines import SieveStreaming
        from streamsub.harness import stream_run
        from streamsub.samplers import sample_stream

        inst = card_instance(n=10, K=3, h=3)
        stream = sample_stream(inst, "purple-last", 5)
        audit = OracleAudit(record_log=True)
        history = []
        watcher = SimpleNamespace(before=lambda t, e: None,
                                  after=lambda t, e, stored: history.append(stored))
        gate = QueryGate(inst.fn, ElementStorePolicy(), audit)
        alg = SieveStreaming(gate, inst.matroid, "2/5")
        solution, _ = stream_run(alg, stream, gate, watcher)
        assert inst.matroid.is_independent(solution)
        assert audit.compliant
        for step, subset in audit.log:
            stored_before = history[step - 1] if step >= 1 else frozenset()
            window = stored_before | {stream[step]}
            assert subset <= window


class TestStepMemo:
    @staticmethod
    def counting_gate(policy=None, step=0, record_log=False):
        calls = []

        def fn(s):
            calls.append(s)
            return len(s)
        audit = OracleAudit(step=step, record_log=record_log)
        return QueryGate(SetFunction(3, fn), policy, audit), calls

    def test_infeasible_repeat_is_refused_each_time(self):
        gate, calls = self.counting_gate(WeakPolicy(UniformMatroid(3, 2)))
        for _ in range(2):
            with pytest.raises(PolicyViolation):
                gate.value({0, 1, 2})
        assert len(gate.audit.rejected) == 2
        assert gate.audit.query_count == 0 and gate.audit.oracle_calls == 0
        assert calls == []

    def test_feasible_repeat_evaluates_once(self):
        gate, calls = self.counting_gate(record_log=True)
        assert gate.value({0, 1}) == 2
        assert gate.value([1, 0]) == 2
        assert gate.audit.query_count == 2
        assert gate.audit.oracle_calls == 1 and len(calls) == 1
        assert gate.audit.log == [(0, frozenset({0, 1}))] * 2

    def test_new_step_evaluates_again(self):
        gate, calls = self.counting_gate()
        gate.value({2})
        gate.audit.step = 1
        gate.value({2})
        gate.value({2})
        assert gate.audit.query_count == 3
        assert gate.audit.oracle_calls == 2 and len(calls) == 2

    def test_weak_policy_checks_each_query_once_per_step(self):
        checks = []

        class CountingWeak(WeakPolicy):
            def check(self, subset):
                checks.append(subset)
                return super().check(subset)

        gate, calls = self.counting_gate(CountingWeak(UniformMatroid(3, 2)))
        gate.value({0, 1})
        gate.value({1, 0})
        assert checks == [frozenset({0, 1})]
        gate.audit.step = 1
        gate.value({0, 1})
        gate.value({0, 1})
        assert checks == [frozenset({0, 1})] * 2
        assert gate.audit.query_count == 4 and len(calls) == 2

    def test_nothing_memoized_outside_a_stream(self):
        gate, calls = self.counting_gate(step=-1)
        gate.value({0})
        gate.value({0})
        assert gate.audit.query_count == 2
        assert gate.audit.oracle_calls == 2 and len(calls) == 2


class TestGroundSet:
    """Ids outside 0..n-1 raise before any policy sees them, inside and
    outside a stream step, and leave no trace in the audit."""

    @staticmethod
    def gate(policy_kind, step):
        inst = MatHardInstance(MatHardParams(2, 3), 0)
        policy = {"strong": StrongPolicy(), "weak": WeakPolicy(inst.matroid),
                  "element-store": ElementStorePolicy()}[policy_kind]
        if policy_kind == "element-store":
            policy.begin_step(0)
        return QueryGate(inst.fn, policy, OracleAudit(step=step))

    @pytest.mark.parametrize("step", [-1, 0])
    @pytest.mark.parametrize("policy_kind", ["strong", "weak", "element-store"])
    @pytest.mark.parametrize("ids", ["minus_one", "n", "n_with_valid"])
    def test_outside_ids_raise(self, ids, policy_kind, step):
        gate = self.gate(policy_kind, step)
        n = gate.n
        subset = {"minus_one": {-1}, "n": {n}, "n_with_valid": {0, n}}[ids]
        assert gate.value({0}) is not None
        with pytest.raises(UnknownElement, match="outside the ground set"):
            gate.value(subset)
        with pytest.raises(UnknownElement):
            gate.value(subset)
        audit = gate.audit
        assert audit.rejected == []
        assert audit.query_count == 1 and audit.oracle_calls == 1

    def test_memo_hit_answers_without_error(self):
        gate = self.gate("weak", 0)
        assert gate.value({0}) == gate.value({0})
        assert gate.audit.query_count == 2 and gate.audit.oracle_calls == 1
        with pytest.raises(UnknownElement):
            gate.value({gate.n})
