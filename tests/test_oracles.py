from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsub.coverage import CoverageFunction, CoverageInstance
from streamsub.errors import GroundSetTooLarge, PolicyViolation, UnknownElement
from streamsub.hard_matroid import MatHardInstance, MatHardParams
from streamsub.hard_cardinality import (CardHardInstance, CardHardParams, blue_marginal,
                                        profile_value)
from streamsub.harness import stream_run
from streamsub.matroids import UniformMatroid
from streamsub.oracles import (ElementStorePolicy, OracleAudit, QueryGate,
                               Residual, SetFunction, StrongPolicy, WeakPolicy,
                               additive, verify_monotone_submodular)
from conftest import random_function, random_monotone_function
from _reference import SetUnionCoverage, verify_by_pairs


def card_instance(n=8, K=3, h=3, seed=1):
    return CardHardInstance(CardHardParams(n, K, h), seed)


class TestArgumentForms:
    """``SetFunction.value`` hands its argument to the function as it is,
    and every package set function gives one value on a tuple, a list, a
    frozenset, a range and a generator of the same distinct ids, in any
    order."""

    FUNCTIONS = {
        "coverage": CoverageInstance(20, 48, 4, 7).fn,
        "additive": additive([5, 0, 3, 8, 1, 9, 2, 7, 4, 6, 3, 1]),
        "hard-cardinality": card_instance(n=16, K=4, h=4).fn,
        "hard-matroid": MatHardInstance(MatHardParams(4, 5), 3).fn,
    }

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(FUNCTIONS)), data=st.data())
    def test_every_form_gives_one_value(self, kind, data):
        fn = self.FUNCTIONS[kind]
        start = data.draw(st.integers(0, fn.n))
        ids = data.draw(st.one_of(
            st.builds(range, st.just(start), st.integers(start, fn.n), st.integers(1, 4)),
            st.lists(st.integers(0, fn.n - 1), unique=True)))
        order = data.draw(st.permutations(list(ids)))
        forms = [tuple(order), list(order), frozenset(order), (e for e in order)]
        if isinstance(ids, range):
            forms.append(ids)
        want = QueryGate(fn).value(ids)
        assert [fn.value(form) for form in forms] == [want] * len(forms)


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
            nested = nested.extend(e, nested.value({e}))
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


class DropAtLastCommit:
    """Toy streaming algorithm over the stream 0..n-1: each step asks for
    its stored set plus the arrival and then stores the arrival, except
    the last, which stores nothing and drops element 0. ``finish`` asks
    for ``query``."""

    def __init__(self, gate, n, query):
        self.gate, self.n, self.query = gate, n, frozenset(query)
        self.kept = set()

    def step(self, t, e):
        assert self.gate.value(self.kept | {e}) == len(self.kept) + 1
        if t < self.n - 1:
            self.kept.add(e)
        else:
            self.kept.discard(0)

    def stored_set(self):
        return frozenset(self.kept)

    def footprint(self):
        return len(self.kept)

    def finish(self):
        try:
            return self.gate.value(self.query)
        except PolicyViolation:
            return None


class TestElementStoreWindow:
    """``ElementStorePolicy``'s verdicts are those of the stored set
    joined with the arrival at the time of each check, also for the checks
    of ``finish``, after the last commit."""

    SUBSETS = st.frozensets(st.integers(0, 6), max_size=4)

    @settings(max_examples=300, deadline=None)
    @given(calls=st.lists(st.one_of(
        st.tuples(st.just("commit"), SUBSETS),
        st.tuples(st.just("begin_step"), st.integers(0, 6)),
        st.tuples(st.just("check"), SUBSETS)), max_size=30),
        last=SUBSETS, final=st.lists(SUBSETS, max_size=4))
    def test_verdicts_match_union_at_check(self, calls, last, final):
        """Any sequence of calls, then a last commit and the checks of a
        ``finish`` after it."""
        policy = ElementStorePolicy()
        stored, arrival = frozenset(), None
        for call, arg in [*calls, ("commit", last), *[("check", s) for s in final]]:
            if call == "commit":
                policy.commit(list(arg))
                stored = arg
            elif call == "begin_step":
                policy.begin_step(arg)
                arrival = arg
            else:
                window = stored if arrival is None else stored | {arrival}
                want = None if arg <= window else "query outside stored set plus current arrival"
                assert policy.check(arg) == want

    def test_check_before_any_step(self):
        policy = ElementStorePolicy()
        assert policy.check(frozenset()) is None
        assert policy.check(frozenset({0})) is not None
        policy.commit({0, 1})
        assert policy.check(frozenset({0, 1})) is None
        assert policy.check(frozenset({2})) is not None
        policy.begin_step(2)
        assert policy.check(frozenset({0, 2})) is None
        policy.commit({0})
        assert policy.check(frozenset({0, 2})) is None
        assert policy.check(frozenset({1})) is not None

    @pytest.mark.parametrize("query, refused", [({0}, True), ({1, 2, 3}, False)])
    def test_finish_checks_the_last_commit(self, query, refused):
        """Element 0 is dropped at the last commit, so ``finish`` may not
        ask for it; the final stored set {1, 2} plus the last arrival 3 it
        may."""
        audit = OracleAudit()
        gate = QueryGate(additive([1] * 4), ElementStorePolicy(), audit)
        result = stream_run(DropAtLastCommit(gate, 4, query), range(4), gate)
        assert [subset for subset, _ in audit.rejected] == ([frozenset(query)] if refused else [])
        assert result == (None if refused else 3)


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


class TestReplay:
    """``QueryGate.replay`` only counts and logs: it adds the queries a
    branch tree asked with ``times`` 0 to the count and the log as the
    per-call loop ``value(subset, times)`` would, and evaluates and checks
    nothing again, inside a stream step or outside one. The ask is where
    every check runs: a refused subset raises there, is recorded once and
    is never counted."""

    ASKED = [(frozenset({0}), 1), (frozenset({0, 1}), 3), (frozenset(), 2), (frozenset({0}), 1)]

    @staticmethod
    def gate(policy=None, step=4):
        return QueryGate(SetFunction(3, len), policy, OracleAudit(step=step, record_log=True))

    @staticmethod
    def summary(gate):
        audit = gate.audit
        return audit.query_count, audit.log, audit.rejected

    @staticmethod
    def replay(gate, asked, repeats):
        # `repeats` guesses that each asked every pair
        gate.replay(repeats * sum(times for _, times in asked), lambda: asked * repeats)

    @pytest.mark.parametrize("step", [4, -1])
    @pytest.mark.parametrize("repeats", [0, 1, 3])
    def test_matches_the_per_call_loop(self, step, repeats):
        got, want = self.gate(step=step), self.gate(step=step)
        for gate in (got, want):
            for subset, times in self.ASKED:
                gate.value(subset, times)
        self.replay(got, self.ASKED, repeats)
        for _ in range(repeats):
            for subset, times in self.ASKED:
                want.value(subset, times)
        assert self.summary(got) == self.summary(want)
        assert got.audit.query_count == 7 * (1 + repeats)
        # outside a stream no memo answers the loop; replay evaluates nothing
        assert got.audit.oracle_calls == (3 if step >= 0 else 4)
        assert want.audit.oracle_calls == (3 if step >= 0 else 4 * (1 + repeats))

    def test_outside_a_stream_a_refusal_raises(self):
        """At the ask, which no memo answers outside a stream."""
        policy = ElementStorePolicy()
        policy.commit({0, 1})
        gate = self.gate(policy, step=-1)
        gate.value({0, 1})
        policy.commit({0})
        with pytest.raises(PolicyViolation):
            gate.value(frozenset({0, 1}), 0)
        assert gate.audit.rejected == [
            (frozenset({0, 1}), "query outside stored set plus current arrival")]
        assert gate.audit.query_count == 1 and gate.audit.oracle_calls == 1

    def test_an_unanswered_subset_is_checked(self):
        """A subset the step has not answered is checked at its ask: a
        refused one raises there, before anything of the step is counted,
        and is recorded once."""
        gate = self.gate(WeakPolicy(UniformMatroid(3, 1)))
        gate.value({0}, 0)
        with pytest.raises(PolicyViolation):
            gate.value(frozenset({0, 1}), 0)
        assert gate.audit.rejected == [(frozenset({0, 1}), "infeasible set under weak oracle")]
        assert gate.audit.query_count == 0 and gate.audit.log == []

    @pytest.mark.parametrize("record_log", [True, False])
    @pytest.mark.parametrize("repeats", [0, 1, 3])
    @pytest.mark.parametrize("extra", [None, "missing", "refused"])
    @pytest.mark.parametrize("step_mode", ["same", "moved", "outside"])
    def test_differs_from_the_value_loop_in_nothing(self, step_mode, extra, repeats,
                                                    record_log):
        """A branch tree's pattern: each subset is asked with ``times`` 0,
        then the step's pairs, a ``times`` of 0 among them, are counted by
        ``replay`` once per guess (``repeats``). Against asks followed by
        the per-call loop, the count, the log and the refusals are the
        same, and replay adds no evaluation, also when the step has moved
        on since the asks or is -1 (outside a stream). ``extra`` adds a
        subset asked only after the step moved, or one the element-store
        window refuses, which raises at its ask."""
        answered = self.ASKED + [(frozenset({1}), 0)]
        late = {None: [], "missing": [(frozenset({1, 2}), 2)],
                "refused": [(frozenset({3}), 1)]}[extra]
        got, want = (self.store_gate(step_mode, record_log) for _ in range(2))
        outcomes = []
        for gate, count in ((got, lambda: self.replay(got, answered + late, repeats)),
                            (want, lambda: self.per_call(want, answered + late, repeats))):
            for subset, _ in answered:
                gate.value(subset, 0)
            if step_mode == "moved":
                gate.audit.step = 5
            try:
                for subset, _ in late:
                    gate.value(subset, 0)
                asks = gate.audit.oracle_calls
                count()
                outcomes.append(None)
            except PolicyViolation as refusal:
                outcomes.append(refusal.args)
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is not None) == (extra == "refused")
        assert self.summary(got) == self.summary(want)
        if outcomes[0] is None:
            assert got.audit.oracle_calls == asks
        # a refusal at the ask counts nothing
        rounds = 0 if extra == "refused" else repeats
        assert got.audit.query_count == (7 + 2 * (extra == "missing")) * rounds

    @staticmethod
    def per_call(gate, asked, repeats):
        for _ in range(repeats):
            for subset, times in asked:
                gate.value(subset, times)

    @staticmethod
    def store_gate(step_mode, record_log):
        # the window is {0, 1, 2}: ids 0 and 1 stored, 2 arriving
        policy = ElementStorePolicy()
        policy.commit({0, 1})
        policy.begin_step(2)
        audit = OracleAudit(step=-1 if step_mode == "outside" else 4, record_log=record_log)
        return QueryGate(SetFunction(4, len), policy, audit)

    def test_times_zero_counts_and_logs_nothing(self):
        gate = self.gate()
        assert gate.value({0, 1}, 0) == 2
        assert gate.value({0, 1}, 0) == 2
        audit = gate.audit
        assert audit.query_count == 0 and audit.log == [] and audit.oracle_calls == 1


class TestGroundSet:
    """Ids outside 0..n-1 raise before any policy sees them, inside and
    outside a stream step, and leave no trace in the audit. The gate is
    the only check: a coverage function's own ``value`` trusts its ids."""

    @staticmethod
    def gate(policy_kind, step, instance=None):
        inst = instance or MatHardInstance(MatHardParams(2, 3), 0)
        policy = {"strong": StrongPolicy(), "weak": WeakPolicy(inst.matroid),
                  "element-store": ElementStorePolicy()}[policy_kind]
        if policy_kind == "element-store":
            policy.begin_step(0)
        return QueryGate(inst.fn, policy, OracleAudit(step=step))

    @pytest.mark.parametrize("step", [-1, 0])
    @pytest.mark.parametrize("policy_kind", ["strong", "weak", "element-store"])
    @pytest.mark.parametrize("ids", ["minus_one", "n", "n_with_valid"])
    def test_outside_ids_raise(self, ids, policy_kind, step):
        coverage = SimpleNamespace(fn=CoverageFunction([{1}, {2, 3}, {3}]),
                                   matroid=UniformMatroid(3, 2))
        for gate in (self.gate(policy_kind, step), self.gate(policy_kind, step, coverage)):
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


# negative ints, strings, and ints past one 64-bit machine word
POINTS = st.one_of(st.integers(-40, 200), st.text(max_size=2))


class TestCoverageDifferential:
    """The bitmask coverage function agrees with the frozenset union on
    any hashable points, and gives each distinct point one bit."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_set_union(self, data):
        sets = data.draw(st.lists(st.sets(POINTS, max_size=12), min_size=1, max_size=8))
        fn, ref = CoverageFunction(sets), SetUnionCoverage(sets)
        assert fn.n == ref.n == len(sets)
        distinct = set().union(*sets)
        assert all(mask.bit_length() <= len(distinct) for mask in fn.masks)
        for _ in range(6):
            ids = data.draw(st.lists(st.integers(0, fn.n - 1), max_size=fn.n + 2))
            subset = data.draw(st.sampled_from([frozenset, tuple, list]))(ids)
            assert fn.value(subset) == ref.value(subset)
        assert fn.value(range(fn.n)) == len(distinct)
