"""Exact set-function oracles, access-policy control, and residual views.

Ground sets are ``{0, ..., n-1}``. A :class:`SetFunction` receives the
caller's iterable of distinct ids as it is; only the gate normalizes a
query to a frozenset. All function values are exact integers (arbitrary
precision), so every threshold comparison and every table entry in the
library is bit-exact.

Three query policies are supported:

* strong   -- any subset may be queried;
* weak     -- only sets that are feasible for a given matroid;
* element-store -- only subsets of the currently stored elements plus
  the element arriving in the present stream step.

Queries are funneled through :meth:`QueryGate.value`, which enforces the
policy and keeps an :class:`OracleAudit` of query counts, peak storage
and refused queries. A refused query raises
:class:`~streamsub.errors.PolicyViolation` and never reveals the value;
an id outside ``{0, ..., n-1}`` raises
:class:`~streamsub.errors.UnknownElement` before any policy sees it.

The audit counts two things. ``query_count`` counts logical queries:
every query the policy accepted, each one logged. Inside a stream step
(``audit.step >= 0``) the gate answers a repeated query from a memo of
the values it has evaluated, before any check, until ``audit.step``
changes; ``oracle_calls`` counts the real evaluations of the function.
Outside a stream nothing is memoized.

A :class:`Residual` is the conditioned view ``g(T) = f(T | S) - f(S)``
that the branch trees query: it holds the pinned set ``S`` and the value
``f(S)``, and sends every query through a gate, so the policy checks see
each one. A branch tree asks with ``times`` 0, which runs every check and
raises any refusal but counts and logs nothing. It then counts its
step's queries with :meth:`QueryGate.replay`, which only adds to the
count and the log, inside a stream step or outside one, so no query is
evaluated twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import GroundSetTooLarge, PolicyViolation, UnknownElement


class SetFunction:
    """Deterministic exact-valued function on subsets of {0..n-1}.

    ``value(subset)`` hands ``subset`` to ``fn`` as it is, with no copy:
    an iterable of distinct ids in 0..n-1, such as one of brute force's
    sorted tuples or one of the gate's frozensets. A ``fn`` that reads
    its argument by iterating it once takes every such iterable; one that
    needs set operations must build its own set. ``value`` trusts its
    ids: a repeated one or one outside 0..n-1 may raise any error or give
    a wrong answer. Only :class:`QueryGate` checks them; brute force,
    greedy and the exhaustive checks pass distinct ids from range(n).
    """

    def __init__(self, n: int, fn: Callable[[Iterable[int]], int], name: str = ""):
        self.n = n
        self._fn = fn
        self.name = name

    def value(self, subset) -> int:
        return self._fn(subset)

    def __repr__(self):
        return f"SetFunction(n={self.n}, name={self.name!r})"


def additive(weights) -> SetFunction:
    """Modular function from per-element weights (dict or sequence)."""
    if isinstance(weights, dict):
        w = dict(weights)
        n = max(w, default=-1) + 1
    else:
        w = {i: v for i, v in enumerate(weights)}
        n = len(w)
    return SetFunction(n, lambda s: sum(w.get(e, 0) for e in s), name="additive")


# ---------------------------------------------------------------------------
# access policies and auditing


class AccessPolicy:
    """Base policy: every query is allowed."""

    def check(self, subset: frozenset) -> Optional[str]:
        """Return None when the query is allowed, else a refusal reason."""
        return None


class StrongPolicy(AccessPolicy):
    pass


class WeakPolicy(AccessPolicy):
    """Allows value queries on feasible (independent) sets only."""

    def __init__(self, matroid):
        self.matroid = matroid

    def check(self, subset):
        if self.matroid.is_independent(subset):
            return None
        return "infeasible set under weak oracle"


class ElementStorePolicy(AccessPolicy):
    """Allows queries only on subsets of stored elements plus the arrival.

    The running algorithm (or the harness driving it) must call
    :meth:`begin_step` when an element arrives and :meth:`commit` with its
    retained element set once the step is processed. Only the latest
    commit is kept; a ``stream_run`` watcher sees every step's stored set.
    Both calls update ``window``, the stored set plus the arrival, so
    :meth:`check` is one subset test.
    """

    def __init__(self):
        self.stored: frozenset = frozenset()
        self.arrival: Optional[int] = None
        self.window: frozenset = frozenset()

    def begin_step(self, element: int):
        self.arrival = element
        self.window = self.stored | {element}

    def commit(self, stored):
        self.stored = frozenset(stored)
        self.window = self.stored if self.arrival is None else self.stored | {self.arrival}

    def check(self, subset):
        if subset <= self.window:
            return None
        return "query outside stored set plus current arrival"


@dataclass
class OracleAudit:
    """Per-run accounting: query count, peak storage, refused queries.

    ``query_count`` counts accepted (policy-checked) queries and
    ``oracle_calls`` the evaluations of the function behind them; the two
    differ by the queries answered from the gate's per-step memo.
    ``max_stored`` is the peak of whatever storage figure the runner
    reports via :meth:`observe_stored` (for branch trees this is the
    element count summed over live branch state). ``rejected`` holds
    ``(subset, reason)`` pairs; an empty list means the run complied with
    its declared policy.
    """

    query_count: int = 0
    oracle_calls: int = 0
    max_stored: int = 0
    rejected: list = field(default_factory=list)
    record_log: bool = False
    log: list = field(default_factory=list)
    step: int = -1

    def observe_stored(self, count: int):
        if count > self.max_stored:
            self.max_stored = count

    @property
    def compliant(self) -> bool:
        return not self.rejected


class QueryGate:
    """Front door for every value query of one run; :meth:`value` is its
    one query method, and :meth:`replay` only counts what it answered. A
    refused query is recorded in ``audit.rejected`` and raised as
    :class:`PolicyViolation`, never revealing its value.

    Inside a stream step (``audit.step >= 0``) accepted values are memoized
    until the step changes, and the memo answers first: a hit only counts
    and logs the query, while the ground-set and policy checks and the
    evaluation run on a miss. Refusals are never memoized. This is sound
    because no verdict changes within a step: strong refuses nothing, weak
    reads only the set, and element-store changes only at ``begin_step``
    (after ``audit.step`` moves) and ``commit`` (after the algorithm's
    step). ``stream_run`` ends the last step before ``finish``.
    """

    def __init__(self, fn, policy: AccessPolicy | None = None, audit: OracleAudit | None = None):
        self.fn = fn
        self.policy = policy if policy is not None else StrongPolicy()
        self.audit = audit if audit is not None else OracleAudit()
        self._ground = frozenset(range(fn.n))
        self._memo: dict[frozenset, int] = {}
        self._memo_step = -1

    @property
    def n(self) -> int:
        return self.fn.n

    def value(self, subset, times: int = 1) -> int:
        """Gated query; raises PolicyViolation on a refusal and
        UnknownElement for an id outside the ground set. It answers
        ``times`` logical queries, each counted and logged, at one check."""
        subset = frozenset(subset)
        audit = self.audit
        step = audit.step
        # only steps >= 0 fill the memo, so it is empty outside a stream
        if step != self._memo_step:
            self._memo = {}
            self._memo_step = step
        result = self._memo.get(subset)
        if result is None:
            if not subset <= self._ground:
                raise UnknownElement(
                    f"query on {sorted(subset - self._ground, key=repr)} names ids "
                    f"outside the ground set 0..{self.fn.n - 1}")
            reason = self.policy.check(subset)
            if reason is not None:
                audit.rejected.append((subset, reason))
                raise PolicyViolation(subset, reason)
            audit.oracle_calls += 1
            result = self.fn.value(subset)
            if step >= 0:
                self._memo[subset] = result
        audit.query_count += times
        if audit.record_log:
            audit.log.extend([(step, subset)] * times)
        return result

    def replay(self, count: int, asked):
        """Count ``count`` logical queries of subsets that :meth:`value` has
        answered with ``times`` 0 in this step, as ``value(subset, times)``
        for each pair that ``asked()`` returns would: ``(subset, times)``
        pairs in order, whose ``times`` add up to ``count``, asked for only
        when the log is kept. A branch tree counts its step's queries here.
        Nothing is checked or evaluated again: the ask ran every check, and
        no verdict changes within a step."""
        audit = self.audit
        audit.query_count += count
        if audit.record_log:
            step = audit.step
            audit.log.extend([(step, subset) for subset, times in asked() for _ in range(times)])


# ---------------------------------------------------------------------------
# residual views


class Residual:
    """Gate-backed view of ``f`` conditioned on a pinned set ``S``.

    ``value(T) = f(T | S) - f(S)``, every query going through ``gate``.
    ``f(S)`` is queried once at construction unless ``base`` supplies it;
    :meth:`extend` pins one more element whose gain is already known and
    derives the new base arithmetically instead of re-querying, and keeps
    the result as ``ext``, so the variants of a branch node that pin the
    same element share it. A branch node asks for the gain of an element
    ``last`` with :meth:`ask` unless ``last`` is already that element, as
    it is for the variants of a node that share the residual, and reads
    ``query`` and ``gain``.
    """

    __slots__ = ("gate", "pinned", "base", "last", "query", "gain", "ext")

    def __init__(self, gate, pinned=frozenset(), base=None):
        self.gate = gate
        self.pinned = frozenset(pinned)
        self.base = gate.value(self.pinned) if base is None else base
        self.last = None
        self.ext = None

    def value(self, subset) -> int:
        return self.gate.value(self.pinned | frozenset(subset)) - self.base

    def ask(self, e: int):
        """Ask the gate for ``S + e``, uncounted, and keep it as ``query``
        and its gain as ``gain``."""
        query = self.pinned | {e}
        self.gain = self.gate.value(query, 0) - self.base
        self.last, self.query = e, query

    def extend(self, e: int, gain: int) -> "Residual":
        if self.ext is None or self.ext[0] != e:
            self.ext = e, Residual(self.gate, self.pinned | {e}, self.base + gain)
        return self.ext[1]


# ---------------------------------------------------------------------------
# exhaustive structure verification


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    kind: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.kind} violated at {self.witness}"


def _mask_set(mask: int) -> frozenset:
    out = []
    e = 0
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return frozenset(out)


EXHAUSTIVE_LIMIT = 14  # largest ground sets verify_monotone_submodular enumerates
MAX_GROUND_SET = 100_000  # largest ground set, or coverage n*universe, an instance holds


def verify_monotone_submodular(fn) -> CheckReport:
    """Exhaustively check monotonicity and diminishing returns.

    Verifies f(S+e) >= f(S) for every S, e and
    f(S+e) - f(S) >= f(T+e) - f(T) for every S <= T, e outside T.
    Returns the first violating witness found. Cost is O(n * 3^n), so the
    ground set is capped at ``EXHAUSTIVE_LIMIT``.
    """
    n = fn.n
    if n > EXHAUSTIVE_LIMIT:
        raise GroundSetTooLarge(f"n={n} exceeds exhaustive limit {EXHAUSTIVE_LIMIT}")
    size = 1 << n
    vals = [fn.value(_mask_set(mask)) for mask in range(size)]
    for mask in range(size):
        for e in range(n):
            bit = 1 << e
            if mask & bit:
                continue
            if vals[mask | bit] < vals[mask]:
                return CheckReport(False, "monotonicity",
                                   (_mask_set(mask), e, vals[mask], vals[mask | bit]))
    for tmask in range(size):
        for e in range(n):
            bit = 1 << e
            if tmask & bit:
                continue
            marg_t = vals[tmask | bit] - vals[tmask]
            smask = tmask
            while True:
                if vals[smask | bit] - vals[smask] < marg_t:
                    return CheckReport(False, "submodularity",
                                       (_mask_set(smask), _mask_set(tmask), e))
                if smask == 0:
                    break
                smask = (smask - 1) & tmask
    return CheckReport(True)

