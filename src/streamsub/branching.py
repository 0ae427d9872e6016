"""Single-pass branching algorithms for cardinality and matroid constraints,
plus the geometric value-guessing driver that runs them without knowing the
optimum.

Both algorithms are recursive procedures over stream suffixes. They are
realized here as event-driven branch trees over one physical pass: every
arriving element is dispatched to all live nodes; a node that accepts an
element spawns its conditioned child starting at the next position, and
"skip" children (which share the parent's position) are created eagerly at
node construction. This preserves the single-pass semantics the recursion
implies while every element is delivered exactly once.

Numeric conventions: function values are exact integers; guess values v
and all thresholds are exact rationals, so acceptance decisions never
depend on float rounding. Value bookkeeping telescopes residuals, so a
node's reported solution value never costs extra oracle queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams, NotIndependent
from .matroids import Matroid
from .oracles import QueryGate


def to_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str; floats go through str() so
    '0.1' means one tenth."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


class PinnedEval:
    """Residual bookkeeping for one branch chain.

    g(T) = f(T | pinned) against the run's query gate, with f(pinned)
    cached. Extending the chain by an element whose gain is already known
    derives the new base arithmetically instead of re-querying.
    """

    __slots__ = ("gate", "pinned", "base")

    def __init__(self, gate: QueryGate, pinned=frozenset(), base=None):
        self.gate = gate
        self.pinned = frozenset(pinned)
        self.base = gate.require(self.pinned) if base is None else base

    def singleton(self, e: int) -> int:
        return self.gate.require(self.pinned | {e}) - self.base

    def of(self, subset) -> int:
        return self.gate.require(self.pinned | frozenset(subset)) - self.base

    def extend(self, e: int, gain: int) -> "PinnedEval":
        return PinnedEval(self.gate, self.pinned | {e}, self.base + gain)


@dataclass
class AlgReport:
    solution: frozenset
    value: int
    queries: int
    max_stored: int
    branches_spawned: int
    roots_spawned: int = 1
    live_roots_peak: int = 1
    v_used: Fraction | None = None
    violations: int = 0


# ---------------------------------------------------------------------------
# cardinality branch tree


class _CardNode:
    """One invocation of the cardinality procedure: remaining optimum bound
    k, solution budget s, target v, residual g. Leaves (k==1 or s==1) track
    the best singleton; internal nodes wait for the first element whose
    gain reaches v/(k+s-1), and carry an eagerly spawned sibling that skips
    that element assumption."""

    __slots__ = ("tree", "k", "s", "v", "g", "start", "leaf", "best",
                 "pin", "child_take", "child_skip", "collecting")

    def __init__(self, tree: "CardTree", k: int, s: int, v: Fraction,
                 g: PinnedEval, start: int):
        self.tree = tree
        self.k = k
        self.s = s
        self.v = v
        self.g = g
        self.start = start
        self.leaf = k == 1 or s == 1
        self.best = None
        self.pin = None
        self.child_take = None
        self.child_skip = None
        self.collecting = True
        tree.nodes.append(self)
        tree.live.append(self)
        if not self.leaf:
            skip_v = v * Fraction(k + s - 2, k + s - 1)
            self.child_skip = _CardNode(tree, k - 1, s, skip_v, g, start)

    def offer(self, t: int, e: int):
        gain = self.g.singleton(e)
        if self.leaf:
            if self.best is None:
                self.tree.stored += 1
                self.best = (gain, e)
            elif gain > self.best[0]:
                self.best = (gain, e)
            return
        if gain * (self.k + self.s - 1) >= self.v:
            self.pin = (e, gain)
            self.collecting = False
            self.tree.stored += 1
            self.tree.branches_spawned += 1
            self.child_take = _CardNode(self.tree, self.k, self.s - 1,
                                        self.v - gain, self.g.extend(e, gain), t + 1)

    def solution(self) -> tuple[frozenset, int]:
        if self.leaf:
            if self.best is None:
                return frozenset(), 0
            gain, e = self.best
            return frozenset({e}), gain
        if self.pin is not None:
            e, gain = self.pin
            sub, sub_val = self.child_take.solution()
            taken = (sub | {e}, sub_val + gain)
        else:
            taken = (frozenset(), 0)
        skipped = self.child_skip.solution()
        return taken if taken[1] > skipped[1] else skipped

    def local_stored(self) -> int:
        if self.leaf:
            return 1 if self.best is not None else 0
        return 1 if self.pin is not None else 0

    def subtree_size(self) -> int:
        total = 1
        if self.child_skip is not None:
            total += self.child_skip.subtree_size()
        if self.child_take is not None:
            total += self.child_take.subtree_size()
        return total


class CardTree:
    """Event-driven tree for one fixed guess v under a cardinality budget.

    ``nodes`` holds every node ever created; ``live`` holds, in creation
    order, the nodes that can still take an element (leaves, and internal
    nodes that have not pinned one). ``stored`` is the running sum of the
    nodes' ``local_stored()``.
    """

    def __init__(self, gate: QueryGate, k: int, s: int, v, pinned=frozenset(),
                 start: int = 0, trace: bool = False):
        if k < 1 or s < 1:
            raise InvalidParams("need k >= 1 and s >= 1")
        self.gate = gate
        self.v = to_fraction(v)
        self.nodes: list[_CardNode] = []
        self.live: list[_CardNode] = []
        self.stored = 0
        self.branches_spawned = 0
        self.trace_log: list | None = [] if trace else None
        self.root = _CardNode(self, k, s, self.v, PinnedEval(gate, pinned), start)

    def step(self, t: int, e: int):
        current = self.live
        # nodes created during this step start at t+1 and land in the new list
        self.live = []
        kept = []
        for node in current:
            if node.start <= t:
                if self.trace_log is not None:
                    self.trace_log.append((id(node), t))
                node.offer(t, e)
            if node.collecting or node.leaf:
                kept.append(node)
        kept.extend(self.live)
        self.live = kept

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            out |= node.g.pinned
            if node.leaf and node.best is not None:
                out.add(node.best[1])
            elif not node.leaf and node.pin is not None:
                out.add(node.pin[0])
        return frozenset(out)

    def footprint(self) -> int:
        return self.stored

    def finish(self) -> tuple[frozenset, int]:
        return self.root.solution()


def cardinality_branch(stream, gate: QueryGate, k: int, s: int, v,
                       pinned=frozenset()) -> tuple[frozenset, int]:
    """Run the fixed-guess cardinality procedure over a stream suffix.

    Returns (solution, residual value relative to the pinned set); the
    solution has at most s elements. The guarantee: whenever the suffix
    contains a set of size <= k with residual value >= v, the result is
    at least v*s/(k+s-1).
    """
    tree = CardTree(gate, k, s, v, pinned)
    for t, e in enumerate(stream):
        tree.step(t, e)
    return tree.finish()


# ---------------------------------------------------------------------------
# matroid branch tree


class _MatNode:
    """One invocation of the matroid procedure carrying an independent set.

    For each threshold index b (0..beta, with acceptance bar b*v/K^4) the
    node grows a tracking set T_b of accepted elements; every acceptance
    logically spawns a child conditioned on that element. Children are
    shared across threshold indices that accept the same element at the
    same arrival, which is pure memoization of identical invocations.
    A fallback candidate (the best singleton extending I) is always kept.
    """

    __slots__ = ("tree", "k", "v", "g", "indep", "start", "best_single",
                 "tracking", "open_bs", "children", "child_order", "slots")

    def __init__(self, tree: "MatroidTree", k: int, v: Fraction,
                 g: PinnedEval, indep: frozenset, start: int):
        self.tree = tree
        self.k = k
        self.v = v
        self.g = g
        self.indep = indep
        self.start = start
        self.best_single = None
        self.children: dict[int, tuple["_MatNode", int]] = {}
        self.child_order: list[int] = []
        self.slots: list[tuple[int, int, int]] = []
        if k > 1:
            self.open_bs = list(range(tree.beta + 1))
            self.tracking = {b: set() for b in self.open_bs}
        else:
            self.open_bs = []
            self.tracking = {}
        tree.nodes.append(self)
        tree.stored += len(indep)

    def offer(self, t: int, e: int):
        matroid = self.tree.matroid
        if not matroid.is_independent(self.indep | {e}):
            return
        gain = self.g.singleton(e)
        if self.best_single is None:
            self.tree.stored += 1
            self.best_single = (gain, e)
        elif gain > self.best_single[0]:
            self.best_single = (gain, e)
        if not self.open_bs:
            return
        if self.v > 0:
            b_max = (gain * self.tree.k4 * self.v.denominator) // self.v.numerator
        else:
            b_max = self.tree.beta
        still_open = []
        child_entry = self.children.get(e)
        for b in self.open_bs:
            tracked = self.tracking[b]
            if b <= b_max and matroid.is_independent(self.indep | tracked | {e}):
                if child_entry is None:
                    v_next = (1 - Fraction(1, self.tree.k4)) * self.v - 2 * gain
                    child = _MatNode(self.tree, self.k - 1, v_next,
                                     self.g.extend(e, gain), self.indep | {e}, t + 1)
                    child_entry = (child, gain)
                    self.children[e] = child_entry
                    self.child_order.append(e)
                if e not in tracked:
                    self.tree.stored += 1
                tracked.add(e)
                self.slots.append((b, len(tracked), e))
                self.tree.branches_spawned += 1
            if len(self.indep) + len(self.tracking[b]) < self.tree.rank:
                still_open.append(b)
        self.open_bs = still_open

    def solution(self) -> tuple[frozenset, int]:
        best = None
        for e in self.child_order:
            child, gain = self.children[e]
            sub, sub_val = child.solution()
            cand = (sub | {e}, sub_val + gain)
            if best is None or cand[1] > best[1]:
                best = cand
        if self.best_single is not None:
            gain, e = self.best_single
            cand = (frozenset({e}), gain)
            if best is None or cand[1] > best[1]:
                best = cand
        return best if best is not None else (frozenset(), 0)

    def local_stored(self) -> int:
        count = sum(len(tracked) for tracked in self.tracking.values())
        if self.best_single is not None:
            count += 1
        count += len(self.indep)
        return count


class MatroidTree:
    """Event-driven tree for one fixed guess v under a matroid constraint.

    Branching is Theta(K^5) wide per node with depth K, so ranks above 4
    are refused unless the caller opts in. ``stored`` is the running sum
    of the nodes' ``local_stored()``.
    """

    MAX_DEFAULT_RANK = 4

    def __init__(self, gate: QueryGate, matroid: Matroid, k: int, v,
                 indep=frozenset(), start: int = 0, allow_large_rank: bool = False,
                 trace: bool = False):
        rank = matroid.rank
        if rank > self.MAX_DEFAULT_RANK and not allow_large_rank:
            raise InvalidParams(
                f"rank {rank} branch tree is Theta(K^5)-wide per node; "
                "pass allow_large_rank=True to force")
        if k < 1:
            raise InvalidParams("need k >= 1")
        indep = frozenset(indep)
        if not matroid.is_independent(indep):
            raise NotIndependent(f"{sorted(indep)} is not independent")
        self.gate = gate
        self.matroid = matroid
        self.rank = rank
        self.k4 = max(rank, 1) ** 4
        self.beta = self.k4 // 2
        self.v = to_fraction(v)
        self.nodes: list[_MatNode] = []
        self.stored = 0
        self.branches_spawned = 0
        self.trace_log: list | None = [] if trace else None
        self.root = _MatNode(self, k, self.v, PinnedEval(gate, indep), indep, start)

    def step(self, t: int, e: int):
        for node in list(self.nodes):
            if node.start <= t:
                if self.trace_log is not None:
                    self.trace_log.append((id(node), t))
                node.offer(t, e)

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            out |= node.indep
            for tracked in node.tracking.values():
                out |= tracked
            if node.best_single is not None:
                out.add(node.best_single[1])
        return frozenset(out)

    def footprint(self) -> int:
        return self.stored

    def finish(self) -> tuple[frozenset, int]:
        return self.root.solution()


def matroid_branch(stream, gate: QueryGate, matroid: Matroid, k: int, v,
                   indep=frozenset(), allow_large_rank: bool = False
                   ) -> tuple[frozenset, int]:
    """Run the fixed-guess matroid procedure over a stream suffix.

    Returns (solution, residual value); the solution is independent
    together with the carried set. The guarantee: whenever the suffix
    contains a k-element set OPTbar with residual value >= v and
    indep | OPTbar independent, the result is at least v*(1 - 1/(2K-k))/2.
    """
    tree = MatroidTree(gate, matroid, k, v, indep, allow_large_rank=allow_large_rank)
    for t, e in enumerate(stream):
        tree.step(t, e)
    return tree.finish()


# ---------------------------------------------------------------------------
# value-guessing driver


class GuessDriver:
    """Runs one branch tree per active guess v = (1+eps)^i in a single pass.

    The active window is m/(1+eps)^2 <= v <= K*m/eps where m is the best
    feasible singleton seen so far. Guesses are spawned lazily as they
    enter the window (their trees see only the suffix from that point) and
    are retired when they leave it; a retired tree's current solution is
    frozen into the running champion so the final answer is the best
    solution over all roots ever spawned.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps,
                 constraint: str = "cardinality", allow_large_rank: bool = False):
        if constraint not in ("cardinality", "matroid"):
            raise InvalidParams(f"unknown constraint kind {constraint!r}")
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.eps = to_fraction(eps)
        if not 0 < self.eps <= 1:
            raise InvalidParams("eps must be in (0, 1]")
        self.constraint = constraint
        self.allow_large_rank = allow_large_rank
        self.m = 0
        self.roots: dict[int, CardTree | MatroidTree] = {}
        self.spawned: set[int] = set()
        self.champion: tuple[frozenset, int] = (frozenset(), 0)
        self.champion_v: Fraction | None = None
        self.branches_spawned = 0
        self.roots_spawned = 0
        self.live_roots_peak = 0
        self._pow: dict[int, Fraction] = {0: Fraction(1)}

    def _grid(self, i: int) -> Fraction:
        if i not in self._pow:
            base = Fraction(1) + self.eps
            self._pow[i] = base ** i
        return self._pow[i]

    def _window(self) -> tuple[int, int] | None:
        """Grid-index range of the active window, clamped at index 0;
        integer-valued functions never need guesses below 1."""
        if self.m <= 0 or self.K == 0:
            return None
        one_eps = Fraction(1) + self.eps
        lo = Fraction(self.m) / (one_eps * one_eps)
        hi = Fraction(self.K * self.m) / self.eps
        i = 0
        while self._grid(i) < lo:
            i += 1
        j = i
        while self._grid(j + 1) <= hi:
            j += 1
        return i, j

    def _spawn(self, i: int, start: int):
        v = self._grid(i)
        if self.constraint == "cardinality":
            tree = CardTree(self.gate, self.K, self.K, v, start=start)
        else:
            tree = MatroidTree(self.gate, self.matroid, self.K, v,
                               allow_large_rank=self.allow_large_rank, start=start)
        self.roots[i] = tree
        self.spawned.add(i)
        self.roots_spawned += 1

    def _retire(self, i: int):
        tree = self.roots.pop(i)
        self.branches_spawned += tree.branches_spawned
        sol, val = tree.finish()
        if val > self.champion[1]:
            self.champion = (sol, val)
            self.champion_v = self._grid(i)

    def step(self, t: int, e: int):
        if self.K > 0 and self.matroid.is_independent({e}):
            fe = self.gate.require(frozenset({e}))
            if fe > self.m:
                self.m = fe
        window = self._window()
        if window is not None:
            first_i, last_i = window
            for i in list(self.roots):
                if i < first_i:
                    self._retire(i)
            for i in range(first_i, last_i + 1):
                if i not in self.spawned:
                    self._spawn(i, start=t)
        for tree in self.roots.values():
            tree.step(t, e)
        if len(self.roots) > self.live_roots_peak:
            self.live_roots_peak = len(self.roots)

    def stored_set(self) -> frozenset:
        out = set(self.champion[0])
        for tree in self.roots.values():
            out |= tree.stored_set()
        return frozenset(out)

    def footprint(self) -> int:
        return len(self.champion[0]) + sum(t.footprint() for t in self.roots.values())

    def finish(self) -> tuple[frozenset, int]:
        for i in list(self.roots):
            self._retire(i)
        return self.champion


def run_guess_driver(stream, gate: QueryGate, matroid: Matroid, eps,
                     constraint: str = "cardinality",
                     allow_large_rank: bool = False) -> AlgReport:
    """One full pass of the guessing driver; audits storage per step."""
    driver = GuessDriver(gate, matroid, eps, constraint, allow_large_rank)
    audit = gate.audit
    for t, e in enumerate(stream):
        audit.step = t
        driver.step(t, e)
        audit.observe_stored(driver.footprint())
    solution, value = driver.finish()
    if not matroid.is_independent(solution):
        raise NotIndependent("driver produced an infeasible solution")
    reported = gate.require(solution)
    return AlgReport(solution=solution, value=reported,
                     queries=audit.query_count, max_stored=audit.max_stored,
                     branches_spawned=driver.branches_spawned,
                     roots_spawned=driver.roots_spawned,
                     live_roots_peak=driver.live_roots_peak,
                     v_used=driver.champion_v,
                     violations=len(audit.rejected))


def run_fixed_guess(stream, gate: QueryGate, matroid: Matroid, v,
                    constraint: str = "cardinality",
                    allow_large_rank: bool = False) -> AlgReport:
    """One full pass of a single branch tree for a known guess v."""
    K = matroid.rank
    if constraint == "cardinality":
        tree: CardTree | MatroidTree = CardTree(gate, K, K, v)
    elif constraint == "matroid":
        tree = MatroidTree(gate, matroid, K, v, allow_large_rank=allow_large_rank)
    else:
        raise InvalidParams(f"unknown constraint kind {constraint!r}")
    audit = gate.audit
    for t, e in enumerate(stream):
        audit.step = t
        tree.step(t, e)
        audit.observe_stored(tree.footprint())
    solution, _ = tree.finish()
    if not matroid.is_independent(solution):
        raise NotIndependent("branch tree produced an infeasible solution")
    reported = gate.require(solution)
    return AlgReport(solution=solution, value=reported,
                     queries=audit.query_count, max_stored=audit.max_stored,
                     branches_spawned=tree.branches_spawned,
                     v_used=to_fraction(v), violations=len(audit.rejected))


def gamma_bound(k: int, s: int) -> int:
    """Solution of the node-count recurrence G(k,s) = G(k-1,s)+G(k,s-1)+1
    with G(1,s) = G(k,1) = 1; branch trees never exceed it."""
    table = {}
    for kk in range(1, k + 1):
        for ss in range(1, s + 1):
            if kk == 1 or ss == 1:
                table[kk, ss] = 1
            else:
                table[kk, ss] = table[kk - 1, ss] + table[kk, ss - 1] + 1
    return table[k, s]
