"""Single-pass branching algorithms for cardinality and matroid constraints,
plus the geometric value-guessing driver that runs them without knowing the
optimum.

Both algorithms are recursive procedures over stream suffixes. They are
realized here as event-driven branch trees over one physical pass: every
arriving element is dispatched to the tree's live nodes. A node that
accepts an element spawns its conditioned child, and "skip" children are
created eagerly at node construction. A node first sees the element after
the step that created it, because each step offers the element only to
the nodes that existed before it began. This preserves the single-pass
semantics the recursion implies while every element is delivered exactly
once.

A tree has one entry point: its root, with nothing pinned, stepped over
the stream by ``streamsub.harness.stream_run``, alone for one fixed guess
or under :class:`GuessDriver`. Every node queries the function through an
:class:`~streamsub.oracles.Residual` of the run's query gate, conditioned
on the elements its branch has pinned. :class:`GuessGrid` holds the
guesses v = (1+eps)^i; the driver here and the threshold sieve in
:mod:`streamsub.baselines` share it.

Numeric conventions: function values are exact integers; guess values v
and all thresholds are exact rationals, so acceptance decisions never
depend on float rounding. Value bookkeeping telescopes residuals, so a
node's reported solution value never costs extra oracle queries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParams
from .matroids import Matroid
from .oracles import QueryGate, Residual


def to_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str; floats go through str() so
    '0.1' means one tenth."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


class GuessGrid:
    """The geometric guess grid v_i = (1+eps)^i, i >= 0, with exact cached
    powers; ``grid[i]`` is v_i.

    :meth:`window` returns the index range (first, last) from the first
    index with v_first >= lo to the last with v_last <= hi, and never
    below first. It advances the previous window instead of rescanning
    from index 0, which is valid because callers only ever raise both
    ends: each is a fixed multiple of a running maximum.
    """

    def __init__(self, eps):
        self.eps = to_fraction(eps)
        if not 0 < self.eps <= 1:
            raise InvalidParams("eps must be in (0, 1]")
        self.base = 1 + self.eps
        self._pow = [Fraction(1)]
        self._first = 0
        self._last = 0

    def __getitem__(self, i: int) -> Fraction:
        powers = self._pow
        while len(powers) <= i:
            powers.append(powers[-1] * self.base)
        return powers[i]

    def window(self, lo, hi) -> tuple[int, int]:
        first = self._first
        while self[first] < lo:
            first += 1
        last = max(self._last, first)
        while self[last + 1] <= hi:
            last += 1
        self._first, self._last = first, last
        return first, last


# ---------------------------------------------------------------------------
# cardinality branch tree


class _CardNode:
    """One invocation of the cardinality procedure: remaining optimum bound
    k, solution budget s, target v, residual g. Leaves (k==1 or s==1) track
    the best singleton; internal nodes wait for the first element whose
    gain reaches v/(k+s-1), and carry an eagerly spawned sibling that skips
    that element assumption."""

    __slots__ = ("tree", "k", "s", "v", "g", "leaf", "best",
                 "pin", "child_take", "child_skip", "collecting")

    def __init__(self, tree: "CardTree", k: int, s: int, v: Fraction, g: Residual):
        self.tree = tree
        self.k = k
        self.s = s
        self.v = v
        self.g = g
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
            self.child_skip = _CardNode(tree, k - 1, s, skip_v, g)

    def offer(self, e: int):
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
                                        self.v - gain, self.g.extend(e, gain))

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

    def __init__(self, gate: QueryGate, k: int, s: int, v, trace: bool = False):
        if k < 1 or s < 1:
            raise InvalidParams("need k >= 1 and s >= 1")
        self.gate = gate
        self.v = to_fraction(v)
        self.nodes: list[_CardNode] = []
        self.live: list[_CardNode] = []
        self.stored = 0
        self.branches_spawned = 0
        self.trace_log: list | None = [] if trace else None
        self.root = _CardNode(self, k, s, self.v, Residual(gate))

    def step(self, t: int, e: int):
        current = self.live
        # nodes created during this step land in the new list and first
        # see the next element
        self.live = []
        kept = []
        for node in current:
            if self.trace_log is not None:
                self.trace_log.append((id(node), t))
            node.offer(e)
            if node.collecting or node.leaf:
                kept.append(node)
        kept.extend(self.live)
        self.live = kept

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            if node.leaf and node.best is not None:
                out.add(node.best[1])
            elif not node.leaf and node.pin is not None:
                out.add(node.pin[0])
        return frozenset(out)

    def footprint(self) -> int:
        return self.stored

    def finish(self) -> tuple[frozenset, int]:
        return self.root.solution()


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

    __slots__ = ("tree", "k", "v", "g", "indep", "best_single",
                 "tracking", "open_bs", "children", "child_order")

    def __init__(self, tree: "MatroidTree", k: int, v: Fraction,
                 g: Residual, indep: frozenset):
        self.tree = tree
        self.k = k
        self.v = v
        self.g = g
        self.indep = indep
        self.best_single = None
        self.children: dict[int, tuple["_MatNode", int]] = {}
        self.child_order: list[int] = []
        if k > 1:
            self.open_bs = list(range(tree.beta + 1))
            self.tracking = {b: set() for b in self.open_bs}
        else:
            self.open_bs = []
            self.tracking = {}
        tree.nodes.append(self)
        tree.stored += len(indep)

    def offer(self, e: int):
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
                                     self.g.extend(e, gain), self.indep | {e})
                    child_entry = (child, gain)
                    self.children[e] = child_entry
                    self.child_order.append(e)
                if e not in tracked:
                    self.tree.stored += 1
                tracked.add(e)
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

    Branching is Theta(K^5) wide per node with depth K, so ranks above
    ``MAX_RANK`` are refused. ``stored`` is the running sum of the nodes'
    ``local_stored()``.
    """

    MAX_RANK = 4

    def __init__(self, gate: QueryGate, matroid: Matroid, k: int, v, trace: bool = False):
        rank = matroid.rank
        if rank > self.MAX_RANK:
            raise InvalidParams(
                f"rank {rank} branch tree is Theta(K^5)-wide per node; "
                f"ranks above {self.MAX_RANK} are not supported")
        if k < 1:
            raise InvalidParams("need k >= 1")
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
        self.root = _MatNode(self, k, self.v, Residual(gate), frozenset())

    def step(self, t: int, e: int):
        # children created during this step are not in the snapshot and
        # first see the next element
        for node in list(self.nodes):
            if self.trace_log is not None:
                self.trace_log.append((id(node), t))
            node.offer(e)

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            for tracked in node.tracking.values():
                out |= tracked
            if node.best_single is not None:
                out.add(node.best_single[1])
        return frozenset(out)

    def footprint(self) -> int:
        return self.stored

    def finish(self) -> tuple[frozenset, int]:
        return self.root.solution()


# ---------------------------------------------------------------------------
# value-guessing driver


class GuessDriver:
    """Runs one branch tree per active guess v = (1+eps)^i in a single pass.

    The active window is m/(1+eps)^2 <= v <= K*m/eps where m is the best
    feasible singleton seen so far. Guesses are spawned lazily as they
    enter the window (their trees see only the suffix from that point) and
    are retired when they leave it; a retired tree's current solution is
    frozen into the running champion so the final answer is the best
    solution over all roots ever spawned. :meth:`finish` returns the
    champion with its value queried once more through the gate.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps,
                 constraint: str = "cardinality"):
        if constraint not in ("cardinality", "matroid"):
            raise InvalidParams(f"unknown constraint kind {constraint!r}")
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.grid = GuessGrid(eps)
        self.constraint = constraint
        self.m = 0
        self.roots: dict[int, CardTree | MatroidTree] = {}
        self.next_i = 0
        self.champion: tuple[frozenset, int] = (frozenset(), 0)
        self.champion_v: Fraction | None = None
        self.branches_spawned = 0
        self.roots_spawned = 0
        self.live_roots_peak = 0

    def _spawn(self, i: int):
        v = self.grid[i]
        if self.constraint == "cardinality":
            tree = CardTree(self.gate, self.K, self.K, v)
        else:
            tree = MatroidTree(self.gate, self.matroid, self.K, v)
        self.roots[i] = tree
        self.roots_spawned += 1

    def _retire(self, i: int):
        tree = self.roots.pop(i)
        self.branches_spawned += tree.branches_spawned
        sol, val = tree.finish()
        if val > self.champion[1]:
            self.champion = (sol, val)
            self.champion_v = self.grid[i]

    def step(self, t: int, e: int):
        if self.K > 0 and self.matroid.is_independent({e}):
            fe = self.gate.require(frozenset({e}))
            if fe > self.m:
                self.m = fe
        # m > 0 implies K > 0; integer-valued functions never need
        # guesses below 1, so the window is clamped at index 0
        if self.m > 0:
            first_i, last_i = self.grid.window(Fraction(self.m) / self.grid.base ** 2,
                                               Fraction(self.K * self.m) / self.grid.eps)
            for i in list(self.roots):
                if i < first_i:
                    self._retire(i)
            # both window ends only rise, so an index in the window is
            # new exactly when it is at or past next_i
            for i in range(max(first_i, self.next_i), last_i + 1):
                self._spawn(i)
            self.next_i = last_i + 1
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
        solution = self.champion[0]
        return solution, self.gate.require(solution)


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
