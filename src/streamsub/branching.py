"""Single-pass branching algorithms for cardinality and matroid constraints,
plus the geometric value-guessing driver that runs them without knowing the
optimum.

Both algorithms are recursive procedures over stream suffixes. They are
realized here as event-driven branch trees over one physical pass: every
arriving element is offered to each node of the tree, and a node that
accepts it spawns one child conditioned on it. A cardinality node holds
all the invocations one acceptance starts, skip invocations included. A
node first sees the element after the step that created it, because each
step offers the element only to the nodes that existed before it began.
This preserves the single-pass semantics the recursion implies while
every element is delivered exactly once.

A tree has one entry point: its root, with nothing pinned, stepped over
the stream by ``streamsub.harness.stream_run``, alone for one fixed guess
or under :class:`GuessDriver`. Every node queries the function through an
:class:`~streamsub.oracles.Residual` of the run's query gate, conditioned
on the elements its branch has pinned. :class:`GuessGrid` holds the
guesses v = (1+eps)^i and the window of them that the best singleton so
far selects; the driver here and the sieve in :mod:`streamsub.baselines`
share it.

Numeric conventions: function values are exact integers. A guess value
v, and every target a node derives from it, is an exact rational kept as
an integer pair ``(num, den)`` with ``den > 0`` and not reduced; a gain
clears the bar v/c exactly when ``gain * c * den >= num``. So acceptance
decisions are exact, never depend on float rounding, and build no
``Fraction`` on the hot path; ``Fraction`` appears only where a guess is
parsed or reported. Value bookkeeping telescopes residuals, so a node's
reported solution value never costs extra oracle queries.
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


def as_pair(x) -> tuple[int, int]:
    """``x`` as an exact ``(num, den)`` with den > 0: a pair is returned
    as it is, anything else goes through :func:`to_fraction`."""
    if isinstance(x, tuple):
        return x
    x = to_fraction(x)
    return x.numerator, x.denominator


# The most guesses one window may hold. A window [lo, hi] holds at most the
# least c with (1+eps)^c > hi/lo guesses, about log(hi/lo)/eps: on the
# driver's window at K = 6 that is ~100 at eps = 1/20, ~1,430 at
# eps = 1/200 and ~8,700 at eps = 1/1000, each guess one branch tree.
MAX_GUESSES = 2048


class GuessGrid:
    """The geometric guess grid v_i = (1+eps)^i, i >= 0, kept in integers
    (with eps = p/q, ``grid[i]`` is the cached pair ((p+q)^i, q^i)), and
    the window of it that a running maximum m selects.

    ``lo`` and ``hi`` are the window's bounds over m, as ``(num, den)``
    pairs or exact numbers: it runs from the first index with v_first >=
    lo*m to the last with v_last <= hi*m, and never below first. A shape
    whose window could hold more than ``MAX_GUESSES`` guesses is refused.
    :meth:`advance` raises m; as both ends only rise, it steps on from
    ``first..last``, the previous window, instead of rescanning from 0.
    Values are integers, so no guess below v_0 = 1 is needed.
    """

    _NO_MOVE = (range(0), range(0))

    def __init__(self, eps, lo, hi):
        self.eps = to_fraction(eps)
        if not 0 < self.eps <= 1:
            raise InvalidParams("eps must be in (0, 1]")
        self.p, self.q = self.eps.numerator, self.eps.denominator
        self.lo, self.hi = as_pair(lo), as_pair(hi)
        self._pow = [(1, 1)]
        self.m = 0
        self.first = 0
        self.last = -1
        # Refuse the shape when its window, of span hi/lo, could hold more
        # than MAX_GUESSES guesses, that is when (1+eps)^MAX_GUESSES <=
        # span. The test is exact and needs no power of a tiny eps, since
        # 1 + c*eps <= (1+eps)^c <= 1/(1 - c*eps) when c*eps < 1.
        n, d = self.hi[0] * self.lo[1], self.hi[1] * self.lo[0]
        p, q, c = self.p, self.q, MAX_GUESSES
        if d * (q + c * p) > n * q:
            fits = True  # 1 + c*eps > span
        elif c * p < q and (q - c * p) * n >= q * d:
            fits = False  # 1/(1 - c*eps) <= span
        else:
            fits = (p + q) ** c * d > n * q ** c
        if not fits:
            eps = str(self.eps)
            if len(eps) > 24:
                eps = f"{float(self.eps):.4g}"
            raise InvalidParams(f"eps={eps} puts more than {MAX_GUESSES} guesses "
                                f"in one window; use a larger eps")

    def __getitem__(self, i: int) -> tuple[int, int]:
        powers = self._pow
        while len(powers) <= i:
            num, den = powers[-1]
            powers.append((num * (self.p + self.q), den * self.q))
        return powers[i]

    def advance(self, m: int) -> tuple[range, range]:
        """Take ``m`` as the new running maximum and return the ascending
        ranges of the indices that left the window and of those that
        entered it; both are empty unless ``m`` rises. The indices entered
        and not left are always ``first..last``."""
        if m <= self.m:
            return self._NO_MOVE
        self.m = m
        (lo_n, lo_d), (hi_n, hi_d) = self.lo, self.hi
        first = self.first
        while self[first][0] * lo_d < m * lo_n * self[first][1]:
            first += 1
        last = max(self.last, first)
        while self[last + 1][0] * hi_d <= m * hi_n * self[last + 1][1]:
            last += 1
        left = range(self.first, min(first, self.last + 1))
        entered = range(max(first, self.last + 1), last + 1)
        self.first, self.last = first, last
        return left, entered


class _Tree:
    """State and step of both branch trees: ``nodes`` holds every node ever
    created and ``stored`` counts the elements they hold; when tracing,
    ``trace_log`` gets one ``(id(node), t)`` per offer."""

    def __init__(self, trace: bool):
        self.nodes: list = []
        self.stored = 0
        self.branches_spawned = 0
        self.trace_log: list | None = [] if trace else None

    def _step(self, t: int, e: int):
        # children created during this step are not in the snapshot and
        # first see the next element
        for node in list(self.nodes):
            if self.trace_log is not None:
                self.trace_log.append((id(node), t))
            node.offer(e)

    def footprint(self) -> int:
        return self.stored


# ---------------------------------------------------------------------------
# cardinality branch tree


class _CardNode:
    """The invocations of the cardinality procedure that one acceptance
    starts (at the root, the root invocation): they share the residual g,
    the budget s, one leaf and one query per step. An invocation (k, s, v)
    takes the first element whose gain reaches v/(k+s-1) into a child
    (k, s-1, v - gain), and its skip child (k-1, s, v(k+s-2)/(k+s-1)) waits
    on the same residual; one with k == 1 or s == 1 is a leaf, keeping the
    best singleton. ``chains`` holds ``[k, v, pin, child, at]`` per skip
    chain (k, s, v), (k-1, s, .), ..., (1, s, .), with v a ``(num, den)``
    pair; once it has taken ``pin = (e, gain)``, member j's take child is
    chain ``at + k - j`` of ``child``. ``best`` is the leaves' best
    singleton, as ({e}, gain).

    ``waiting`` holds the chains whose members still wait for an element
    (k > 1, no pin, and s > 1), and ``times`` the node's query count per
    step: one per chain for its leaf and k - 1 per waiting chain. Both are
    built at the first offer and then only shrink, on an acceptance. That
    is exact because a node's chains are all appended in the step that
    created it, by its parent's offer, and a node first sees an element
    one step later.

    * One chain, one element: members k..2 share the bar v/(k+s-1), since
      v(k+s-2)/(k+s-1) / ((k-1)+s-1) = v/(k+s-1), and are created in the
      same step on the same residual, so they accept the same element at
      the same step.
    * One node, one leaf: every leaf of a node is born in the same step on
      the same residual, so all keep the same best singleton.
    * One query, the same log: a node's invocations query the same set
      and, stepped one by one, would run contiguously, node after node in
      creation order; so one query counted once per invocation leaves the
      query count and log unchanged, entry for entry.
    """

    __slots__ = ("tree", "s", "g", "best", "chains", "waiting", "times")

    def __init__(self, tree: "CardTree", s: int, g: Residual, chains: list):
        self.tree = tree
        self.s = s
        self.g = g
        self.best = None
        self.chains = chains
        self.waiting = None
        self.times = 0
        tree.nodes.append(self)

    def offer(self, e: int):
        tree, s, waiting = self.tree, self.s, self.waiting
        if waiting is None:
            # every chain's leaf queries, and so does each member of a
            # chain that has not taken an element yet
            waiting = self.waiting = [c for c in self.chains if c[0] > 1] if s > 1 else []
            self.times = len(self.chains) + sum(c[0] - 1 for c in waiting)
        gain = self.g.singleton(e, self.times)
        if self.best is None:
            tree.stored += len(self.chains)
        if self.best is None or gain > self.best[1]:
            self.best = (frozenset({e}), gain)
        child = None
        for chain in waiting:
            k = chain[0]
            num, den = chain[1]
            den_k = den * (k + s - 1)
            over = gain * den_k
            if over >= num:
                if child is None:
                    child = _CardNode(tree, s - 1, self.g.extend(e, gain), [])
                chain[2:] = (e, gain), child, len(child.chains)
                tree.stored += k - 1
                tree.branches_spawned += k - 1
                self.times -= k - 1
                # member j's target is v(j+s-1)/(k+s-1) - gain, the skip
                # product less the gain
                child.chains.extend([j, (num * (j + s - 1) - over, den_k), None, None, 0]
                                    for j in range(k, 1, -1))
        if child is not None:
            self.waiting = [c for c in waiting if c[2] is None]

    def solution(self, i: int) -> tuple[frozenset, int]:
        """The solution of the head of chain ``i``."""
        k, _, pin, child, at = self.chains[i]
        best = self.best or (frozenset(), 0)
        if pin is not None:
            e, gain = pin
            for j in range(2, k + 1):
                sub, sub_val = child.solution(at + k - j)
                if sub_val + gain > best[1]:
                    best = (sub | {e}, sub_val + gain)
        elif k > 1 and self.s > 1 and best[1] < 0:
            # a member that took nothing offers the empty set
            best = (frozenset(), 0)
        return best


class CardTree(_Tree):
    """Event-driven tree for one fixed guess v under a cardinality budget.

    Each node keeps taking singletons, so every node stays live.
    ``stored`` counts one element per leaf with a best singleton and one
    per internal invocation that has pinned an element.
    """

    # perfbench/spans.py hooks step and finish in each tree's own namespace
    step = _Tree._step

    def __init__(self, gate: QueryGate, k: int, s: int, v, trace: bool = False):
        if k < 1 or s < 1:
            raise InvalidParams("need k >= 1 and s >= 1")
        super().__init__(trace)
        self.root = _CardNode(self, s, Residual(gate), [[k, as_pair(v), None, None, 0]])

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            if node.best is not None:
                out |= node.best[0]
            out.update(pin[0] for _, _, pin, _, _ in node.chains if pin is not None)
        return frozenset(out)

    def finish(self) -> tuple[frozenset, int]:
        return self.root.solution(0)


# ---------------------------------------------------------------------------
# matroid branch tree


class _MatNode:
    """One invocation of the matroid procedure carrying an independent set
    I, the pinned set of its residual ``g``, and a target ``v`` as a
    ``(num, den)`` pair.

    For each threshold index b (0..beta, with acceptance bar b*v/K^4) the
    node grows a tracking set T_b of accepted elements; every acceptance
    logically spawns a child conditioned on that element. Children are
    shared across threshold indices that accept the same element at the
    same arrival, which is pure memoization of identical invocations.
    A fallback candidate (the best singleton extending I) is always kept.

    The indices are kept in runs: ``runs`` holds ``(lo, hi, T, load)`` in
    index order, tiling 0..beta, where every b in lo..hi has T_b = T and
    ``load`` is the matroid load of I + T (``iload`` is that of I). A run
    whose I + T has reached the rank is closed: it keeps T and its load
    is None. A node with k = 1 tracks nothing and has no runs.

    Runs are exact. All indices of a run hold the same T and load, so
    they give the same independence answer for e; they differ only in the
    bar, which e clears exactly at b <= b_max = floor(gain*K^4/v) (every b
    when v <= 0). So on each offer a run
    ignores e, takes it on all its indices, or splits at b_max into a
    lower part that takes e and an upper part that stays as it was. Runs
    only ever split, and an offer splits at most one of them.
    """

    __slots__ = ("tree", "k", "v", "g", "iload", "best_single", "runs", "children")

    def __init__(self, tree: "MatroidTree", k: int, v: tuple[int, int], g: Residual, iload):
        self.tree = tree
        self.k = k
        self.v = v
        self.g = g
        self.iload = iload
        self.best_single = None
        # accepted element -> (its child, its gain), in arrival order
        self.children: dict[int, tuple["_MatNode", int]] = {}
        self.runs = [(0, tree.beta, frozenset(), iload)] if k > 1 else []
        tree.nodes.append(self)
        tree.stored += len(g.pinned)

    def offer(self, e: int):
        tree = self.tree
        matroid = tree.matroid
        if not matroid.fits(self.iload, e):
            return
        gain = self.g.singleton(e)
        if self.best_single is None:
            tree.stored += 1
            self.best_single = (gain, e)
        elif gain > self.best_single[0]:
            self.best_single = (gain, e)
        runs = self.runs
        if not runs:
            return
        num, den = self.v
        k4 = tree.k4
        b_max = gain * k4 * den // num if num > 0 else tree.beta
        fits, plus = matroid.fits, matroid.plus
        room = tree.rank - len(self.g.pinned)
        accepted = 0
        for i, (lo, hi, tracked, load) in enumerate(runs):
            if lo > b_max:
                break
            if load is None or not fits(load, e):
                continue
            top = min(hi, b_max)
            # stored and branches_spawned count per index
            accepted += top - lo + 1
            grown = tracked | {e}
            runs[i] = (lo, top, grown, plus(load, e) if len(grown) < room else None)
            if top < hi:
                # the upper part, like every later run, starts above b_max
                runs.insert(i + 1, (top + 1, hi, tracked, load))
                break
        if not accepted:
            return
        tree.stored += accepted
        tree.branches_spawned += accepted
        # v_next = (1 - 1/K^4) v - 2 gain
        v_next = ((k4 - 1) * num - 2 * gain * k4 * den, k4 * den)
        child = _MatNode(tree, self.k - 1, v_next, self.g.extend(e, gain),
                         plus(self.iload, e))
        self.children[e] = (child, gain)

    def solution(self) -> tuple[frozenset, int]:
        best = None
        for e, (child, gain) in self.children.items():
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


class MatroidTree(_Tree):
    """Event-driven tree for one fixed guess v under a matroid constraint.

    Branching is Theta(K^5) wide per node with depth K, so ranks above
    ``MAX_RANK`` are refused. ``stored`` is the running count, summed over
    the nodes, of the carried independent set I, the tracking sets T_b
    and the fallback candidate. The stream delivers each element at most
    once, as an ordering of the ground set does.
    """

    MAX_RANK = 4
    step = _Tree._step

    def __init__(self, gate: QueryGate, matroid: Matroid, k: int, v, trace: bool = False):
        rank = matroid.rank
        if rank > self.MAX_RANK:
            raise InvalidParams(
                f"rank {rank} branch tree is Theta(K^5)-wide per node; "
                f"ranks above {self.MAX_RANK} are not supported")
        if k < 1:
            raise InvalidParams("need k >= 1")
        self.matroid = matroid
        self.rank = rank
        self.k4 = max(rank, 1) ** 4
        self.beta = self.k4 // 2
        super().__init__(trace)
        self.root = _MatNode(self, k, as_pair(v), Residual(gate), matroid.load(frozenset()))

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            for _, _, tracked, _ in node.runs:
                out |= tracked
            if node.best_single is not None:
                out.add(node.best_single[1])
        return frozenset(out)

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
    ``champion_v`` is the guess that produced the champion.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps,
                 constraint: str = "cardinality"):
        if constraint not in ("cardinality", "matroid"):
            raise InvalidParams(f"unknown constraint kind {constraint!r}")
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        eps = to_fraction(eps)
        p, q = eps.numerator, eps.denominator
        # the window's bounds over m, as (num, den): 1/(1+eps)^2 and K/eps
        self.grid = GuessGrid(eps, (q * q, (p + q) ** 2), (self.K * q, p))
        self.constraint = constraint
        self.empty_load = matroid.load(frozenset())
        self.roots: dict[int, CardTree | MatroidTree] = {}
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
            self.champion_v = Fraction(*self.grid[i])

    def step(self, t: int, e: int):
        if self.matroid.fits(self.empty_load, e):
            left, entered = self.grid.advance(self.gate.value(frozenset({e})))
            for i in left:
                self._retire(i)
            for i in entered:
                self._spawn(i)
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
        return solution, self.gate.value(solution)

