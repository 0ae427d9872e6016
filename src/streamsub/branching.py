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

A tree of either kind serves a run of guesses at once, and a node splits
only where its guesses disagree; :class:`_Tree` tells how, and how a tree
counts the queries and the elements of each of its guesses.

Numeric conventions: function values are exact integers. A guess value
v is an exact rational kept as an integer pair ``(num, den)`` with
``den > 0`` and not reduced. The target of a node of either tree is
affine in the guess, t(v) = (alpha*v - beta)/delta with integers and
delta > 0, so that one target serves a run of guesses; a gain clears
the bar t(v)/c exactly when ``(gain * c * delta + beta) * den >= alpha *
num``. So acceptance decisions are exact, never depend on float
rounding, and build no ``Fraction`` on the hot path; ``Fraction``
appears only where a guess is parsed or reported. Value bookkeeping
telescopes residuals, so a node's reported solution value never costs
extra oracle queries.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import floor, log, log1p
from operator import add

from .errors import InvalidParams
from .matroids import Matroid, UniformMatroid
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

# The most decimal digits eps = p/q may have in p or in q. A guess
# ((p+q)^i, q^i) grows by about that many digits per index, so a long eps
# makes every threshold comparison big-integer work.
MAX_EPS_DIGITS = 32


class GuessGrid:
    """The geometric guess grid v_i = (1+eps)^i, i >= 0, kept in integers
    (with eps = p/q, ``grid[i]`` is the pair ((p+q)^i, q^i)), and the
    window of it that a running maximum m selects. Only the pairs from
    ``first`` upward are cached: a window holds at most ``MAX_GUESSES``
    guesses, and an index below ``first`` (a guess that has left) is
    computed when asked for.

    ``lo`` and ``hi`` are the window's bounds over m, as ``(num, den)``
    pairs or exact numbers: it runs from the first index with v_first >=
    lo*m to the last with v_last <= hi*m, and never below first. A shape
    whose window could hold more than ``MAX_GUESSES`` guesses is refused.
    :meth:`advance` raises m; as both ends only rise, it steps on from
    ``first..last``, the previous window, instead of rescanning from 0.
    When m rises past the cached pairs, it first jumps ``first`` to a
    float estimate, taken only once an exact test puts it below the
    window, so a rise of thousands of digits costs no walk over the
    indices it skips. Values are integers, so no guess below v_0 = 1 is
    needed.
    """

    _NO_MOVE = (range(0), range(0))

    def __init__(self, eps, lo, hi):
        self.eps = to_fraction(eps)
        if not 0 < self.eps <= 1:
            raise InvalidParams("eps must be in (0, 1]")
        self.p, self.q = self.eps.numerator, self.eps.denominator
        self.lo, self.hi = as_pair(lo), as_pair(hi)
        self._pow = [(1, 1)]  # grid[first], grid[first + 1], ...
        self.m = 0
        self.first = 0
        self.last = -1
        # Refuse the shape when its window, of span hi/lo, could hold more
        # than MAX_GUESSES guesses, that is when (1+eps)^MAX_GUESSES <=
        # span. The test is exact and needs no power of a tiny eps, since
        # 1 + c*eps <= (1+eps)^c <= 1/(1 - c*eps) when c*eps < 1.
        n, d = self.hi[0] * self.lo[1], self.hi[1] * self.lo[0]
        p, q, c = self.p, self.q, MAX_GUESSES
        long = max(p, q) >= 10 ** MAX_EPS_DIGITS
        if d * (q + c * p) > n * q:
            fits = True  # 1 + c*eps > span
        elif c * p < q and (q - c * p) * n >= q * d:
            fits = False  # 1/(1 - c*eps) <= span
        else:
            # a long eps is refused below, before its power costs seconds
            fits = long or (p + q) ** c * d > n * q ** c
        if not fits:
            raise InvalidParams(f"eps={self._label()} puts more than {MAX_GUESSES} "
                                f"guesses in one window; use a larger eps")
        if long:
            raise InvalidParams(f"eps={self._label()} has more than {MAX_EPS_DIGITS} digits "
                                f"in its numerator or denominator; use a shorter eps")
        self._ln_base = log1p(p / q)

    def _label(self) -> str:
        eps = str(self.eps)
        if len(eps) > 24:
            eps = format(Decimal(self.p) / Decimal(self.q), ".4g")
        return eps

    def __getitem__(self, i: int) -> tuple[int, int]:
        k = i - self.first
        if k < 0:
            return (self.p + self.q) ** i, self.q ** i
        powers = self._pow
        while len(powers) <= k:
            num, den = powers[-1]
            powers.append((num * (self.p + self.q), den * self.q))
        return powers[k]

    def advance(self, m: int) -> tuple[range, range]:
        """Take ``m`` as the new running maximum and return the ascending
        ranges of the indices that left the window and of those that
        entered it; both are empty unless ``m`` rises. The indices entered
        and not left are always ``first..last``."""
        if m <= self.m:
            return self._NO_MOVE
        self.m = m
        (lo_n, lo_d), (hi_n, hi_d) = self.lo, self.hi
        old_first, old_last, powers = self.first, self.last, self._pow
        first, (num, den) = old_first, powers[0]
        if powers[-1][0] * lo_d < m * lo_n * powers[-1][1]:
            # the new first lies beyond the cached pairs: walk on from the
            # last of them, or from a float estimate of the new first less 2
            # if that is further; only an exact test lets the estimate count
            first, (num, den) = old_first + len(powers) - 1, powers[-1]
            jump = floor((log(m * lo_n) - log(lo_d)) / self._ln_base) - 2
            if jump > first:
                pair = (self.p + self.q) ** jump, self.q ** jump
                if pair[0] * lo_d < m * lo_n * pair[1]:
                    first, (num, den) = jump, pair
        while num * lo_d < m * lo_n * den:
            first += 1
            k = first - old_first
            num, den = powers[k] if k < len(powers) else (num * (self.p + self.q), den * self.q)
        # drop the pairs below the new first
        self._pow, self.first = powers[first - old_first:] or [(num, den)], first
        last = max(old_last, first)
        while self[last + 1][0] * hi_d <= m * hi_n * self[last + 1][1]:
            last += 1
        self.last = last
        left = range(old_first, min(first, old_last + 1))
        return left, range(max(first, old_last + 1), last + 1)


class _Tree:
    """What both branch trees share. ``run`` is the ascending list of the
    live guesses ``(index, num, den)``, with consecutive indices: a tree is
    built for one guess, and :class:`GuessDriver` joins to it the guesses
    that enter the window in the same step.

    ``nodes`` holds the live nodes in creation order. A node's ``run``
    lists the guesses it serves: the tree's ``run``, which only changes in
    place, until the node's guesses disagree on an offer (:meth:`step`).
    Then that node alone splits into variants, one per part of its run,
    each placed after it with a list of its own and linked by ``next`` to
    the variant above; they copy its state and share its residual and the
    children made before the split, so a guess finds its variant of a
    child by following the links.

    Queries: only the first node to offer an element on a residual asks
    the gate, uncounted; ``asked`` holds a ``(query, times, run)`` triple
    per query of the last step, counted once per guess of ``run``.

    Space: a node's ``hold`` counts the elements it holds for each guess
    it serves, ``taken[j]`` the branches guess j has spawned, each holding
    one element more, and ``held``, the tree's footprint, is every
    ``hold`` times its node's guesses plus every ``taken``. Only
    :meth:`_hold` adds to ``hold`` and :meth:`_credit` to ``taken``, both
    keeping ``held`` current. Nodes keep no reference to their tree,
    which passes itself in, so a tree holds no reference cycle.
    """

    def __init__(self, gate: QueryGate, run: list):
        self.gate = gate
        self.run = run
        self.nodes: list = []
        self.asked: list = []
        self.taken = [0] * len(run)
        self.held = 0

    @property
    def branches_spawned(self) -> int:
        """The branches the run's lowest guess has spawned."""
        return self.taken[0]

    def footprint(self) -> int:
        """The elements the tree holds, summed over its guesses."""
        return self.held

    def join(self, index: int, v: tuple[int, int]):
        """Add guess ``index`` of value ``v`` on top of the run, before the
        tree's first step, when no node holds an element yet, and make the
        query of f(empty) that the guess's own root would make."""
        self.run.append((index, *v))
        self.taken.append(0)
        self.gate.value(frozenset())

    def step(self, t: int, e: int):
        """(1) Offer ``e`` to every node made before this step; a node
        records its query in ``asked`` and, if a guess it serves takes
        ``e``, returns ``(node, gain, parts)``: per part of its guesses that
        agree, the part's end and what it takes. The gate counts each query
        once per guess of its node. (2) Each offer splits its node into its
        parts, each of which takes what it takes. A child first sees the
        next element. ``t`` goes unread: ``stream_run`` passes it to every
        algorithm."""
        asked = self.asked = []
        offers = []
        for node in self.nodes:  # (1)
            offer = node.offer(self, e)
            if offer is not None:
                offers.append(offer)
        if asked:
            count = sum([times * len(run) for _, times, run in asked])
            # the log: guess by guess, each guess's queries in the order of its nodes
            self.gate.replay(count, lambda: [(query, times) for index, _, _ in self.run
                                             for query, times, run in asked
                                             if run[0][0] <= index <= run[-1][0]])
        for node, gain, parts in offers:  # (2)
            start, last = 0, parts[-1][0]
            for end, what in parts:
                twin = self._split(node, end - start) if end < last else None
                if what:
                    node.take(self, e, gain, what)
                start, node = end, twin

    def _split(self, node, cut: int):
        """Hand the guesses of ``node`` from position ``cut`` on to a copy
        of it, placed after it in ``nodes`` and in the variant links, and
        return the copy."""
        twin = node.variant()
        run = node.run
        node.run, twin.run = run[:cut], run[cut:]
        node.next, twin.next = twin, node.next
        self.nodes.insert(self.nodes.index(node) + 1, twin)
        return twin

    def finish(self) -> tuple[frozenset, int]:
        """The solution of the run's lowest guess."""
        index = self.run[0][0]
        return self._solve(_serving(self.root, index), index)

    def shared(self) -> int:
        """How many of the run's lowest guesses the same nodes serve: up to
        the first guess a node's run ends at, as a node's run can start
        above the lowest guess only where another's ends."""
        return min(node.run[-1][0] for node in self.nodes) - self.run[0][0] + 1

    def _hold(self, node, n: int):
        # `node` holds n elements more, for each guess it serves
        node.hold += n
        self.held += n * len(node.run)

    def _credit(self, run: list, counts: list):
        # the guesses of `run` have spawned counts[j] branches more each
        lo = run[0][0] - self.run[0][0]
        hi = lo + len(run)
        self.taken[lo:hi] = map(add, self.taken[lo:hi], counts)
        self.held += sum(counts)

    def drop_lowest(self, k: int) -> int:
        """Drop the run's k lowest guesses, and the nodes that served only
        them, and return their count of branches spawned."""
        spawned = sum(self.taken[:k])
        low = self.run[0][0] + k
        self.held -= spawned
        nodes = []
        # count each node's guesses below `low` before any list is cut,
        # as nodes share lists
        for node in self.nodes:
            run = node.run
            self.held -= node.hold * max(0, min(low - run[0][0], len(run)))
            if run[-1][0] >= low:
                nodes.append(node)
        del self.run[:k], self.taken[:k]
        for node in nodes:  # once for a list that others share
            del node.run[:max(0, low - node.run[0][0])]
        self.nodes = nodes
        return spawned


def _serving(node, index: int):
    """The variant of ``node`` that serves guess ``index``."""
    while node.run[-1][0] < index:
        node = node.next
    return node


# ---------------------------------------------------------------------------
# cardinality branch tree


def _cut(run: list, over: int, alpha: int) -> int:
    """How many guesses of ``run``, ascending ``(index, num, den)``, a bar
    with ``over * den >= alpha * num`` clears, given that the lowest does:
    they are a prefix, as alpha > 0. Bisects between the ends."""
    _, num, den = run[-1]
    if over * den >= alpha * num:
        return len(run)
    lo, hi = 1, len(run) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        _, num, den = run[mid]
        if over * den >= alpha * num:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _CardNode:
    """The invocations of the cardinality procedure that one acceptance
    starts (at the root, the root invocation): they share the residual g,
    the budget s, one leaf and one query per step. An invocation (k, s, t)
    takes the first element whose gain reaches t/(k+s-1) into a child
    (k, s-1, t - gain), and its skip child (k-1, s, t(k+s-2)/(k+s-1)) waits
    on the same residual; one with k == 1 or s == 1 is a leaf, keeping the
    best singleton. ``chains`` holds ``[k, target, pin, child, at]`` per skip
    chain (k, s, t), (k-1, s, .), ..., (1, s, .); once it has taken
    ``pin = (e, gain)``, member j's take child is chain ``at + k - j`` of
    ``child``. ``best`` is the leaves' best singleton, as ({e}, gain).

    A target is affine in the guess v: ``(alpha, beta, delta)`` stands for
    t(v) = (alpha*v - beta)/delta, with integers alpha, delta > 0; the
    root's is (1, 0, 1). With c = k+s-1 and c_j = j+s-1, member j's take
    child gets t*c_j/c - gain = (alpha*c_j, beta*c_j + gain*delta*c,
    delta*c). So a gain clears the bar of the guess v = num/den exactly
    when (gain*c*delta + beta) * den >= alpha * num, and, as alpha > 0, the
    guesses that clear it are a prefix of the node's ascending guesses.

    ``waiting`` holds ``(position, chain)`` for the chains whose members
    still wait for an element (k > 1, no pin, and s > 1), and ``times`` the
    node's query count per step: one per chain for its leaf and k - 1 per
    waiting chain. Both are built at the first offer and then only shrink,
    on an acceptance. That is exact because a node's chains are all
    appended in the step that created it, by its parent's offer, and a
    node first sees an element one step later.

    * One chain, one element: members k..2 share the bar t/(k+s-1), since
      t(k+s-2)/(k+s-1) / ((k-1)+s-1) = t/(k+s-1), and are created in the
      same step on the same residual, so they accept the same element at
      the same step.
    * One node, one leaf: every leaf of a node is born in the same step on
      the same residual, so all keep the same best singleton.
    * One query, the same log: a node's invocations query the same set
      and, stepped one by one, would run contiguously, node after node in
      creation order; so one query counted once per invocation leaves the
      query count and log unchanged, entry for entry.
    """

    __slots__ = ("s", "g", "best", "chains", "waiting", "times", "hold", "run", "next")

    def __init__(self, tree: "CardTree", s: int, g: Residual, chains: list, run: list):
        self.s = s
        self.g = g
        self.best = None
        self.chains = chains
        self.waiting = None
        self.times = 0
        self.hold = 0
        self.run = run
        self.next = None
        tree.nodes.append(self)

    def offer(self, tree: "CardTree", e: int):
        """Read the gain of ``e`` once for all invocations, record the
        query and its count in ``tree.asked`` and keep the best singleton.
        Return None if no waiting chain's bar clears the node's lowest
        guess, else ``(self, gain, parts)``; a chain's bar is cleared by a
        prefix of the node's guesses, and each part takes the positions of
        the chains whose prefix covers it."""
        s, waiting = self.s, self.waiting
        if waiting is None:
            # every chain's leaf queries, and so does each member of a
            # chain that has not taken an element yet
            waiting = self.waiting = [(p, c) for p, c in enumerate(self.chains)
                                      if c[0] > 1] if s > 1 else []
            self.times = len(self.chains) + sum(c[0] - 1 for _, c in waiting)
        g = self.g
        if g.last != e:
            g.ask(e)
        gain = g.gain
        run = self.run
        tree.asked.append((g.query, self.times, run))
        best = self.best
        if best is None:
            tree._hold(self, len(self.chains))
        if best is None or gain > best[1]:
            self.best = (frozenset({e}), gain)
        if not waiting:
            return None
        takes = None
        _, num, den = run[0]
        for p, chain in waiting:
            alpha, beta, delta = chain[1]
            over = gain * (chain[0] + s - 1) * delta + beta
            if over * den >= alpha * num:
                if takes is None:
                    takes = []
                takes.append((p, _cut(run, over, alpha)))
        if takes is None:
            return None
        ends = sorted({cut for _, cut in takes} | {len(run)})
        return self, gain, [(end, [p for p, cut in takes if cut >= end]) for end in ends]

    def take(self, tree: "CardTree", e: int, gain: int, taking: list):
        """Pin ``e`` in each of the chains at positions ``taking``, waiting
        chains of this node in order, under one new child."""
        s = self.s
        child = _CardNode(tree, s - 1, self.g.extend(e, gain), [], self.run)
        chains = [self.chains[p] for p in taking]
        # each chain pins e in its k - 1 members, for every guess of the node
        spawned = sum(chain[0] for chain in chains) - len(chains)
        tree._credit(self.run, [spawned] * len(self.run))
        self.times -= spawned
        for chain in chains:
            k = chain[0]
            alpha, beta, delta = chain[1]
            chain[2:] = (e, gain), child, len(child.chains)
            # member j's target is t(j+s-1)/(k+s-1) - gain, the skip
            # product less the gain
            over, delta_k = gain * delta * (k + s - 1), delta * (k + s - 1)
            child.chains.extend([j, (alpha * (j + s - 1), beta * (j + s - 1) + over, delta_k),
                                 None, None, 0] for j in range(k, 1, -1))
        self.waiting = [(p, c) for p, c in self.waiting if c[2] is None]

    def variant(self) -> "_CardNode":
        twin = object.__new__(_CardNode)
        twin.s, twin.g, twin.best, twin.times = self.s, self.g, self.best, self.times
        twin.hold = self.hold
        twin.chains = [list(c) for c in self.chains]
        twin.waiting = [(p, twin.chains[p]) for p, _ in self.waiting]
        return twin

    def solution(self, index: int, i: int) -> tuple[frozenset, int]:
        """Guess ``index``'s solution of the head of chain ``i``."""
        k, _, pin, child, at = self.chains[i]
        best = self.best or (frozenset(), 0)
        if pin is not None:
            e, gain = pin
            child = _serving(child, index)
            for j in range(2, k + 1):
                sub, sub_val = child.solution(index, at + k - j)
                if sub_val + gain > best[1]:
                    best = (sub | {e}, sub_val + gain)
        elif k > 1 and self.s > 1 and best[1] < 0:
            # a member that took nothing offers the empty set
            best = (frozenset(), 0)
        return best


class CardTree(_Tree):
    """Event-driven tree under a cardinality budget for a run of guesses
    (:class:`_CardNode`, :class:`_Tree`). A node splits where a gain
    clears a chain's bar for a prefix of its guesses only. Each node keeps
    taking singletons, so every node stays live. A node's ``hold`` is one
    element per chain, its leaf's best singleton, and ``taken`` counts one
    per internal invocation that has pinned an element. Budgets above
    ``MAX_K`` are refused: runs of guesses do not shrink the per-guess
    space bound K*2^(2K).
    """

    MAX_K = 10

    def __init__(self, gate: QueryGate, k: int, s: int, v, index: int = 0):
        if k < 1 or s < 1:
            raise InvalidParams("need k >= 1 and s >= 1")
        self.check_size(max(k, s))
        super().__init__(gate, [(index, *as_pair(v))])
        self.root = _CardNode(self, s, Residual(gate), [[k, (1, 0, 1), None, None, 0]], self.run)

    @classmethod
    def check_size(cls, k: int):
        if k > cls.MAX_K:
            raise InvalidParams(f"K={k} cardinality branch tree holds up to K*2^(2K) elements "
                                f"per guess; K above {cls.MAX_K} is not supported")

    # perfbench/spans.py hooks the step and finish of each tree class by
    # name, and resolves only a method in the class's own namespace
    step, finish = _Tree.step, _Tree.finish

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            if node.best is not None:
                out |= node.best[0]
            out.update(pin[0] for _, _, pin, _, _ in node.chains if pin is not None)
        return frozenset(out)

    @staticmethod
    def _solve(root: _CardNode, index: int) -> tuple[frozenset, int]:
        return root.solution(index, 0)


# ---------------------------------------------------------------------------
# matroid branch tree


def _upto(run: list, t: tuple, k4: int, n: int, x, none: int = 0) -> list:
    """Per guess v = num/den of ``run``, how many of its ``n`` threshold
    indices b = 0..n-1 lie at a level b*t(v)/k4 <= x, for the target ``t``
    and an integer ``x``; ``none`` for each when ``x`` is None, an
    infinite run bound. A guess with t(v) <= 0 puts every index at level
    -inf."""
    if x is None:
        return [none] * len(run)
    alpha, beta, delta = t
    xk = x * k4 * delta
    out = []
    for _, num, den in run:
        tn = alpha * num - beta * den
        if tn > 0:
            c = xk * den // tn + 1
            out.append(n if c > n else c if c > 0 else 0)
        else:
            out.append(n)
    return out


class _MatNode:
    """One invocation of the matroid procedure for every guess of its
    tree's run: the carried independent set I, the pinned set of its
    residual ``g``, with its load ``iload``, and the target ``t``, affine
    in the guess as a cardinality chain's: the root's is (1, 0, 1), and
    the child on a gain gets (1 - 1/K^4)*t(v) - 2*gain.

    For each threshold index b (0..beta, with acceptance bar b*t(v)/K^4)
    the node grows a tracking set T_b of accepted elements; every acceptance
    logically spawns a child conditioned on that element. Children are
    shared across threshold indices that accept the same element at the
    same arrival, which is pure memoization of identical invocations, and
    across the node's guesses. A fallback candidate (the best singleton
    extending I) is always kept.

    T_b depends on the guess only through its level b*t(v)/K^4: the node's
    gains and independence tests are the same for every guess, and an
    element joins the greedy set at level L exactly when L <= gain. So
    the node keeps one list of ``runs`` for all its guesses,
    ``(lo, hi, T, load)`` in level order, where every level in (lo, hi]
    holds T and ``load`` is the matroid load of I + T. The bounds are
    gains, so integers; ``lo`` None is -inf and ``hi`` None is +inf, and
    the runs tile that extended line. A guess with t(v) <= 0 puts all its
    indices at level -inf, in the lowest run: every gain clears every bar
    of such a guess, a negative one included. A run whose I + T has
    reached the rank is closed: it keeps T and its load is None. A node
    with k = 1 tracks nothing and has no runs.

    On each offer a run ignores e, takes it on all its levels, or splits
    at the gain into a lower part (lo, gain] that takes e and an upper
    part that stays as it was. A run splits only where both parts hold an
    index of a guess of the node, and an acceptance whose part holds none
    is skipped: a node gains no guess once it has seen an element, so a
    level that holds no index now never will. Per guess, only the count
    of its indices in each accepting part is computed (:func:`_upto`),
    which feeds the tree's ``taken``.
    """

    __slots__ = ("k", "t", "g", "iload", "best_single", "runs", "children", "hold", "run", "next")

    def __init__(self, tree: "MatroidTree", k: int, t: tuple, g: Residual, iload, run: list):
        self.k = k
        self.t = t
        self.g = g
        self.iload = iload
        self.best_single = None
        # accepted element -> (its child, its gain), in arrival order
        self.children: dict[int, tuple["_MatNode", int]] = {}
        self.runs = [(None, None, frozenset(), iload)] if k > 1 else []
        self.hold = 0
        self.run = run
        self.next = None
        tree.nodes.append(self)
        tree._hold(self, len(g.pinned))

    def offer(self, tree: "MatroidTree", e: int):
        """When I + e is independent, read the gain of ``e`` once for all
        the node's guesses, record the query in ``tree.asked``, keep the
        fallback and offer ``e`` to the runs. Return None if no guess takes
        ``e``, else ``(self, gain, parts)``, one part for each run of
        adjacent guesses that agree on taking it."""
        matroid = tree.matroid
        if not matroid.fits(self.iload, e):
            return None
        g = self.g
        if g.last != e:
            g.ask(e)
        gain = g.gain
        run = self.run
        tree.asked.append((g.query, 1, run))
        best = self.best_single
        if best is None:
            tree._hold(self, 1)
            self.best_single = (gain, e)
        elif gain > best[0]:
            self.best_single = (gain, e)
        runs = self.runs
        if not runs:
            return None
        fits, plus = matroid.fits, matroid.plus
        room = tree.rank - len(g.pinned)
        t, k4, n = self.t, tree.k4, tree.beta + 1
        counts = None
        for i, (lo, hi, tracked, load) in enumerate(runs):
            if lo is not None and lo >= gain:
                break  # every level of this run and the later ones is above the gain
            if load is None or not fits(load, e):
                continue
            below = _upto(run, t, k4, n, lo)
            if hi is not None and hi <= gain:
                top, upto = hi, _upto(run, t, k4, n, hi)
            else:
                top, upto = gain, _upto(run, t, k4, n, gain)
                if upto == _upto(run, t, k4, n, hi, n):
                    top = hi  # no index lies above the gain: the run takes e whole
            part = [b - a for a, b in zip(below, upto)]
            if not any(part):
                continue  # no index lies in the part that would take e
            grown = tracked | {e}
            runs[i] = (lo, top, grown, plus(load, e) if len(grown) < room else None)
            counts = part if counts is None else [c + p for c, p in zip(counts, part)]
            if top != hi:
                # the upper part, like every later run, starts at the gain
                runs.insert(i + 1, (gain, hi, tracked, load))
                break
        if counts is None:
            return None
        tree._credit(run, counts)
        if 0 not in counts:
            return self, gain, [(len(counts), True)]
        ends = [j for j in range(1, len(counts)) if (counts[j] > 0) != (counts[j - 1] > 0)]
        return self, gain, [(end, counts[end - 1] > 0) for end in ends + [len(counts)]]

    def take(self, tree: "MatroidTree", e: int, gain: int, took: bool):
        """Spawn the child conditioned on ``e`` for every guess of the
        node, which all took it."""
        k4 = tree.k4
        alpha, beta, delta = self.t
        # t_next(v) = (1 - 1/K^4) t(v) - 2 gain
        t = ((k4 - 1) * alpha, (k4 - 1) * beta + 2 * gain * k4 * delta, k4 * delta)
        child = _MatNode(tree, self.k - 1, t, self.g.extend(e, gain),
                         tree.matroid.plus(self.iload, e), self.run)
        self.children[e] = (child, gain)

    def variant(self) -> "_MatNode":
        twin = object.__new__(_MatNode)
        twin.k, twin.t, twin.g, twin.iload = self.k, self.t, self.g, self.iload
        twin.hold = self.hold
        twin.best_single, twin.runs, twin.children = (self.best_single, list(self.runs),
                                                      dict(self.children))
        return twin

    def solution(self, index: int) -> tuple[frozenset, int]:
        """Guess ``index``'s solution of this node."""
        best = None
        for e, (child, gain) in self.children.items():
            sub, sub_val = _serving(child, index).solution(index)
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
    """Event-driven tree under a matroid constraint for a run of guesses
    (:class:`_MatNode`, :class:`_Tree`).

    A node splits where two adjacent guesses disagree on whether it
    spawns a child for e (:meth:`_MatNode.offer`). Index 0's bar is 0, so
    T_0 is the same for every guess with a positive target: guesses can
    disagree only when T_0 cannot take e or a target is <= 0.

    Branching is Theta(K^5) wide per node with depth K, so ranks above
    ``MAX_RANK`` are refused. A node's ``hold`` is its carried set I and
    its fallback, and ``taken[j]`` counts the elements of guess j's
    tracking sets, one per threshold index that accepted an element, which
    is also its count of branches spawned. :meth:`stored_set` holds,
    besides the fallbacks, the tracking sets of the runs that hold an
    index of a live guess of the node: the elements its children are
    conditioned on, as a node spawns a child exactly when its guesses take
    one. :meth:`index_runs` shows a node's runs as one guess's runs of
    indices. The stream delivers each element at most once, as an ordering
    of the ground set does.
    """

    MAX_RANK = 4

    def __init__(self, gate: QueryGate, matroid: Matroid, k: int, v, index: int = 0):
        rank = matroid.rank
        self.check_size(rank)
        if k < 1:
            raise InvalidParams("need k >= 1")
        super().__init__(gate, [(index, *as_pair(v))])
        self.matroid = matroid
        self.rank = rank
        self.k4 = max(rank, 1) ** 4
        self.beta = self.k4 // 2
        self.root = _MatNode(self, k, (1, 0, 1), Residual(gate), matroid.load(frozenset()), self.run)

    @classmethod
    def check_size(cls, rank: int):
        if rank > cls.MAX_RANK:
            raise InvalidParams(
                f"rank {rank} branch tree is Theta(K^5)-wide per node; "
                f"ranks above {cls.MAX_RANK} are not supported")

    # hooked by class, as CardTree's are
    step, finish = _Tree.step, _Tree.finish

    def index_runs(self, node: _MatNode, index: int) -> list:
        """Guess ``index``'s threshold runs at ``node`` by index: ``(lo,
        hi, T, load)`` for each run of the node that holds the indices
        lo..hi of the guess, in order, tiling 0..beta."""
        j = index - self.run[0][0]
        run, t, k4, n = self.run[j:j + 1], node.t, self.k4, self.beta + 1
        out = []
        for lo, hi, tracked, load in node.runs:
            (a,), (b,) = _upto(run, t, k4, n, lo), _upto(run, t, k4, n, hi, n)
            if a < b:
                out.append((a, b - 1, tracked, load))
        return out

    def stored_set(self) -> frozenset:
        out: set = set()
        for node in self.nodes:
            # the elements of the runs that hold an index of a guess: those
            # the guesses took, and so the node's children
            out.update(node.children)
            if node.best_single is not None:
                out.add(node.best_single[1])
        return frozenset(out)

    _solve = staticmethod(_MatNode.solution)


# ---------------------------------------------------------------------------
# value-guessing driver


class GuessDriver:
    """Runs the branch trees of the active guesses v = (1+eps)^i in a single
    pass.

    The active window is m/(1+eps)^2 <= v <= K*m/eps where m is the best
    feasible singleton seen so far. Guesses are spawned lazily as they
    enter the window (their trees see only the suffix from that point) and
    are retired when they leave it; a retired tree's current solution is
    frozen into the running champion so the final answer is the best
    solution over all roots ever spawned. :meth:`finish` returns the
    champion with its value queried once more through the gate.
    ``champion_v`` is the guess that produced the champion. The trees are
    :class:`CardTree` on a ``UniformMatroid`` and :class:`MatroidTree` on any
    other matroid; a budget above the tree's cap is refused here, before
    any element.

    ``trees`` lists the live trees in ascending guess order: the guesses
    that enter in one step join one new tree (:class:`_Tree`), which lives
    until its last guess leaves. Their runs, concatenated, are the window
    ``grid.first..grid.last``. Each step steps each tree once, and nothing
    queries between a tree's offers and its count, so the query count and
    log, the oracle calls, the refusals, the footprint (the champion's
    size plus each tree's ``held``), the stored set and the counters are
    those of one tree per guess.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        if isinstance(matroid, UniformMatroid):
            CardTree.check_size(self.K)
            self._new_tree = partial(CardTree, gate, self.K, self.K)
        else:
            MatroidTree.check_size(self.K)
            self._new_tree = partial(MatroidTree, gate, matroid, self.K)
        eps = to_fraction(eps)
        p, q = eps.numerator, eps.denominator
        # the window's bounds over m, as (num, den): 1/(1+eps)^2 and K/eps
        self.grid = GuessGrid(eps, (q * q, (p + q) ** 2), (self.K * q, p))
        self.empty_load = matroid.load(frozenset())
        self.trees: list[CardTree | MatroidTree] = []
        self.champion: tuple[frozenset, int] = (frozenset(), 0)
        self.champion_v: Fraction | None = None
        self.branches_spawned = 0
        self.roots_spawned = 0
        self.live_roots_peak = 0

    def _retire(self, k: int):
        # guesses leave from the bottom of the window, so the k leaving are
        # the lowest of the first trees' runs; those the same nodes serve
        # share a solution, and under the strict >, the lowest of them is
        # the one that would win a tie
        trees = self.trees
        while k:
            tree = trees[0]
            sol, val = tree.finish()
            if val > self.champion[1]:
                self.champion = (sol, val)
                self.champion_v = Fraction(*self.grid[tree.run[0][0]])
            n = min(k, tree.shared())
            self.branches_spawned += tree.drop_lowest(n)
            k -= n
            if not tree.run:
                del trees[0]

    def step(self, t: int, e: int):
        if self.matroid.fits(self.empty_load, e):
            grid = self.grid
            left, entered = grid.advance(self.gate.value(frozenset({e})))
            if left:
                self._retire(len(left))
            if entered:
                tree = self._new_tree(grid[entered[0]], index=entered[0])
                for i in entered[1:]:
                    tree.join(i, grid[i])
                self.trees.append(tree)
                self.roots_spawned += len(entered)
                self.live_roots_peak = max(self.live_roots_peak, grid.last - grid.first + 1)
        for tree in self.trees:
            tree.step(t, e)

    def stored_set(self) -> frozenset:
        out = set(self.champion[0])
        for tree in self.trees:
            out |= tree.stored_set()
        return frozenset(out)

    def footprint(self) -> int:
        return len(self.champion[0]) + sum([tree.held for tree in self.trees])

    def finish(self) -> tuple[frozenset, int]:
        self._retire(self.grid.last - self.grid.first + 1)
        solution = self.champion[0]
        return solution, self.gate.value(solution)
