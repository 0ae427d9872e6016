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

The guess enters a cardinality tree only through its take bars, so one
:class:`CardTree` stands for a contiguous run of guesses for as long as
their trees make the same take/skip decisions, and splits where an
offered gain clears the bar of the run's lower guesses and not of its
upper ones. The driver steps each run once and replays the run's queries
through the gate for its other guesses, so the query count and log are
those of one tree per guess.

Numeric conventions: function values are exact integers. A guess value
v is an exact rational kept as an integer pair ``(num, den)`` with
``den > 0`` and not reduced. A matroid-tree target is such a pair, and a
gain clears the bar v/c exactly when ``gain * c * den >= num``. A
cardinality-tree target is affine in the guess, t(v) = (alpha*v -
beta)/delta with integers alpha, delta > 0, so that one target serves a
run of guesses; a gain clears the bar t(v)/c exactly when
``(gain * c * delta + beta) * den >= alpha * num``. So acceptance
decisions are exact, never depend on float rounding, and build no
``Fraction`` on the hot path; ``Fraction`` appears only where a guess is
parsed or reported. Value bookkeeping telescopes residuals, so a node's
reported solution value never costs extra oracle queries.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

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
            raise InvalidParams(f"eps={self._label()} puts more than {MAX_GUESSES} "
                                f"guesses in one window; use a larger eps")
        if max(p, q) >= 10 ** MAX_EPS_DIGITS:
            raise InvalidParams(f"eps={self._label()} has more than {MAX_EPS_DIGITS} digits "
                                f"in its numerator or denominator; use a shorter eps")

    def _label(self) -> str:
        eps = str(self.eps)
        if len(eps) > 24:
            eps = format(Decimal(self.p) / Decimal(self.q), ".4g")
        return eps

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
    """State of both branch trees: ``nodes`` holds every node ever created
    and ``stored`` counts the elements they hold; when tracing,
    ``trace_log`` gets one ``(id(node), t)`` per offer."""

    def __init__(self, trace: bool):
        self.nodes: list = []
        self.stored = 0
        self.branches_spawned = 0
        self.trace_log: list | None = [] if trace else None

    def footprint(self) -> int:
        return self.stored


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
    guesses that clear it are a prefix of the tree's ascending run.

    ``waiting`` holds the chains whose members still wait for an element
    (k > 1, no pin, and s > 1), and ``times`` the node's query count per
    step: one per chain for its leaf and k - 1 per waiting chain. Both are
    built at the first offer and then only shrink, on an acceptance. That
    is exact because a node's chains are all appended in the step that
    created it, by its parent's offer, and a node first sees an element
    one step later.

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

    def offer(self, e: int, run: list, asked: list):
        """Query the gain of ``e`` once for all invocations, record the
        query and its count in ``asked`` and keep the best singleton.
        Return None if no waiting chain's bar clears the run's lowest
        guess, else ``(self, gain, takes)`` with one ``(chain, cut)`` per
        chain whose bar the first ``cut`` guesses of the run clear."""
        s, waiting = self.s, self.waiting
        if waiting is None:
            # every chain's leaf queries, and so does each member of a
            # chain that has not taken an element yet
            waiting = self.waiting = [c for c in self.chains if c[0] > 1] if s > 1 else []
            self.times = len(self.chains) + sum(c[0] - 1 for c in waiting)
        g = self.g
        query = g.pinned | {e}
        gain = g.gate.value(query, self.times) - g.base
        asked.append((query, self.times))
        if self.best is None:
            self.tree.stored += len(self.chains)
        if self.best is None or gain > self.best[1]:
            self.best = (frozenset({e}), gain)
        if not waiting:
            return None
        takes = None
        _, num, den = run[0]
        for chain in waiting:
            alpha, beta, delta = chain[1]
            over = gain * (chain[0] + s - 1) * delta + beta
            if over * den >= alpha * num:
                if takes is None:
                    takes = []
                takes.append((chain, _cut(run, over, alpha)))
        return None if takes is None else (self, gain, takes)

    def take(self, e: int, gain: int, chains: list):
        """Pin ``e`` in each of ``chains``, waiting chains of this node in
        order, under one new child."""
        tree, s = self.tree, self.s
        child = _CardNode(tree, s - 1, self.g.extend(e, gain), [])
        for chain in chains:
            k = chain[0]
            alpha, beta, delta = chain[1]
            chain[2:] = (e, gain), child, len(child.chains)
            tree.stored += k - 1
            tree.branches_spawned += k - 1
            self.times -= k - 1
            # member j's target is t(j+s-1)/(k+s-1) - gain, the skip
            # product less the gain
            over, delta_k = gain * delta * (k + s - 1), delta * (k + s - 1)
            child.chains.extend([j, (alpha * (j + s - 1), beta * (j + s - 1) + over, delta_k),
                                 None, None, 0] for j in range(k, 1, -1))
        self.waiting = [c for c in self.waiting if c[2] is None]

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
    """Event-driven tree under a cardinality budget for a run of guesses.

    ``run`` holds the guesses the tree stands for, ascending, as
    ``(index, num, den)``. ``CardTree(gate, k, s, v)`` is a run of one
    guess v; :class:`GuessDriver` adds the guesses that enter its window
    in the same step. The guess enters only the take bars, so the trees of
    the run's guesses are one tree for as long as they make the same
    take/skip decisions.

    :meth:`step` runs in three phases. (1) Every pre-step node queries
    once, at the run's lowest guess, and finds for each waiting chain the
    prefix of the run whose bars its gain clears; ``asked`` records each
    query with its count. (2) Where a prefix ends inside the run, the
    still unchanged tree is copied once for each sub-run above such a
    cut, the copies sharing its residuals, and keeps the lowest sub-run.
    (3) Each tree applies its own takes. An offer changes only its node,
    the node's new child and the tree's counters, so the offers of one
    step are independent, and each tree makes the run its guesses would
    have made alone. :meth:`step` returns the copies; a driver replays
    ``asked`` once for each other guess of the run.

    Each node keeps taking singletons, so every node stays live.
    ``stored`` counts, for each guess of the run, one element per leaf
    with a best singleton and one per internal invocation that has pinned
    an element. Budgets above ``MAX_K`` are refused: runs of guesses do
    not shrink the per-guess space bound K*2^(2K).
    """

    MAX_K = 10

    def __init__(self, gate: QueryGate, k: int, s: int, v, trace: bool = False,
                 index: int = 0):
        if k < 1 or s < 1:
            raise InvalidParams("need k >= 1 and s >= 1")
        self.check_size(max(k, s))
        super().__init__(trace)
        self.run = [(index, *as_pair(v))]
        self.asked: list = []
        self.root = _CardNode(self, s, Residual(gate), [[k, (1, 0, 1), None, None, 0]])

    @classmethod
    def check_size(cls, k: int):
        if k > cls.MAX_K:
            raise InvalidParams(f"K={k} cardinality branch tree holds up to K*2^(2K) elements "
                                f"per guess; K above {cls.MAX_K} is not supported")

    def step(self, t: int, e: int) -> list:
        run, trace = self.run, self.trace_log
        asked = self.asked = []
        offers = []
        # (1) no node is created before (3), and the children made there
        # first see the next element
        for node in self.nodes:
            if trace is not None:
                trace.append((id(node), t))
            offer = node.offer(e, run, asked)
            if offer is not None:
                offers.append(offer)
        if not offers:
            return []
        twins = []
        # (2) the sub-runs above the cuts inside the run, then (3)
        cuts = sorted({cut for _, _, takes in offers for _, cut in takes if cut < len(run)})
        if cuts:
            for lo, hi in zip(cuts, cuts[1:] + [len(run)]):
                twin, remap = self._copy(run[lo:hi])
                twin._take(e, offers, hi, remap)
                twins.append(twin)
            del run[cuts[0]:]
        self._take(e, offers, len(run), None)
        return twins

    def _take(self, e: int, offers: list, bound: int, remap: dict | None):
        # a chain takes e when its bar clears the first `bound` guesses,
        # the whole run of this tree
        for node, gain, takes in offers:
            chains = [chain for chain, cut in takes if cut >= bound]
            if chains:
                if remap is not None:
                    node = remap[id(node)]
                    chains = [remap[id(chain)] for chain in chains]
                node.take(e, gain, chains)

    def _copy(self, run: list) -> tuple["CardTree", dict]:
        """This tree for the guesses ``run``, sharing its residuals, and a
        map from the id of each node and chain to its copy."""
        twin = CardTree.__new__(CardTree)
        _Tree.__init__(twin, self.trace_log is not None)
        twin.stored, twin.branches_spawned = self.stored, self.branches_spawned
        twin.run, twin.asked = run, []
        remap = {}
        for node in self.nodes:
            copy = _CardNode(twin, node.s, node.g, [list(chain) for chain in node.chains])
            copy.best, copy.times = node.best, node.times
            remap[id(node)] = copy
            remap.update(zip(map(id, node.chains), copy.chains))
        for node in self.nodes:
            copy = remap[id(node)]
            for chain in copy.chains:
                if chain[3] is not None:
                    chain[3] = remap[id(chain[3])]
            copy.waiting = [remap[id(chain)] for chain in node.waiting]
        twin.root = twin.nodes[0]
        return twin, remap

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

    def __init__(self, gate: QueryGate, matroid: Matroid, k: int, v, trace: bool = False):
        rank = matroid.rank
        self.check_size(rank)
        if k < 1:
            raise InvalidParams("need k >= 1")
        self.matroid = matroid
        self.rank = rank
        self.k4 = max(rank, 1) ** 4
        self.beta = self.k4 // 2
        super().__init__(trace)
        self.root = _MatNode(self, k, as_pair(v), Residual(gate), matroid.load(frozenset()))

    @classmethod
    def check_size(cls, rank: int):
        if rank > cls.MAX_RANK:
            raise InvalidParams(
                f"rank {rank} branch tree is Theta(K^5)-wide per node; "
                f"ranks above {cls.MAX_RANK} are not supported")

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
    other matroid, unless ``constraint`` ("cardinality" or "matroid") says;
    a budget above the tree's cap is refused here, before any element.

    ``roots`` maps each live guess index to its tree. Matroid trees are one
    per guess. A cardinality tree stands for a contiguous run of guesses
    (:class:`CardTree`), so the guesses that enter in one step share one
    new tree, and a tree splits only where an offered gain clears the bar
    of some of its guesses and not of the rest. Each step steps every
    distinct tree once, in ascending guess order, and after each replays
    the tree's queries through the gate once for each other guess of its
    run. So the query count, the query log (guess by guess, as one tree
    per guess would make it), the oracle calls and the refusals are those
    of one tree per guess, and so are the footprint, the stored set and
    the counters. A tree's solution is computed once for all its guesses
    that retire in one step.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps, constraint: str | None = None):
        if constraint is None:
            constraint = "cardinality" if isinstance(matroid, UniformMatroid) else "matroid"
        elif constraint not in ("cardinality", "matroid"):
            raise InvalidParams(f"unknown constraint kind {constraint!r}")
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        (CardTree if constraint == "cardinality" else MatroidTree).check_size(self.K)
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
        # the cardinality tree spawned in this step, and the last retired
        # tree with its solution
        self._entering: CardTree | None = None
        self._finished = None
        self._solution: tuple[frozenset, int] = (frozenset(), 0)

    def _spawn(self, i: int):
        v = self.grid[i]
        if self.constraint == "matroid":
            tree = MatroidTree(self.gate, self.matroid, self.K, v)
        elif self._entering is None:
            tree = self._entering = CardTree(self.gate, self.K, self.K, v, index=i)
        else:
            tree = self._entering
            tree.run.append((i, *v))
            # the query of f(empty) this guess's own root would make
            self.gate.value(frozenset())
        self.roots[i] = tree
        self.roots_spawned += 1

    def _retire(self, i: int):
        tree = self.roots.pop(i)
        self.branches_spawned += tree.branches_spawned
        if tree is not self._finished:
            self._finished, self._solution = tree, tree.finish()
        sol, val = self._solution
        if val > self.champion[1]:
            self.champion = (sol, val)
            self.champion_v = Fraction(*self.grid[i])
        if self.constraint != "matroid":
            # guesses leave from the bottom of the window and of the run
            del tree.run[0]

    def step(self, t: int, e: int):
        if self.matroid.fits(self.empty_load, e):
            left, entered = self.grid.advance(self.gate.value(frozenset({e})))
            for i in left:
                self._retire(i)
            self._finished = self._entering = None
            for i in entered:
                self._spawn(i)
        roots = self.roots
        if self.constraint == "matroid":
            for tree in roots.values():
                tree.step(t, e)
        else:
            value = self.gate.value
            # roots keeps its keys ascending, so the distinct trees come
            # in ascending guess order
            for tree in dict.fromkeys(roots.values()):
                others = len(tree.run) - 1
                for twin in tree.step(t, e):
                    for i, _, _ in twin.run:
                        roots[i] = twin
                for query, times in tree.asked * others:
                    value(query, times)
        if len(roots) > self.live_roots_peak:
            self.live_roots_peak = len(roots)

    def stored_set(self) -> frozenset:
        out = set(self.champion[0])
        for tree in dict.fromkeys(self.roots.values()):
            out |= tree.stored_set()
        return frozenset(out)

    def footprint(self) -> int:
        return len(self.champion[0]) + sum(t.footprint() for t in self.roots.values())

    def finish(self) -> tuple[frozenset, int]:
        for i in list(self.roots):
            self._retire(i)
        solution = self.champion[0]
        return solution, self.gate.value(solution)
