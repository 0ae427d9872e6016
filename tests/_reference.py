"""Reference implementations the package is tested against.

The replay-based branching procedures simulate the recursion literally
with stored stream suffixes (they are free to look at a suffix many
times), independent of the event-driven trees in the package.
Tie-breaking mirrors the production rules: leaf argmax keeps the
earliest maximum, the take-branch wins only strictly, and child
candidates are compared in first-acceptance order with the singleton
fallback last.

:class:`PlainGate` is the query gate without the per-step value memo;
:func:`ref_window` finds a guess window by scanning the grid from index 0,
and :class:`StepGuessGrid` advances it by walking one index at a time;
:func:`ref_stored_set` is a branch tree's stored set by the per-node union
formula that also counts every pinned or carried element on each node, and
:func:`ref_footprint` the tree's running ``held`` count summed node by
node, and guess by guess in a matroid tree (:func:`guess_runs`);
:func:`ref_driver_footprint` sums it over a guess driver's distinct trees,
the walk the driver's running footprint replaced.
:class:`PerGuessMatroidTree` is the matroid tree for one fixed guess, of
:class:`PerGuessMatNode` nodes, the code path the tree for a run of
guesses replaced. :class:`PerIndexMatNode` is the matroid-tree node that
tracks every threshold index on its own, the code path the
run-compressed node replaced; :class:`PerInvocationCardTree` steps one
:class:`PerInvocationCardNode` per invocation of the cardinality
procedure, the code path the chain-holding node replaced.
:class:`PerGuessDriver` is the guess driver with one tree per guess, the
code path that runs of guesses sharing one tree replaced. The
per-invocation and per-index reference trees keep every guess and
threshold as a ``Fraction``, as does
:class:`FractionSieve`, the threshold sieve with its guess grid as
``Fraction`` powers; against them the package's integer thresholds are
checked, ties on the bar included (each counts its ties in ``ties``).
:func:`gamma_bound` and :func:`subtree_size` bound and count the
invocations of a cardinality tree; :func:`verify_by_pairs` is a second
monotone-submodular checker and :func:`closed_form_3class` a polynomial
form of the 3-class matroid function, each checked against the package.
:class:`ExplicitMatroid` is a matroid given by its full independent
family; it cross-checks the structured kinds and the generic frozenset
loads by enumeration. :func:`ref_brute_force` is the brute-force optimum
by plain subset enumeration and ``is_independent``, the code path the
walk on matroid loads replaced. :class:`SetUnionCoverage` is the coverage
function that unions the elements' point sets as frozensets, the
evaluator the bitmask ``CoverageFunction`` replaced.
:func:`prefix_profile_value` is the hard-cardinality profile value by
unclamped running sums of the blue gains, the evaluator the clamped memo
replaced, and :func:`ref_level` the hard-matroid value by recursion, the
evaluator the bottom-up loop replaced. :func:`profile_lattice` lists the
profiles of the K-class matroid family, and
:func:`first_dominance_violation` is the all-pairs diminishing-returns
scan over them that the local unit-move check is tested against.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, product
from math import factorial

from streamsub.branching import (CardTree, GuessGrid, MatroidTree, _MatNode, as_pair,
                                to_fraction)
from streamsub.errors import GroundSetTooLarge, InvalidParams, PolicyViolation
from streamsub.hard_cardinality import red_marginal
from streamsub.hard_matroid import blue_ceiling
from streamsub.matroids import Matroid, UniformMatroid
from streamsub.oracles import CheckReport, QueryGate, Residual, SetFunction, _mask_set


class PlainGate(QueryGate):
    """Query gate that evaluates the function on every accepted query."""

    def value(self, subset, times=1):
        subset = frozenset(subset)
        reason = self.policy.check(subset)
        if reason is not None:
            self.audit.rejected.append((subset, reason))
            raise PolicyViolation(subset, reason)
        self.audit.query_count += times
        if self.audit.record_log:
            self.audit.log.extend([(self.audit.step, subset)] * times)
        return self.fn.value(subset)


class ExplicitMatroid(Matroid):
    """Set system given by its full list of independent sets."""

    kind = "explicit"

    def __init__(self, n: int, family):
        self.n = n
        self.family = frozenset(frozenset(s) for s in family)

    def is_independent(self, subset) -> bool:
        return frozenset(subset) in self.family

    @property
    def rank(self) -> int:
        return max((len(s) for s in self.family), default=0)

    @classmethod
    def from_oracle(cls, matroid: Matroid, limit: int = 12) -> "ExplicitMatroid":
        if matroid.n > limit:
            raise GroundSetTooLarge(f"n={matroid.n} exceeds enumeration limit {limit}")
        fam = [_mask_set(m) for m in range(1 << matroid.n)
               if matroid.is_independent(_mask_set(m))]
        return cls(matroid.n, fam)


def ref_brute_force(fn, matroid):
    """Maximizer over the independent sets, enumerated by size and then
    lexicographically with ``combinations``; the best is replaced only on
    a strictly greater value, so ties go to the smallest, then the
    lexicographically first, maximizer. Queries each independent set once."""
    best = (frozenset(), fn.value(frozenset()))
    for k in range(1, fn.n + 1):
        for combo in combinations(range(fn.n), k):
            if matroid.is_independent(combo):
                v = fn.value(combo)
                if v > best[1]:
                    best = (frozenset(combo), v)
    return best


class SetUnionCoverage(SetFunction):
    """f(S) = the number of points in the union of the sets of S."""

    def __init__(self, element_sets):
        self.element_sets = tuple(frozenset(s) for s in element_sets)
        super().__init__(len(self.element_sets), self._cover, name="coverage")

    def _cover(self, subset: frozenset) -> int:
        covered: set = set()
        for e in subset:
            covered |= self.element_sets[e]
        return len(covered)


def exact(v):
    """A guess or target as a ``Fraction``, from a ``(num, den)`` pair or
    anything ``to_fraction`` takes."""
    return Fraction(*v) if isinstance(v, tuple) else to_fraction(v)


class StepGuessGrid(GuessGrid):
    """The guess grid whose :meth:`advance` walks ``first`` up from the
    last window one index at a time, the code path the estimated jump
    replaced."""

    def advance(self, m):
        if m <= self.m:
            return self._NO_MOVE
        self.m = m
        (lo_n, lo_d), (hi_n, hi_d) = self.lo, self.hi
        old_first, old_last, powers = self.first, self.last, self._pow
        first, (num, den) = old_first, powers[0]
        while num * lo_d < m * lo_n * den:
            first += 1
            k = first - old_first
            num, den = powers[k] if k < len(powers) else (num * (self.p + self.q), den * self.q)
        self._pow, self.first = powers[first - old_first:] or [(num, den)], first
        last = max(old_last, first)
        while self[last + 1][0] * hi_d <= m * hi_n * self[last + 1][1]:
            last += 1
        self.last = last
        left = range(old_first, min(first, old_last + 1))
        return left, range(max(first, old_last + 1), last + 1)


def ref_level(t, reds, blues):
    """The hard-matroid recursion on the last t classes with clamped
    blues, by recursion on the slices of ``reds`` and ``blues``, the code
    path the bottom-up loop replaced."""
    if t == 1:
        return reds[0]
    sub = ref_level(t - 1, reds[1:], blues[1:])
    m_prev = factorial(2 * t - 3)
    gap = m_prev - sub
    d = 2 * (t - 1) - blues[0]
    s = 1 - reds[0]
    scale = 2 * m_prev * s + gap * (d - 1)
    return factorial(2 * t - 1) - scale * d


def ref_window(eps, lo, hi):
    """Index range (first, last) of the grid (1+eps)^i from the first
    index with a value >= lo to the last with a value <= hi, never below
    first."""
    base = 1 + Fraction(eps)
    first = 0
    while base ** first < lo:
        first += 1
    last = first
    while base ** (last + 1) <= hi:
        last += 1
    return first, last


def ref_cardinality(fn, stream, k, s, v, pinned=frozenset()):
    """Returns (solution set, value relative to pinned)."""
    pinned = frozenset(pinned)
    base = fn.value(pinned)

    def g(subset):
        return fn.value(pinned | frozenset(subset)) - base

    if k == 1 or s == 1:
        best = None
        for e in stream:
            gain = g({e})
            if best is None or gain > best[0]:
                best = (gain, e)
        if best is None:
            return frozenset(), 0
        return frozenset({best[1]}), best[0]

    taken = (frozenset(), 0)
    for idx, e in enumerate(stream):
        gain = g({e})
        if gain * (k + s - 1) >= v:
            sub, sub_val = ref_cardinality(fn, stream[idx + 1:], k, s - 1,
                                           v - gain, pinned | {e})
            taken = (sub | {e}, sub_val + gain)
            break
    skip_v = v * Fraction(k + s - 2, k + s - 1)
    skipped = ref_cardinality(fn, stream, k - 1, s, skip_v, pinned)
    return taken if taken[1] > skipped[1] else skipped


def ref_matroid(fn, matroid, stream, k, v, indep=frozenset(), rank=None):
    """Returns (solution set, value relative to indep)."""
    indep = frozenset(indep)
    rank = matroid.rank if rank is None else rank
    k4 = max(rank, 1) ** 4
    beta = k4 // 2
    base = fn.value(indep)
    v = Fraction(v)

    def g(subset):
        return fn.value(indep | frozenset(subset)) - base

    best_single = None
    for e in stream:
        if matroid.is_independent(indep | {e}):
            gain = g({e})
            if best_single is None or gain > best_single[0]:
                best_single = (gain, e)

    accepted = {}  # element -> (arrival idx, gain)
    if k > 1:
        for b in range(beta + 1):
            tracked = set()
            for idx, e in enumerate(stream):
                if len(indep) + len(tracked) >= rank:
                    break
                if not matroid.is_independent(indep | tracked | {e}):
                    continue
                gain = g({e})
                if v > 0:
                    ok = gain * k4 * v.denominator >= b * v.numerator
                else:
                    ok = True
                if ok:
                    tracked.add(e)
                    if e not in accepted or idx < accepted[e][0]:
                        accepted[e] = (idx, gain)

    best = None
    for e, (idx, gain) in sorted(accepted.items(), key=lambda kv: kv[1][0]):
        v_next = (1 - Fraction(1, k4)) * v - 2 * gain
        sub, sub_val = ref_matroid(fn, matroid, stream[idx + 1:], k - 1,
                                   v_next, indep | {e}, rank)
        cand = (sub | {e}, sub_val + gain)
        if best is None or cand[1] > best[1]:
            best = cand
    if best_single is not None:
        gain, e = best_single
        if best is None or gain > best[1]:
            best = (frozenset({e}), gain)
    return best if best is not None else (frozenset(), 0)


def guess_runs(tree, node):
    """A matroid-tree node's threshold runs by index, one list per guess:
    for a ``_MatNode``, its tree's view of each guess the node serves
    (``MatroidTree.index_runs``), and for a reference node, the runs of
    its guess."""
    if isinstance(node, _MatNode):
        return [tree.index_runs(node, index) for index, _, _ in node.run]
    return [node.runs]


def ref_stored_set(tree):
    """Union over all nodes of a ``CardTree`` or matroid tree of the
    node's pinned set (cardinality) or carried independent set (matroid)
    and the elements the node holds itself: its leaf best and chain pins,
    or its tracking sets, of every guess, and fallback."""
    out = set()
    for node in tree.nodes:
        out |= node.g.pinned
        if hasattr(node, "runs"):
            for runs in guess_runs(tree, node):
                for _, _, tracked, _ in runs:
                    out |= tracked
            if node.best_single is not None:
                out.add(node.best_single[1])
        else:
            if node.best is not None:
                out |= node.best[0]
            out |= {pin[0] for _, _, pin, _, _ in node.chains if pin is not None}
    return frozenset(out)


def ref_footprint(tree):
    """Sum over all invocations of a branch tree, for each guess that
    their node serves, of the elements each holds: its pin or best
    singleton (cardinality: a chain has one leaf, and k - 1 members that
    pin), or its carried independent set, one tracking set per threshold
    index and its fallback (matroid)."""
    total = 0
    for node in tree.nodes:
        if hasattr(node, "runs"):
            for runs in guess_runs(tree, node):
                total += len(node.g.pinned) + sum((hi - lo + 1) * len(tracked)
                                                  for lo, hi, tracked, _ in runs)
                total += node.best_single is not None
        else:
            width = len(node.run)
            for k, _, pin, _, _ in node.chains:
                total += width * ((node.best is not None) + (pin is not None) * (k - 1))
    return total


def guess_trees(driver) -> dict:
    """Per live guess index of a ``GuessDriver``, ascending, the tree that
    serves it, read from the driver's list of trees."""
    return {index: tree for tree in driver.trees for index, _, _ in tree.run}


def ref_driver_footprint(driver):
    """A ``GuessDriver``'s footprint recomputed from its nodes: its
    champion's size plus :func:`ref_footprint` of each live tree."""
    return len(driver.champion[0]) + sum(ref_footprint(tree) for tree in driver.trees)


class PerGuessMatNode:
    """Matroid-tree node for one fixed guess: the package's node as it was
    before a node served a run of guesses. ``v`` is its target as a
    ``(num, den)`` pair, and ``runs`` its ``(lo, hi, T, load)`` threshold
    runs, tiling 0..beta."""

    def __init__(self, tree, k, v, g, iload):
        self.tree = tree
        self.k = k
        self.v = v
        self.g = g
        self.iload = iload
        self.best_single = None
        self.children = {}
        self.runs = [(0, tree.beta, frozenset(), iload)] if k > 1 else []
        tree.nodes.append(self)
        tree.stored += len(g.pinned)

    def offer(self, e):
        tree = self.tree
        matroid = tree.matroid
        if not matroid.fits(self.iload, e):
            return
        gain = self.g.value({e})
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
        room = tree.rank - len(self.g.pinned)
        accepted = 0
        for i, (lo, hi, tracked, load) in enumerate(runs):
            if lo > b_max:
                break
            if load is None or not matroid.fits(load, e):
                continue
            top = min(hi, b_max)
            accepted += top - lo + 1
            grown = tracked | {e}
            runs[i] = (lo, top, grown, matroid.plus(load, e) if len(grown) < room else None)
            if top < hi:
                runs.insert(i + 1, (top + 1, hi, tracked, load))
                break
        if not accepted:
            return
        tree.stored += accepted
        tree.branches_spawned += accepted
        v_next = ((k4 - 1) * num - 2 * gain * k4 * den, k4 * den)
        child = type(self)(tree, self.k - 1, v_next, self.g.extend(e, gain),
                           matroid.plus(self.iload, e))
        self.children[e] = (child, gain)

    def solution(self):
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


class PerGuessMatroidTree:
    """Matroid branch tree for one fixed guess v, whose root is a ``node``
    (:class:`PerGuessMatNode` or :class:`PerIndexMatNode`); each step
    offers the element to the nodes that existed before it. The package's
    ``MatroidTree`` for a run of guesses must make, guess by guess, the
    run of one such tree per guess."""

    def __init__(self, gate, matroid, k, v, trace=False, node=PerGuessMatNode):
        rank = matroid.rank
        MatroidTree.check_size(rank)
        if k < 1:
            raise InvalidParams("need k >= 1")
        self.matroid = matroid
        self.rank = rank
        self.k4 = max(rank, 1) ** 4
        self.beta = self.k4 // 2
        self.nodes = []
        self.stored = 0
        self.branches_spawned = 0
        self.trace_log = [] if trace else None
        self.root = node(self, k, as_pair(v), Residual(gate), matroid.load(frozenset()))

    def step(self, t, e):
        for node in list(self.nodes):
            if self.trace_log is not None:
                self.trace_log.append((id(node), t))
            node.offer(e)

    def stored_set(self):
        out = set()
        for node in self.nodes:
            for _, _, tracked, _ in node.runs:
                out |= tracked
            if node.best_single is not None:
                out.add(node.best_single[1])
        return frozenset(out)

    def footprint(self):
        return self.stored

    def finish(self):
        return self.root.solution()


class PerIndexMatNode:
    """Matroid-tree node that keeps one tracking set per threshold index:
    ``tracking[b]`` is T_b once b has accepted an element, ``loads[b]``
    the load of I + T_b while b is open, and ``open_bs`` the sorted open
    indices. It offers e to every open b <= b_max on its own, and counts
    in ``ties`` the offers whose gain lies exactly on bar b_max. As the
    root of a :class:`PerGuessMatroidTree` it must drive the tree to the
    run of the package's ``MatroidTree``; :attr:`runs` shows its state as
    one run per index."""

    def __init__(self, tree, k, v, g, iload):
        self.tree = tree
        self.k = k
        self.v = exact(v)
        self.g = g
        self.iload = iload
        self.best_single = None
        self.children = {}
        self.tracking = {}
        self.loads = {}
        self.open_bs = tuple(range(tree.beta + 1)) if k > 1 else ()
        self.ties = 0
        tree.nodes.append(self)
        tree.stored += len(g.pinned)

    @property
    def runs(self):
        if self.k == 1:
            return []
        return [(b, b, frozenset(self.tracking.get(b, ())),
                 self.loads.get(b, self.iload) if b in self.open_bs else None)
                for b in range(self.tree.beta + 1)]

    def offer(self, e):
        tree = self.tree
        matroid = tree.matroid
        if not matroid.fits(self.iload, e):
            return
        gain = self.g.value({e})
        if self.best_single is None:
            tree.stored += 1
            self.best_single = (gain, e)
        elif gain > self.best_single[0]:
            self.best_single = (gain, e)
        open_bs = self.open_bs
        if not open_bs:
            return
        if self.v > 0:
            b_max = (gain * tree.k4 * self.v.denominator) // self.v.numerator
            self.ties += b_max <= tree.beta and gain * tree.k4 == b_max * self.v
        else:
            b_max = tree.beta
        cut = bisect_right(open_bs, b_max)
        room = tree.rank - len(self.g.pinned)
        grown = matroid.plus(self.iload, e)
        accepted = 0
        closed = []
        for b in open_bs[:cut]:
            tracked = self.tracking.get(b)
            if tracked is None:
                # T_b is empty, and I + e is independent
                tracked = self.tracking[b] = {e}
                load = grown
            else:
                load = self.loads[b]
                if not matroid.fits(load, e):
                    continue
                tracked.add(e)
                load = matroid.plus(load, e)
            accepted += 1
            if len(tracked) < room:
                self.loads[b] = load
            else:
                closed.append(b)
                self.loads.pop(b, None)
        if not accepted:
            return
        tree.stored += accepted
        tree.branches_spawned += accepted
        v_next = (1 - Fraction(1, tree.k4)) * self.v - 2 * gain
        child = PerIndexMatNode(tree, self.k - 1, v_next, self.g.extend(e, gain), grown)
        self.children[e] = (child, gain)
        if closed:
            gone = set(closed)
            self.open_bs = [b for b in open_bs if b not in gone]

    # the same choice over children and the fallback as the run-compressed node
    solution = PerGuessMatNode.solution


class PerInvocationCardNode:
    """One invocation of the cardinality procedure: remaining optimum bound
    k, solution budget s, target v, residual g. Leaves (k==1 or s==1) track
    the best singleton; internal nodes wait for the first element whose
    gain reaches v/(k+s-1), and carry an eagerly spawned sibling that skips
    that element assumption."""

    def __init__(self, tree, k, s, v, g):
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
        tree.nodes.append(self)
        tree.live.append(self)
        if not self.leaf:
            skip_v = v * Fraction(k + s - 2, k + s - 1)
            self.child_skip = PerInvocationCardNode(tree, k - 1, s, skip_v, g)

    def offer(self, e):
        gain = self.g.value({e})
        if self.leaf:
            if self.best is None:
                self.tree.stored += 1
                self.best = (gain, e)
            elif gain > self.best[0]:
                self.best = (gain, e)
            return
        over = gain * (self.k + self.s - 1)
        self.tree.ties += over == self.v
        if over >= self.v:
            self.pin = (e, gain)
            self.tree.stored += 1
            self.tree.branches_spawned += 1
            self.child_take = PerInvocationCardNode(self.tree, self.k, self.s - 1,
                                                    self.v - gain, self.g.extend(e, gain))

    def solution(self):
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


class PerInvocationCardTree:
    """Cardinality tree of :class:`PerInvocationCardNode`; ``live`` holds,
    in creation order, the nodes that can still take an element (leaves,
    and internal nodes that have not pinned one), and each step offers the
    element to each of them; ``ties`` counts the offers whose gain lies
    exactly on an internal node's bar v/(k+s-1). Swapped in for
    ``branching.CardTree`` it must drive a run, and the guess driver, to
    the same result."""

    def __init__(self, gate, k, s, v):
        if k < 1 or s < 1:
            raise InvalidParams("need k >= 1 and s >= 1")
        self.nodes = []
        self.live = []
        self.stored = 0
        self.branches_spawned = 0
        self.ties = 0
        self.root = PerInvocationCardNode(self, k, s, exact(v), Residual(gate))

    def step(self, t, e):
        current = self.live
        # nodes created during this step land in the new list and first
        # see the next element
        self.live = []
        kept = []
        for node in current:
            node.offer(e)
            if node.pin is None:
                kept.append(node)
        kept.extend(self.live)
        self.live = kept

    def stored_set(self):
        out = set()
        for node in self.nodes:
            if node.leaf and node.best is not None:
                out.add(node.best[1])
            elif not node.leaf and node.pin is not None:
                out.add(node.pin[0])
        return frozenset(out)

    def footprint(self):
        return self.stored

    def finish(self):
        return self.root.solution()


class PerGuessDriver:
    """The guess driver with one tree of its own per guess: every live
    guess index spawns a ``card_tree`` on a ``UniformMatroid`` or a
    ``mat_tree`` on any other matroid, as ``GuessDriver`` picks its tree,
    each tree is stepped on its own in ascending guess order, and each
    retiring guess computes its tree's solution. The code path that runs
    of guesses sharing one tree replaced; the package's ``GuessDriver``
    must make the same run."""

    def __init__(self, gate, matroid, eps, card_tree=CardTree, mat_tree=PerGuessMatroidTree):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        eps = to_fraction(eps)
        p, q = eps.numerator, eps.denominator
        self.grid = GuessGrid(eps, (q * q, (p + q) ** 2), (self.K * q, p))
        self.card_tree = card_tree
        self.mat_tree = mat_tree
        self.empty_load = matroid.load(frozenset())
        self.roots = {}
        self.champion = (frozenset(), 0)
        self.champion_v = None
        self.branches_spawned = 0
        self.roots_spawned = 0
        self.live_roots_peak = 0

    def _spawn(self, i):
        v = self.grid[i]
        if isinstance(self.matroid, UniformMatroid):
            tree = self.card_tree(self.gate, self.K, self.K, v)
        else:
            tree = self.mat_tree(self.gate, self.matroid, self.K, v)
        self.roots[i] = tree
        self.roots_spawned += 1

    def _retire(self, i):
        tree = self.roots.pop(i)
        self.branches_spawned += tree.branches_spawned
        sol, val = tree.finish()
        if val > self.champion[1]:
            self.champion = (sol, val)
            self.champion_v = Fraction(*self.grid[i])

    def step(self, t, e):
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

    def stored_set(self):
        out = set(self.champion[0])
        for tree in self.roots.values():
            out |= tree.stored_set()
        return frozenset(out)

    def footprint(self):
        return len(self.champion[0]) + sum(t.footprint() for t in self.roots.values())

    def finish(self):
        for i in list(self.roots):
            self._retire(i)
        solution = self.champion[0]
        return solution, self.gate.value(solution)


class FractionSieve:
    """The threshold sieve of ``baselines.SieveStreaming`` with its guesses
    as ``Fraction`` powers (1+eps)^i, its window found by
    :func:`ref_window`'s scan from index 0, and the test
    new_val - val >= (v/2 - val)/(K - |S|) in ``Fraction``s. Swapped in
    for ``SieveStreaming`` it must make the same run."""

    def __init__(self, gate, matroid, eps):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.eps = to_fraction(eps)
        self.m = 0
        self.last = -1
        self.ties = 0
        self.sets = {}

    def step(self, t, e):
        if self.matroid.is_independent({e}):
            fe = self.gate.value(frozenset({e}))
            if fe > self.m:
                self.m = fe
                first, last = ref_window(self.eps, fe, 2 * self.K * fe)
                last = max(last, self.last)
                for i in [i for i in self.sets if i < first]:
                    del self.sets[i]
                for i in range(max(first, self.last + 1), last + 1):
                    self.sets[i] = (frozenset(), self.gate.value(frozenset()))
                self.last = last
        for i, (s, val) in self.sets.items():
            if len(s) >= self.K or not self.matroid.is_independent(s | {e}):
                continue
            new_val = self.gate.value(s | {e})
            need = ((1 + self.eps) ** i / 2 - val) / (self.K - len(s))
            self.ties += new_val - val == need
            if new_val - val >= need:
                self.sets[i] = (s | {e}, new_val)

    def stored_set(self):
        out = set()
        for s, _ in self.sets.values():
            out |= s
        return frozenset(out)

    def footprint(self):
        return sum(len(s) for s, _ in self.sets.values())

    def finish(self):
        best = (frozenset(), 0)
        for s, val in self.sets.values():
            if val > best[1]:
                best = (s, val)
        return best


def subtree_size(node, i):
    """Invocation count of the subtree of the head of chain ``i`` of a
    cardinality-tree node: the chain's k members (one when s == 1), and
    once it has taken an element, the subtrees of their take children."""
    k, _, pin, child, at = node.chains[i]
    size = k if node.s > 1 else 1
    if pin is not None:
        size += sum(subtree_size(child, at + k - j) for j in range(2, k + 1))
    return size


def gamma_bound(k, s):
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


def verify_by_pairs(fn, limit=14):
    """Independent checker via the local exchange form of diminishing
    returns: f(S+e) - f(S) >= f(S+e'+e) - f(S+e') for all S and e != e'
    outside S, plus pointwise monotonicity. Equivalent verdict to
    ``verify_monotone_submodular``, different enumeration."""
    n = fn.n
    if n > limit:
        raise GroundSetTooLarge(f"n={n} exceeds exhaustive limit {limit}")
    size = 1 << n
    vals = [fn.value(_mask_set(mask)) for mask in range(size)]
    for mask in range(size):
        for e in range(n):
            bit = 1 << e
            if mask & bit:
                continue
            if vals[mask | bit] < vals[mask]:
                return CheckReport(False, "monotonicity", (_mask_set(mask), e))
            for e2 in range(n):
                bit2 = 1 << e2
                if e2 == e or mask & bit2:
                    continue
                lhs = vals[mask | bit] - vals[mask]
                rhs = vals[mask | bit2 | bit] - vals[mask | bit2]
                if lhs < rhs:
                    return CheckReport(False, "submodularity",
                                       (_mask_set(mask), e2, e))
    return CheckReport(True)


def closed_form_3class(reds, blues):
    """Polynomial form of the 3-class matroid function; must agree with
    ``hard_matroid.profile_value`` on every profile."""
    r1, r2, r3 = reds
    b1, b2, _ = blues
    s1, s2, s3 = 1 - r3, 1 - r2, 1 - r1
    d2 = 2 - min(b2, 2)
    d3 = 4 - min(b1, 4)
    return 120 - (12 * s3 + (2 * s2 + s1 * (d2 - 1)) * d2 * (d3 - 1)) * d3


def ref_blue_marginal(params, b, with_purple):
    """Gain of one more blue on top of b blues, no reds, purple optional,
    as one piece per range of b."""
    K, h = params.K, params.h
    if b < 0:
        raise InvalidParams("negative blue count")
    if not with_purple:
        return red_marginal(params, b, 0)
    if b <= h:
        return K - 1
    if b <= h + 2 * (K - 2):
        return K - 1 - (b - h + 1) // 2
    return 0


_prefix_cache: dict = {}


def _blue_prefix(params, b, with_purple):
    # cumulative blue gains, grown incrementally so large ground sets
    # never recurse
    key = (params, with_purple)
    sums = _prefix_cache.get(key)
    if sums is None:
        base = params.h * (params.h + 1) // 2 if with_purple else 0
        sums = _prefix_cache[key] = [base]
    while len(sums) <= b:
        j = len(sums) - 1
        sums.append(sums[-1] + ref_blue_marginal(params, j, with_purple))
    return sums[b]


def prefix_profile_value(params, b, r, p):
    """Hard-cardinality value of b blues, r reds and p purples: the blue
    gains summed up to b, with no cap, plus the red gains at b."""
    total = _blue_prefix(params, b, p)
    for i in range(r):
        total += red_marginal(params, b, i)
    return total


def profile_lattice(K):
    """Every (reds, blues) profile of the K-class matroid family, with
    each class's blue count up to its ceiling."""
    ranges = [range(blue_ceiling(K, i + 1) + 1) for i in range(K)]
    return [(r, b) for r in product((0, 1), repeat=K) for b in product(*ranges)]


def first_dominance_violation(K, value):
    """The first (move, p1, p2) with p1 >= p2 on the profile lattice where
    the gain of a unit move at p1 is above its gain at p2, or None.
    ``value(reds, blues)`` must take a blue count one past its ceiling."""
    profiles = profile_lattice(K)
    vals = {p: value(*p) for p in profiles}
    for p1 in profiles:
        for p2 in profiles:
            if not (all(x >= y for x, y in zip(p1[0], p2[0]))
                    and all(x >= y for x, y in zip(p1[1], p2[1]))):
                continue
            for i in range(K):
                if p1[0][i] == 0:
                    u1 = list(p1[0]); u1[i] = 1
                    u2 = list(p2[0]); u2[i] = 1
                    if (value(tuple(u1), p1[1]) - vals[p1]
                            > value(tuple(u2), p2[1]) - vals[p2]):
                        return ("red", i), p1, p2
                w1 = list(p1[1]); w1[i] += 1
                w2 = list(p2[1]); w2[i] += 1
                if value(p1[0], tuple(w1)) - vals[p1] > value(p2[0], tuple(w2)) - vals[p2]:
                    return ("blue", i), p1, p2
    return None
