"""Reference implementations the package is tested against.

The replay-based branching procedures simulate the recursion literally
with stored stream suffixes (they are free to look at a suffix many
times), independent of the event-driven trees in the package.
Tie-breaking mirrors the production rules: leaf argmax keeps the
earliest maximum, the take-branch wins only strictly, and child
candidates are compared in first-acceptance order with the singleton
fallback last.

:class:`PlainGate` is the query gate without the per-step value memo;
:func:`ref_window` finds a guess window by scanning the grid from index 0;
:func:`ref_stored_set` is a branch tree's stored set by the per-node union
formula that also counts every pinned or carried element on each node, and
:func:`ref_footprint` the tree's running ``stored`` count summed node by
node. :class:`PerIndexMatNode` is the matroid-tree node that tracks every
threshold index on its own, the code path the run-compressed node
replaced; :class:`PerInvocationCardTree` steps one
:class:`PerInvocationCardNode` per invocation of the cardinality
procedure, the code path the chain-holding node replaced. Both keep every
guess and threshold as a ``Fraction``, as does :class:`FractionSieve`, the
threshold sieve with its guess grid as ``Fraction`` powers; against them
the package's integer ``(num, den)`` thresholds are checked, ties on the
bar included (each counts its ties in ``ties``).
:func:`gamma_bound` and :func:`subtree_size` bound and count the
invocations of a cardinality tree; :func:`verify_by_pairs` is a second
monotone-submodular checker and :func:`closed_form_3class` a polynomial
form of the 3-class matroid function, each checked against the package.
:class:`ExplicitMatroid` is a matroid given by its full independent
family; it cross-checks the structured kinds and the generic frozenset
loads by enumeration.
"""

from bisect import bisect_right
from fractions import Fraction

from streamsub.branching import _MatNode, to_fraction
from streamsub.errors import GroundSetTooLarge, InvalidParams, PolicyViolation
from streamsub.matroids import Matroid
from streamsub.oracles import CheckReport, QueryGate, Residual, _mask_set


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


def exact(v):
    """A guess or target as a ``Fraction``, from a ``(num, den)`` pair or
    anything ``to_fraction`` takes."""
    return Fraction(*v) if isinstance(v, tuple) else to_fraction(v)


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


def ref_stored_set(tree):
    """Union over all nodes of a ``CardTree`` or ``MatroidTree`` of the
    node's pinned set (cardinality) or carried independent set (matroid)
    and the elements the node holds itself: its leaf best and chain pins,
    or its tracking sets and fallback."""
    out = set()
    for node in tree.nodes:
        out |= node.g.pinned
        if hasattr(node, "runs"):
            for _, _, tracked, _ in node.runs:
                out |= tracked
            if node.best_single is not None:
                out.add(node.best_single[1])
        else:
            if node.best is not None:
                out |= node.best[0]
            out |= {pin[0] for _, _, pin, _, _ in node.chains if pin is not None}
    return frozenset(out)


def ref_footprint(tree):
    """Sum over all invocations of a ``CardTree`` or ``MatroidTree`` of the
    elements each holds: its pin or best singleton (cardinality: a chain
    has one leaf, and k - 1 members that pin), or its carried independent
    set, one tracking set per threshold index and its fallback (matroid)."""
    total = 0
    for node in tree.nodes:
        if hasattr(node, "runs"):
            total += len(node.g.pinned) + sum((hi - lo + 1) * len(tracked)
                                              for lo, hi, tracked, _ in node.runs)
            total += node.best_single is not None
        else:
            for k, _, pin, _, _ in node.chains:
                total += (node.best is not None) + (pin is not None) * (k - 1)
    return total


class PerIndexMatNode:
    """Matroid-tree node that keeps one tracking set per threshold index:
    ``tracking[b]`` is T_b once b has accepted an element, ``loads[b]``
    the load of I + T_b while b is open, and ``open_bs`` the sorted open
    indices. It offers e to every open b <= b_max on its own, and counts
    in ``ties`` the offers whose gain lies exactly on bar b_max. Swapped in
    for ``branching._MatNode`` it must drive a ``MatroidTree`` to the same
    run; :attr:`runs` shows its state as one run per index."""

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
        gain = self.g.singleton(e)
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
    solution = _MatNode.solution


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
        gain = self.g.singleton(e)
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
