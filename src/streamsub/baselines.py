"""Reference maximizers: brute force, offline greedy, and threshold sieve.

Brute force is the test oracle for every algorithm guarantee in the
suite; greedy is the classical offline comparison point; the sieve is a
standard single-pass threshold algorithm used as the bounded-memory
baseline in the lower-bound demonstrations (implemented from its usual
textbook description).

Brute force is a branch and bound that needs a submodular function: for
one, f(S + T) <= f(S) + the sum over x in T of f(S + x) - f(S)
(Nemhauser, Wolsey and Fisher, Math. Programming 1978), and a gain at S
is at most the gain at any subset of S. So a set whose value, plus the
largest gains it could still add, is strictly below the best value found
needs neither its query nor those of its supersets. The skip is strict,
so every set that ties the optimum is still queried and the tie rule
picks the same set as full enumeration. A gain the walk sees above a
gain of the same element at a subset proves the function is not
submodular, and it raises ``InvalidParams`` rather than return a value
the bound may have got wrong.
"""

from __future__ import annotations

from heapq import heappush, heapreplace
from operator import itemgetter

from .branching import GuessGrid
from .errors import GroundSetTooLarge, InvalidParams
from .matroids import Matroid, UniformMatroid
from .oracles import QueryGate

UNIFORM_LIMIT = 20  # largest ground sets brute_force_optimum enumerates
MATROID_LIMIT = 16


def brute_force_optimum(fn, matroid: Matroid) -> tuple[frozenset, int]:
    """Exact maximizer over feasible sets by branch and bound.

    ``fn`` is anything with ``n`` and ``value``, a set function or a gate,
    and must be submodular (see the module docstring). A depth-first walk
    grows sets in ascending id order on the matroid's loads and stops
    growing at the rank. A node S first queries each child S + x that the
    bound allows, then visits the children it queried, highest gain
    first. The cap of a later candidate x at S is its gain at S's
    parent, or the cap it had there if the parent did not query it; at
    the root every singleton is queried. A child S + x is skipped, with
    every superset below it, when f(S) + cap(x) + the sum of the
    rank - |S| - 1 largest positive caps of the candidates after x is
    strictly below the best value queried so far. Where the children are
    leaves, each node's candidates are scanned in descending cap order
    and the scan stops at the first that cannot reach the best. Every
    set that ties the optimum is queried and none twice. Ties go to the
    smallest maximizer, then to the lexicographically first sorted ids.
    A queried gain above its cap raises ``InvalidParams`` naming the set.
    """
    n = fn.n
    if isinstance(matroid, UniformMatroid):
        if n > UNIFORM_LIMIT:
            raise GroundSetTooLarge(f"n={n} exceeds uniform enumeration limit {UNIFORM_LIMIT}")
    elif n > MATROID_LIMIT:
        raise GroundSetTooLarge(f"n={n} exceeds matroid enumeration limit {MATROID_LIMIT}")
    value, fits, plus, rank = fn.value, matroid.fits, matroid.plus, matroid.rank
    best_key, best_value = (0, ()), value(())

    def query(ext, f_ids, cap):
        """f(ext), after recording it as the best if it is; its gain over
        the parent's value ``f_ids`` may not exceed ``cap``."""
        nonlocal best_key, best_value
        v = value(ext)
        if cap is not None and v - f_ids > cap:
            raise InvalidParams(f"the function is not submodular at {list(ext)}: the gain "
                                f"of {ext[-1]} there is {v - f_ids}, above its gain {cap} "
                                f"at a subset")
        if v >= best_value and (v > best_value or (len(ext), ext) < best_key):
            best_key, best_value = (len(ext), ext), v
        return v

    def visit(ids, f_ids, load, cands):
        """Query the children of the independent set ``ids`` that the bound
        allows, then their children. ``cands`` holds (e, cap) for each
        later e that fits ``load``, in ascending id order; at the root,
        where no gain is known yet, each cap is None."""
        room = rank - len(ids)
        # tails[i]: the sum of the room - 1 largest positive caps after cands[i]
        tails, top, total = [0] * len(cands), [], 0
        for i in range(len(cands) - 1, 0, -1):
            cap = cands[i][1]
            if cap is not None and cap > 0:
                if len(top) < room - 1:
                    heappush(top, cap)
                    total += cap
                elif cap > top[0]:
                    total += cap - heapreplace(top, cap)
            tails[i - 1] = total
        caps, kids = [], []
        for i, (e, cap) in enumerate(cands):
            if cap is not None and f_ids + cap + tails[i] < best_value:
                caps.append((e, cap))
                continue
            ext = ids + (e,)
            gain = query(ext, f_ids, cap) - f_ids
            caps.append((e, gain))
            kids.append((gain, i, ext))
        kids.sort(key=itemgetter(0), reverse=True)
        if room == 2:
            # the grandchildren are leaves: scan the caps from the largest
            # and stop at the first that cannot reach the best
            ranked = sorted(caps, key=itemgetter(1), reverse=True)
            for gain, _, ext in kids:
                x, v = ext[-1], f_ids + gain
                ext_load = plus(load, x)
                for e, cap in ranked:
                    if v + cap < best_value:
                        break
                    if e > x and fits(ext_load, e):
                        query(ext + (e,), v, cap)
        elif room > 2:
            for gain, i, ext in kids:
                ext_load = plus(load, ext[-1])
                visit(ext, f_ids + gain, ext_load,
                      [c for c in caps[i + 1:] if fits(ext_load, c[0])])

    load = matroid.load(())
    visit((), best_value, load, [(e, None) for e in range(n) if fits(load, e)])
    return frozenset(best_key[1]), best_value


def offline_greedy(fn, matroid: Matroid) -> tuple[frozenset, int]:
    """Iterative best-feasible-augmentation with a strong oracle; ``fn``
    is a set function or a gate."""
    chosen: frozenset = frozenset()
    load = matroid.load(chosen)
    value = fn.value(chosen)
    while True:
        best_gain, best_e = 0, None
        for e in range(fn.n):
            if e in chosen or not matroid.fits(load, e):
                continue
            gain = fn.value(chosen | {e}) - value
            if gain > best_gain:
                best_gain, best_e = gain, e
        if best_e is None:
            return chosen, value
        chosen = chosen | {best_e}
        load = matroid.plus(load, best_e)
        value += best_gain


class SieveStreaming:
    """Single-pass threshold sieve over a geometric guess grid.

    Keeps one candidate set per active guess v = (1+eps)^i with
    m <= v <= 2*K*m, where m is the best feasible singleton seen so far;
    an arriving element joins a candidate set when the set can still grow
    feasibly and the marginal reaches (v/2 - f(S)) / (K - |S|), the rule of
    Sieve-Streaming (Badanidiyuru et al., KDD 2014). Values are integers,
    so the test 2 ((f(S+e) - f(S)) (K - |S|) + f(S)) >= v holds exactly
    when its integer left side reaches ceil(v): each candidate keeps that
    bar, computed once from the grid's pair when its guess enters, and
    starts with an empty set. Guesses leaving the window are discarded
    together with their sets, which is what keeps the stored-element
    footprint small. The stream delivers each element at most once, as an
    ordering of the ground set does, so an arriving element is never in a
    candidate set already.

    The footprint is kept current as sets change, and so is the stored
    set, the union of the candidate sets: an element a set takes joins it,
    and guesses leaving with a non-empty set rebuild it from the rest.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.grid = GuessGrid(eps, 1, 2 * self.K)
        self.empty_load = matroid.load(frozenset())
        # guess index -> (candidate set, its value, its matroid load, bar)
        self.sets: dict[int, tuple[frozenset, int, object, int]] = {}
        self._stored: frozenset = frozenset()
        self._footprint = 0

    def step(self, t: int, e: int):
        fits, sets = self.matroid.fits, self.sets
        if fits(self.empty_load, e):
            left, entered = self.grid.advance(self.gate.value(frozenset({e})))
            if left:
                gone = sum(len(sets.pop(i)[0]) for i in left)
                if gone:
                    self._footprint -= gone
                    self._stored = frozenset().union(*[s for s, _, _, _ in sets.values()])
            for i in entered:
                num, den = self.grid[i]
                sets[i] = (frozenset(), self.gate.value(frozenset()), self.empty_load,
                           -(-num // den))
        K = self.K
        took = 0
        # guesses enter ascending and leave from the bottom: keys are in order
        for i, (s, val, load, bar) in sets.items():
            room = K - len(s)
            if room <= 0 or not fits(load, e):
                continue
            new_val = self.gate.value(s | {e})
            if 2 * ((new_val - val) * room + val) >= bar:
                sets[i] = (s | {e}, new_val, self.matroid.plus(load, e), bar)
                took += 1
        if took:
            self._stored = self._stored | {e}
            self._footprint += took

    def stored_set(self) -> frozenset:
        return self._stored

    def footprint(self) -> int:
        return self._footprint

    def finish(self) -> tuple[frozenset, int]:
        best = (frozenset(), 0)
        for s, val, _, _ in self.sets.values():
            if val > best[1]:
                best = (s, val)
        return best


class StoreEverything:
    """Unbounded-memory strawman: keep the whole stream, solve at the end.

    Exists so audits have a maximally deviating, optimum-achieving
    reference point. Only sensible on tiny ground sets.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid):
        self.gate = gate
        self.matroid = matroid
        self.kept: set = set()

    def step(self, t: int, e: int):
        self.kept.add(e)

    def stored_set(self) -> frozenset:
        return frozenset(self.kept)

    def footprint(self) -> int:
        return len(self.kept)

    def finish(self) -> tuple[frozenset, int]:
        return brute_force_optimum(self.gate, self.matroid)
