"""Reference maximizers: brute force, offline greedy, and threshold sieve.

Brute force is the test oracle for every algorithm guarantee in the
suite; greedy is the classical offline comparison point; the sieve is a
standard single-pass threshold algorithm used as the bounded-memory
baseline in the lower-bound demonstrations (implemented from its usual
textbook description).
"""

from __future__ import annotations

from .branching import GuessGrid
from .errors import GroundSetTooLarge
from .matroids import Matroid, UniformMatroid
from .oracles import QueryGate

UNIFORM_LIMIT = 20  # largest ground sets brute_force_optimum enumerates
MATROID_LIMIT = 16


def brute_force_optimum(fn, matroid: Matroid) -> tuple[frozenset, int]:
    """Exact maximizer over feasible sets by enumeration.

    ``fn`` is anything with ``n`` and ``value``, a set function or a gate.
    A depth-first walk grows sets in ascending id order on the matroid's
    loads, stops growing at the rank and queries each independent set
    once. Ties go to the smallest maximizer, then to the lexicographically
    first sorted ids.
    """
    n = fn.n
    if isinstance(matroid, UniformMatroid):
        if n > UNIFORM_LIMIT:
            raise GroundSetTooLarge(f"n={n} exceeds uniform enumeration limit {UNIFORM_LIMIT}")
    elif n > MATROID_LIMIT:
        raise GroundSetTooLarge(f"n={n} exceeds matroid enumeration limit {MATROID_LIMIT}")
    fits, plus, rank = matroid.fits, matroid.plus, matroid.rank
    best_key, best_value = (0, ()), fn.value(())
    # (sorted ids of an independent set, its load)
    stack = [((), matroid.load(()))]
    while stack:
        ids, load = stack.pop()
        for e in range(ids[-1] + 1 if ids else 0, n):
            if fits(load, e):
                ext = ids + (e,)
                v = fn.value(ext)
                if v > best_value or (v == best_value and (len(ext), ext) < best_key):
                    best_key, best_value = (len(ext), ext), v
                if len(ext) < rank:
                    stack.append((ext, plus(load, e)))
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
    Sieve-Streaming (Badanidiyuru et al., KDD 2014). Each candidate carries
    its guess as the grid's integer pair v = num/den, and the test is
    cross-multiplied: (f(S+e) - f(S)) (K - |S|) 2 den >= num - 2 f(S) den,
    exact without a ``Fraction``. Guesses
    the grid reports as entering the window start with an empty set;
    guesses leaving it are discarded together with their sets, which is
    what keeps the stored-element footprint small. The stream delivers
    each element at most once, as an ordering of the ground set does, so
    an arriving element is never in a candidate set already.

    The stored set and the footprint are kept current as sets change:
    ``held`` counts the candidate sets that hold each stored element.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.grid = GuessGrid(eps, 1, 2 * self.K)
        self.empty_load = matroid.load(frozenset())
        # guess index -> (candidate set, its value, its matroid load, and
        # the guess as num, den)
        self.sets: dict[int, tuple[frozenset, int, object, int, int]] = {}
        self.held: dict[int, int] = {}
        self._stored: frozenset = frozenset()
        self._footprint = 0

    def step(self, t: int, e: int):
        fits = self.matroid.fits
        if fits(self.empty_load, e):
            left, entered = self.grid.advance(self.gate.value(frozenset({e})))
            for i in left:
                self._drop(self.sets.pop(i)[0])
            for i in entered:
                self.sets[i] = (frozenset(), self.gate.value(frozenset()), self.empty_load,
                                *self.grid[i])
        K = self.K
        took = 0
        # guesses enter ascending and leave from the bottom: keys are in order
        for i, (s, val, load, num, den) in self.sets.items():
            room = K - len(s)
            if room <= 0 or not fits(load, e):
                continue
            new_val = self.gate.value(s | {e})
            if (new_val - val) * room * 2 * den >= num - 2 * val * den:
                self.sets[i] = (s | {e}, new_val, self.matroid.plus(load, e), num, den)
                took += 1
        if took:
            # e is in no candidate set yet
            self.held[e] = took
            self._stored = self._stored | {e}
            self._footprint += took

    def _drop(self, s: frozenset):
        """Account for the candidate set ``s`` of a guess that left."""
        held, gone = self.held, []
        for x in s:
            held[x] -= 1
            if not held[x]:
                del held[x]
                gone.append(x)
        if gone:
            self._stored = self._stored.difference(gone)
        self._footprint -= len(s)

    def stored_set(self) -> frozenset:
        return self._stored

    def footprint(self) -> int:
        return self._footprint

    def finish(self) -> tuple[frozenset, int]:
        best = (frozenset(), 0)
        for s, val, _, _, _ in self.sets.values():
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
