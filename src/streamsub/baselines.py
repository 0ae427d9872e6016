"""Reference maximizers: brute force, offline greedy, and threshold sieve.

Brute force is the test oracle for every algorithm guarantee in the
suite; greedy is the classical offline comparison point; the sieve is a
standard single-pass threshold algorithm used as the bounded-memory
baseline in the lower-bound demonstrations (implemented from its usual
textbook description).
"""

from __future__ import annotations

from itertools import combinations

from .branching import GuessGrid
from .errors import GroundSetTooLarge
from .matroids import Matroid, UniformMatroid
from .oracles import QueryGate


def _as_gate(fn_or_gate) -> QueryGate:
    return fn_or_gate if isinstance(fn_or_gate, QueryGate) else QueryGate(fn_or_gate)


UNIFORM_LIMIT = 20  # largest ground sets brute_force_optimum enumerates
MATROID_LIMIT = 16


def brute_force_optimum(fn, matroid: Matroid) -> tuple[frozenset, int]:
    """Exact maximizer over feasible sets by enumeration.

    Uniform constraints enumerate subsets up to the rank; general
    matroids walk the independence lattice. Ties go to the set that
    enumerates first, which is deterministic for a fixed ground order.
    """
    gate = _as_gate(fn)
    n = gate.n
    if isinstance(matroid, UniformMatroid):
        if n > UNIFORM_LIMIT:
            raise GroundSetTooLarge(f"n={n} exceeds uniform enumeration limit {UNIFORM_LIMIT}")
        best = (frozenset(), gate.value(frozenset()))
        for k in range(1, matroid.rank + 1):
            for combo in combinations(range(n), k):
                s = frozenset(combo)
                v = gate.value(s)
                if v > best[1]:
                    best = (s, v)
        return best
    if n > MATROID_LIMIT:
        raise GroundSetTooLarge(f"n={n} exceeds matroid enumeration limit {MATROID_LIMIT}")
    best = (frozenset(), gate.value(frozenset()))
    stack = [(frozenset(), 0)]
    while stack:
        current, start = stack.pop()
        for e in range(start, n):
            ext = current | {e}
            if matroid.is_independent(ext):
                v = gate.value(ext)
                if v > best[1] or (v == best[1] and sorted(ext) < sorted(best[0])):
                    best = (ext, v)
                stack.append((ext, e + 1))
    return best


def offline_greedy(fn, matroid: Matroid) -> tuple[frozenset, int]:
    """Iterative best-feasible-augmentation with a strong oracle."""
    gate = _as_gate(fn)
    n = gate.n
    chosen: frozenset = frozenset()
    value = gate.value(chosen)
    while True:
        best_gain, best_e = 0, None
        for e in range(n):
            if e in chosen or not matroid.is_independent(chosen | {e}):
                continue
            gain = gate.value(chosen | {e}) - value
            if gain > best_gain:
                best_gain, best_e = gain, e
        if best_e is None:
            return chosen, value
        chosen = chosen | {best_e}
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
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.grid = GuessGrid(eps)
        self.grid.limit(2 * self.K)
        self.m = 0
        self.empty_load = matroid.load(frozenset())
        # guess index -> (candidate set, its value, its matroid load, and
        # the guess as num, den)
        self.sets: dict[int, tuple[frozenset, int, object, int, int]] = {}

    def step(self, t: int, e: int):
        fits = self.matroid.fits
        if fits(self.empty_load, e):
            fe = self.gate.value(frozenset({e}))
            # the window moves only when m rises; m > 0 implies K > 0
            if fe > self.m:
                self.m = fe
                first, _, entered = self.grid.window((fe, 1), (2 * self.K * fe, 1))
                for i in list(self.sets):
                    if i < first:
                        del self.sets[i]
                for i in entered:
                    self.sets[i] = (frozenset(), self.gate.value(frozenset()), self.empty_load,
                                    *self.grid[i])
        K = self.K
        # guesses enter ascending and leave from the bottom: keys are in order
        for i, (s, val, load, num, den) in self.sets.items():
            room = K - len(s)
            if room <= 0 or not fits(load, e):
                continue
            new_val = self.gate.value(s | {e})
            if (new_val - val) * room * 2 * den >= num - 2 * val * den:
                self.sets[i] = (s | {e}, new_val, self.matroid.plus(load, e), num, den)

    def stored_set(self) -> frozenset:
        out: set = set()
        for s, _, _, _, _ in self.sets.values():
            out |= s
        return frozenset(out)

    def footprint(self) -> int:
        return sum(len(s) for s, _, _, _, _ in self.sets.values())

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
