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


def brute_force_optimum(fn, matroid: Matroid, limit_uniform: int = 20,
                        limit_matroid: int = 16) -> tuple[frozenset, int]:
    """Exact maximizer over feasible sets by enumeration.

    Uniform constraints enumerate subsets up to the rank; general
    matroids walk the independence lattice. Ties go to the set that
    enumerates first, which is deterministic for a fixed ground order.
    """
    gate = _as_gate(fn)
    n = gate.n
    if isinstance(matroid, UniformMatroid):
        if n > limit_uniform:
            raise GroundSetTooLarge(f"n={n} exceeds uniform enumeration limit {limit_uniform}")
        best = (frozenset(), gate.require(frozenset()))
        for k in range(1, matroid.rank + 1):
            for combo in combinations(range(n), k):
                s = frozenset(combo)
                v = gate.require(s)
                if v > best[1]:
                    best = (s, v)
        return best
    if n > limit_matroid:
        raise GroundSetTooLarge(f"n={n} exceeds matroid enumeration limit {limit_matroid}")
    best = (frozenset(), gate.require(frozenset()))
    stack = [(frozenset(), 0)]
    while stack:
        current, start = stack.pop()
        for e in range(start, n):
            ext = current | {e}
            if matroid.is_independent(ext):
                v = gate.require(ext)
                if v > best[1] or (v == best[1] and sorted(ext) < sorted(best[0])):
                    best = (ext, v)
                stack.append((ext, e + 1))
    return best


def offline_greedy(fn, matroid: Matroid) -> tuple[frozenset, int]:
    """Iterative best-feasible-augmentation with a strong oracle."""
    gate = _as_gate(fn)
    n = gate.n
    chosen: frozenset = frozenset()
    value = gate.require(chosen)
    while True:
        best_gain, best_e = 0, None
        for e in range(n):
            if e in chosen or not matroid.is_independent(chosen | {e}):
                continue
            gain = gate.require(chosen | {e}) - value
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
    feasibly and the marginal reaches (v/2 - f(S)) / (K - |S|). Guesses
    leaving the window are discarded together with their sets, which is
    what keeps the stored-element footprint small.
    """

    def __init__(self, gate: QueryGate, matroid: Matroid, eps):
        self.gate = gate
        self.matroid = matroid
        self.K = matroid.rank
        self.grid = GuessGrid(eps)
        self.m = 0
        self.sets: dict[int, tuple[frozenset, int]] = {}

    def step(self, t: int, e: int):
        if self.matroid.is_independent({e}):
            fe = self.gate.require(frozenset({e}))
            if fe > self.m:
                self.m = fe
        if self.m > 0 and self.K > 0:
            first, last = self.grid.window(self.m, 2 * self.K * self.m)
            window = range(first, last + 1)
        else:
            window = range(0)
        for i in list(self.sets):
            if i not in window:
                del self.sets[i]
        for i in window:
            if i not in self.sets:
                self.sets[i] = (frozenset(), self.gate.require(frozenset()))
        for i in window:
            s, val = self.sets[i]
            if len(s) >= self.K or e in s:
                continue
            if not self.matroid.is_independent(s | {e}):
                continue
            new_val = self.gate.require(s | {e})
            need = (self.grid[i] / 2 - val) / (self.K - len(s))
            if new_val - val >= need:
                self.sets[i] = (s | {e}, new_val)

    def stored_set(self) -> frozenset:
        out: set = set()
        for s, _ in self.sets.values():
            out |= s
        return frozenset(out)

    def footprint(self) -> int:
        return sum(len(s) for s, _ in self.sets.values())

    def finish(self) -> tuple[frozenset, int]:
        best = (frozenset(), 0)
        for s, val in self.sets.values():
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
