"""Adversarial colorwise-symmetric instances for cardinality constraints.

An instance over n elements hides a coloring into n-K blue elements, K-1
red elements, and one purple element; the function value of a set depends
only on its color counts (b, r, p). The marginal schedule is arranged so
that one extra blue element is worth exactly as much as one red element
(``profile_value(b+1,0,0) == profile_value(b,1,0)``), which makes red and
blue indistinguishable to any bounded-memory observer, while the best
value reachable without hoarding reds stays well below the optimum
``profile_value(0, K-1, 1)``.

All values are exact integers. The shape parameter h (>= K) controls the
gap; ``ratio_bound`` picks the h that minimizes the reachable/optimal
ratio for a given K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt

from .errors import InvalidParams
from .matroids import UniformMatroid
from .oracles import SetFunction
from .rng import derive_rng

BLUE, RED, PURPLE = "b", "r", "p"


@dataclass(frozen=True)
class CardHardParams:
    n: int
    K: int
    h: int

    def __post_init__(self):
        if self.K < 2:
            raise InvalidParams("construction needs K >= 2")
        if self.h < self.K:
            raise InvalidParams("shape parameter must satisfy h >= K")
        if self.n < 2 * self.K:
            raise InvalidParams("need n >= 2K so blues outnumber the budget")

    @property
    def blues(self) -> int:
        return self.n - self.K

    @property
    def reds(self) -> int:
        return self.K - 1


def red_marginal(params: CardHardParams, b: int, r: int) -> int:
    """Gain of one more red on top of b blues and r reds (purple-independent)."""
    K, h = params.K, params.h
    if not (0 <= r <= K - 2):
        raise InvalidParams(f"red index {r} outside 0..K-2")
    if b < 0:
        raise InvalidParams("negative blue count")
    if b <= h + r:
        return K - 1 + h - b
    if b <= h + 2 * (K - 2) - r:
        return K - 1 - (r + b - h + 1) // 2
    return 0


def blue_marginal(params: CardHardParams, b: int, with_purple: int) -> int:
    """Gain of one more blue on top of b blues, no reds, purple optional."""
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


def _blue_prefix(params: CardHardParams, b: int, with_purple: int) -> int:
    # cumulative blue gains, grown incrementally so large ground sets
    # never recurse
    key = (params, with_purple)
    sums = _prefix_cache.get(key)
    if sums is None:
        base = params.h * (params.h + 1) // 2 if with_purple else 0
        sums = _prefix_cache[key] = [base]
    while len(sums) <= b:
        j = len(sums) - 1
        sums.append(sums[-1] + blue_marginal(params, j, with_purple))
    return sums[b]


def profile_value(params: CardHardParams, b: int, r: int, p: int) -> int:
    """Exact value of any set with b blue, r red, p purple elements."""
    if not (0 <= b <= params.blues):
        raise InvalidParams(f"blue count {b} outside 0..{params.blues}")
    if not (0 <= r <= params.reds):
        raise InvalidParams(f"red count {r} outside 0..{params.reds}")
    if p not in (0, 1):
        raise InvalidParams("purple count must be 0 or 1")
    total = _blue_prefix(params, b, p)
    for i in range(r):
        total += red_marginal(params, b, i)
    return total


def _output_bound(K: int, h: int) -> int:
    return max(h * K + (K - 1) * K // 2, (K - 1) ** 2 + h * (h + 1) // 2)


def _optimal(K: int, h: int) -> int:
    return (K - 1) * (h + K - 1) + h * (h + 1) // 2


def optimal_value(params: CardHardParams) -> int:
    """Value of the planted optimum: all reds plus the purple element."""
    return _optimal(params.K, params.h)


def output_bound(params: CardHardParams) -> int:
    """Best value reachable holding at most one red and no purple, or
    K-1 blues plus the purple element."""
    return _output_bound(params.K, params.h)


def ratio_bound(K: int) -> tuple[int, Fraction]:
    """Choose h minimizing reachable/optimal; return (h, exact ratio).

    Candidates are the two integers around sqrt(2)*(K-1), clamped up to K
    to keep the construction valid for small K.
    """
    if K < 2:
        raise InvalidParams("ratio bound defined for K >= 2")
    floor_root = isqrt(2 * (K - 1) * (K - 1))
    candidates = sorted({max(K, floor_root), max(K, floor_root + 1)})
    best = min((Fraction(_output_bound(K, h), _optimal(K, h)), h) for h in candidates)
    return best[1], best[0]


def limiting_ratio() -> float:
    """Limit of ratio_bound as K grows: 2 / (2 + sqrt(2))."""
    return 2.0 / (2.0 + sqrt(2.0))


class CardHardInstance:
    """Concrete oracle with a hidden coloring.

    Algorithms receive only ``fn`` (the value oracle) and ``matroid`` (the
    uniform rank-K feasibility oracle). The color assignment is
    harness-side information used by stream samplers and audits; it is
    never consulted by the value oracle beyond color counting, so any two
    sets with equal color profiles have equal values.
    """

    kind = "hard-cardinality"

    def __init__(self, params: CardHardParams, seed: int):
        self.params = params
        self.seed = seed
        rng = derive_rng(seed, "hard-card-coloring", params.n, params.K, params.h)
        ids = list(range(params.n))
        rng.shuffle(ids)
        self.blue_ids = frozenset(ids[: params.blues])
        self.red_ids = frozenset(ids[params.blues : params.n - 1])
        self.purple_id = ids[params.n - 1]
        colors = [BLUE] * params.n
        for e in self.red_ids:
            colors[e] = RED
        colors[self.purple_id] = PURPLE
        self.colors = tuple(colors)
        self.fn = SetFunction(params.n, self._value, name="hard-cardinality")
        self.matroid = UniformMatroid(params.n, params.K)

    def profile_of(self, subset) -> tuple[int, int, int]:
        b = r = p = 0
        for e in subset:
            c = self.colors[e]
            if c == BLUE:
                b += 1
            elif c == RED:
                r += 1
            else:
                p += 1
        return b, r, p

    def _value(self, subset: frozenset) -> int:
        b, r, p = self.profile_of(subset)
        return profile_value(self.params, b, r, p)

    @property
    def optimal_value(self) -> int:
        return optimal_value(self.params)

    @property
    def output_bound(self) -> int:
        return output_bound(self.params)

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.params.n, "K": self.params.K,
                "h": self.params.h, "seed": self.seed}

