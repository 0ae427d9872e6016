"""Adversarial colorwise-symmetric instances for cardinality constraints.

An instance over n elements hides a coloring into n-K blue elements, K-1
red elements, and one purple element; the function value of a set depends
only on its color counts (b, r, p). The marginal schedule is arranged so
that one extra blue element is worth exactly as much as one red element
(``profile_value(b+1,0,0) == profile_value(b,1,0)``), which makes red and
blue indistinguishable to any bounded-memory observer, while the best
value reachable without hoarding reds stays well below the optimum
``profile_value(0, K-1, 1)``.

All values are exact integers. Every gain at ``CardHardParams.blue_cap``
blues or more is 0, so one bounded memo, keyed by the packed profile
integer with the blue count clamped there (see :class:`CardHardInstance`),
serves both ``profile_value`` and an instance's oracle.
The shape parameter h (>= K) controls the gap; ``ratio_bound`` picks the
h that minimizes the reachable/optimal ratio for a given K, and
``check_closed_forms`` checks the landmarks above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, sqrt

from .errors import InvalidParams
from .matroids import UniformMatroid
from .oracles import MAX_GROUND_SET, CheckReport, SetFunction
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
        if self.n > MAX_GROUND_SET:
            raise InvalidParams(f"n={self.n} is above the ground-set cap {MAX_GROUND_SET}")

    @property
    def blues(self) -> int:
        return self.n - self.K

    @property
    def reds(self) -> int:
        return self.K - 1

    @property
    def blue_cap(self) -> int:
        """Every blue and red gain at this many blues or more is 0."""
        return self.h + 2 * (self.K - 2) + 1


def red_marginal(params: CardHardParams, b: int, r: int) -> int:
    """Gain of one more red on top of b blues and r reds (purple-independent)."""
    if not (0 <= r <= params.K - 2):
        raise InvalidParams(f"red index {r} outside 0..K-2")
    if b < 0:
        raise InvalidParams("negative blue count")
    return _red(params.K, params.h, b, r)


def _red(K: int, h: int, b: int, r: int) -> int:
    if b <= h + r:
        return K - 1 + h - b
    if b <= h + 2 * (K - 2) - r:
        return K - 1 - (r + b - h + 1) // 2
    return 0


def blue_marginal(params: CardHardParams, b: int, with_purple: int) -> int:
    """Gain of one more blue on top of b blues, no reds, purple optional:
    K-1 with the purple up to h blues, else the first red's gain."""
    if with_purple and 0 <= b <= params.h:
        return params.K - 1
    return red_marginal(params, b, 0)


def _value(K: int, h: int, b: int, r: int, p: int) -> int:
    # b is clamped to the blue cap; the j-th blue gains blue_marginal's gain
    base = h * (h + 1) // 2 if p else 0
    return (base + sum(K - 1 if p and j <= h else _red(K, h, j, 0) for j in range(b))
            + sum(_red(K, h, b, i) for i in range(r)))


@lru_cache(maxsize=8192)
def _packed_value(layout: tuple[int, int, int, int], packed: int) -> int:
    # layout is (n, K, h, blue_cap) of checked params; packed holds b, r
    # and p in fields of n.bit_length() bits, blue lowest
    n, K, h, cap = layout
    w = n.bit_length()
    field = (1 << w) - 1
    b, r, p = packed & field, (packed >> w) & field, packed >> 2 * w
    return _value(K, h, min(b, cap), r, p)


def profile_value(params: CardHardParams, b: int, r: int, p: int) -> int:
    """Exact value of any set with b blue, r red, p purple elements."""
    if not (0 <= b <= params.blues):
        raise InvalidParams(f"blue count {b} outside 0..{params.blues}")
    if not (0 <= r <= params.reds):
        raise InvalidParams(f"red count {r} outside 0..{params.reds}")
    if p not in (0, 1):
        raise InvalidParams("purple count must be 0 or 1")
    w = params.n.bit_length()
    return _packed_value((params.n, params.K, params.h, params.blue_cap),
                         min(b, params.blue_cap) | r << w | p << 2 * w)


def _reachable(K: int, h: int) -> tuple[int, int]:
    # the value of K blues (or K-1 blues and one red), and of K-1 blues
    # with the purple element
    return h * K + (K - 1) * K // 2, (K - 1) ** 2 + h * (h + 1) // 2


def _optimal(K: int, h: int) -> int:
    return (K - 1) * (h + K - 1) + h * (h + 1) // 2


def optimal_value(params: CardHardParams) -> int:
    """Value of the planted optimum: all reds plus the purple element."""
    return _optimal(params.K, params.h)


def output_bound(params: CardHardParams) -> int:
    """Best value reachable holding at most one red and no purple, or
    K-1 blues plus the purple element."""
    return max(_reachable(params.K, params.h))


def ratio_bound(K: int) -> tuple[int, Fraction]:
    """Choose h minimizing reachable/optimal; return (h, exact ratio).

    Candidates are the two integers around sqrt(2)*(K-1), clamped up to K
    to keep the construction valid for small K.
    """
    if K < 2:
        raise InvalidParams("ratio bound defined for K >= 2")
    floor_root = isqrt(2 * (K - 1) * (K - 1))
    candidates = sorted({max(K, floor_root), max(K, floor_root + 1)})
    best = min((Fraction(max(_reachable(K, h)), _optimal(K, h)), h) for h in candidates)
    return best[1], best[0]


def check_closed_forms(params: CardHardParams) -> CheckReport:
    """Check the blue/red swap identity at every blue count b (witness
    ``(b,)``), then the reachable values at (K,0,0), (K-1,1,0) and
    (K-1,0,1) and the optimum at (0,K-1,1) (witness: the profile)."""
    for b in range(params.blues):
        if profile_value(params, b + 1, 0, 0) != profile_value(params, b, 1, 0):
            return CheckReport(False, "blue/red swap", (b,))
    K = params.K
    reach, held = _reachable(K, params.h)
    for profile, value in (((K, 0, 0), reach), ((K - 1, 1, 0), reach), ((K - 1, 0, 1), held)):
        if profile_value(params, *profile) != value:
            return CheckReport(False, "reachable closed form", profile)
    if profile_value(params, 0, K - 1, 1) != optimal_value(params):
        return CheckReport(False, "optimal closed form", (0, K - 1, 1))
    return CheckReport(True)


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

    The oracle evaluates a set from one integer, the sum of its elements'
    units: 1 for a blue, ``1 << w`` for a red and ``1 << 2*w`` for the
    purple, with w = ``n.bit_length()``, so no count carries into the next
    field. That integer is the packed :meth:`profile_of` profile;
    ``_packed_value`` unpacks it on a memo miss, clamps the blues at
    ``blue_cap`` and calls ``_value``.
    """

    kind, distribution = "hard-cardinality", "purple-last"

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
        w = params.n.bit_length()
        unit = {BLUE: 1, RED: 1 << w, PURPLE: 1 << 2 * w}
        self._layout = (params.n, params.K, params.h, params.blue_cap)
        self._units = list(map(unit.__getitem__, colors))
        self.fn = SetFunction(params.n, self._value, name=self.kind)
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

    def _value(self, subset) -> int:
        return _packed_value(self._layout, sum(map(self._units.__getitem__, subset)))

    @property
    def optimal_value(self) -> int:
        return optimal_value(self.params)

    @property
    def output_bound(self) -> int:
        return output_bound(self.params)

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.params.n, "K": self.params.K,
                "h": self.params.h, "seed": self.seed}

