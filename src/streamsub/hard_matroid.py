"""Adversarial partition-matroid instances built from a per-class recursion.

The ground set splits into classes 1..K: classes 1..K-1 hold m elements
each (one hidden red, the rest blue) and class K is a single red element.
Feasible sets take at most one element per class. The value of a set
depends only on per-class red presence r_i and blue counts b_i, and blue
counts saturate at a per-class ceiling of 2*(K-i), so the whole function
lives on a small profile lattice.

Landmarks: the all-red set is the optimum with value (2K-1)!, while the
best profile reachable without distinguishing reds in classes 1..K-1 is
K*(2K-2)!, for an exact reachable/optimal ratio of K/(2K-1). Every value
is an exact integer; factorials use arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import InvalidParams
from .matroids import PartitionMatroid
from .oracles import MAX_GROUND_SET, CheckReport, SetFunction
from .rng import derive_rng


def blue_ceiling(K: int, class_index: int) -> int:
    """Blues in class i beyond 2*(K-i) do not change any value."""
    return 2 * (K - class_index)


def _level(t: int, reds: tuple, blues: tuple) -> int:
    # level j covers the last j classes and is built from level j-1,
    # bottom up, with (2j-3)! carried along; class i's blues count up to
    # its ceiling 2(j-1), so d is clamped at 0
    value, fact = reds[t - 1], 1
    for j in range(2, t + 1):
        i = t - j
        d = 2 * (j - 1) - blues[i]
        if d < 0:
            d = 0
        scale = 2 * fact * (1 - reds[i]) + (fact - value) * (d - 1)
        fact *= (2 * j - 2) * (2 * j - 1)
        value = fact - scale * d
    return value


def level_value(t: int, reds, blues) -> int:
    """Recursion value on the last t classes; ``_level`` clamps the blues.

    Checked profiles are memoized as given, filled lazily, so large-K
    instances only pay for the profiles they actually touch. An
    instance's oracle reaches ``_level`` through its own memo,
    ``_packed_level``, keyed by its packed profile integer (see
    :class:`MatHardInstance`); ``_level`` itself, one pass over the
    classes, keeps none. Each memo keeps at most 8192 entries and drops
    the least recently used first, so a sweep or a long session does not
    keep every profile it has seen. A profile with an unhashable entry is
    checked without the memo, so it fails as any invalid one.
    """
    reds, blues = tuple(reds), tuple(blues)
    try:
        return _checked_level(t, reds, blues)
    except TypeError:
        return _checked_level.__wrapped__(t, reds, blues)


@lru_cache(maxsize=8192)
def _checked_level(t: int, reds: tuple, blues: tuple) -> int:
    # an invalid profile raises, and lru_cache stores no exception
    if t < 1 or len(reds) != t or len(blues) != t:
        raise InvalidParams("need one red flag and one blue count per level")
    if any(x not in (0, 1) for x in reds):
        raise InvalidParams("red entries must be 0/1")
    if any(not isinstance(b, int) or b < 0 for b in blues):
        raise InvalidParams("blue counts must be non-negative integers")
    return _level(t, reds, blues)


@lru_cache(maxsize=8192)
def _packed_level(layout: tuple[int, int], packed: int) -> int:
    # layout is (K, m); packed holds class i's blue count in bits
    # i*w..(i+1)*w-1 and its red flag in bit K*w+i, with w = m.bit_length()
    K, m = layout
    w = m.bit_length()
    field = (1 << w) - 1
    reds = tuple((packed >> (K * w + i)) & 1 for i in range(K))
    blues = tuple((packed >> (i * w)) & field for i in range(K))
    return _level(K, reds, blues)


def profile_value(K: int, reds, blues) -> int:
    """Exact value for a full K-class profile. The last class can hold no
    blue element, so a positive last blue count is rejected rather than
    clamped."""
    reds = tuple(reds)
    blues = tuple(blues)
    if len(reds) != K or len(blues) != K:
        raise InvalidParams(f"profile must have {K} classes")
    if blues[-1] != 0:
        raise InvalidParams("last class has no blue elements")
    return level_value(K, reds, blues)


def singleton_values(K: int) -> tuple[int, int, int]:
    """(red of an early class, any blue, red of the last class)."""
    if K < 2:
        raise InvalidParams("singleton split needs K >= 2")
    big = 2 * factorial(2 * K - 2)
    return big, big, factorial(2 * K - 2)


def optimal_value(K: int) -> int:
    """All reds present: (2K-1)!."""
    return factorial(2 * K - 1)


def output_bound(K: int) -> int:
    """Last-class red plus one blue in every other class: K*(2K-2)!."""
    return K * factorial(2 * K - 2)


def approx_ratio(K: int) -> Fraction:
    return Fraction(K, 2 * K - 1)


def check_closed_forms(K: int) -> CheckReport:
    """Check that the all-red profile is worth ``optimal_value(K)`` and the
    reachable one ``output_bound(K)``; a failure's witness is ``(K,)``."""
    if profile_value(K, (1,) * K, (0,) * K) != optimal_value(K):
        return CheckReport(False, "all-red closed form", (K,))
    if profile_value(K, (0,) * (K - 1) + (1,), (1,) * (K - 1) + (0,)) != output_bound(K):
        return CheckReport(False, "reachable closed form", (K,))
    return CheckReport(True)


@dataclass(frozen=True)
class MatHardParams:
    K: int
    m: int
    MAX_K = 200  # values reach (2K-1)! = 399!; _level loops once per class

    def __post_init__(self):
        if self.K < 1:
            raise InvalidParams("need K >= 1")
        if self.K > self.MAX_K:
            raise InvalidParams(f"need K <= {self.MAX_K}, got K={self.K}")
        if self.K == 1:
            if self.m != 0:
                raise InvalidParams("K=1 has no blue classes; use m=0")
        elif self.m < 1:
            raise InvalidParams("need m >= 1 blue-class size")
        if self.n > MAX_GROUND_SET:
            raise InvalidParams(f"n={self.n} is above the ground-set cap {MAX_GROUND_SET}")

    @property
    def n(self) -> int:
        return (self.K - 1) * self.m + 1


class MatHardInstance:
    """Concrete oracle plus the capacity-1 partition matroid.

    Ground set layout follows the class blocks: class i occupies ids
    (i-1)*m .. i*m-1 for i < K and the single class-K element is id n-1,
    so stream samplers can address blocks directly. One hidden red per
    class is chosen by the seeded generator; the class-K element is red.

    The oracle evaluates a set from one integer, the sum of its elements'
    units: a blue of class i adds ``1 << (i-1)*w`` and a red ``1 << K*w +
    i-1``, with w = ``m.bit_length()``, so a class's blue count (at most
    m-1) never carries into the next field. That integer is the packed
    :meth:`profile_of` profile; ``_packed_level`` unpacks it on a memo
    miss and calls ``_level``, which clamps the blues at
    ``blue_ceiling``, so every value comes from the same exact recursion.
    """

    kind, distribution = "hard-matroid", "class-blocks"

    def __init__(self, params: MatHardParams, seed: int):
        self.params = params
        self.seed = seed
        K, m, n = params.K, params.m, params.n
        self.class_blocks = [list(range(i * m, (i + 1) * m)) for i in range(K - 1)] + [[n - 1]]
        self.class_of = tuple(i for i, block in enumerate(self.class_blocks, 1) for _ in block)
        rng = derive_rng(seed, "hard-matroid-reds", K, m)
        self.red_ids = frozenset([rng.choice(block) for block in self.class_blocks[:-1]] + [n - 1])
        w = m.bit_length()
        self._layout = (K, m)
        self._units = [1 << (K * w + c - 1) if e in self.red_ids else 1 << (c - 1) * w
                       for e, c in enumerate(self.class_of)]
        self.fn = SetFunction(n, self._value, name=self.kind)
        self.matroid = PartitionMatroid(self.class_of, capacity=1)

    def profile_of(self, subset) -> tuple[tuple[int, ...], tuple[int, ...]]:
        K = self.params.K
        reds = [0] * K
        blues = [0] * K
        for e in subset:
            i = self.class_of[e] - 1
            if e in self.red_ids:
                reds[i] = 1
            else:
                blues[i] += 1
        return tuple(reds), tuple(blues)

    def _value(self, subset) -> int:
        return _packed_level(self._layout, sum(map(self._units.__getitem__, subset)))

    @property
    def optimal_value(self) -> int:
        return optimal_value(self.params.K)

    @property
    def output_bound(self) -> int:
        return output_bound(self.params.K)

    def describe(self) -> dict:
        return {"kind": self.kind, "K": self.params.K, "m": self.params.m,
                "n": self.params.n, "seed": self.seed}

