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
from .oracles import SetFunction
from .rng import derive_rng


def blue_ceiling(K: int, class_index: int) -> int:
    """Blues in class i beyond 2*(K-i) do not change any value."""
    return 2 * (K - class_index)


@lru_cache(maxsize=None)
def _level(t: int, reds: tuple, blues: tuple) -> int:
    # blues must already be clamped; level t covers the last t classes
    if t == 1:
        return reds[0]
    sub = _level(t - 1, reds[1:], blues[1:])
    m_prev = factorial(2 * t - 3)
    gap = m_prev - sub
    d = 2 * (t - 1) - blues[0]
    s = 1 - reds[0]
    scale = 2 * m_prev * s + gap * (d - 1)
    return factorial(2 * t - 1) - scale * d


def level_value(t: int, reds, blues) -> int:
    """Recursion value on the last t classes; blues are clamped here.

    The memo key is the clamped profile, filled lazily, so large-K
    instances only pay for the profiles they actually touch.
    """
    reds = tuple(reds)
    blues = tuple(blues)
    if t < 1 or len(reds) != t or len(blues) != t:
        raise InvalidParams("need one red flag and one blue count per level")
    if any(x not in (0, 1) for x in reds):
        raise InvalidParams("red entries must be 0/1")
    if any(b < 0 for b in blues):
        raise InvalidParams("blue counts must be non-negative")
    clamped = tuple(min(b, blue_ceiling(t, j + 1)) for j, b in enumerate(blues))
    return _level(t, reds, clamped)


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


@dataclass(frozen=True)
class MatHardParams:
    K: int
    m: int

    def __post_init__(self):
        if self.K < 1:
            raise InvalidParams("need K >= 1")
        if self.K == 1:
            if self.m != 0:
                raise InvalidParams("K=1 has no blue classes; use m=0")
        elif self.m < 1:
            raise InvalidParams("need m >= 1 blue-class size")

    @property
    def n(self) -> int:
        return (self.K - 1) * self.m + 1


class MatHardInstance:
    """Concrete oracle plus the capacity-1 partition matroid.

    Ground set layout follows the class blocks: class i occupies ids
    (i-1)*m .. i*m-1 for i < K and the single class-K element is id n-1,
    so stream samplers can address blocks directly. One hidden red per
    class is chosen by the seeded generator; the class-K element is red.
    """

    kind = "hard-matroid"

    def __init__(self, params: MatHardParams, seed: int):
        self.params = params
        self.seed = seed
        K, m = params.K, params.m
        n = params.n
        class_of = []
        blocks = []
        for i in range(1, K):
            block = list(range((i - 1) * m, i * m))
            blocks.append(block)
            class_of.extend([i] * m)
        blocks.append([n - 1])
        class_of.append(K)
        self.class_of = tuple(class_of)
        self.class_blocks = blocks
        rng = derive_rng(seed, "hard-matroid-reds", K, m)
        reds = [rng.choice(block) for block in blocks[:-1]]
        reds.append(n - 1)
        self.red_ids = frozenset(reds)
        self._ceilings = tuple(blue_ceiling(K, i) for i in range(1, K + 1))
        self.fn = SetFunction(n, self._value, name="hard-matroid")
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

    def _value(self, subset: frozenset) -> int:
        # a profile_of profile is valid: clamp it, skip level_value's checks
        reds, blues = self.profile_of(subset)
        return _level(self.params.K, reds, tuple(map(min, blues, self._ceilings)))

    @property
    def optimal_value(self) -> int:
        return optimal_value(self.params.K)

    @property
    def output_bound(self) -> int:
        return output_bound(self.params.K)

    def describe(self) -> dict:
        return {"kind": self.kind, "K": self.params.K, "m": self.params.m,
                "n": self.params.n, "seed": self.seed}

