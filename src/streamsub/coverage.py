"""Coverage functions and seeded random coverage instances.

f(S) = number of universe points covered by the union of the sets
attached to the elements of S. Monotone, submodular, integer-valued;
the workhorse for randomized algorithm-guarantee tests.

Points may be any hashable values. Each distinct point gets one bit
position, in the order the points are first seen, and each element's set
is kept as one integer bitmask; f(S) is the number of bits set in the OR
of the masks of S. Evaluations still go through ``SetFunction.value``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from .errors import InvalidParams
from .matroids import UniformMatroid
from .oracles import MAX_GROUND_SET, SetFunction
from .rng import derive_rng


class CoverageFunction(SetFunction):
    def __init__(self, element_sets):
        sets = [set(s) for s in element_sets]
        bit = {u: 1 << i for i, u in enumerate(dict.fromkeys(chain.from_iterable(sets)))}
        self.masks = tuple(sum(map(bit.get, s)) for s in sets)
        super().__init__(len(self.masks), self._cover, name="coverage")

    def _cover(self, subset: Iterable[int]) -> int:
        covered = 0
        for e in subset:
            covered |= self.masks[e]
        return covered.bit_count()


class CoverageInstance:
    kind, distribution = "coverage", "uniform"

    def __init__(self, n: int, universe: int, K: int, seed: int, density: float = 0.35):
        if n < 1 or universe < 1 or K < 0:
            raise InvalidParams("coverage instance needs n,universe >= 1 and K >= 0")
        if not 0 <= density <= 1:
            raise InvalidParams(f"coverage density must be in [0, 1], got {density!r}")
        if n * universe > MAX_GROUND_SET:
            raise InvalidParams(f"n*universe={n * universe} is above the cap {MAX_GROUND_SET}")
        self.n = n
        self.universe = universe
        self.K = K
        self.seed = seed
        self.density = density
        rng = derive_rng(seed, "coverage", n, universe, str(density))
        self.fn = CoverageFunction(
            [{u for u in range(universe) if rng.random() < density} for _ in range(n)]
        )
        self.matroid = UniformMatroid(n, K)

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, "universe": self.universe,
                "K": self.K, "seed": self.seed, "density": self.density}

