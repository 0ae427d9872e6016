"""Coverage functions and seeded random coverage instances.

f(S) = number of universe points covered by the union of the sets
attached to the elements of S. Monotone, submodular, integer-valued;
the workhorse for randomized algorithm-guarantee tests.
"""

from __future__ import annotations

from .errors import InvalidParams
from .matroids import UniformMatroid
from .oracles import SetFunction
from .rng import derive_rng


class CoverageFunction(SetFunction):
    def __init__(self, element_sets):
        self.element_sets = tuple(frozenset(s) for s in element_sets)
        super().__init__(len(self.element_sets), self._cover, name="coverage")

    def _cover(self, subset: frozenset) -> int:
        covered: set = set()
        for e in subset:
            covered |= self.element_sets[e]
        return len(covered)


class CoverageInstance:
    kind = "coverage"

    def __init__(self, n: int, universe: int, K: int, seed: int, density: float = 0.35):
        if n < 1 or universe < 1 or K < 0:
            raise InvalidParams("coverage instance needs n,universe >= 1 and K >= 0")
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

