"""Stream-order samplers for the experiment distributions.

Three named orderings:

* ``uniform``      -- any instance; a uniformly random permutation.
* ``purple-last``  -- cardinality-hard instances; blues and reds arrive in
  uniformly random order and the hidden purple element arrives last.
* ``class-blocks`` -- matroid-hard instances; classes arrive as contiguous
  blocks 1..K-1 (uniformly shuffled inside each block) followed by the
  single last-class element.

Sampling is deterministic in (instance, seed).
"""

from __future__ import annotations

from .errors import IncompatibleDistribution
from .hard_cardinality import CardHardInstance
from .hard_matroid import MatHardInstance
from .rng import derive_rng

DISTRIBUTIONS = ("uniform", "purple-last", "class-blocks")


def default_distribution(instance) -> str:
    if isinstance(instance, CardHardInstance):
        return "purple-last"
    if isinstance(instance, MatHardInstance):
        return "class-blocks"
    return "uniform"


def sample_stream(instance, distribution: str, seed: int) -> tuple[int, ...]:
    n = instance.fn.n
    rng = derive_rng(seed, "stream", distribution, n)
    if distribution == "uniform":
        order = list(range(n))
        rng.shuffle(order)
    elif distribution == "purple-last":
        if not isinstance(instance, CardHardInstance):
            raise IncompatibleDistribution("purple-last needs a cardinality-hard instance")
        order = [e for e in range(n) if e != instance.purple_id]
        rng.shuffle(order)
        order.append(instance.purple_id)
    elif distribution == "class-blocks":
        if not isinstance(instance, MatHardInstance):
            raise IncompatibleDistribution("class-blocks needs a matroid-hard instance")
        order = []
        for block in instance.class_blocks[:-1]:
            chunk = list(block)
            rng.shuffle(chunk)
            order.extend(chunk)
        order.extend(instance.class_blocks[-1])
    else:
        raise IncompatibleDistribution(f"unknown distribution {distribution!r}")
    return tuple(order)
