"""Stream-order samplers for the experiment distributions.

Each named ordering is some blocks, each uniformly shuffled in turn, and
then a fixed tail:

* ``uniform``      -- any instance; one block of all elements, no tail.
* ``purple-last``  -- cardinality-hard instances; the blues and reds as
  one block, and the hidden purple element as the tail.
* ``class-blocks`` -- matroid-hard instances; classes 1..K-1 as one block
  each, and the single last-class element as the tail.

An instance names its default ordering as ``distribution``. Sampling is
deterministic in (instance, seed).
"""

from __future__ import annotations

from .errors import IncompatibleDistribution
from .hard_cardinality import CardHardInstance
from .hard_matroid import MatHardInstance
from .rng import derive_rng

# each ordering: the instance kind it needs (None for any), and the
# instance's blocks and tail
DISTRIBUTIONS = {
    "uniform": (None, lambda inst: ((range(inst.fn.n),), ())),
    "purple-last": (CardHardInstance.kind, lambda inst: (
        ([e for e in range(inst.fn.n) if e != inst.purple_id],), (inst.purple_id,))),
    "class-blocks": (MatHardInstance.kind, lambda inst: (
        inst.class_blocks[:-1], inst.class_blocks[-1])),
}


def sample_stream(instance, distribution: str, seed: int) -> tuple[int, ...]:
    if distribution not in DISTRIBUTIONS:
        raise IncompatibleDistribution(f"unknown distribution {distribution!r}")
    needs, parts = DISTRIBUTIONS[distribution]
    if needs not in (None, instance.kind):
        raise IncompatibleDistribution(
            f"{distribution} needs a {needs.removeprefix('hard-')}-hard instance")
    blocks, tail = parts(instance)
    rng = derive_rng(seed, "stream", distribution, instance.fn.n)
    order = []
    for block in blocks:
        chunk = list(block)
        rng.shuffle(chunk)
        order.extend(chunk)
    order.extend(tail)
    return tuple(order)
