"""Matroid independence oracles: uniform and partition families.

Algorithms in this package only ever ask "is this set independent". A
matroid provides ``n``, ``rank`` and ``is_independent``, plus three
methods that answer the same question incrementally while a set grows
one element at a time:

* ``load(S)`` -- an immutable summary of an independent set S;
* ``fits(load, e)`` -- whether S + e is independent;
* ``plus(load, e)`` -- the load of S + e.

Both ``fits`` and ``plus`` require that e is not already in S. The
generic defaults use the frozenset S itself as its load, so any matroid
that defines ``is_independent`` supports them. Uniform matroids override
them with the set's size and partition matroids with per-class counts
packed into one integer, which makes both methods O(1).
:func:`check_axioms` checks the matroid axioms of any of them by
enumeration.
"""

from __future__ import annotations

from collections import Counter

from .errors import GroundSetTooLarge, InvalidParams
from .oracles import CheckReport, _mask_set


class Matroid:
    n: int

    def is_independent(self, subset) -> bool:
        raise NotImplementedError

    @property
    def rank(self) -> int:
        raise NotImplementedError

    def load(self, subset):
        return frozenset(subset)

    def fits(self, load, e: int) -> bool:
        return self.is_independent(load | {e})

    def plus(self, load, e: int):
        return load | {e}


class UniformMatroid(Matroid):
    """Independent iff the set has at most ``rank`` elements."""

    def __init__(self, n: int, rank: int):
        if rank < 0 or n < 0:
            raise InvalidParams("rank and n must be non-negative")
        self.n = n
        self._rank = min(rank, n)

    def is_independent(self, subset) -> bool:
        return len(frozenset(subset)) <= self._rank

    @property
    def rank(self) -> int:
        return self._rank

    def load(self, subset) -> int:
        return len(frozenset(subset))

    def fits(self, load: int, e: int) -> bool:
        return load < self._rank

    def plus(self, load: int, e: int) -> int:
        return load + 1


class PartitionMatroid(Matroid):
    """Per-class capacities; independent iff no class is over capacity.

    ``class_of`` assigns each element a class label. ``capacity`` is a
    single integer applied to every class, or a mapping per label. The
    classical constructions here use capacity 1 throughout, but general
    capacities are free and the tests use them.

    A load packs the per-class counts of a set into one integer, one bit
    field per class, each wide enough for the largest capacity. Element e
    fits when the count in its class's field is below the capacity.
    ``is_independent`` adds a set's elements to an empty load the same
    way, so no count ever passes its capacity or carries into the next
    field.
    """

    def __init__(self, class_of, capacity=1):
        self.class_of = tuple(class_of)
        self.n = len(self.class_of)
        labels = set(self.class_of)
        if isinstance(capacity, int):
            self.capacity = {c: capacity for c in labels}
        else:
            self.capacity = dict(capacity)
            missing = labels - set(self.capacity)
            if missing:
                raise InvalidParams(f"no capacity for classes {sorted(missing)}")
        if any(c < 0 for c in self.capacity.values()):
            raise InvalidParams("capacities must be non-negative")
        classes = dict.fromkeys(self.class_of)
        width = max((self.capacity[c].bit_length() for c in classes), default=0)
        unit, field, limit = {}, {}, {}
        for i, c in enumerate(classes):
            unit[c] = 1 << i * width
            field[c] = ((1 << width) - 1) * unit[c]
            limit[c] = self.capacity[c] * unit[c]
        # per element, so that fits and plus index by id
        self._unit = list(map(unit.__getitem__, self.class_of))
        self._field = list(map(field.__getitem__, self.class_of))
        self._limit = list(map(limit.__getitem__, self.class_of))

    def is_independent(self, subset) -> bool:
        field, limit, unit = self._field, self._limit, self._unit
        load = 0
        for e in frozenset(subset):
            if load & field[e] >= limit[e]:
                return False
            load += unit[e]
        return True

    def load(self, subset) -> int:
        unit = self._unit
        return sum(unit[e] for e in frozenset(subset))

    def fits(self, load: int, e: int) -> bool:
        return load & self._field[e] < self._limit[e]

    def plus(self, load: int, e: int) -> int:
        return load + self._unit[e]

    @property
    def rank(self) -> int:
        sizes = Counter(self.class_of)
        return sum(min(self.capacity[c], sizes[c]) for c in sizes)


AXIOMS_LIMIT = 12  # largest ground sets check_axioms enumerates


def check_axioms(matroid: Matroid) -> CheckReport:
    """Verify non-emptiness, heredity and the exchange axiom by
    enumerating all subsets of the ground set (n capped at
    ``AXIOMS_LIMIT``)."""
    n = matroid.n
    if n > AXIOMS_LIMIT:
        raise GroundSetTooLarge(f"n={n} exceeds enumeration limit {AXIOMS_LIMIT}")
    indep = [matroid.is_independent(_mask_set(m)) for m in range(1 << n)]
    if not indep[0]:
        return CheckReport(False, "non-empty", (frozenset(),))
    for mask in range(1 << n):
        if not indep[mask]:
            continue
        for e in range(n):
            bit = 1 << e
            if mask & bit and not indep[mask & ~bit]:
                return CheckReport(False, "heredity", (_mask_set(mask & ~bit), _mask_set(mask)))
    by_size: dict[int, list[int]] = {}
    for mask in range(1 << n):
        if indep[mask]:
            by_size.setdefault(bin(mask).count("1"), []).append(mask)
    sizes = sorted(by_size)
    for small in sizes:
        for big in sizes:
            if big <= small:
                continue
            for a in by_size[small]:
                for b in by_size[big]:
                    extra = b & ~a
                    found = False
                    while extra:
                        bit = extra & -extra
                        if indep[a | bit]:
                            found = True
                            break
                        extra &= extra - 1
                    if not found:
                        return CheckReport(False, "exchange", (_mask_set(a), _mask_set(b)))
    return CheckReport(True)
