"""Reference implementations the package is tested against.

The replay-based branching procedures simulate the recursion literally
with stored stream suffixes (they are free to look at a suffix many
times), independent of the event-driven trees in the package.
Tie-breaking mirrors the production rules: leaf argmax keeps the
earliest maximum, the take-branch wins only strictly, and child
candidates are compared in first-acceptance order with the singleton
fallback last.

:class:`PlainGate` is the query gate without the per-step value memo.
"""

from fractions import Fraction

from streamsub.oracles import QueryGate


class PlainGate(QueryGate):
    """Query gate that evaluates the function on every accepted query."""

    def value(self, subset):
        subset = frozenset(subset)
        reason = self.policy.check(subset)
        if reason is not None:
            self.audit.rejected.append((subset, reason))
            return None
        self.audit.query_count += 1
        if self.audit.record_log:
            self.audit.log.append((self.audit.step, subset))
        return self.fn.value(subset)


def ref_cardinality(fn, stream, k, s, v, pinned=frozenset()):
    """Returns (solution set, value relative to pinned)."""
    pinned = frozenset(pinned)
    base = fn.value(pinned)

    def g(subset):
        return fn.value(pinned | frozenset(subset)) - base

    if k == 1 or s == 1:
        best = None
        for e in stream:
            gain = g({e})
            if best is None or gain > best[0]:
                best = (gain, e)
        if best is None:
            return frozenset(), 0
        return frozenset({best[1]}), best[0]

    taken = (frozenset(), 0)
    for idx, e in enumerate(stream):
        gain = g({e})
        if gain * (k + s - 1) >= v:
            sub, sub_val = ref_cardinality(fn, stream[idx + 1:], k, s - 1,
                                           v - gain, pinned | {e})
            taken = (sub | {e}, sub_val + gain)
            break
    skip_v = v * Fraction(k + s - 2, k + s - 1)
    skipped = ref_cardinality(fn, stream, k - 1, s, skip_v, pinned)
    return taken if taken[1] > skipped[1] else skipped


def ref_matroid(fn, matroid, stream, k, v, indep=frozenset(), rank=None):
    """Returns (solution set, value relative to indep)."""
    indep = frozenset(indep)
    rank = matroid.rank if rank is None else rank
    k4 = max(rank, 1) ** 4
    beta = k4 // 2
    base = fn.value(indep)
    v = Fraction(v)

    def g(subset):
        return fn.value(indep | frozenset(subset)) - base

    best_single = None
    for e in stream:
        if matroid.is_independent(indep | {e}):
            gain = g({e})
            if best_single is None or gain > best_single[0]:
                best_single = (gain, e)

    accepted = {}  # element -> (arrival idx, gain)
    if k > 1:
        for b in range(beta + 1):
            tracked = set()
            for idx, e in enumerate(stream):
                if len(indep) + len(tracked) >= rank:
                    break
                if not matroid.is_independent(indep | tracked | {e}):
                    continue
                gain = g({e})
                if v > 0:
                    ok = gain * k4 * v.denominator >= b * v.numerator
                else:
                    ok = True
                if ok:
                    tracked.add(e)
                    if e not in accepted or idx < accepted[e][0]:
                        accepted[e] = (idx, gain)

    best = None
    for e, (idx, gain) in sorted(accepted.items(), key=lambda kv: kv[1][0]):
        v_next = (1 - Fraction(1, k4)) * v - 2 * gain
        sub, sub_val = ref_matroid(fn, matroid, stream[idx + 1:], k - 1,
                                   v_next, indep | {e}, rank)
        cand = (sub | {e}, sub_val + gain)
        if best is None or cand[1] > best[1]:
            best = cand
    if best_single is not None:
        gain, e = best_single
        if best is None or gain > best[1]:
            best = (frozenset({e}), gain)
    return best if best is not None else (frozenset(), 0)
