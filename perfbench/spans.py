"""Spans and counters recorded from outside the streamsub package.

Wrappers are installed by attribute name on the package's classes and
module functions and removed again afterwards, so the package itself is
never edited. A hook that no longer resolves (renamed or merged away) is
skipped and reported, and the metrics that depend on it are left out.

Coarse calls -- a trial, a stream step, a branch-tree step, a finish, a
brute-force optimum, a report -- become spans with a name, start, end,
parent and trial id. Hot per-call boundaries (value queries, policy
checks, independence tests, storage accounting) are far too frequent to
record one by one: each call only adds to a counter on the enclosing
span, so a traced trial stays bounded in memory. Every span and counter
keeps self time, its duration minus the time of what it encloses, so the
self times of one trial add up exactly to the trial's wall time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns as clock

P = "streamsub."

# counter key -> hooks; timed per call, aggregated on the enclosing span
HOT = {
    "oracles.gate": [(P + "oracles", "QueryGate.value")],
    "oracles.fn": [(P + "oracles", "SetFunction.value")],
    "oracles.policy_check": [(P + "oracles", "AccessPolicy.check"),
                             (P + "oracles", "WeakPolicy.check"),
                             (P + "oracles", "ElementStorePolicy.check")],
    "matroids.indep": [(P + "matroids", "UniformMatroid.is_independent"),
                       (P + "matroids", "PartitionMatroid.is_independent")],
    "harness.accounting": [(P + "branching", "GuessDriver.stored_set"),
                           (P + "branching", "GuessDriver.footprint"),
                           (P + "baselines", "SieveStreaming.stored_set"),
                           (P + "baselines", "SieveStreaming.footprint"),
                           (P + "oracles", "ElementStorePolicy.commit")],
}
# counter key -> hooks; counted only, not timed
COUNTED = {
    "branching.nodes": [(P + "branching", "_CardNode.__init__"),
                        (P + "branching", "_MatNode.__init__")],
}
# span name -> hooks
SPANS = {
    "branching.driver_step": [(P + "branching", "GuessDriver.step")],
    "baselines.sieve_step": [(P + "baselines", "SieveStreaming.step")],
    "branching.tree_step": [(P + "branching", "CardTree.step"),
                            (P + "branching", "MatroidTree.step")],
    "branching.finish": [(P + "branching", "CardTree.finish"),
                         (P + "branching", "MatroidTree.finish"),
                         (P + "branching", "GuessDriver.finish")],
    "baselines.brute_force": [(P + "harness", "brute_force_optimum")],
    "harness.report": [(P + "cli", "report_to_json")],
    "samplers.sample": [(P + "harness", "sample_stream")],
}
# the algorithms' per-element update; the distinct-query scope
STEP_SPANS = ("branching.driver_step", "baselines.sieve_step")
# spans and counters whose self time each layer's share adds up
LAYERS = {
    "oracles": ("oracles.gate", "oracles.policy_check", "oracles.fn"),
    "matroids": ("matroids.indep",),
    "branching": ("branching.tree_step", "branching.driver_step", "branching.finish"),
    "baselines": ("baselines.sieve_step", "baselines.brute_force"),
    "harness": ("harness.accounting", "harness.report"),
    "samplers": ("samplers.sample",),
    "other": ("trial",),
}


def resolve(module: str, path: str):
    """(owner, attribute) for ``module.path``, or None when it is gone.
    A method must be defined on the named class itself, so a wrapper never
    shadows an inherited method that is wrapped already."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    found = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
    return (obj, attr) if callable(found) else None


class Patcher:
    """Replaces attributes with wrappers and puts the originals back."""

    def __init__(self):
        self.missing: list[str] = []
        self._undo: list = []

    def wrap(self, module: str, path: str, make) -> bool:
        target = resolve(module, path)
        if target is None:
            self.missing.append(f"{module}.{path}")
            return False
        owner, attr = target
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Span:
    __slots__ = ("id", "parent", "trial", "name", "start", "end", "self_ns",
                 "counters", "distinct", "queries", "attrs")

    def __init__(self, sid, parent, trial, name):
        self.id = sid
        self.parent = parent
        self.trial = trial
        self.name = name
        self.counters: dict = {}
        self.distinct = 0
        self.queries = 0
        self.attrs = None

    def to_json(self) -> dict:
        out = {"id": self.id, "parent": self.parent, "trial": self.trial,
               "name": self.name, "start_ns": self.start, "end_ns": self.end,
               "self_ns": self.self_ns}
        if self.counters:
            out["counters"] = {k: {"calls": v[0], "ns": v[1], "self_ns": v[2]}
                               for k, v in self.counters.items()}
        if self.queries:
            out["step_queries"] = self.queries
            out["distinct_queries"] = self.distinct
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cur = Span(None, None, None, "unscoped")
        # child-time accumulator per open span or counted call
        self.stack = [0]
        self.trial = None
        # distinct subsets and query count of the open step span
        self.qset = None
        self.qcount = 0
        self.steps = 0
        self._next = 0
        self.patcher = Patcher()
        self.absent: set[str] = set()

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, trial=None, **kw):
        """Run ``fn`` inside a span opened by the benchmark itself."""
        if trial is not None:
            self.trial = trial
        return self._span(name, fn, False, None)(*args, **kw)

    def _span(self, name, fn, step, after):
        def wrapper(*args, **kw):
            parent = self.cur
            self._next += 1
            sp = Span(self._next, parent.id, self.trial, name)
            self.cur = sp
            self.stack.append(0)
            if step:
                self.steps += 1
                saved = self.qset, self.qcount
                self.qset, self.qcount = set(), 0
            sp.start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                sp.end = clock()
                dur = sp.end - sp.start
                sp.self_ns = dur - self.stack.pop()
                self.stack[-1] += dur
                self.cur = parent
                if step:
                    sp.distinct, sp.queries = len(self.qset), self.qcount
                    self.qset, self.qcount = saved
                self.spans.append(sp)
            if after is not None:
                sp.attrs = after(args[0])
            return result
        return wrapper

    def _hot(self, key, fn, gate):
        stack = self.stack

        def wrapper(*args, **kw):
            if gate:
                qset = self.qset
                if qset is not None:
                    qset.add(frozenset(args[1]))
                    self.qcount += 1
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dur = clock() - t0
                own = dur - stack.pop()
                stack[-1] += dur
                c = self.cur.counters.get(key)
                if c is None:
                    self.cur.counters[key] = [1, dur, own]
                else:
                    c[0] += 1
                    c[1] += dur
                    c[2] += own
            if gate and result is None:
                c = self.cur.counters.setdefault("oracles.refused", [0, 0, 0])
                c[0] += 1
            return result
        return wrapper

    def _count(self, key, fn):
        def wrapper(*args, **kw):
            c = self.cur.counters.setdefault(key, [0, 0, 0])
            c[0] += 1
            return fn(*args, **kw)
        return wrapper

    def install(self):
        for key, hooks in HOT.items():
            for module, path in hooks:
                if not self.patcher.wrap(module, path,
                                         lambda f, k=key: self._hot(k, f, k == "oracles.gate")):
                    self.absent.add(key)
        for key, hooks in COUNTED.items():
            for module, path in hooks:
                if not self.patcher.wrap(module, path, lambda f, k=key: self._count(k, f)):
                    self.absent.add(key)
        for name, hooks in SPANS.items():
            for module, path in hooks:
                after = _driver_totals if path == "GuessDriver.finish" else None
                if not self.patcher.wrap(
                        module, path,
                        lambda f, n=name, a=after: self._span(n, f, n in STEP_SPANS, a)):
                    self.absent.add(name)

    def uninstall(self):
        self.patcher.restore()

    def write(self, path, trials):
        """Gzipped JSON lines of the set-up spans and those of ``trials``."""
        keep = {"setup", *trials}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sp in self.spans:
                if sp.trial in keep:
                    fh.write(json.dumps(sp.to_json(), separators=(",", ":")) + "\n")


def _driver_totals(driver) -> dict:
    return {k: getattr(driver, k, None) for k in ("roots_spawned", "live_roots_peak")}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, trials: list, gen_ns: list) -> tuple[dict, dict]:
    """Per-trial means over ``trials`` (ids of ``trial`` spans), and the
    self-time share of each layer in their wall time."""
    keep = set(trials)
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    distinct = step_queries = 0
    roots = defaultdict(int)
    peak = {}
    roots_known = True
    for sp in tracer.spans:
        if sp.trial not in keep:
            continue
        calls[sp.name] += 1
        incl[sp.name] += sp.end - sp.start
        own[sp.name] += sp.self_ns
        for key, (n, dur, self_ns) in sp.counters.items():
            calls[key] += n
            incl[key] += dur
            own[key] += self_ns
        distinct += sp.distinct
        step_queries += sp.queries
        if sp.attrs is not None:
            if None in sp.attrs.values():
                roots_known = False
            else:
                roots[sp.trial] += sp.attrs["roots_spawned"]
                peak[sp.trial] = max(peak.get(sp.trial, 0), sp.attrs["live_roots_peak"])
    per = len(keep)
    s = 1e-9 / per
    hot = ("oracles.gate", "oracles.fn", "oracles.policy_check", "matroids.indep")
    metrics = {
        "oracles.gate_calls": (calls["oracles.gate"] / per, "count/trial", ["oracles.gate"]),
        "oracles.fn_calls": (calls["oracles.fn"] / per, "count/trial", ["oracles.fn"]),
        "oracles.fn_s": (incl["oracles.fn"] * s, "s/trial", ["oracles.fn"]),
        "oracles.gate_self_s": (own["oracles.gate"] * s, "s/trial", hot),
        "oracles.policy_check_calls": (calls["oracles.policy_check"] / per, "count/trial",
                                       ["oracles.policy_check"]),
        "oracles.policy_check_s": (incl["oracles.policy_check"] * s, "s/trial",
                                   ["oracles.policy_check"]),
        "oracles.refused": (calls["oracles.refused"] / per, "count/trial", ["oracles.gate"]),
        "oracles.distinct_query_frac": (distinct / step_queries if step_queries else 0.0, "1",
                                        ["oracles.gate", *STEP_SPANS]),
        "matroids.indep_calls": (calls["matroids.indep"] / per, "count/trial",
                                 ["matroids.indep"]),
        "matroids.indep_s": (incl["matroids.indep"] * s, "s/trial", ["matroids.indep"]),
        "branching.tree_step_calls": (calls["branching.tree_step"] / per, "count/trial",
                                      ["branching.tree_step"]),
        "branching.dispatch_self_s": (own["branching.tree_step"] * s, "s/trial",
                                      ["branching.tree_step", *hot]),
        "branching.driver_self_s": (own["branching.driver_step"] * s, "s/trial",
                                    ["branching.driver_step", "branching.tree_step",
                                     "branching.finish", *hot]),
        "branching.finish_s": (own["branching.finish"] * s, "s/trial", ["branching.finish"]),
        "branching.nodes_created": (calls["branching.nodes"] / per, "count/trial",
                                    ["branching.nodes"]),
        "branching.roots_spawned": (sum(roots.values()) / per, "count/trial",
                                    ["branching.finish"]),
        "branching.live_roots_peak": (max(peak.values(), default=0), "count",
                                      ["branching.finish"]),
        "baselines.sieve_step_calls": (calls["baselines.sieve_step"] / per, "count/trial",
                                       ["baselines.sieve_step"]),
        "baselines.sieve_self_s": (own["baselines.sieve_step"] * s, "s/trial",
                                   ["baselines.sieve_step", *hot]),
        "baselines.brute_force_calls": (calls["baselines.brute_force"] / per, "count/trial",
                                        ["baselines.brute_force"]),
        "baselines.brute_force_s": (incl["baselines.brute_force"] * s, "s/trial",
                                    ["baselines.brute_force"]),
        "harness.accounting_s": (incl["harness.accounting"] * s, "s/trial",
                                 ["harness.accounting"]),
        "harness.report_s": (incl["harness.report"] * s, "s/trial", ["harness.report"]),
        "samplers.sample_s": (incl["samplers.sample"] * s, "s/trial", ["samplers.sample"]),
        "cli.gen_s": (statistics.median(gen_ns) * 1e-9, "s", []),
    }
    wall = incl["trial"]
    shares = {f"share.{layer}": sum(own[k] for k in keys) / wall
              for layer, keys in LAYERS.items()}
    shares["share.brute_force_incl"] = incl["baselines.brute_force"] / wall
    out = {}
    for name, (value, unit, needs) in metrics.items():
        if tracer.absent.intersection(needs):
            continue
        if name in ("branching.roots_spawned", "branching.live_roots_peak") and not roots_known:
            continue
        out[name] = (value, unit)
    for name, value in shares.items():
        out[name] = (value, "1")
    return out, {k: round(v, 4) for k, v in shares.items()}
