"""Experiment runner, canonical-process auditing, and report plumbing.

A run wires together: an instance (value oracle + feasibility matroid +
hidden coloring), a stream sampler, an algorithm, and an access policy
whose audit records query counts, storage peaks and refused queries.
:func:`run_experiment` and :func:`canonical_audit` run each trial on
the instance they are given through :func:`run_trial`. Reports are
deterministic: identical (config, seed) produces identical bytes.

The canonical audit has harness-side privilege: it knows the hidden
colors, replays an algorithm under the element-store policy, and flags
the two deviation events per trial -- a red element arriving while a red
is already stored, and a red element still stored just before the final
arrival. Frequencies come with Wilson confidence intervals; the hidden
constants of the underlying probability bounds are reported, never
asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from . import hard_cardinality, hard_matroid
from .baselines import SieveStreaming, StoreEverything, brute_force_optimum, offline_greedy
from .branching import GuessDriver, to_fraction
from .coverage import CoverageInstance
from .errors import InvalidParams
from .oracles import ElementStorePolicy, OracleAudit, QueryGate, StrongPolicy, WeakPolicy
from .rng import derive_seed
from .samplers import default_distribution, sample_stream

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# instance construction and (de)serialization


def _number(name: str, value, convert):
    """``convert(value)``, or InvalidParams naming the parameter. A bool is
    no number, and an integer parameter takes no float with a fraction."""
    try:
        if isinstance(value, bool) or (convert is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if convert is int else "a number"
        raise InvalidParams(f"{name} must be {what}, got {value!r}") from None


def build_instance(kind: str, params: dict, seed: int):
    def get(name, convert=int, default=None):
        if name not in params and default is None:
            raise InvalidParams(f"{kind} instance needs {name}")
        return _number(name, params.get(name, default), convert)

    seed = _number("seed", seed, int)
    if kind == "hard-cardinality":
        p = hard_cardinality.CardHardParams(get("n"), get("K"), get("h"))
        return hard_cardinality.CardHardInstance(p, seed)
    if kind == "hard-matroid":
        p = hard_matroid.MatHardParams(get("K"), get("m"))
        return hard_matroid.MatHardInstance(p, seed)
    if kind == "coverage":
        return CoverageInstance(get("n"), get("universe", default=12), get("K"), seed,
                                get("density", float, 0.35))
    raise InvalidParams(f"unknown instance kind {kind!r}")


def instance_to_json(instance) -> str:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(instance.describe())
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def instance_from_json(text: str):
    """Rebuild an instance from its file. Every key of the file other than
    ``schema_version`` must appear, with the same value, in the rebuilt
    instance's ``describe()``."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise InvalidParams(f"instance file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidParams("instance file must hold a JSON object")
    version = payload.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise InvalidParams(f"instance schema_version {version!r} is not {SCHEMA_VERSION}")
    for key in ("kind", "seed"):
        if key not in payload:
            raise InvalidParams(f"instance file has no {key!r}")
    instance = build_instance(payload["kind"], payload, payload["seed"])
    described = instance.describe()
    wrong = sorted(k for k, v in payload.items() if k not in described or described[k] != v)
    if wrong:
        raise InvalidParams(f"instance file disagrees with the {payload['kind']} instance "
                            f"it describes on: {', '.join(wrong)}")
    return instance


def read_instance(path: str):
    """The instance in the file at ``path``; bytes that are not UTF-8 are
    an InvalidParams, like any other malformed file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParams(f"instance file {path} is not UTF-8 text: "
                            f"{exc.reason} at byte {exc.start}") from None
    return instance_from_json(text)


def exact_optimum(instance) -> int:
    """Closed form for the hard families, enumeration otherwise."""
    if hasattr(instance, "optimal_value"):
        return instance.optimal_value
    _, opt = brute_force_optimum(instance.fn, instance.matroid)
    return opt


# ---------------------------------------------------------------------------
# single trials


def stream_run(alg, stream, gate: QueryGate, watcher=None):
    """Drive a step-based streaming algorithm over one ordering under the
    policy and audit of ``gate``, and return ``alg.finish()``. The stored
    element set is computed only for a policy or watcher that reads it.
    The last step ends before ``finish``, whose queries are not memoized."""
    policy, audit = gate.policy, gate.audit
    store_policy = isinstance(policy, ElementStorePolicy)
    for t, e in enumerate(stream):
        audit.step = t
        if store_policy:
            policy.begin_step(e)
        if watcher is not None:
            watcher.before(t, e)
        alg.step(t, e)
        if store_policy or watcher is not None:
            stored = alg.stored_set()
            if store_policy:
                policy.commit(stored)
            if watcher is not None:
                watcher.after(t, e, stored)
        audit.observe_stored(alg.footprint())
    audit.step = -1
    return alg.finish()


@dataclass
class TrialResult:
    seed: int
    value: int
    ratio: Fraction
    queries: int
    max_stored: int
    violations: int
    solution: tuple[int, ...]
    feasible: bool

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "value": self.value,
                "ratio": str(self.ratio), "ratio_float": float(self.ratio),
                "queries": self.queries, "max_stored": self.max_stored,
                "violations": self.violations,
                "solution": list(self.solution), "feasible": self.feasible}


def run_trial(instance, algorithm: str, eps, trial_seed: int, optimum: int,
              distribution: str | None = None, policy_kind: str = "weak",
              watcher=None) -> TrialResult:
    distribution = distribution or default_distribution(instance)
    stream = sample_stream(instance, distribution, trial_seed)
    audit = OracleAudit()
    if policy_kind == "weak":
        policy = WeakPolicy(instance.matroid)
    elif policy_kind == "element-store":
        policy = ElementStorePolicy()
    elif policy_kind == "strong":
        policy = StrongPolicy()
    else:
        raise InvalidParams(f"unknown policy {policy_kind!r}")
    gate = QueryGate(instance.fn, policy, audit)

    if algorithm == "greedy":
        if policy_kind == "element-store":
            raise InvalidParams("greedy is offline; use weak or strong policy")
        solution, value = offline_greedy(gate, instance.matroid)
    else:
        alg = make_streaming_algorithm(algorithm, gate, instance, eps)
        solution, value = stream_run(alg, stream, gate, watcher)

    ratio = Fraction(value, optimum) if optimum else Fraction(1)
    return TrialResult(seed=trial_seed, value=value, ratio=ratio,
                       queries=audit.query_count, max_stored=audit.max_stored,
                       violations=len(audit.rejected),
                       solution=tuple(sorted(solution)),
                       feasible=instance.matroid.is_independent(solution))


# ---------------------------------------------------------------------------
# experiment runner


def run_experiment(instance, algorithm: str = "branching", epsilon="1/10",
                   trials: int = 20, distribution: str | None = None,
                   policy: str = "weak") -> dict:
    """``trials`` trials of ``algorithm`` on ``instance``, seeded from the
    instance's seed; ``config`` holds its description and the options."""
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    params = instance.describe()
    config = {"kind": params.pop("kind"), "seed": params.pop("seed"), "params": params,
              "algorithm": algorithm, "epsilon": str(to_fraction(epsilon)),
              "trials": trials, "distribution": distribution or "", "policy": policy}
    distribution = distribution or default_distribution(instance)
    opt = exact_optimum(instance)
    results = [run_trial(instance, algorithm, epsilon, derive_seed(config["seed"], "trial", idx),
                         opt, distribution, policy)
               for idx in range(trials)]
    ratios = [t.ratio for t in results]
    aggregates = {
        "optimum": opt,
        "mean_ratio": float(sum(ratios) / len(ratios)),
        "min_ratio": float(min(ratios)),
        "max_value": max(t.value for t in results),
        "max_stored_peak": max(t.max_stored for t in results),
        "total_queries": sum(t.queries for t in results),
        "total_violations": sum(t.violations for t in results),
        "all_feasible": all(t.feasible for t in results),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "distribution": distribution,
        "trials": [t.to_json_dict() for t in results],
        "aggregates": aggregates,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def aggregates_to_csv(report: dict) -> str:
    agg = report["aggregates"]
    keys = sorted(agg)
    lines = [",".join(keys), ",".join(str(agg[k]) for k in keys)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical-process audit


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    z = 1.96  # two-sided 95%
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    margin = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - margin), min(1.0, center + margin)


class CanonicalWatcher:
    """Flags the per-trial deviation events against the hidden coloring."""

    def __init__(self, reds: frozenset, n: int):
        self.reds = reds
        self.n = n
        self.stored_prev: frozenset = frozenset()
        self.red_arrival_clash = False
        self.red_at_end = False

    def before(self, t: int, e: int):
        if t <= self.n - 2 and e in self.reds and self.stored_prev & self.reds:
            self.red_arrival_clash = True

    def after(self, t: int, e: int, stored: frozenset):
        self.stored_prev = stored
        if t == self.n - 2:
            self.red_at_end = bool(stored & self.reds)

    @property
    def deviated(self) -> bool:
        return self.red_arrival_clash or self.red_at_end


def make_streaming_algorithm(name: str, gate: QueryGate, instance, eps):
    if name == "branching":
        constraint = "matroid" if instance.matroid.kind == "partition" else "cardinality"
        return GuessDriver(gate, instance.matroid, eps, constraint=constraint)
    if name == "sieve":
        return SieveStreaming(gate, instance.matroid, eps)
    if name == "store-everything":
        return StoreEverything(gate, instance.matroid)
    raise InvalidParams(f"no streaming step-algorithm named {name!r}")


def canonical_audit(instance, algorithm: str, trials: int, seed: int,
                    eps="2/5", budget: int | None = None) -> dict:
    """Monte Carlo deviation audit of a streaming algorithm.

    Runs ``trials`` independent orderings from the instance's default
    distribution through :func:`run_trial` under the element-store
    policy, tracks the deviation events, the achieved values, and how
    often the value exceeds the reachable bound of the instance family.
    ``budget`` is a declared storage budget, at least 0; the report
    records whether the algorithm stayed within it (the audit never
    enforces it).
    """
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    if budget is not None and budget < 0:
        raise InvalidParams(f"budget must be at least 0, got {budget}")
    reds = getattr(instance, "red_ids", None)
    if reds is None:
        raise InvalidParams(f"a {instance.kind} instance has no hidden reds to audit")
    distribution = default_distribution(instance)
    opt = exact_optimum(instance)
    bound = instance.output_bound
    deviations = 0
    results = []
    for idx in range(trials):
        watcher = CanonicalWatcher(reds, instance.fn.n)
        results.append(run_trial(instance, algorithm, eps,
                                 derive_seed(seed, "audit-trial", idx), opt,
                                 distribution, "element-store", watcher))
        deviations += watcher.deviated
    exceeds = sum(r.value > bound for r in results)
    peak_stored = max(r.max_stored for r in results)
    lo, hi = wilson_interval(deviations, trials)
    xlo, xhi = wilson_interval(exceeds, trials)
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": instance.describe(),
        "algorithm": algorithm,
        "epsilon": str(to_fraction(eps)),
        "distribution": distribution,
        "trials": trials,
        "seed": seed,
        "budget": budget,
        "within_budget": bool(budget is None or peak_stored <= budget),
        "peak_stored": peak_stored,
        "deviation_count": deviations,
        "deviation_freq": deviations / trials,
        "deviation_ci95": [lo, hi],
        "exceed_count": exceeds,
        "exceed_freq": exceeds / trials,
        "exceed_ci95": [xlo, xhi],
        "output_bound": bound,
        "optimum": opt,
        "max_value": max(r.value for r in results),
        "mean_ratio": float(sum(r.ratio for r in results) / trials),
    }
