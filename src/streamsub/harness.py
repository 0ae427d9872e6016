"""Experiment runner, canonical-process auditing, and report plumbing.

A run wires together: an instance (value oracle + feasibility matroid +
hidden coloring), a stream sampler, an algorithm, and an access policy
whose audit records query counts, storage peaks and refused queries.
Reports are deterministic: identical (config, seed) produces identical
bytes.

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
from dataclasses import asdict, dataclass
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
ALGORITHMS = ("branching", "greedy", "sieve")


# ---------------------------------------------------------------------------
# instance construction and (de)serialization


def build_instance(kind: str, params: dict, seed: int):
    if kind == "hard-cardinality":
        p = hard_cardinality.CardHardParams(int(params["n"]), int(params["K"]), int(params["h"]))
        return hard_cardinality.instantiate(p, seed)
    if kind == "hard-matroid":
        p = hard_matroid.MatHardParams(int(params["K"]), int(params["m"]))
        return hard_matroid.instantiate(p, seed)
    if kind == "coverage":
        return CoverageInstance(int(params["n"]), int(params.get("universe", 12)),
                                int(params["K"]), seed,
                                float(params.get("density", 0.35)))
    raise InvalidParams(f"unknown instance kind {kind!r}")


def instance_to_json(instance) -> str:
    payload = {"schema_version": SCHEMA_VERSION}
    payload.update(instance.describe())
    payload["seed"] = instance.seed
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def instance_from_json(text: str):
    payload = json.loads(text)
    kind = payload.pop("kind")
    seed = payload.pop("seed")
    payload.pop("schema_version", None)
    return build_instance(kind, payload, seed)


def exact_optimum(instance) -> int:
    """Closed form for the hard families, enumeration otherwise."""
    if hasattr(instance, "optimal_value"):
        return instance.optimal_value
    _, opt = brute_force_optimum(instance.fn, instance.matroid)
    return opt


# ---------------------------------------------------------------------------
# single trials


def _constraint_kind(instance) -> str:
    return "matroid" if instance.matroid.kind == "partition" else "cardinality"


def run_streaming(alg, stream, policy, audit: OracleAudit, watcher=None):
    """Drive a step-based streaming algorithm over one ordering. The
    stored element set is computed only for a policy or watcher that
    reads it."""
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


def run_trial(instance, algorithm: str, eps, trial_seed: int,
              distribution: str | None = None, policy_kind: str = "weak",
              allow_large_rank: bool = False) -> TrialResult:
    distribution = distribution or default_distribution(instance)
    stream = sample_stream(instance, distribution, trial_seed).ordering
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

    if algorithm == "branching":
        driver = GuessDriver(gate, instance.matroid, eps,
                             constraint=_constraint_kind(instance),
                             allow_large_rank=allow_large_rank)
        solution, _ = run_streaming(driver, stream, policy, audit)
        value = gate.require(solution)
    elif algorithm == "sieve":
        alg = SieveStreaming(gate, instance.matroid, to_fraction(eps))
        solution, value = run_streaming(alg, stream, policy, audit)
    elif algorithm == "greedy":
        if policy_kind == "element-store":
            raise InvalidParams("greedy is offline; use weak or strong policy")
        solution, value = offline_greedy(gate, instance.matroid)
    else:
        raise InvalidParams(f"unknown algorithm {algorithm!r}")

    opt = exact_optimum(instance)
    ratio = Fraction(value, opt) if opt else Fraction(1)
    return TrialResult(seed=trial_seed, value=value, ratio=ratio,
                       queries=audit.query_count, max_stored=audit.max_stored,
                       violations=len(audit.rejected),
                       solution=tuple(sorted(solution)),
                       feasible=instance.matroid.is_independent(solution))


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    algorithm: str = "branching"
    epsilon: str = "1/10"
    trials: int = 20
    seed: int = 0
    distribution: str = ""
    policy: str = "weak"

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["params"] = {k: d["params"][k] for k in sorted(d["params"])}
        return d


def run_experiment(config: ExperimentConfig) -> dict:
    instance = build_instance(config.kind, config.params, config.seed)
    eps = Fraction(config.epsilon)
    distribution = config.distribution or default_distribution(instance)
    trials = []
    for idx in range(config.trials):
        trial_seed = derive_seed(config.seed, "trial", idx)
        trials.append(run_trial(instance, config.algorithm, eps, trial_seed,
                                distribution, config.policy))
    opt = exact_optimum(instance)
    ratios = [t.ratio for t in trials]
    aggregates = {
        "optimum": opt,
        "mean_ratio": float(sum(ratios) / len(ratios)) if ratios else 1.0,
        "min_ratio": float(min(ratios)) if ratios else 1.0,
        "max_value": max((t.value for t in trials), default=0),
        "max_stored_peak": max((t.max_stored for t in trials), default=0),
        "total_queries": sum(t.queries for t in trials),
        "total_violations": sum(t.violations for t in trials),
        "all_feasible": all(t.feasible for t in trials),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "distribution": distribution,
        "trials": [t.to_json_dict() for t in trials],
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


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
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
    if name == "sieve":
        return SieveStreaming(gate, instance.matroid, to_fraction(eps))
    if name == "store-everything":
        return StoreEverything(gate, instance.matroid)
    raise InvalidParams(f"no streaming step-algorithm named {name!r}")


def canonical_audit(instance, algorithm: str, trials: int, seed: int,
                    eps="2/5", distribution: str | None = None,
                    budget: int | None = None) -> dict:
    """Monte Carlo deviation audit of a streaming algorithm.

    Runs ``trials`` independent orderings under the element-store policy,
    tracks the deviation events, the achieved values, and how often the
    value exceeds the reachable bound of the instance family. ``budget``
    is a declared storage budget; the report records whether the
    algorithm stayed within it (the audit never enforces it).
    """
    distribution = distribution or default_distribution(instance)
    n = instance.fn.n
    reds = instance.red_ids
    opt = exact_optimum(instance)
    bound = instance.output_bound if hasattr(instance, "output_bound") else opt
    deviations = 0
    exceeds = 0
    max_value = 0
    peak_stored = 0
    ratio_total = Fraction(0)
    for idx in range(trials):
        trial_seed = derive_seed(seed, "audit-trial", idx)
        stream = sample_stream(instance, distribution, trial_seed).ordering
        audit = OracleAudit()
        policy = ElementStorePolicy()
        gate = QueryGate(instance.fn, policy, audit)
        alg = make_streaming_algorithm(algorithm, gate, instance, eps)
        watcher = CanonicalWatcher(reds, n)
        _, value = run_streaming(alg, stream, policy, audit, watcher)
        if watcher.deviated:
            deviations += 1
        if value > bound:
            exceeds += 1
        max_value = max(max_value, value)
        peak_stored = max(peak_stored, audit.max_stored)
        ratio_total += Fraction(value, opt) if opt else Fraction(1)
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
        "deviation_freq": deviations / trials if trials else 0.0,
        "deviation_ci95": [lo, hi],
        "exceed_count": exceeds,
        "exceed_freq": exceeds / trials if trials else 0.0,
        "exceed_ci95": [xlo, xhi],
        "output_bound": bound,
        "optimum": opt,
        "max_value": max_value,
        "mean_ratio": float(ratio_total / trials) if trials else 0.0,
    }
