"""The benchmark's four workloads, their inputs and their output checks.

Each workload is what a user would type: ``streamsub gen`` at set-up
writes instance files, then every trial is one ``streamsub run`` or
``streamsub audit`` call on one of those files. Inputs come only from the
benchmark seed, through the benchmark's own hashing, so they do not move
when the package changes how it derives seeds internally.

Checks use facts the benchmark derives itself: the documented closed-form
optima of the two hard families, a brute-force optimum for coverage
instances, the documented id layout of the hard-matroid classes, and the
criterion-6 ratio floors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    # gen flags after --kind, one set per scale
    gen_full: tuple
    gen_tiny: tuple
    # run/audit flags after the subcommand, without --instance and --seed
    trial_args: tuple
    # distinct instance files a run cycles through; per-layer counts are
    # taken over whole cycles so they repeat exactly
    instances: int
    why: str

    @property
    def audit(self) -> bool:
        return self.trial_args[0] == "audit"

    @property
    def budget(self) -> int:
        return int(self.trial_args[self.trial_args.index("--budget") + 1])

    def gen_argvs(self, seed: int, workdir: Path, scale: str) -> list[list[str]]:
        flags = self.gen_full if scale == "full" else self.gen_tiny
        return [["gen", "--kind", self.kind, *flags,
                 "--seed", str(input_seed(self.name, seed, "instance", j)),
                 "--out", str(workdir / f"instance-{j}.json")]
                for j in range(self.instances)]

    def trial_argv(self, files: list[str], seed: int, index: int) -> list[str]:
        j = index % self.instances
        argv = [*self.trial_args, "--instance", files[j], "--trials", "1"]
        if self.audit:
            argv += ["--seed", str(input_seed(self.name, seed, "audit", j))]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        "driver-card", "hard-cardinality",
        ("--K", "6", "--n", "80", "--h", "6"), ("--K", "3", "--n", "30", "--h", "3"),
        ("run", "--alg", "branching", "--epsilon", "1/10", "--policy", "weak",
         "--distribution", "purple-last"),
        4,
        "oracle path and branch-tree dispatch: ~0.5M logical queries per trial, "
        "cheap uniform-matroid independence tests"),
    Workload(
        "driver-matroid", "hard-matroid",
        ("--K", "4", "--m", "12"), ("--K", "3", "--m", "8"),
        ("run", "--alg", "branching", "--epsilon", "1/10",
         "--distribution", "class-blocks"),
        8,
        "partition-matroid independence tests dominate; few value queries, "
        "so oracle-side changes should not show here"),
    Workload(
        "audit-sieve", "hard-matroid",
        ("--K", "3", "--m", "667"), ("--K", "3", "--m", "20"),
        ("audit", "--alg", "sieve", "--epsilon", "2/5", "--budget", "20"),
        8,
        "criterion-9 sieve audit: long streams of cheap steps and guess-window "
        "upkeep, no branch tree at all"),
    Workload(
        "run-coverage", "coverage",
        ("--n", "20", "--K", "4", "--universe", "48"),
        ("--n", "8", "--K", "2", "--universe", "16"),
        ("run", "--alg", "branching", "--distribution", "uniform"),
        32,
        "short trials where the brute-force optimum and other per-trial fixed "
        "costs dominate; set-union oracle instead of color counts"),
)}


def input_seed(workload: str, seed: int, *tags) -> int:
    material = "|".join(["streamsub-bench", workload, str(seed), *map(str, tags)])
    return int.from_bytes(hashlib.sha256(material.encode()).digest()[:4], "big")


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Reference:
    """What a correct report for one instance file must agree with."""

    kind: str
    params: dict
    fn: object
    optimum: int

    @classmethod
    def load(cls, text: str, instance_from_json) -> "Reference":
        payload = json.loads(text)
        instance = instance_from_json(text)
        kind = payload["kind"]
        if kind == "hard-cardinality":
            K, h = payload["K"], payload["h"]
            opt = (K - 1) * (h + K - 1) + h * (h + 1) // 2
        elif kind == "hard-matroid":
            opt = factorial(2 * payload["K"] - 1)
        else:
            n, K = payload["n"], payload["K"]
            opt = max(instance.fn.value(frozenset(c))
                      for k in range(K + 1) for c in combinations(range(n), k))
        return cls(kind, payload, instance.fn, opt)

    @property
    def rank(self) -> int:
        return self.params["K"]

    @property
    def n(self) -> int:
        if self.kind == "hard-matroid":
            return (self.rank - 1) * self.params["m"] + 1
        return self.params["n"]

    def feasible(self, solution) -> bool:
        ids = list(solution)
        if len(set(ids)) != len(ids) or any(not 0 <= e < self.n for e in ids):
            return False
        if self.kind != "hard-matroid":
            return len(ids) <= self.rank
        # class i < K holds ids (i-1)*m .. i*m-1; class K is the last id
        m = self.params["m"]
        classes = [e // m if e < self.n - 1 else self.rank - 1 for e in ids]
        return len(set(classes)) == len(classes)

    def floor(self) -> Fraction:
        K = self.rank
        if self.kind == "hard-matroid":
            return (Fraction(1, 2) - Fraction(1, 2 * K) - Fraction(1, 5)) * self.optimum
        return (Fraction(K, 2 * K - 1) - Fraction(1, 5)) * self.optimum


def check_run(ref: Reference, report: dict) -> tuple[list[str], list]:
    """Problems with one ``run --trials 1`` report, and its semantic tuple."""
    (trial,) = report["trials"]
    solution = trial["solution"]
    value = trial["value"]
    problems = []
    if not (trial["feasible"] and ref.feasible(solution)):
        problems.append(f"infeasible solution {solution}")
    if trial["violations"]:
        problems.append(f"{trial['violations']} refused queries under the weak policy")
    if value != ref.fn.value(frozenset(solution)):
        problems.append(f"reported value {value} is not f(solution)")
    if report["aggregates"]["optimum"] != ref.optimum:
        problems.append(f"optimum {report['aggregates']['optimum']} != {ref.optimum}")
    if value > ref.optimum:
        problems.append(f"value {value} above the optimum {ref.optimum}")
    if value < ref.floor():
        problems.append(f"value {value} below the ratio floor {ref.floor()}")
    key = [trial["seed"], value, sorted(solution), trial["queries"],
           trial["max_stored"], trial["violations"]]
    return problems, key


def check_audit(ref: Reference, report: dict, budget: int) -> tuple[list[str], list]:
    """Problems with one ``audit --trials 1`` report, and its semantic tuple."""
    problems = []
    if not report["within_budget"] or report["peak_stored"] > budget:
        problems.append(f"peak_stored {report['peak_stored']} over budget {budget}")
    if report["optimum"] != ref.optimum:
        problems.append(f"optimum {report['optimum']} != {ref.optimum}")
    if report["max_value"] > ref.optimum:
        problems.append(f"max_value {report['max_value']} above the optimum")
    if report["trials"] != 1 or report["deviation_count"] not in (0, 1):
        problems.append(f"deviation count {report['deviation_count']} for one trial")
    key = [report["deviation_count"], report["exceed_count"], report["max_value"],
           report["peak_stored"]]
    return problems, key


def digest(keys: list) -> str:
    return hashlib.sha256(json.dumps(keys, separators=(",", ":")).encode()).hexdigest()[:16]
