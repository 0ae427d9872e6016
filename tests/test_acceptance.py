"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them inline) and asserts both the substantive check and its runtime
budget. Criteria 6 and 7 share one batch of driver runs via a
module-scoped fixture.
"""

import pathlib
import time
from fractions import Fraction

import pytest

from streamsub.baselines import brute_force_optimum
from streamsub.branching import CardTree, GuessDriver, MatroidTree
from streamsub.cli import main as cli_main
from streamsub.coverage import CoverageInstance
from streamsub.hard_cardinality import (CardHardParams, limiting_ratio,
                                        profile_value, ratio_bound,
                                        red_marginal)
from streamsub.hard_cardinality import CardHardInstance
from streamsub.hard_cardinality import optimal_value as card_optimal
from streamsub.hard_cardinality import output_bound as card_bound
from streamsub.hard_matroid import MatHardParams, blue_ceiling
from streamsub.hard_matroid import approx_ratio
from streamsub.hard_matroid import MatHardInstance
from streamsub.hard_matroid import level_value
from streamsub.hard_matroid import optimal_value as mat_optimal
from streamsub.hard_matroid import output_bound as mat_bound
from streamsub.harness import canonical_audit, stream_run
from streamsub.oracles import OracleAudit, QueryGate, WeakPolicy, \
    verify_monotone_submodular
from streamsub.matroids import PartitionMatroid, UniformMatroid
from streamsub.samplers import sample_stream
from streamsub.tables import emit_table

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"

# hand-transcribed reference entries, duplicated from the unit fixtures on
# purpose: the acceptance gate must not share data with the code it checks
TABLE3 = {
    (0, 0): [[0, 48, 72], [48, 72, 84], [84, 92, 96], [108, 108, 108], [120, 120, 120]],
    (1, 0): [[48, 96, 120], [84, 108, 120], [108, 116, 120], [120, 120, 120], [120, 120, 120]],
    (0, 1): [[48, 72, 72], [72, 84, 84], [92, 96, 96], [108, 108, 108], [120, 120, 120]],
    (1, 1): [[96, 120, 120], [108, 120, 120], [116, 120, 120], [120, 120, 120], [120, 120, 120]],
}
TABLE4 = {
    (0, 0): [[24, 48, 72], [60, 72, 84], [88, 92, 96], [108, 108, 108], [120, 120, 120]],
    (1, 0): [[72, 96, 120], [96, 108, 120], [112, 116, 120], [120, 120, 120], [120, 120, 120]],
    (0, 1): [[72, 72, 72], [84, 84, 84], [96, 96, 96], [108, 108, 108], [120, 120, 120]],
    (1, 1): [[120, 120, 120], [120, 120, 120], [120, 120, 120], [120, 120, 120], [120, 120, 120]],
}
TABLE2_F = {
    0: [0, 7, 13, 18, 22, 25, 27, 29, 30, 31, 31],
    1: [7, 13, 18, 22, 25, 27, 29, 30, 31, 31, 31],
    2: [14, 19, 23, 26, 28, 29, 30, 31, 31, 31, 31],
    3: [21, 25, 28, 30, 31, 31, 31, 31, 31, 31, 31],
}
TABLE2_DR = {
    0: [7, 6, 5, 4, 3, 2, 2, 1, 1, 0],
    1: [7, 6, 5, 4, 3, 2, 1, 1, 0, 0],
    2: [7, 6, 5, 4, 3, 2, 1, 0, 0, 0],
}


def report_line(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_matroid_tables(tmp_path):
    start = time.monotonic()
    checked = 0
    problems = []
    for which, name, fixture in ((3, "table3.csv", TABLE3), (4, "table4.csv", TABLE4)):
        out = tmp_path / name
        rc = cli_main(["tables", "--which", str(which), "--out", str(out)])
        if rc != 0:
            problems.append(f"tables --which {which} exited {rc}")
            continue
        if out.read_bytes() != (GOLDEN / name).read_bytes():
            problems.append(f"{name} differs from golden")
        rows = out.read_text().strip().split("\n")[1:]
        cells = {}
        for row in rows:
            parts = row.split(",")
            b1 = int(parts[0])
            idx = 1
            for block in ((0, 0), (1, 0), (0, 1), (1, 1)):
                for b2 in range(3):
                    cells[(block, b1, b2)] = int(parts[idx])
                    idx += 1
        for block, grid in fixture.items():
            for b1 in range(5):
                for b2 in range(3):
                    if cells[(block, b1, b2)] != grid[b1][b2]:
                        problems.append(f"grid {which} {block} b1={b1} b2={b2}")
                    checked += 1
    elapsed = time.monotonic() - start
    ok = not problems and checked == 120 and elapsed < 1.0
    report_line(1, ok, f"{checked}/120 matroid grid entries exact, "
                       f"golden byte-match, {elapsed:.2f}s"
                       + (f"; problems={problems[:3]}" if problems else ""))


def test_criterion_2_cardinality_table():
    start = time.monotonic()
    params = CardHardParams(n=18, K=4, h=4)
    problems = []
    checked = 0
    for r, col in TABLE2_F.items():
        for b, want in enumerate(col):
            if profile_value(params, b, r, 0) != want:
                problems.append(("f", b, r))
            checked += 1
    for r, col in TABLE2_DR.items():
        for b, want in enumerate(col):
            if red_marginal(params, b, r) != want:
                problems.append(("dr", b, r))
            checked += 1
    csv = emit_table(2)
    if csv != (GOLDEN / "table2_p0.csv").read_text():
        problems.append("golden mismatch")
    spot = (profile_value(params, 4, 0, 0) == 22
            and profile_value(params, 0, 3, 0) == 21
            and all(profile_value(params, 9, r, 0) == 31 for r in range(4))
            and red_marginal(params, 4, 0) == 3)
    elapsed = time.monotonic() - start
    ok = not problems and spot and elapsed < 1.0
    report_line(2, ok, f"{checked} purple-absent grid entries exact, {elapsed:.2f}s")


def test_criterion_3_closed_forms():
    start = time.monotonic()
    ok = True
    for K in range(2, 9):
        for h in range(K, 3 * K + 1):
            p = CardHardParams(n=50, K=K, h=h)
            for b in range(p.blues - 1):
                ok &= profile_value(p, b + 1, 0, 0) == profile_value(p, b, 1, 0)
            reach = h * K + (K - 1) * K // 2
            held = (K - 1) ** 2 + h * (h + 1) // 2
            ok &= profile_value(p, K, 0, 0) == reach
            ok &= profile_value(p, K - 1, 1, 0) == reach
            ok &= profile_value(p, K - 1, 0, 1) == held
            ok &= card_bound(p) == max(reach, held)
            ok &= profile_value(p, 0, K - 1, 1) == card_optimal(p) \
                == (K - 1) * (h + K - 1) + h * (h + 1) // 2
    from math import factorial
    for K in range(1, 11):
        ok &= mat_optimal(K) == factorial(2 * K - 1)
        ok &= mat_bound(K) == K * factorial(2 * K - 2)
        ok &= approx_ratio(K) == Fraction(K, 2 * K - 1)
        reds = (1,) * K
        ok &= level_value(K, reds, (0,) * K) == mat_optimal(K)
        reach_profile = ((0,) * (K - 1) + (1,), (1,) * (K - 1) + (0,))
        ok &= level_value(K, *reach_profile) == mat_bound(K)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report_line(3, ok, f"swap identity K=2..8 (n=50), closed forms K=1..10, {elapsed:.2f}s")


def test_criterion_4_exhaustive_structure():
    start = time.monotonic()
    ok = True
    for K in (2, 3, 4):
        for h in (K, K + 1, 2 * K):
            n = min(10, max(2 * K, 8))
            inst = CardHardInstance(CardHardParams(n, K, h), 1)
            ok &= verify_monotone_submodular(inst.fn).ok
    for K, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        inst = MatHardInstance(MatHardParams(K, m), 1)
        ok &= verify_monotone_submodular(inst.fn).ok

    # profile-level diminishing-returns families, K <= 4
    from itertools import product
    for K in (2, 3, 4):
        ranges = [range(blue_ceiling(K, i + 1) + 1) for i in range(K)]
        profiles = [(r, b) for r in product((0, 1), repeat=K)
                    for b in product(*ranges)]
        vals = {p: level_value(K, p[0], p[1]) for p in profiles}
        for p1 in profiles:
            for p2 in profiles:
                if not (all(x >= y for x, y in zip(p1[0], p2[0]))
                        and all(x >= y for x, y in zip(p1[1], p2[1]))):
                    continue
                for i in range(K):
                    if p1[0][i] == 0:
                        u1 = list(p1[0]); u1[i] = 1
                        u2 = list(p2[0]); u2[i] = 1
                        ok &= (level_value(K, tuple(u1), p1[1]) - vals[p1]
                               <= level_value(K, tuple(u2), p2[1]) - vals[p2])
                    w1 = list(p1[1]); w1[i] += 1
                    w2 = list(p2[1]); w2[i] += 1
                    ok &= (level_value(K, p1[0], tuple(w1)) - vals[p1]
                           <= level_value(K, p2[0], tuple(w2)) - vals[p2])
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report_line(4, ok, f"set-level and profile-level structure exhaustive, {elapsed:.1f}s")


def test_criterion_5_limiting_ratio():
    start = time.monotonic()
    limit = limiting_ratio()
    ratios = {K: ratio_bound(K)[1] for K in range(10, 201)}
    final_gap = abs(float(ratios[200]) - limit)
    # discrete-h jitter: successive ratios may tick up by under 1/500
    noise = Fraction(1, 500)
    monotone = all(ratios[K + 1] <= ratios[K] + noise for K in range(10, 200))
    above = all(float(r) > limit for r in ratios.values())
    decreasing_overall = ratios[200] < ratios[10]
    elapsed = time.monotonic() - start
    ok = final_gap < 0.01 and monotone and above and decreasing_overall and elapsed < 1.0
    report_line(5, ok, f"ratio(200)={float(ratios[200]):.5f} vs {limit:.5f} "
                       f"(gap {final_gap:.5f}), monotone within 1/500, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def driver_runs():
    """Criterion-6 batch: coverage suite plus the hard instances, both
    drivers, brute-force optimum as the yardstick."""
    start = time.monotonic()
    eps = Fraction(1, 10)
    results = []

    def run_one(instance, constraint, stream_seed, tag):
        stream = sample_stream(instance, instance.distribution, stream_seed)
        gate = QueryGate(instance.fn, WeakPolicy(instance.matroid), OracleAudit())
        matroid = instance.matroid
        if constraint == "matroid" and isinstance(matroid, UniformMatroid):
            # matroid trees on a cardinality budget: one class of capacity K
            matroid = PartitionMatroid([0] * matroid.n, capacity=matroid.rank)
        driver = GuessDriver(gate, matroid, eps)
        solution, value = stream_run(driver, stream, gate)
        _, opt = brute_force_optimum(instance.fn, instance.matroid)
        results.append({
            "tag": tag, "constraint": constraint,
            "K": instance.matroid.rank, "value": value, "opt": opt,
            "feasible": instance.matroid.is_independent(solution),
            "violations": len(gate.audit.rejected),
        })

    for seed in range(200):
        K = (seed % 3) + 1
        inst = CoverageInstance(8, 12, K, seed)
        run_one(inst, "cardinality", seed, f"coverage-{seed}")
        run_one(inst, "matroid", seed, f"coverage-{seed}")
    for K in (2, 3):
        inst = CardHardInstance(CardHardParams(10, K, K), 77)
        for stream_seed in range(3):
            run_one(inst, "cardinality", stream_seed, f"hard-card-K{K}")
        minst = MatHardInstance(MatHardParams(K, 2 * (K - 1)), 77)
        for stream_seed in range(3):
            run_one(minst, "matroid", stream_seed, f"hard-matroid-K{K}")
    return results, time.monotonic() - start


def test_criterion_6_driver_guarantees(driver_runs):
    results, elapsed = driver_runs
    failures = []
    for r in results:
        K = r["K"]
        if r["constraint"] == "cardinality":
            floor = (Fraction(K, 2 * K - 1) - Fraction(1, 5)) * r["opt"]
        else:
            floor = (Fraction(1, 2) - Fraction(1, 2 * K) - Fraction(1, 5)) * r["opt"]
        if r["value"] < floor or not r["feasible"]:
            failures.append(r["tag"])
    ok = not failures and elapsed < 300.0
    report_line(6, ok, f"{len(results)} driver runs (coverage x200 both drivers "
                       f"+ hard instances), all above ratio floor and feasible, "
                       f"{elapsed:.1f}s"
                       + (f"; failures={failures[:3]}" if failures else ""))


def test_criterion_7_weak_oracle_compliance(driver_runs):
    results, _ = driver_runs
    total = sum(r["violations"] for r in results)
    report_line(7, total == 0,
                f"zero weak-oracle violations across {len(results)} driver runs "
                f"(total recorded: {total})")


def test_criterion_8_space_bounds():
    start = time.monotonic()
    ok = True
    details = []
    for K in (2, 3):
        inst = CardHardInstance(CardHardParams(10, K, K), 5)
        stream = sample_stream(inst, "purple-last", 1)
        gate = QueryGate(inst.fn, WeakPolicy(inst.matroid), OracleAudit())
        solution, _ = stream_run(CardTree(gate, K, K, inst.optimal_value), stream, gate)
        bound = K * 2 ** (2 * K)
        ok &= gate.audit.max_stored <= bound and inst.matroid.is_independent(solution)
        details.append(f"card K={K}: {gate.audit.max_stored}<={bound}")

        minst = MatHardInstance(MatHardParams(K, 2 * (K - 1)), 5)
        mstream = sample_stream(minst, "class-blocks", 1)
        mgate = QueryGate(minst.fn, WeakPolicy(minst.matroid), OracleAudit())
        msolution, _ = stream_run(MatroidTree(mgate, minst.matroid, K, minst.optimal_value),
                                  mstream, mgate)
        mbound = K ** (5 * K + 1)
        ok &= mgate.audit.max_stored <= mbound and minst.matroid.is_independent(msolution)
        details.append(f"matroid K={K}: {mgate.audit.max_stored}<={mbound}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report_line(8, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_9_lower_bound_demonstration():
    start = time.monotonic()
    trials = 200
    budget = 20
    reports = {}
    for m in (667, 1334):
        inst = MatHardInstance(MatHardParams(3, m), 3)
        reports[m] = canonical_audit(inst, "sieve", trials=trials, seed=1,
                                     eps="2/5", budget=budget)
    base = reports[667]
    double = reports[1334]
    exceed_ok = base["exceed_freq"] <= 0.05
    mean_ok = base["mean_ratio"] <= 3 / 5 + 0.02
    budget_ok = base["within_budget"] and double["within_budget"]
    # trend: halving the expected frequency when m doubles must be
    # consistent with the two 95% intervals
    lo_b, hi_b = base["deviation_ci95"]
    lo_d, hi_d = double["deviation_ci95"]
    trend_ok = (lo_b / 2 <= hi_d) and (lo_d <= hi_b / 2 + 1e-12)
    elapsed = time.monotonic() - start
    ok = exceed_ok and mean_ok and budget_ok and trend_ok and elapsed < 300.0
    report_line(9, ok,
                f"sieve s<=20 on 3-class instance: exceed {base['exceed_freq']:.3f}<=0.05, "
                f"mean ratio {base['mean_ratio']:.3f}<=0.62, deviation "
                f"{base['deviation_freq']:.3f} CI[{lo_b:.3f},{hi_b:.3f}] vs m-doubled "
                f"{double['deviation_freq']:.3f} CI[{lo_d:.3f},{hi_d:.3f}], {elapsed:.0f}s")
