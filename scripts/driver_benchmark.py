#!/usr/bin/env python3
"""Empirical approximation ratios of the guessing driver on random
coverage instances, against the brute-force optimum.

Both the cardinality-budget and matroid variants run on every instance;
the worst observed ratio per rank is printed together with the
theoretical floors K/(2K-1) and 1/2 - 1/(2K).
"""

import argparse
from fractions import Fraction

from streamsub.baselines import brute_force_optimum
from streamsub.branching import GuessDriver
from streamsub.coverage import random_coverage
from streamsub.harness import stream_run
from streamsub.oracles import OracleAudit, QueryGate, WeakPolicy
from streamsub.samplers import sample_stream


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=100)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--k-max", type=int, default=3)
    ap.add_argument("--epsilon", default="1/10")
    args = ap.parse_args()

    worst = {}
    for seed in range(args.instances):
        K = (seed % args.k_max) + 1
        inst = random_coverage(args.n, 12, K, seed)
        stream = sample_stream(inst, "uniform", seed).ordering
        _, opt = brute_force_optimum(inst.fn, inst.matroid)
        if opt == 0:
            continue
        for kind in ("cardinality", "matroid"):
            gate = QueryGate(inst.fn, WeakPolicy(inst.matroid), OracleAudit())
            driver = GuessDriver(gate, inst.matroid, args.epsilon, kind)
            _, value = stream_run(driver, stream, gate)
            ratio = value / opt
            key = (kind, K)
            worst[key] = min(worst.get(key, 1.0), ratio)

    print("constraint,K,worst_ratio,theory_floor")
    for (kind, K), ratio in sorted(worst.items()):
        if kind == "cardinality":
            floor = Fraction(K, 2 * K - 1)
        else:
            floor = Fraction(1, 2) - Fraction(1, 2 * K)
        print(f"{kind},{K},{ratio:.4f},{float(floor):.4f}")


if __name__ == "__main__":
    main()
