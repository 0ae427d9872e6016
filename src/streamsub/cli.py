"""Command-line surface.

Subcommands:

* ``gen``    -- write an instance file (JSON: kind, params, seed).
* ``verify`` -- structural verification of a hard instance family
  (closed forms, indistinguishability, exhaustive monotone/submodular
  checks); exit code 0 only if everything holds.
* ``run``    -- Monte Carlo experiment: trials of one algorithm on the
  loaded instance, seeded by its file's seed; JSON/CSV report with exact
  optimum and per-trial audits.
* ``audit``  -- canonical-process deviation audit under the
  element-store policy.
* ``tables`` -- emit a reference value grid as CSV.
* ``sweep``  -- parameter sweeps (ratio-vs-K curve, audit-vs-m trend).

Usage errors exit with status 2; verification or reproduction
mismatches exit with status 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import hard_cardinality, hard_matroid
from .errors import GroundSetTooLarge, InvalidParams, StreamsubError
from .harness import (aggregates_to_csv, build_instance, canonical_audit,
                      instance_to_json, read_instance, report_to_json, run_experiment)
from .matroids import check_axioms
from .oracles import verify_monotone_submodular
from .samplers import DISTRIBUTIONS
from .tables import emit_table


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _epsilon(text: str) -> str:
    """Normalized ``--epsilon`` value, or InvalidParams."""
    # Python converts no int of more digits than this from or to a string
    limit = sys.get_int_max_str_digits()
    too_long = InvalidParams(f"--epsilon has more than {limit} digits in its numerator or "
                             "denominator")
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        if 0 < limit < sum(map(str.isdigit, text)):
            raise too_long from None
        raise InvalidParams(f"--epsilon must be a number, got {text!r}") from None
    try:
        return str(eps)
    except ValueError:
        raise too_long from None


def _m_list(text: str) -> list[int]:
    """Parsed ``--m-list`` value, or InvalidParams."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise InvalidParams(
            f"--m-list must be comma-separated integers, got {text!r}") from None


def _matroid_m(args) -> int:
    """``--m``, defaulting to 2(K-1) blues per class (0 when K = 1)."""
    return args.m if args.m is not None else 2 * (args.K - 1)


def _cmd_gen(args) -> int:
    params: dict = {}
    if args.kind == "hard-cardinality":
        params = {"n": args.n, "K": args.K, "h": args.h if args.h is not None else args.K}
    elif args.kind == "hard-matroid":
        params = {"K": args.K, "m": _matroid_m(args)}
    else:
        params = {"n": args.n, "K": args.K, "universe": args.universe}
    instance = build_instance(args.kind, params, args.seed)
    _write_output(instance_to_json(instance), args.out)
    return 0


def _verify_card(args, failures: list[str]):
    h = args.h if args.h is not None else args.K
    n = args.n if args.n is not None else max(2 * args.K, args.K + 6)
    params = hard_cardinality.CardHardParams(n=n, K=args.K, h=h)
    for b in range(params.blues):
        if hard_cardinality.profile_value(params, b + 1, 0, 0) != \
                hard_cardinality.profile_value(params, b, 1, 0):
            failures.append(f"blue/red value swap broken at b={b}")
            break
    K = params.K
    reach = h * K + (K - 1) * K // 2
    held = (K - 1) ** 2 + h * (h + 1) // 2
    if hard_cardinality.profile_value(params, K, 0, 0) != reach \
            or hard_cardinality.profile_value(params, K - 1, 1, 0) != reach \
            or hard_cardinality.profile_value(params, K - 1, 0, 1) != held \
            or hard_cardinality.output_bound(params) != max(reach, held):
        failures.append("reachable-value closed form mismatch")
    if hard_cardinality.profile_value(params, 0, K - 1, 1) != hard_cardinality.optimal_value(params):
        failures.append("optimal closed form mismatch")
    return hard_cardinality.CardHardInstance(params, args.seed)


def _verify_matroid(args, failures: list[str]):
    K = args.K
    params = hard_matroid.MatHardParams(K=K, m=_matroid_m(args))
    if hard_matroid.profile_value(K, (1,) * K, (0,) * K) != hard_matroid.optimal_value(K):
        failures.append("all-red closed form mismatch")
    reachable = hard_matroid.profile_value(
        K, (0,) * (K - 1) + (1,), (1,) * (K - 1) + (0,))
    if reachable != hard_matroid.output_bound(K):
        failures.append("reachable closed form mismatch")
    instance = hard_matroid.MatHardInstance(params, args.seed)
    try:
        axioms = check_axioms(instance.matroid)
    except GroundSetTooLarge as exc:
        print(f"SKIP matroid axioms: {exc}")
    else:
        if not axioms.ok:
            failures.append(f"matroid axioms failed: {axioms.describe()}")
    return instance


def _cmd_verify(args) -> int:
    failures: list[str] = []
    verify = _verify_card if args.constraint == "cardinality" else _verify_matroid
    instance = verify(args, failures)
    if args.exhaustive:
        # an oversized ground set raises GroundSetTooLarge: a usage error
        report = verify_monotone_submodular(instance.fn)
        if not report.ok:
            failures.append(f"structure check failed: {report.describe()}")
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("OK all checks passed")
    return 1 if failures else 0


def _cmd_run(args) -> int:
    instance = read_instance(args.instance)
    report = run_experiment(instance, args.alg, _epsilon(args.epsilon), args.trials,
                            args.distribution, args.policy)
    text = report_to_json(report) if args.format == "json" else aggregates_to_csv(report)
    _write_output(text, args.out)
    return 0


def _cmd_audit(args) -> int:
    instance = read_instance(args.instance)
    report = canonical_audit(instance, args.alg, trials=args.trials, seed=args.seed,
                             eps=_epsilon(args.epsilon), budget=args.budget)
    if args.format == "json":
        text = report_to_json(report)
    else:
        keys = ["deviation_freq", "exceed_freq", "mean_ratio", "peak_stored", "max_value"]
        text = ",".join(keys) + "\n" + ",".join(str(report[k]) for k in keys) + "\n"
    _write_output(text, args.out)
    return 0


def _cmd_tables(args) -> int:
    text = emit_table(args.which)
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            golden = fh.read()
        if golden != text:
            print(f"MISMATCH against {args.check}", file=sys.stderr)
            return 1
    _write_output(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    lines = []
    if args.what == "ratio":
        if args.k_min > args.k_max:
            raise InvalidParams(f"--k-min {args.k_min} is above --k-max {args.k_max}")
        lines.append("K,h,ratio,ratio_float")
        for K in range(args.k_min, args.k_max + 1):
            h, ratio = hard_cardinality.ratio_bound(K)
            lines.append(f"{K},{h},{ratio},{float(ratio):.10f}")
    else:
        lines.append("m,trials,deviation_freq,ci_lo,ci_hi,exceed_freq,mean_ratio,peak_stored")
        eps = _epsilon(args.epsilon)
        for m in _m_list(args.m_list):
            params = hard_matroid.MatHardParams(K=args.K, m=m)
            instance = hard_matroid.MatHardInstance(params, args.seed)
            rep = canonical_audit(instance, args.alg, trials=args.trials,
                                  seed=args.seed, eps=eps,
                                  budget=args.budget)
            lo, hi = rep["deviation_ci95"]
            lines.append(f"{m},{args.trials},{rep['deviation_freq']},{lo},{hi},"
                         f"{rep['exceed_freq']},{rep['mean_ratio']},{rep['peak_stored']}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamsub",
                                     description="streaming submodular maximization testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    common = {"--seed": {"type": int, "default": 0}, "--out": {"default": None},
              "--format": {"choices": ("json", "csv"), "default": "json"}}

    def add_common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **common[flag])

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument("--kind", required=True,
                       choices=("hard-cardinality", "hard-matroid", "coverage"))
    p_gen.add_argument("--K", type=int, required=True)
    p_gen.add_argument("--n", type=int, default=16)
    p_gen.add_argument("--h", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--universe", type=int, default=12)
    add_common(p_gen, "--seed", "--out")
    p_gen.set_defaults(func=_cmd_gen)

    p_ver = sub.add_parser("verify", help="verify a hard instance family")
    p_ver.add_argument("--constraint", required=True, choices=("cardinality", "matroid"))
    p_ver.add_argument("--K", type=int, required=True)
    p_ver.add_argument("--h", type=int, default=None)
    p_ver.add_argument("--m", type=int, default=None)
    p_ver.add_argument("--n", type=int, default=None)
    p_ver.add_argument("--exhaustive", action="store_true")
    add_common(p_ver, "--seed")
    p_ver.set_defaults(func=_cmd_verify)

    p_run = sub.add_parser("run", help="run trials of an algorithm")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--alg", required=True, choices=("branching", "greedy", "sieve"))
    p_run.add_argument("--epsilon", default="1/10")
    p_run.add_argument("--trials", type=int, default=20)
    p_run.add_argument("--distribution", default=None, choices=DISTRIBUTIONS)
    p_run.add_argument("--policy", default="weak",
                       choices=("weak", "strong", "element-store"))
    add_common(p_run, "--out", "--format")
    p_run.set_defaults(func=_cmd_run)

    p_aud = sub.add_parser("audit", help="canonical-process deviation audit")
    p_aud.add_argument("--instance", required=True)
    p_aud.add_argument("--alg", default="sieve", choices=("sieve", "store-everything"))
    p_aud.add_argument("--epsilon", default="2/5")
    p_aud.add_argument("--trials", type=int, default=100)
    p_aud.add_argument("--budget", type=int, default=None)
    add_common(p_aud, "--seed", "--out", "--format")
    p_aud.set_defaults(func=_cmd_audit)

    p_tab = sub.add_parser("tables", help="emit a reference grid as CSV")
    p_tab.add_argument("--which", type=int, required=True, choices=(2, 3, 4))
    p_tab.add_argument("--check", default=None,
                       help="golden CSV to compare against; mismatch exits 1")
    add_common(p_tab, "--out")
    p_tab.set_defaults(func=_cmd_tables)

    p_sw = sub.add_parser("sweep", help="parameter sweeps")
    p_sw.add_argument("--what", required=True, choices=("ratio", "audit"))
    p_sw.add_argument("--k-min", type=int, default=2)
    p_sw.add_argument("--k-max", type=int, default=50)
    p_sw.add_argument("--K", type=int, default=3)
    p_sw.add_argument("--m-list", default="100,200,400")
    p_sw.add_argument("--alg", default="sieve", choices=("sieve", "store-everything"))
    p_sw.add_argument("--epsilon", default="2/5")
    p_sw.add_argument("--trials", type=int, default=100)
    p_sw.add_argument("--budget", type=int, default=None)
    add_common(p_sw, "--seed", "--out")
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StreamsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
