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

``COMMANDS`` maps each subcommand to its help line, the function that
adds its flags and its handler. A call builds only the parser of the
command it names: the one subparser, under a metavar that lists every
command, so the usage line stays whole. A call that names no command
(``--help``, a typo, nothing) builds every subparser, so its help and
errors list them all.

Usage errors exit with status 2; verification or reproduction
mismatches exit with status 1.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import hard_cardinality, hard_matroid
from .errors import GroundSetTooLarge, InvalidParams, StreamsubError
from .harness import (KINDS, POLICIES, algorithm_names, build_instance, canonical_audit,
                      instance_to_json, read_instance, report_to_json, run_experiment)
from .matroids import check_axioms
from .oracles import verify_monotone_submodular
from .samplers import DISTRIBUTIONS
from .tables import emit_table, render_csv


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
    # every flag; the kind's builder reads only its own
    params = {"n": args.n, "K": args.K, "h": args.h if args.h is not None else args.K,
              "m": _matroid_m(args), "universe": args.universe}
    instance = build_instance(args.kind, params, args.seed)
    _write_output(instance_to_json(instance), args.out)
    return 0


def _cmd_verify(args) -> int:
    # each report, keyed by the text its FAIL line starts with
    if args.constraint == "cardinality":
        h = args.h if args.h is not None else args.K
        n = args.n if args.n is not None else max(2 * args.K, args.K + 6)
        params = hard_cardinality.CardHardParams(n=n, K=args.K, h=h)
        reports = {"": hard_cardinality.check_closed_forms(params)}
        instance = hard_cardinality.CardHardInstance(params, args.seed)
    else:
        params = hard_matroid.MatHardParams(K=args.K, m=_matroid_m(args))
        reports = {"": hard_matroid.check_closed_forms(args.K)}
        instance = hard_matroid.MatHardInstance(params, args.seed)
        try:
            reports["matroid axioms failed: "] = check_axioms(instance.matroid)
        except GroundSetTooLarge as exc:
            print(f"SKIP matroid axioms: {exc}")
    if args.exhaustive:
        # an oversized ground set raises GroundSetTooLarge: a usage error
        reports["structure check failed: "] = verify_monotone_submodular(instance.fn)
    failures = [lead + report.describe() for lead, report in reports.items() if not report]
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("OK all checks passed")
    return 1 if failures else 0


def _cmd_run(args) -> int:
    instance = read_instance(args.instance)
    report = run_experiment(instance, args.alg, _epsilon(args.epsilon), args.trials,
                            args.distribution, args.policy)
    aggregates = report["aggregates"]
    keys = sorted(aggregates)
    text = (report_to_json(report) if args.format == "json"
            else render_csv([keys, [aggregates[k] for k in keys]]))
    _write_output(text, args.out)
    return 0


def _cmd_audit(args) -> int:
    instance = read_instance(args.instance)
    report = canonical_audit(instance, args.alg, trials=args.trials, seed=args.seed,
                             eps=_epsilon(args.epsilon), budget=args.budget)
    keys = ("deviation_freq", "exceed_freq", "mean_ratio", "peak_stored", "max_value")
    text = (report_to_json(report) if args.format == "json"
            else render_csv([keys, [report[k] for k in keys]]))
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
    if args.what == "ratio":
        if args.k_min > args.k_max:
            raise InvalidParams(f"--k-min {args.k_min} is above --k-max {args.k_max}")
        rows = [["K", "h", "ratio", "ratio_float"]]
        for K in range(args.k_min, args.k_max + 1):
            h, ratio = hard_cardinality.ratio_bound(K)
            rows.append([K, h, ratio, f"{float(ratio):.10f}"])
    else:
        rows = [["m", "trials", "deviation_freq", "ci_lo", "ci_hi", "exceed_freq",
                 "mean_ratio", "peak_stored"]]
        eps = _epsilon(args.epsilon)
        for m in _m_list(args.m_list):
            params = hard_matroid.MatHardParams(K=args.K, m=m)
            instance = hard_matroid.MatHardInstance(params, args.seed)
            rep = canonical_audit(instance, args.alg, trials=args.trials,
                                  seed=args.seed, eps=eps,
                                  budget=args.budget)
            rows.append([m, args.trials, rep["deviation_freq"], *rep["deviation_ci95"],
                         rep["exceed_freq"], rep["mean_ratio"], rep["peak_stored"]])
    _write_output(render_csv(rows), args.out)
    return 0


_COMMON = {"--seed": {"type": int, "default": 0}, "--out": {"default": None},
           "--format": {"choices": ("json", "csv"), "default": "json"}}


def _add_common(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def _gen_flags(p):
    p.add_argument("--kind", required=True, choices=tuple(KINDS))
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--universe", type=int, default=12)
    _add_common(p, "--seed", "--out")


def _verify_flags(p):
    p.add_argument("--constraint", required=True, choices=("cardinality", "matroid"))
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    _add_common(p, "--seed")


def _run_flags(p):
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", required=True, choices=algorithm_names("run"))
    p.add_argument("--epsilon", default="1/10")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--distribution", default=None, choices=tuple(DISTRIBUTIONS))
    p.add_argument("--policy", default="weak", choices=tuple(POLICIES))
    _add_common(p, "--out", "--format")


def _audit_flags(p):
    p.add_argument("--instance", required=True)
    p.add_argument("--alg", default="sieve", choices=algorithm_names("audit"))
    p.add_argument("--epsilon", default="2/5")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=int, default=None)
    _add_common(p, "--seed", "--out", "--format")


def _tables_flags(p):
    p.add_argument("--which", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--check", default=None,
                   help="golden CSV to compare against; mismatch exits 1")
    _add_common(p, "--out")


def _sweep_flags(p):
    p.add_argument("--what", required=True, choices=("ratio", "audit"))
    p.add_argument("--k-min", type=int, default=2)
    p.add_argument("--k-max", type=int, default=50)
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--m-list", default="100,200,400")
    p.add_argument("--alg", default="sieve", choices=algorithm_names("sweep"))
    p.add_argument("--epsilon", default="2/5")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--budget", type=int, default=None)
    _add_common(p, "--seed", "--out")


# subcommand -> (help line, function that adds its flags, handler), in the
# order the usage line and --help list them
COMMANDS = {
    "gen": ("write an instance file", _gen_flags, _cmd_gen),
    "verify": ("verify a hard instance family", _verify_flags, _cmd_verify),
    "run": ("run trials of an algorithm", _run_flags, _cmd_run),
    "audit": ("canonical-process deviation audit", _audit_flags, _cmd_audit),
    "tables": ("emit a reference grid as CSV", _tables_flags, _cmd_tables),
    "sweep": ("parameter sweeps", _sweep_flags, _cmd_sweep),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``. When its first token names a command, the
    parser holds that command's subparser alone, and its metavar names
    every command, so the usage line reads as the full parser's. Otherwise
    (``--help``, a typo, nothing) it holds every subparser, and argparse
    names the command argument ``command`` in its errors."""
    parser = argparse.ArgumentParser(prog="streamsub",
                                     description="streaming submodular maximization testbed")
    if argv and argv[0] in COMMANDS:
        names = [argv[0]]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    else:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, add_flags, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (StreamsubError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
