import argparse
import io
import json
import pathlib
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from streamsub import cli, hard_cardinality, hard_matroid
from streamsub.branching import MAX_EPS_DIGITS, CardTree
from streamsub.cli import COMMANDS, build_parser, main
from streamsub.hard_matroid import MatHardParams
from streamsub.harness import build_instance, instance_to_json, read_instance
from streamsub.oracles import MAX_GROUND_SET

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"


class TestTables:
    @pytest.mark.parametrize("which,name", [(2, "table2_p0.csv"), (3, "table3.csv"),
                                            (4, "table4.csv")])
    def test_matches_golden_bytes(self, which, name, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["tables", "--which", str(which), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    def test_check_flag_detects_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert main(["tables", "--which", "3", "--check", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["tables", "--which", "3", "--check", str(GOLDEN / "table3.csv"),
                     "--out", str(tmp_path / "y.csv")]) == 0


class TestGoldenRunReport:
    @staticmethod
    def _hard_matroid_branching_bytes(tmp_path, K: int, m: int, policy: str = "weak") -> bytes:
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", str(K), "--m", str(m))
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "class-blocks",
                     "--policy", policy, "--trials", "3", "--out", str(out)]) == 0
        return out.read_bytes()

    def test_hard_matroid_branching_report_bytes(self, tmp_path):
        assert self._hard_matroid_branching_bytes(tmp_path, 3, 8) == \
            (GOLDEN / "run_hard_matroid_K3.json").read_bytes()

    def test_hard_matroid_K4_branching_report_bytes(self, tmp_path):
        # the benchmark's driver-matroid shape: 41 live guesses in runs
        assert self._hard_matroid_branching_bytes(tmp_path, 4, 12) == \
            (GOLDEN / "run_hard_matroid_K4.json").read_bytes()

    def test_hard_matroid_K4_element_store_report_bytes(self, tmp_path):
        # the element-store policy reads every matroid tree's stored set
        # after every step
        assert self._hard_matroid_branching_bytes(tmp_path, 4, 12, "element-store") == \
            (GOLDEN / "run_hard_matroid_K4_store.json").read_bytes()

    def test_hard_matroid_K4_m3_uniform_branching_report_bytes(self, tmp_path):
        # a uniform order on the hard matroid: the guesses of one entering
        # group disagree on matroid nodes' spawns, so nodes split
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "4", "--m", "3")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/4", "--distribution", "uniform",
                     "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == \
            (GOLDEN / "run_hard_matroid_K4_m3_uniform.json").read_bytes()

    @staticmethod
    def _hard_cardinality_branching_bytes(tmp_path, fmt: str) -> bytes:
        inst_file = _gen(tmp_path, "--kind", "hard-cardinality", "--K", "4", "--n", "16",
                         "--h", "4")
        out = tmp_path / "report"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "purple-last",
                     "--trials", "3", "--format", fmt, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_hard_cardinality_branching_report_bytes(self, tmp_path):
        assert self._hard_cardinality_branching_bytes(tmp_path, "json") == \
            (GOLDEN / "run_hard_cardinality_K4.json").read_bytes()

    def test_hard_cardinality_branching_csv_bytes(self, tmp_path):
        assert self._hard_cardinality_branching_bytes(tmp_path, "csv") == \
            (GOLDEN / "run_hard_cardinality_K4.csv").read_bytes()

    def test_hard_cardinality_K6_branching_report_bytes(self, tmp_path):
        # the benchmark's driver-card shape (K=6, n=80, h=6): its nodes
        # split, and the variants share their residuals
        inst_file = _gen(tmp_path, "--kind", "hard-cardinality", "--K", "6", "--n", "80",
                         "--h", "6", "--seed", "5")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "purple-last",
                     "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_cardinality_K6.json").read_bytes()

    def test_coverage_branching_report_bytes(self, tmp_path):
        # 38 live guesses in one tree after the first element; over the 5
        # trials its nodes split 26 times where the guesses disagree
        inst_file = _gen(tmp_path, "--kind", "coverage", "--n", "12", "--K", "3",
                         "--universe", "30", "--seed", "7")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--trials", "5", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_coverage_K3.json").read_bytes()

    def test_coverage_K4_branching_report_bytes(self, tmp_path):
        # the benchmark's run-coverage shape, whose optimum comes from the
        # branch-and-bound walk over its 6,196 independent sets
        inst_file = _gen(tmp_path, "--kind", "coverage", "--n", "20", "--K", "4",
                         "--universe", "48", "--seed", "7")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--distribution", "uniform", "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_coverage_K4.json").read_bytes()

    def test_hard_cardinality_element_store_report_bytes(self, tmp_path):
        # the element-store policy reads the tree's stored set every step
        inst_file = _gen(tmp_path, "--kind", "hard-cardinality", "--K", "4", "--n", "16",
                         "--h", "4")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "purple-last",
                     "--policy", "element-store", "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_cardinality_K4_store.json").read_bytes()

    def test_hard_matroid_sieve_report_bytes(self, tmp_path):
        # K=8 values reach 15!: the sieve's bars ceil(v) reach 13 digits,
        # from grid pairs (11^i, 10^i) of over 300
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "8", "--m", "3")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "sieve",
                     "--epsilon", "1/10", "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_matroid_K8_sieve.json").read_bytes()

    def test_hard_matroid_K200_sieve_report_bytes(self, tmp_path):
        # the largest instance the family accepts: values reach 399!, and the
        # window's first index climbs to about 21,000 in one trial
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "200", "--m", "1")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "sieve",
                     "--epsilon", "1/10", "--trials", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_matroid_K200_sieve.json").read_bytes()


class TestGoldenAuditReport:
    @staticmethod
    def _hard_matroid_sieve_bytes(tmp_path, fmt: str, m: int = 40) -> bytes:
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "3", "--m", str(m))
        out = tmp_path / "audit"
        assert main(["audit", "--instance", str(inst_file), "--alg", "sieve",
                     "--trials", "20", "--seed", "3", "--budget", "20",
                     "--format", fmt, "--out", str(out)]) == 0
        return out.read_bytes()

    def test_hard_matroid_sieve_audit_bytes(self, tmp_path):
        assert self._hard_matroid_sieve_bytes(tmp_path, "json") == \
            (GOLDEN / "audit_hard_matroid_K3.json").read_bytes()

    def test_hard_matroid_sieve_audit_csv_bytes(self, tmp_path):
        assert self._hard_matroid_sieve_bytes(tmp_path, "csv") == \
            (GOLDEN / "audit_hard_matroid_K3.csv").read_bytes()

    def test_hard_matroid_sieve_audit_csv_bytes_at_criterion_9_scale(self, tmp_path):
        # m=667 is the class size the criterion-9 audit runs
        assert self._hard_matroid_sieve_bytes(tmp_path, "csv", m=667) == \
            (GOLDEN / "audit_hard_matroid_K3_m667.csv").read_bytes()

    def test_hard_matroid_store_everything_audit_bytes(self, tmp_path):
        # store-everything solves each trial by branch and bound through
        # the gate, under the element-store policy
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "3", "--m", "4")
        out = tmp_path / "audit.json"
        assert main(["audit", "--instance", str(inst_file), "--alg", "store-everything",
                     "--trials", "20", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "audit_hard_matroid_K3_store.json").read_bytes()


class TestGoldenInstanceFile:
    @pytest.mark.parametrize("flags,name", [
        (("--kind", "hard-cardinality", "--K", "4", "--n", "16", "--h", "4"),
         "gen_hard_cardinality_K4.json"),
        (("--kind", "hard-matroid", "--K", "3", "--m", "8"), "gen_hard_matroid_K3.json"),
        (("--kind", "coverage", "--K", "2", "--n", "6", "--seed", "9"),
         "gen_coverage_K2.json"),
        # h defaults to K
        (("--kind", "hard-cardinality", "--K", "4", "--n", "16"), "gen_hard_cardinality_K4.json"),
        # a kind reads only its own flags
        (("--kind", "hard-matroid", "--K", "3", "--m", "8", "--n", "99", "--h", "7",
          "--universe", "5"), "gen_hard_matroid_K3.json"),
    ])
    def test_gen_bytes(self, tmp_path, flags, name):
        assert _gen(tmp_path, *flags).read_bytes() == (GOLDEN / name).read_bytes()

    def test_matroid_m_defaults_to_two_blues_per_later_class(self, tmp_path):
        flags = ("--kind", "hard-matroid", "--K", "3")
        default = _gen(tmp_path, *flags).read_bytes()
        assert default == _gen(tmp_path, *flags, "--m", "4").read_bytes()


class TestVerify:
    def test_matroid_exhaustive_exits_zero(self, capsys):
        rc = main(["verify", "--constraint", "matroid", "--K", "3", "--m", "3",
                   "--exhaustive"])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_cardinality_exhaustive_exits_zero(self, capsys):
        rc = main(["verify", "--constraint", "cardinality", "--K", "3", "--h", "3",
                   "--n", "8", "--exhaustive"])
        assert rc == 0

    def test_too_large_exhaustive_fails(self, capsys):
        # a check that never ran is a usage error, not a mismatch, under
        # either constraint
        for flags in (["--constraint", "matroid", "--K", "3", "--m", "200"],
                      ["--constraint", "cardinality", "--K", "9"]):
            rc = main(["verify", *flags, "--exhaustive"])
            assert rc == 2
            assert "exceeds exhaustive limit 14" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,skips", [
        (["--K", "4"], ["SKIP matroid axioms: n=19 exceeds enumeration limit 12"]),
        (["--K", "3", "--m", "3"], []),
    ])
    def test_skipped_axioms_are_reported(self, flags, skips, capsys):
        assert main(["verify", "--constraint", "matroid", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("SKIP")] == skips


class TestVerifyFailures:
    """A family whose closed form is off by one prints the one FAIL line of
    its ``check_closed_forms`` report and exits 1."""

    @pytest.mark.parametrize("family, name, flags, line", [
        (hard_matroid, "output_bound", ["--constraint", "matroid", "--K", "3"],
         "FAIL reachable closed form violated at (3,)\n"),
        (hard_matroid, "optimal_value", ["--constraint", "matroid", "--K", "3"],
         "FAIL all-red closed form violated at (3,)\n"),
        (hard_cardinality, "optimal_value", ["--constraint", "cardinality", "--K", "3"],
         "FAIL optimal closed form violated at (0, 2, 1)\n"),
    ])
    def test_off_by_one_exits_one(self, family, name, flags, line, monkeypatch, capsys):
        real = getattr(family, name)
        monkeypatch.setattr(family, name, lambda *args: real(*args) + 1)
        assert main(["verify", *flags]) == 1
        assert capsys.readouterr() == (line, "")


class TestGenRun:
    def test_round_trip(self, tmp_path):
        inst_file = tmp_path / "inst.json"
        assert main(["gen", "--kind", "hard-matroid", "--K", "2", "--m", "3",
                     "--seed", "5", "--out", str(inst_file)]) == 0
        payload = json.loads(inst_file.read_text())
        assert payload["kind"] == "hard-matroid"
        assert payload["K"] == 2 and payload["m"] == 3 and payload["seed"] == 5

        report_file = tmp_path / "report.json"
        rc = main(["run", "--instance", str(inst_file), "--alg", "branching",
                   "--epsilon", "0.1", "--trials", "3", "--out", str(report_file)])
        assert rc == 0
        report = json.loads(report_file.read_text())
        assert report["schema_version"] == 1
        assert len(report["trials"]) == 3
        assert report["aggregates"]["total_violations"] == 0

    def test_run_determinism_bytes(self, tmp_path):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--kind", "coverage", "--K", "2", "--n", "6", "--seed", "9",
              "--out", str(inst_file)])
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["run", "--instance", str(inst_file), "--alg", "sieve",
                         "--epsilon", "1/5", "--trials", "4", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_algorithm_usage_error(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--kind", "coverage", "--K", "2", "--n", "6", "--seed", "9",
              "--out", str(inst_file)])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--instance", str(inst_file), "--alg", "magic"])
        assert exc.value.code == 2

    def test_csv_format(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--kind", "coverage", "--K", "2", "--n", "6", "--seed", "9",
              "--out", str(inst_file)])
        assert main(["run", "--instance", str(inst_file), "--alg", "greedy",
                     "--trials", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert "mean_ratio" in header and len(row.split(",")) == len(header.split(","))


class TestAuditAndSweep:
    def test_audit_json(self, tmp_path):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--kind", "hard-matroid", "--K", "3", "--m", "20",
              "--seed", "3", "--out", str(inst_file)])
        out = tmp_path / "audit.json"
        rc = main(["audit", "--instance", str(inst_file), "--alg", "sieve",
                   "--trials", "10", "--seed", "1", "--budget", "20",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) >= {"deviation_freq", "deviation_ci95", "exceed_freq",
                               "mean_ratio", "peak_stored"}

    def test_audit_needs_hidden_reds(self, tmp_path, capsys):
        inst_file = _gen(tmp_path, "--kind", "coverage", "--K", "2", "--n", "8")
        assert main(["audit", "--instance", str(inst_file)]) == 2
        captured = capsys.readouterr()
        assert "no hidden reds" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_sweep_ratio(self, tmp_path, capsys):
        assert main(["sweep", "--what", "ratio", "--k-min", "2", "--k-max", "6"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "K,h,ratio,ratio_float"
        assert len(out) == 6

    def test_sweep_audit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--what", "audit", "--K", "2", "--m-list", "8,16",
                   "--trials", "5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3


class TestUsageErrors:
    def test_sieve_epsilon_out_of_range(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        main(["gen", "--kind", "coverage", "--K", "2", "--n", "6", "--seed", "9",
              "--out", str(inst_file)])
        capsys.readouterr()
        assert main(["run", "--instance", str(inst_file), "--alg", "sieve",
                     "--epsilon", "0"]) == 2
        err = capsys.readouterr().err
        assert "eps must be in (0, 1]" in err
        assert "Traceback" not in err


def _gen(tmp_path, *flags):
    inst_file = tmp_path / "inst.json"
    assert main(["gen", *flags, "--out", str(inst_file)]) == 0
    return inst_file


class TestTrialCounts:
    def test_run_needs_a_trial(self, tmp_path, capsys):
        inst_file = _gen(tmp_path, "--kind", "coverage", "--K", "2", "--n", "6")
        assert main(["run", "--instance", str(inst_file), "--alg", "sieve",
                     "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1" in captured.err
        assert captured.out == ""

    def test_audit_needs_a_trial(self, tmp_path, capsys):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        assert main(["audit", "--instance", str(inst_file), "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1" in captured.err
        assert captured.out == ""

    def test_sweep_needs_a_trial(self, capsys):
        assert main(["sweep", "--what", "audit", "--K", "2", "--m-list", "8",
                     "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert "trials must be at least 1" in captured.err
        assert captured.out == ""


class TestMalformedInput:
    def test_empty_k_range(self, capsys):
        assert main(["sweep", "--what", "ratio", "--k-min", "5", "--k-max", "2"]) == 2
        captured = capsys.readouterr()
        assert "--k-min 5 is above --k-max 2" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_m_list_not_integers(self, capsys):
        assert main(["sweep", "--what", "audit", "--K", "2", "--m-list", "8,x",
                     "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert "--m-list must be comma-separated integers" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_epsilon_not_a_number(self, tmp_path, capsys):
        inst_file = _gen(tmp_path, "--kind", "coverage", "--K", "2", "--n", "6")
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "abc"]) == 2
        err = capsys.readouterr().err
        assert "--epsilon must be a number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind,flags,edit,message", [
        ("hard-matroid", ("--K", "2", "--m", "3"), {"seed": None}, "no 'seed'"),
        ("hard-matroid", ("--K", "2", "--m", "3"), {"kind": None}, "no 'kind'"),
        ("coverage", ("--K", "2", "--n", "6"), {"density": "lots"},
         "density must be a number"),
        ("hard-cardinality", ("--K", "2", "--n", "6"), {"h": "2"}, "disagrees"),
        ("hard-matroid", ("--K", "2", "--m", "3"), {"n": 999}, "disagrees"),
        ("hard-matroid", ("--K", "2", "--m", "3"), {"colour": "red"}, "disagrees"),
        ("hard-matroid", ("--K", "2", "--m", "3"), {"schema_version": 7},
         "schema_version 7"),
    ])
    def test_bad_instance_file(self, tmp_path, capsys, kind, flags, edit, message):
        inst_file = _gen(tmp_path, "--kind", kind, *flags)
        payload = json.loads(inst_file.read_text())
        for key, value in edit.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        inst_file.write_text(json.dumps(payload))
        assert main(["run", "--instance", str(inst_file), "--alg", "greedy",
                     "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "hard-matroid", "--K", "1", "--m", "5"],
        ["verify", "--constraint", "matroid", "--K", "1", "--m", "5"],
    ])
    def test_one_class_matroid_with_blues(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "K=1 has no blue classes; use m=0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_not_json(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        inst_file.write_text("{kind: coverage")
        assert main(["audit", "--instance", str(inst_file)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--kind", "hard-cardinality", "--K", "3"),
        ("--kind", "hard-cardinality", "--K", "2", "--n", "9", "--h", "4"),
        ("--kind", "hard-matroid", "--K", "1"),
        ("--kind", "hard-matroid", "--K", "3"),
        ("--kind", "coverage", "--K", "2", "--n", "7", "--universe", "20"),
    ])
    def test_every_generated_file_runs(self, tmp_path, flags):
        inst_file = _gen(tmp_path, *flags, "--seed", "4")
        assert main(["run", "--instance", str(inst_file), "--alg", "greedy",
                     "--trials", "1", "--out", str(tmp_path / "r.json")]) == 0


class TestIgnoredFlags:
    """Subcommands accept only the flags they act on; ``verify`` has no
    ``--limit``, its exhaustive cap is fixed."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "coverage", "--K", "2", "--format", "csv"],
        ["verify", "--constraint", "matroid", "--K", "2", "--out", "v.txt"],
        ["verify", "--constraint", "matroid", "--K", "2", "--format", "csv"],
        ["verify", "--constraint", "matroid", "--K", "2", "--exhaustive", "--limit", "30"],
        ["tables", "--which", "3", "--seed", "1"],
        ["tables", "--which", "3", "--format", "csv"],
        ["sweep", "--what", "ratio", "--k-max", "3", "--format", "csv"],
        ["run", "--instance", "x.json", "--alg", "greedy", "--seed", "1"],
    ])
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""


class TestReadmeCommands:
    def test_command_line_block_parses(self):
        """Every ``streamsub`` line of the README's command-line block is
        accepted by the parser; nothing is run."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("streamsub ")]
        assert lines
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")


class TestHostileInput:
    """Inputs that once ended in a traceback, ran forever or passed
    silently now exit 2 with one line on stderr."""

    @staticmethod
    def check(argv, capsys, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kind,flags,old,new,message", [
        ("hard-matroid", ("--K", "2", "--m", "3"), '"m":3', '"m":1e400',
         "m must be an integer, got inf"),
        ("hard-matroid", ("--K", "2", "--m", "3", "--seed", "1"), '"seed":1', '"seed":true',
         "seed must be an integer, got True"),
        ("coverage", ("--K", "2", "--n", "6"), '"n":6', '"n":6.5',
         "n must be an integer, got 6.5"),
        ("coverage", ("--K", "2", "--n", "6"), '"density":0.35', '"density":false',
         "density must be a number, got False"),
        ("coverage", ("--K", "2", "--n", "6"), '"density":0.35', '"density":1e400',
         "density must be in [0, 1], got inf"),
        ("coverage", ("--K", "2", "--n", "6"), '"density":0.35', '"density":-2',
         "density must be in [0, 1], got -2.0"),
        ("coverage", ("--K", "2", "--n", "6"), '"density":0.35', '"density":NaN',
         "density must be in [0, 1], got nan"),
        ("hard-matroid", ("--K", "2", "--m", "3"), '"kind":"hard-matroid"', '"kind":"nope"',
         "error: unknown instance kind 'nope'\n"),
        # an unhashable kind is no dict key: it must not end in a TypeError
        ("hard-matroid", ("--K", "2", "--m", "3"), '"kind":"hard-matroid"', '"kind":["x"]',
         "error: unknown instance kind ['x']\n"),
        ("hard-matroid", ("--K", "2", "--m", "3"), '"kind":"hard-matroid"', '"kind":{"a":1}',
         "error: unknown instance kind {'a': 1}\n"),
    ])
    def test_bad_instance_value(self, tmp_path, capsys, kind, flags, old, new, message):
        inst_file = _gen(tmp_path, "--kind", kind, *flags)
        text = inst_file.read_text()
        assert old in text
        inst_file.write_text(text.replace(old, new))
        self.check(["run", "--instance", str(inst_file), "--alg", "greedy", "--trials", "1"],
                   capsys, message)

    @pytest.mark.parametrize("kind,flags,distribution,needs", [
        ("coverage", ("--K", "2", "--n", "6"), "purple-last", "cardinality-hard"),
        ("hard-matroid", ("--K", "2", "--m", "3"), "purple-last", "cardinality-hard"),
        ("hard-cardinality", ("--K", "2", "--n", "6"), "class-blocks", "matroid-hard"),
    ])
    def test_distribution_of_another_kind(self, tmp_path, capsys, kind, flags, distribution,
                                          needs):
        inst_file = _gen(tmp_path, "--kind", kind, *flags)
        self.check(["run", "--instance", str(inst_file), "--alg", "sieve", "--trials", "1",
                    "--distribution", distribution], capsys,
                   f"error: {distribution} needs a {needs} instance\n")

    @pytest.mark.parametrize("argv,message", [
        # MatHardParams.MAX_K: the value recursion once overflowed the stack at K=1500
        (["--kind", "hard-matroid", "--K", "1500", "--m", "1"],
         f"need K <= {MatHardParams.MAX_K}, got K=1500"),
        (["--kind", "hard-matroid", "--K", "3", "--m", str(MAX_GROUND_SET)],
         f"n={2 * MAX_GROUND_SET + 1} is above the ground-set cap {MAX_GROUND_SET}"),
        (["--kind", "hard-cardinality", "--K", "4", "--n", str(MAX_GROUND_SET + 1)],
         f"n={MAX_GROUND_SET + 1} is above the ground-set cap {MAX_GROUND_SET}"),
        (["--kind", "coverage", "--n", "8", "--K", "2", "--universe", "100000000"],
         f"n*universe=800000000 is above the cap {MAX_GROUND_SET}"),
    ])
    def test_gen_above_a_size_cap(self, tmp_path, capsys, argv, message):
        """Each is refused before the instance allocates anything."""
        start = time.perf_counter()
        self.check(["gen", *argv, "--out", str(tmp_path / "inst.json")], capsys, message)
        assert time.perf_counter() - start < 1
        assert not (tmp_path / "inst.json").exists()

    @pytest.mark.parametrize("kind,flags,old,new,message", [
        # once a RecursionError traceback in the first query
        ("hard-matroid", ("--K", "2", "--m", "1"), '"K":2', '"K":1500',
         f"need K <= {MatHardParams.MAX_K}, got K=1500"),
        # once a MemoryError traceback while building the coloring
        ("hard-cardinality", ("--K", "2", "--n", "6"), '"n":6', '"n":10000000000',
         f"n=10000000000 is above the ground-set cap {MAX_GROUND_SET}"),
        ("coverage", ("--K", "2", "--n", "6"), '"universe":12', '"universe":100000000',
         f"n*universe=600000000 is above the cap {MAX_GROUND_SET}"),
    ])
    def test_instance_file_above_a_size_cap(self, tmp_path, capsys, kind, flags, old, new,
                                            message):
        inst_file = _gen(tmp_path, "--kind", kind, *flags)
        text = inst_file.read_text()
        assert old in text
        inst_file.write_text(text.replace(old, new))
        start = time.perf_counter()
        self.check(["run", "--instance", str(inst_file), "--alg", "sieve", "--trials", "1"],
                   capsys, message)
        assert time.perf_counter() - start < 1

    def test_size_caps_fit_the_largest_sizes_in_use(self):
        # the criterion-9 audit and perfbench's audit-sieve run K=3, m=1334
        assert MatHardParams(3, 1334).n <= MAX_GROUND_SET
        assert MatHardParams.MAX_K >= 4

    @pytest.mark.parametrize("argv", [["run", "--alg", "greedy"], ["audit"]])
    def test_instance_not_utf8(self, tmp_path, capsys, argv):
        inst_file = tmp_path / "inst.json"
        inst_file.write_bytes(b'{"kind": "hard-matroid", "note": "\xff\xfe"}')
        self.check([*argv, "--instance", str(inst_file)], capsys, "is not UTF-8 text")

    @pytest.mark.parametrize("argv", [
        ["run", "--alg", "branching", "--trials", "1"],
        ["run", "--alg", "sieve", "--trials", "1"],
        ["audit", "--trials", "1"],
    ])
    @pytest.mark.parametrize("epsilon", ["1e-300", "1e-400", "1/5000"])
    def test_epsilon_with_too_many_guesses(self, tmp_path, capsys, argv, epsilon):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "3", "--m", "3")
        self.check([*argv, "--instance", str(inst_file), "--epsilon", epsilon], capsys,
                   f"eps={epsilon} puts more than")

    @pytest.mark.parametrize("argv", [
        ["run", "--alg", "branching", "--trials", "1"],
        ["run", "--alg", "sieve", "--trials", "1"],
        ["audit", "--trials", "1"],
    ])
    def test_epsilon_too_long_for_the_grid(self, tmp_path, capsys, argv):
        """A 304-character eps near 1/10 fits the guess-count cap, but its
        guesses would gain about 300 digits per index."""
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        self.check([*argv, "--instance", str(inst_file), "--epsilon", "0.1" + "0" * 300 + "1"],
                   capsys, f"has more than {MAX_EPS_DIGITS} digits in its numerator or denominator")

    @pytest.mark.parametrize("epsilon", ["1e-5000", "0." + "0" * 5000 + "1"],
                             ids=["1e-5000", "5001-decimals"])
    def test_epsilon_with_too_many_digits(self, tmp_path, capsys, epsilon):
        """A valid number whose numerator or denominator passes Python's
        int-to-str digit limit is named as such, not as "not a number"."""
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        self.check(["run", "--alg", "greedy", "--trials", "1", "--instance", str(inst_file),
                    "--epsilon", epsilon], capsys, "--epsilon has more than")

    def test_epsilon_without_a_digit_limit(self, tmp_path, monkeypatch):
        """Python before 3.10.7 has no ``sys.get_int_max_str_digits``, and
        no digit limit: ``--epsilon`` parses as ever."""
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching", "--trials", "1",
                     "--epsilon", "1/10", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["epsilon"] == "1/10"

    @pytest.mark.parametrize("alg", ["branching", "sieve", "greedy"])
    @pytest.mark.parametrize("flags,old,new", [
        (("--K", "0"), "", ""),
        (("--K", "2"), '"density":0.35', '"density":0'),
    ], ids=["K=0", "density=0"])
    def test_zero_optimum_has_no_ratio(self, tmp_path, capsys, alg, flags, old, new):
        inst_file = _gen(tmp_path, "--kind", "coverage", "--n", "6", *flags)
        inst_file.write_text(inst_file.read_text().replace(old, new))
        self.check(["run", "--instance", str(inst_file), "--alg", alg, "--trials", "2"],
                   capsys, "optimum is 0, so no ratio is defined")

    @pytest.mark.parametrize("kind,flags,K", [
        ("hard-cardinality", ("--n", "24", "--h", "12"), 12),
        ("coverage", ("--n", "12"), CardTree.MAX_K + 1),
        ("coverage", ("--n", "20", "--universe", "48"), CardTree.MAX_K + 1),
    ])
    def test_cardinality_budget_above_the_cap(self, tmp_path, capsys, kind, flags, K):
        """A K=12 hard-cardinality run once grew until a MemoryError; the
        driver now refuses a budget above ``CardTree.MAX_K`` before the
        first element, and before the brute-force optimum of a coverage
        instance, which takes over a second at n=20."""
        inst_file = _gen(tmp_path, "--kind", kind, "--K", str(K), *flags)
        start = time.perf_counter()
        self.check(["run", "--instance", str(inst_file), "--alg", "branching",
                    "--trials", "1"], capsys,
                   f"K={K} cardinality branch tree holds up to K*2^(2K) elements per guess; "
                   f"K above {CardTree.MAX_K} is not supported")
        assert time.perf_counter() - start < 1

    def test_audit_negative_budget(self, tmp_path, capsys):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        self.check(["audit", "--instance", str(inst_file), "--trials", "1", "--budget", "-1"],
                   capsys, "budget must be at least 0, got -1")

    def test_sweep_negative_budget(self, capsys):
        self.check(["sweep", "--what", "audit", "--K", "2", "--m-list", "3", "--trials", "1",
                    "--budget", "-1"], capsys, "budget must be at least 0, got -1")


BASE_INSTANCES = [instance_to_json(build_instance(kind, params, 1)) for kind, params in [
    ("hard-cardinality", {"n": 6, "K": 2, "h": 2}),
    ("hard-matroid", {"K": 2, "m": 2}),
    ("coverage", {"n": 6, "K": 2}),
]]
BAD_VALUES = ["true", '"x"', "null", "[1]", "0", "-1", "2.5", "1e400", "-1e400", "NaN"]
BAD_FLAGS = {
    "--epsilon": ["0", "-1", "2", "nan", "inf", "1/0", "x", "1e400", "1e-400"],
    "--trials": ["0", "-1", "2.5", "x", "1e400"],
    "--budget": ["-1", "x", "2.5", "1e400"],
}


@st.composite
def mutated_calls(draw):
    """A ``run`` or ``audit`` call on a small valid instance file, with at
    most one mutation: a key of the file dropped or set to a bad value,
    bytes that are not UTF-8 appended to it, or one bad flag value."""
    tokens = {k: json.dumps(v)
              for k, v in json.loads(draw(st.sampled_from(BASE_INSTANCES))).items()}
    if draw(st.booleans()):
        flags = {"run": None, "--alg": draw(st.sampled_from(["branching", "sieve", "greedy"])),
                 "--epsilon": "1/10", "--trials": "2"}
    else:
        flags = {"audit": None, "--epsilon": "2/5", "--trials": "2", "--budget": "3"}
    how = draw(st.sampled_from(["none", "drop", "set", "bytes", "flag"]))
    key = draw(st.sampled_from(sorted(tokens)))
    if how == "drop":
        del tokens[key]
    elif how == "set":
        tokens[key] = draw(st.sampled_from(BAD_VALUES))
    elif how == "flag":
        flag = draw(st.sampled_from([f for f in BAD_FLAGS if f in flags]))
        flags[flag] = draw(st.sampled_from(BAD_FLAGS[flag]))
    data = ("{" + ",".join(f'"{k}":{v}' for k, v in tokens.items()) + "}\n").encode()
    argv = [x for item in flags.items() for x in item if x is not None]
    return data + b"\xff\xfe" if how == "bytes" else data, argv


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def _coverage_with(old, new):
    return BASE_INSTANCES[2].replace(old, new).encode()


class TestMutatedInputs:
    """``cli.main`` on mutated instance files and flag values exits 0 or
    2 without a traceback, and every report it writes is strict JSON with
    a positive optimum."""

    @settings(max_examples=120, deadline=None)
    @given(call=mutated_calls())
    @example(call=(_coverage_with('"density":0.35', '"density":1e400'),
                   ["run", "--alg", "greedy", "--trials", "1"]))
    @example(call=(_coverage_with('"density":0.35', '"density":NaN'),
                   ["run", "--alg", "sieve", "--trials", "1"]))
    @example(call=(_coverage_with('"K":2', '"K":0'), ["run", "--alg", "greedy", "--trials", "1"]))
    def test_exits_cleanly(self, tmp_path_factory, call):
        data, argv = call
        inst_file = tmp_path_factory.getbasetemp() / "mutated.json"
        inst_file.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([*argv, "--instance", str(inst_file)])
            except SystemExit as exc:  # argparse refuses the flag value
                code = exc.code
            else:
                assert code != 2 or err.getvalue().count("\n") == 1
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            report = json.loads(out.getvalue(), parse_constant=_reject_constant)
            assert report.get("aggregates", report)["optimum"] > 0


@st.composite
def runner_calls(draw):
    """``gen`` flags for a small random instance of each kind, and the
    flags of one ``run`` on it under the weak policy."""
    kind = draw(st.sampled_from(["coverage", "hard-cardinality", "hard-matroid"]))
    if kind == "coverage":
        gen = {"--n": draw(st.integers(1, 8)), "--K": draw(st.integers(1, 3)),
               "--universe": draw(st.integers(1, 12))}
    elif kind == "hard-cardinality":
        K = draw(st.integers(2, 3))
        gen = {"--K": K, "--n": draw(st.integers(2 * K, 2 * K + 3)),
               "--h": draw(st.integers(K, K + 2))}
    else:
        gen = {"--K": draw(st.integers(2, 3)), "--m": draw(st.integers(1, 3))}
    gen.update({"--kind": kind, "--seed": draw(st.integers(0, 1000))})
    run = {"--alg": draw(st.sampled_from(["branching", "sieve", "greedy"])),
           "--epsilon": draw(st.sampled_from(["1", "2/5", "1/10"])),
           "--trials": draw(st.integers(1, 2)), "--policy": "weak"}
    return [[str(x) for item in flags.items() for x in item] for flags in (gen, run)]


class TestRunnerProperty:
    """``run`` on small random instances returns feasible solutions of the
    reported value, the weak policy refuses none of its queries, and the
    same file and flags give the same report bytes."""

    @settings(max_examples=60, deadline=None)
    @given(call=runner_calls())
    def test_feasible_compliant_and_reproducible(self, tmp_path_factory, call):
        gen, run = call
        base = tmp_path_factory.getbasetemp()
        inst_file = base / "runner.json"
        assert main(["gen", *gen, "--out", str(inst_file)]) == 0
        reports = []
        for name in ("first.json", "second.json"):
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(["run", "--instance", str(inst_file), *run,
                             "--out", str(base / name)])
            assume("optimum is 0" not in err.getvalue())
            assert code == 0, err.getvalue()
            reports.append((base / name).read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        instance = read_instance(str(inst_file))
        assert report["aggregates"]["total_violations"] == 0
        for trial in report["trials"]:
            assert trial["violations"] == 0
            assert instance.matroid.is_independent(trial["solution"])
            assert instance.fn.value(trial["solution"]) == trial["value"]
            assert 0 <= trial["value"] <= report["aggregates"]["optimum"]


def _readme_argvs() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("streamsub ")]


class TestNarrowParser:
    """``main`` builds the parser of the command it runs and no other. Every
    output must be the full parser's, byte for byte: help, usage errors and
    exit codes, at a narrow and a wide terminal. Each handler is replaced by
    one that records its command and namespace, since a handler sees the
    parse only through its namespace (and the README's lines would run for
    minutes)."""

    ARGVS = [
        ["--help"], ["-h"], [], ["bogus"], ["ru"], ["--foo", "run"],
        *([name, flag] for name in COMMANDS for flag in ("--help", "-h")),
        # an unrecognized trailing flag
        ["gen", "--kind", "coverage", "--K", "2", "--bogus"],
        ["verify", "--constraint", "matroid", "--K", "2", "--bogus"],
        ["run", "--instance", "i.json", "--alg", "branching", "--bogus"],
        ["audit", "--instance", "i.json", "--bogus"],
        ["tables", "--which", "3", "--bogus"],
        ["sweep", "--what", "ratio", "--bogus"],
        # an invalid --alg
        ["run", "--instance", "i.json", "--alg", "nope"],
        ["audit", "--instance", "i.json", "--alg", "nope"],
        ["sweep", "--what", "audit", "--alg", "nope"],
        # a missing required flag
        ["gen", "--K", "2"],
        ["verify", "--constraint", "matroid"],
        ["run", "--instance", "i.json"],
        ["audit"],
        ["tables"],
        ["sweep", "--K", "3"],
    ]
    README = _readme_argvs()

    @staticmethod
    def outcome(argv) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def recorder(seen: list, name: str):
        def handler(args) -> int:
            seen.append((name, {k: v for k, v in vars(args).items() if k != "func"}))
            return 0
        return handler

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", ARGVS + README, ids=lambda argv: " ".join(argv) or "no-args")
    def test_same_outputs_as_the_full_parser(self, argv, columns, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        seen = []
        for name, (help_line, add_flags, _) in list(COMMANDS.items()):
            monkeypatch.setitem(COMMANDS, name, (help_line, add_flags, self.recorder(seen, name)))
        shipped = self.outcome(list(argv))
        shipped_seen = seen[:]
        if argv in self.README:
            assert shipped == (0, "", "") and [name for name, _ in seen] == argv[:1]
        seen.clear()
        full_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: full_parser())
        assert self.outcome(list(argv)) == shipped
        assert seen == shipped_seen

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
        (["ru"], "error: argument command: invalid choice: 'ru'"),
    ])
    def test_errors_name_the_command_argument(self, argv, message):
        """Only the parser of one command lists the commands by metavar."""
        code, out, err = self.outcome(argv)
        assert (code, out) == (2, "") and message in err

    def test_reads_sys_argv_before_building(self, monkeypatch):
        argv = ["tables", "--which", "3", "--bogus"]
        monkeypatch.setattr(sys, "argv", ["streamsub", *argv])
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: built.append(argv) or build(argv))
        assert self.outcome(None)[0] == 2
        assert built == [argv]

    @staticmethod
    def subcommands(parser) -> list[str]:
        action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(action.choices)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_builds_only_the_named_command(self, name):
        assert self.subcommands(build_parser([name, "--help"])) == [name]
        assert self.subcommands(build_parser([name])) == [name]

    @pytest.mark.parametrize("argv", [["--help"], [], None, ["bogus", "run"]])
    def test_builds_every_command_otherwise(self, argv):
        assert self.subcommands(build_parser(argv)) == list(COMMANDS)
