import json
import pathlib
import shlex

import pytest

from streamsub.cli import build_parser, main

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
    def test_hard_matroid_branching_report_bytes(self, tmp_path):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "3", "--m", "8")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "class-blocks",
                     "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_matroid_K3.json").read_bytes()

    def test_hard_cardinality_branching_report_bytes(self, tmp_path):
        inst_file = _gen(tmp_path, "--kind", "hard-cardinality", "--K", "4", "--n", "16",
                         "--h", "4")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "purple-last",
                     "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_cardinality_K4.json").read_bytes()

    def test_hard_cardinality_element_store_report_bytes(self, tmp_path):
        # the element-store policy reads the tree's stored set every step
        inst_file = _gen(tmp_path, "--kind", "hard-cardinality", "--K", "4", "--n", "16",
                         "--h", "4")
        out = tmp_path / "report.json"
        assert main(["run", "--instance", str(inst_file), "--alg", "branching",
                     "--epsilon", "1/10", "--distribution", "purple-last",
                     "--policy", "element-store", "--trials", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "run_hard_cardinality_K4_store.json").read_bytes()


class TestGoldenAuditReport:
    def test_hard_matroid_sieve_audit_bytes(self, tmp_path):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "3", "--m", "40")
        out = tmp_path / "audit.json"
        assert main(["audit", "--instance", str(inst_file), "--alg", "sieve",
                     "--trials", "20", "--seed", "3", "--budget", "20",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "audit_hard_matroid_K3.json").read_bytes()


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
    ])
    def test_bad_instance_value(self, tmp_path, capsys, kind, flags, old, new, message):
        inst_file = _gen(tmp_path, "--kind", kind, *flags)
        text = inst_file.read_text()
        assert old in text
        inst_file.write_text(text.replace(old, new))
        self.check(["run", "--instance", str(inst_file), "--alg", "greedy", "--trials", "1"],
                   capsys, message)

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
    @pytest.mark.parametrize("epsilon", ["1e-300", "1/5000"])
    def test_epsilon_with_too_many_guesses(self, tmp_path, capsys, argv, epsilon):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "3", "--m", "3")
        self.check([*argv, "--instance", str(inst_file), "--epsilon", epsilon], capsys,
                   f"eps={epsilon} puts more than")

    @pytest.mark.parametrize("epsilon", ["1e-5000", "0." + "0" * 5000 + "1"],
                             ids=["1e-5000", "5001-decimals"])
    def test_epsilon_with_too_many_digits(self, tmp_path, capsys, epsilon):
        """A valid number whose numerator or denominator passes Python's
        int-to-str digit limit is named as such, not as "not a number"."""
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        self.check(["run", "--alg", "greedy", "--trials", "1", "--instance", str(inst_file),
                    "--epsilon", epsilon], capsys, "--epsilon has more than")

    def test_audit_negative_budget(self, tmp_path, capsys):
        inst_file = _gen(tmp_path, "--kind", "hard-matroid", "--K", "2", "--m", "3")
        self.check(["audit", "--instance", str(inst_file), "--trials", "1", "--budget", "-1"],
                   capsys, "budget must be at least 0, got -1")

    def test_sweep_negative_budget(self, capsys):
        self.check(["sweep", "--what", "audit", "--K", "2", "--m-list", "3", "--trials", "1",
                    "--budget", "-1"], capsys, "budget must be at least 0, got -1")
