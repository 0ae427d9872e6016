import json
import pathlib

import pytest

from streamsub.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden"


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
        rc = main(["verify", "--constraint", "matroid", "--K", "3", "--m", "200",
                   "--exhaustive"])
        assert rc == 1


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
                   "--epsilon", "0.1", "--trials", "3", "--seed", "1",
                   "--out", str(report_file)])
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
                         "--epsilon", "1/5", "--trials", "4", "--seed", "2",
                         "--out", str(out)]) == 0
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
                     "--trials", "2", "--seed", "1", "--format", "csv"]) == 0
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
    """Subcommands accept only the common flags they act on."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "coverage", "--K", "2", "--format", "csv"],
        ["verify", "--constraint", "matroid", "--K", "2", "--out", "v.txt"],
        ["verify", "--constraint", "matroid", "--K", "2", "--format", "csv"],
        ["tables", "--which", "3", "--seed", "1"],
        ["tables", "--which", "3", "--format", "csv"],
        ["sweep", "--what", "ratio", "--k-max", "3", "--format", "csv"],
    ])
    def test_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""
