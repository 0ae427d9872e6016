"""Self-test of the benchmark on tiny instances of every workload.

    python3 -m pytest perfbench/test_bench.py

Not part of the package's tier-1 suite (pytest's testpaths is ``tests``).
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, last = proc.stdout.splitlines()
    assert meta_line.startswith("meta ")
    return json.loads(last), json.loads(meta_line[5:])


def units(metrics: list) -> dict:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, meta = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and meta["failed_frac"] == 0
    assert meta["step_samples"] >= 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times(workload):
    result, meta = result_of(bench(workload, 1))
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units(SPEC["per_layer"])
    with gzip.open(ROOT / meta["trace_file"], "rt") as fh:
        spans = [json.loads(line) for line in fh]
    wall: dict = {}
    self_ns: dict = {}
    for sp in spans:
        if sp["trial"] == "setup":
            continue
        own = [sp["self_ns"]] + [c["self_ns"] for c in sp.get("counters", {}).values()]
        assert min(own) >= 0, sp
        self_ns[sp["trial"]] = self_ns.get(sp["trial"], 0) + sum(own)
        if sp["name"] == "trial":
            wall[sp["trial"]] = sp["end_ns"] - sp["start_ns"]
    assert wall and set(self_ns) == set(wall)
    assert all(self_ns[t] <= wall[t] for t in wall)
    shares = [m["value"] for k, m in result["metrics"].items() if k.startswith("share.")
              and k != "share.brute_force_incl"]
    assert min(shares) >= 0 and sum(shares) <= 1 + 1e-9


def test_missing_hook_leaves_metrics_out(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import spans
    monkeypatch.setitem(spans.HOT, "matroids.indep",
                        [("streamsub.matroids", "PartitionMatroid.gone")])
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.call("trial", lambda: None, trial=0)
    metrics, _ = spans.layer_metrics(tracer, [0], [1])
    assert tracer.patcher.missing == ["streamsub.matroids.PartitionMatroid.gone"]
    assert "matroids.indep_calls" not in metrics and "oracles.gate_self_s" not in metrics
    assert "oracles.gate_calls" in metrics


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
