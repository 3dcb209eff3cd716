"""Self-test of the benchmark harness on tiny inputs.

Run from the repository root:  python3 -m pytest perfbench/test_bench.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "recon": dataclasses.replace(workloads.WORKLOADS["recon"], target_h=0.3),
    "ntd-campaign": dataclasses.replace(workloads.WORKLOADS["ntd-campaign"], target_h=0.3, campaign_len=4),
    "forward-fine": dataclasses.replace(workloads.WORKLOADS["forward-fine"], mesh_h=0.15, campaign_len=3),
}


def measure(name, tmp_path, trace=0, seed=3):
    return run.measure(TINY[name], seed, 0.0, trace, tmp_path, import_s=0.0)


def units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_workloads_match_benchmark_file():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_named_with_units(name, tmp_path):
    result, env = measure(name, tmp_path)
    assert result["correct"] and result["failed"] == 0, env["failures"]
    assert result["attempted"] >= run.MIN_OPS
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units(BENCH["end_to_end"])
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert env["op_s_tail_samples"] == result["attempted"]
    assert env["nproc"] >= 1 and env["meshes"] and env["seed"] == 3


def test_untraced_run_lasts_its_seconds(tmp_path):
    start = time.perf_counter()
    result, env = run.measure(TINY["ntd-campaign"], 3, 3.0, 0, tmp_path, import_s=0.0)
    assert time.perf_counter() - start >= 3.0
    assert env["seconds"] == 3.0 and result["correct"]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_metrics_named_and_counts_repeat(name, tmp_path):
    first, env = measure(name, tmp_path / "a", trace=1)
    second, _ = measure(name, tmp_path / "b", trace=1)
    assert first["correct"] and second["correct"], env["failures"]
    assert env["absent"] == []
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == units(BENCH["per_layer"])
    counts = [k for k, v in got.items() if v in ("count", "B")]
    assert {k: first["metrics"][k]["value"] for k in counts} == {k: second["metrics"][k]["value"] for k in counts}
    assert (tmp_path / "a" / f"spans-{TINY[name].name}-seed3.json").is_file()


def _corrupt_recon(bundle):
    row = next(r for r in bundle.report["table"] if r["epsilon"] == 0.0)
    row["final_j"] = row["initial_j"]
    return bundle


def _corrupt_centroid(bundle):
    # a lost second bump: NaN in second position, which max() would skip
    if bundle.config.kind == "example3":
        row = next(r for r in bundle.report["table"] if r["epsilon"] == 0.0)
        row["bump_centroids"][1] = [math.nan, math.nan]
    return bundle


def _corrupt_ntd(result):
    result[0].report["violations"].append({"pair": 0, "kind": "loewner", "gap": -1.0})
    return result


def _corrupt_forward(original):
    def corrupted(op):
        out = original(op)
        path = op.tmp / "bundle" / "results.json"
        report = json.loads(path.read_text())
        next(iter(report["traces"].values()))["trace"][0][0] = math.nan
        path.write_text(json.dumps(report))
        return out

    return corrupted


# case: (workload, op class, corruption, label of the ops it breaks or None for all)
CORRUPT = {
    "recon": ("recon", "ReconOp", _corrupt_recon, None),
    "recon-centroid": ("recon", "ReconOp", _corrupt_centroid, "example3"),
    "ntd-campaign": ("ntd-campaign", "NtdOp", _corrupt_ntd, None),
}


@pytest.mark.parametrize("case", [*CORRUPT, "forward-fine"])
def test_corrupted_result_counts_as_failed(case, tmp_path, monkeypatch):
    if case == "forward-fine":
        name, label = case, None
        monkeypatch.setattr(workloads.ForwardOp, "run", _corrupt_forward(workloads.ForwardOp.run))
    else:
        name, cls_name, corrupt, label = CORRUPT[case]
        cls = getattr(workloads, cls_name)
        original = cls.run
        monkeypatch.setattr(cls, "run", lambda op: corrupt(original(op)))
    result, env = measure(name, tmp_path)
    assert not result["correct"]
    assert all("GateFailure" in f for f in env["failures"])
    if label is None:
        assert result["failed"] == result["attempted"]
        assert result["metrics"]["ok_frac"]["value"] == 0.0
    else:
        # recon campaigns alternate example2 and example3
        assert result["failed"] == result["attempted"] // 2
        assert all(f.startswith(f"{label}:") for f in env["failures"])


def test_raising_op_counts_as_failed(tmp_path, monkeypatch):
    def boom(op):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr(workloads.NtdOp, "run", boom)
    result, env = measure("ntd-campaign", tmp_path)
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert "solver exploded" in env["failures"][0]


def test_missing_entry_point_is_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["elastinv.inversion"], "kv_gradient")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer)
    assert absent == ["inversion.eval_ms"]
    assert "inversion.evaluations" in metrics


def test_tail_latency_rule():
    assert run.tail_latency([float(i) for i in range(1, 12)]) == (1.0, 100.0 / 11)
    assert run.tail_latency([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    with pytest.raises(ValueError):
        run.tail_latency([1.0] * 10)


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "recon", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
