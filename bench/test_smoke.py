"""The benchmark's own test: every workload at smoke size, in both modes,
prints the result line the benchmark contract asks for, with every metric
of BENCHMARK.json under its unit; and the benchmark refuses to run where
the program's sources are missing."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SUMMARY = {"predict-dense": "predict_points_per_s", "predict-als": "predict_points_per_s",
           "train": "train_rows_per_s", "preprocess": "preprocess_points_per_s"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(workload, trace, key):
    r = bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--smoke")
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace == 0:
        assert SUMMARY[workload] in r.stdout and "failed_ratio" in r.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    r = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert r.returncode != 0
    assert r.stdout.strip() == ""
