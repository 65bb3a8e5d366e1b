"""Smoke test of the benchmark itself, at joint dimension <= 64.

    python3 -m pytest bench/test_smoke.py

Runs each workload's code path briefly, untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted and no op failed.
It asserts nothing about the program's own counts: those are meant to
change.
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import workloads

CONTRACT = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

harness.import_package()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_emits_every_metric(name):
    seed = workloads.DEFAULT_SEED
    plain = harness.run_workload(name, seed, 0.0, trace=False, scale=workloads.SMOKE)
    traced = harness.run_workload(name, seed, 0.0, trace=True, scale=workloads.SMOKE)
    for record in (plain, traced):
        assert record["failed"] == 0, record["failures"]
        assert record["extra"]["error_rate"] == 0
        line = json.loads(harness.result_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == wanted
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_workloads_match_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.NAMES)


def test_fails_without_program_source(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small-mix", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
