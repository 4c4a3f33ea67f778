"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, checks the result line against
BENCHMARK.json, and checks that a directory without the scafd sources makes
the benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seed", "5",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    for workload in SPEC["workloads"]:
        names = {k.split(".", 1)[1] for k in result["metrics"]
                 if k.startswith(workload["name"] + ".")}
        assert names == {m["name"] for m in SPEC[kind]}
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]


def test_counts_repeat_across_seeds():
    counts = ("optimizer.iterations", "optimizer.cost_calls", "optimizer.cost_gflop",
              "data.expand_mb")
    seen = []
    for seed in ("1", "2"):
        proc = _run(ROOT, "--workload", "train52", "--smoke", "--seed", seed,
                    "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append([metrics[name]["value"] for name in counts])
    assert seen[0] == seen[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
