"""The benchmark's own test.

    python3 -m pytest -q bench/test_bench.py

* Two traced runs with the same seed give identical per-layer counts and
  identical deterministic metrics (failed_ratio, spread_log10,
  residual_log10), for every workload.
* A second seed runs clean through every check: correct, with every
  end-to-end metric present.
* Without matpot sources next to it, the benchmark exits non-zero and prints
  no result.

Each case starts fresh worker processes, so the whole file takes a few
minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DETERMINISTIC = ("failed_ratio", "spread_log10", "residual_log10", "round0_failures", "attempted", "failed")


def _traced(workload: str, seed: int) -> dict:
    return run.Runner().worker(workload, seed, 1, "traced")


def _counts(layers: dict) -> dict:
    """Every per-layer value that is not a time."""
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_counts(workload):
    first, second = _traced(workload, 11), _traced(workload, 11)
    assert _counts(first["layers"]) == _counts(second["layers"])
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    assert first["layers"]["matroids.oracle_calls"] + first["layers"]["arrangements.fiber_solves"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "12", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = {m["name"] for m in json.load(fh)["end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "equivalence", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
