"""The benchmark's own tests.

Run from the checkout root::

    python3 -m pytest e2ebench/tests -q

Each workload runs once untraced and once traced at smoke size
(``E2EBENCH_SMALL=1``); the metric names are checked against
``BENCHMARK.json``; tracing must leave no wrapper behind.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _run(args, cwd=ROOT, timeout=170):
    env = dict(os.environ, E2EBENCH_SMALL="1")
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.E2E_METRICS
    assert per_layer == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    for name, unit in list(end_to_end.items()) + list(per_layer.items()):
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    names = list(end_to_end) + list(per_layer)
    assert len(names) == len(set(names))


def test_uninstall_restores_every_original():
    targets = spans.targets()
    originals = [vars(owner)[name] for owner, name, _, _ in targets]
    patches = spans.install(spans.Tracer())
    try:
        assert len(spans.installed()) == len(targets)
    finally:
        spans.uninstall(patches)
    assert spans.installed() == []
    for (owner, name, _, _), original in zip(targets, originals):
        assert vars(owner)[name] is original


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.workloads.WORKLOADS))
def test_workload_at_smoke_size(workload, trace):
    completed = _run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], completed.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = spans.LAYER_METRICS if trace == "1" else run.E2E_METRICS
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] > 0
    for name in expected:
        assert re.search(rf"^{re.escape(name)}\s", completed.stdout, re.MULTILINE), name
    assert re.search(r"^fail_frac\s", completed.stdout, re.MULTILINE)
    assert "provenance: " in completed.stdout


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(
        ["--workload", "rl_two_tia", "--seed", "1", "--seconds", "1"], cwd=tmp_path, timeout=60
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
