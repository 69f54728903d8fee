"""Throughput benchmark: serial campaign sweep vs a 2-worker cluster sweep.

Runs the same small method grid twice against fresh stores — once with
``Campaign.run()`` (one in-process ``CampaignWorker``) and once through
``Campaign.run(workers=2)`` (two ``repro.experiments worker`` subprocesses
coordinating over leases) — and records both rates as the
``campaign_serial`` / ``campaign_workers`` backends in
``BENCH_evaluator.json``.  ``bench_report.py`` derives
``campaign_parallel_speedup`` from the pair.

The correctness bar is unconditional: the cluster sweep must record
**zero duplicated simulations** — the ``evaluations=`` totals the workers
print in their summary lines (read through ``capfd``) sum to exactly the
grid budget — and this is asserted here *and* gated in CI by
``check_bench_gate.py``.  The >= 1.5x parallel speedup is only gated where
two processes measurably run in parallel (``machine.parallelism``, see
``bench_report.measured_parallelism``); elsewhere the two workers
time-slice and the number is recorded for the trajectory, not enforced.

Raise ``REPRO_BENCH_CLUSTER_STEPS`` / ``REPRO_BENCH_CLUSTER_SEEDS`` to
stress larger grids.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from repro.experiments import ExperimentSettings
from repro.store import open_run_store
from repro.store.campaign import Campaign, CampaignSpec

from bench_report import record_backend
from conftest import _bench_int

#: Timing-sensitive: runs in the dedicated CI throughput job (by filename),
#: not in every tier-1 matrix cell, so a loaded runner cannot flake tier-1.
pytestmark = pytest.mark.slow

CLUSTER_STEPS = _bench_int("REPRO_BENCH_CLUSTER_STEPS", 40)
CLUSTER_SEEDS = _bench_int("REPRO_BENCH_CLUSTER_SEEDS", 2)
WORKERS = 2


def _settings() -> ExperimentSettings:
    settings = ExperimentSettings()
    settings.circuits = ["two_tia"]
    settings.methods = ["es", "random", "human"]
    settings.steps = CLUSTER_STEPS
    settings.seeds = CLUSTER_SEEDS
    return settings


def _grid_budget(campaign: Campaign) -> int:
    """Exact number of simulator evaluations the grid costs to fill."""
    return sum(
        1 if request.method == "human" else request.steps
        for request in campaign.requests()
    )


def _recorded_evaluations(campaign: Campaign) -> int:
    total = 0
    for request in campaign.requests():
        record = campaign.store.get(campaign.key_for(request))
        assert record is not None, f"missing cell {request}"
        total += sum(record.step_evaluations)
    return total


def _worker_evaluations(output: str) -> int:
    """Sum of ``evaluations=`` over the workers' ``done:`` summary lines."""
    return sum(
        int(match)
        for match in re.findall(r"worker \S+ done: .*evaluations=(\d+)", output)
    )


def test_campaign_cluster_throughput(tmp_path, capfd):
    settings = _settings()
    spec = CampaignSpec.from_settings(settings)

    # Serial reference sweep.
    serial_dir = tmp_path / "serial-store"
    with open_run_store("sqlite", serial_dir) as store:
        campaign = Campaign(spec, store, settings=settings)
        budget = _grid_budget(campaign)
        cells = len(campaign.requests())
        start = time.perf_counter()
        report = campaign.run()
        serial_elapsed = time.perf_counter() - start
        assert report.executed == cells
        assert _recorded_evaluations(campaign) == budget
    serial_rate = budget / max(serial_elapsed, 1e-9)

    # Distributed sweep: two worker subprocesses over a shared store.
    cluster_dir = tmp_path / "cluster-store"
    capfd.readouterr()
    with open_run_store("sqlite", cluster_dir) as store:
        campaign = Campaign(spec, store, settings=settings)
        start = time.perf_counter()
        report = campaign.run(workers=WORKERS, checkpoint_every=1)
        cluster_elapsed = time.perf_counter() - start
        assert not report.interrupted
        assert report.executed + report.skipped == cells
        assert _recorded_evaluations(campaign) == budget

        # Zero-duplication audit: the evaluations of the cells each worker
        # completed sum to the grid budget exactly (a resumed cell's record
        # carries its full history, so a cell run twice shows up as an
        # excess here).
        duplicated = _worker_evaluations(capfd.readouterr().out) - budget
    cluster_rate = budget / max(cluster_elapsed, 1e-9)

    record_backend(
        "campaign_serial",
        serial_rate,
        batch_size=1,
        extra={"cells": cells, "evaluations": budget},
    )
    path = record_backend(
        "campaign_workers",
        cluster_rate,
        batch_size=1,
        extra={
            "workers": WORKERS,
            "cells": cells,
            "evaluations": budget,
            "duplicated_simulations": duplicated,
        },
    )
    speedup = cluster_rate / serial_rate
    with capfd.disabled():
        print(
            f"\n[campaign-cluster] cells={cells} evaluations={budget} "
            f"serial={serial_rate:.1f}/s workers{WORKERS}={cluster_rate:.1f}/s "
            f"speedup={speedup:.2f}x duplicated={duplicated}"
        )
        print(json.dumps(json.loads(path.read_text()).get("backends", {}).get(
            "campaign_workers", {}
        )))

    # The correctness bar is unconditional; the speedup bar lives in
    # check_bench_gate.py and only fires on measurably parallel machines.
    assert duplicated == 0
