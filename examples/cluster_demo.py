"""Distributed-sweep demo: kill a worker mid-method and watch the resume.

Builds a small campaign grid over a shared store directory, launches one
worker subprocess (exactly what ``python -m repro.experiments worker``
runs), and SIGKILLs it the moment its first mid-method driver checkpoint
lands — no graceful shutdown of any kind.  A second, in-process worker
then joins the same store.  Opening the store vacuums the dead worker's
lease (its pid is provably gone on this host), so the survivor claims the
orphaned cell straight away and **resumes** it from the checkpoint
mid-method, then drains the untouched cells.  (A worker dying while the
others keep running is covered by lease expiry instead: once its TTL runs
out, the next scan steals the cell.)

The punchline is printed at the end: the evaluations of the cells the
survivor completed equal the grid's budget exactly (the takeover re-paid
nothing), and the sweep's records are bit-identical to an uninterrupted
serial run — the same invariants the ``cluster-smoke`` CI job enforces.

Run with:
    PYTHONPATH=src python examples/cluster_demo.py [--steps 200]
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import tempfile
import time
from contextlib import closing

from repro.cluster import CampaignWorker, ClusterLauncher, cell_states, lease_store_for
from repro.experiments import ExperimentSettings
from repro.store import open_run_store
from repro.store.campaign import Campaign, CampaignSpec


def _settings(steps: int) -> ExperimentSettings:
    settings = ExperimentSettings()
    settings.circuits = ["two_tia"]
    settings.methods = ["es", "human", "random"]
    settings.steps = steps
    settings.seeds = 1
    return settings


def _checkpoint_rows(store_dir: str) -> int:
    """Rows of the store's ``checkpoints`` table (0 before it exists)."""
    uri = f"file:{os.path.join(store_dir, 'runs.sqlite')}?mode=ro"
    try:
        with closing(sqlite3.connect(uri, uri=True)) as conn:
            return conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()[0]
    except sqlite3.OperationalError:  # no database or schema yet
        return 0


def _print_states(campaign: Campaign) -> None:
    lease_store = lease_store_for(campaign.store)
    now = lease_store.now()
    for state in cell_states(campaign, lease_store):
        print(f"  {state.describe(now)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--steps", type=int, default=200,
        help="budget per cell (bigger = wider mid-method kill window)",
    )
    args = parser.parse_args()

    settings = _settings(args.steps)
    spec = CampaignSpec.from_settings(settings)
    budget = args.steps + 1 + args.steps  # es + human (1 eval) + random

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = os.path.join(tmp, "store")

        # --- 1. a worker subprocess starts the sweep ------------------------
        launcher = ClusterLauncher(
            spec, store_dir, workers=1, settings=settings,
            ttl=1.0, checkpoint_every=1, poll_interval=0.05,
            worker_prefix="victim",
        )
        victim = launcher.spawn()[0]
        print(f"victim worker started (pid {victim.pid})")

        # --- 2. kill -9 at the first mid-method checkpoint ------------------
        deadline = time.time() + 120.0
        while time.time() < deadline:
            if victim.poll() is not None:
                raise SystemExit("victim finished before the kill; lower --steps?")
            if _checkpoint_rows(store_dir):
                break
            time.sleep(0.005)
        victim.kill()
        victim.wait()
        print(
            "victim SIGKILLed mid-method; reopening the store vacuums its "
            "lease, its checkpoint remains:"
        )

        with open_run_store("sqlite", store_dir) as store:
            campaign = Campaign(spec, store, settings=settings)
            _print_states(campaign)

            # --- 3. a second worker joins, resumes, and finishes ------------
            survivor = CampaignWorker(
                campaign, worker_id="survivor", ttl=1.0,
                checkpoint_every=1, poll_interval=0.05,
                progress=lambda assignment, outcome: print(
                    f"  survivor: {outcome} {assignment.request.method}"
                    + (" (stolen)" if assignment.stolen else "")
                    + (" (resumed mid-method)" if assignment.resumed else "")
                ),
            )
            print("survivor worker joining the sweep...")
            report = survivor.run()
            print(report.summary())
            _print_states(campaign)

            # --- 4. the zero-duplication audit ------------------------------
            # The victim completed no cell; the survivor's evaluations (a
            # resumed record carries its whole history) must be the budget.
            print(
                f"survivor evaluations={report.evaluations} (budget={budget}), "
                f"stored runs={len(store)} (cells={len(campaign.requests())})"
            )
            assert report.evaluations == budget
            assert len(store) == len(campaign.requests())
            print("zero duplicated simulations — the resume re-paid nothing")


if __name__ == "__main__":
    main()
