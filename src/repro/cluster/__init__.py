"""Distributed campaign execution over a shared run store.

``repro.cluster`` turns a store directory (or an in-process
:class:`~repro.store.MemoryStore`) into a work queue for sweep cells:
workers claim cells under expiring, heartbeat-renewed leases
(:mod:`~repro.cluster.leases`), execute them through the checkpointable
driver (:mod:`~repro.cluster.worker`), and take over cells of dead workers
mid-method (:mod:`~repro.cluster.scheduler`) with bit-identical resume.
:class:`~repro.cluster.launcher.ClusterLauncher` spawns N local worker
processes — the same CLI command any other process on the host runs to
join a sweep.
"""

from repro.cluster.leases import (
    DEFAULT_TTL,
    Lease,
    LeaseLostError,
    LeaseStore,
    MemoryLeaseStore,
    SqliteLeaseStore,
    lease_store_for,
    make_owner_id,
)
from repro.cluster.launcher import ClusterLauncher, ClusterReport
from repro.cluster.scheduler import (
    Assignment,
    CELL_STATES,
    CellState,
    WorkScheduler,
    cell_states,
)
from repro.cluster.worker import CampaignWorker, LeaseHeartbeat, WorkerReport

__all__ = [
    "Assignment",
    "CELL_STATES",
    "CampaignWorker",
    "CellState",
    "ClusterLauncher",
    "ClusterReport",
    "DEFAULT_TTL",
    "Lease",
    "LeaseHeartbeat",
    "LeaseLostError",
    "LeaseStore",
    "MemoryLeaseStore",
    "SqliteLeaseStore",
    "WorkScheduler",
    "WorkerReport",
    "cell_states",
    "lease_store_for",
    "make_owner_id",
]
