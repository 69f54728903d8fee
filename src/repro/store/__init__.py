"""Persistent run store + campaign orchestration.

This package makes experiment results durable across processes and turns
whole table/figure campaigns into resumable sweeps:

* :class:`RunKey` — canonical identity of one run (what the in-process run
  cache used to key on), JSON round-trippable.
* :class:`RunStore` — the storage protocol: latest-wins ``put``/``get`` plus
  a coordinate query API.
* :class:`MemoryStore` / :class:`SqliteStore` — the in-process reference
  and the durable, indexed database in a store directory.
* :class:`Campaign` / :class:`CampaignSpec` — declarative grid sweeps that
  skip cells already in the store (kill-and-resume safe).
* :func:`open_run_store` — backend factory shared by the CLI and settings.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.store.base import RunKey, RunStore, StoredRun, make_run_key
from repro.store.campaign import Campaign, CampaignReport, CampaignSpec, RunRequest
from repro.store.memory import MemoryStore
from repro.store.sqlite import SqliteStore

#: Recognised store backends.
STORE_BACKENDS = ("memory", "sqlite")


def open_run_store(
    backend: str = "memory", directory: Optional[str] = None
) -> RunStore:
    """Open (creating if necessary) a run store.

    Args:
        backend: ``"memory"`` or ``"sqlite"``.
        directory: Store directory; required by ``"sqlite"``.
    """
    if backend not in STORE_BACKENDS:
        raise ValueError(
            f"unknown store backend {backend!r}; expected one of {STORE_BACKENDS}"
        )
    if backend == "memory":
        return MemoryStore()
    if directory is None:
        raise ValueError(f"store backend {backend!r} requires a directory")
    return SqliteStore(os.path.expanduser(str(directory)))


__all__ = [
    "RunKey",
    "RunStore",
    "StoredRun",
    "make_run_key",
    "MemoryStore",
    "SqliteStore",
    "Campaign",
    "CampaignSpec",
    "CampaignReport",
    "RunRequest",
    "open_run_store",
    "STORE_BACKENDS",
]
