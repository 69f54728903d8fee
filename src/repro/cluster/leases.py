"""Wall-clock leases over a shared run store: the cluster's work queue.

A lease is an exclusive, *expiring* claim on one campaign cell, keyed by the
cell's canonical :meth:`~repro.store.RunKey.key_id`.  Workers claim a cell
before executing it, renew the lease from a heartbeat thread while the
method runs, and release it when the cell's record lands in the store.  A
worker that dies stops renewing; once the lease's wall-clock expiry passes,
any other worker may claim the cell over the stale lease (work-stealing) and
resume it from the latest driver checkpoint.  On the dead worker's own host
the next store open drops the lease at once
(:meth:`~repro.store.SqliteStore.vacuum_leases`).

One :class:`LeaseStore` backend exists per run-store backend, so a store
directory doubles as a work queue with no extra service:

* :class:`MemoryLeaseStore` — dict + mutex, attached to the
  :class:`~repro.store.MemoryStore` instance (in-process workers only).
* :class:`SqliteLeaseStore` — a ``leases`` table inside the store's WAL
  ``runs.sqlite``; claims are a single conditional upsert, so exclusivity is
  the database's atomicity.

Both share one contract, enforced by the conformance suite in
``tests/test_cluster.py``: at most one live owner per key, claims succeed
over expired leases and are re-entrant for the current owner, ``renew``
extends only the owner's lease, and ``release`` is idempotent.
"""

from __future__ import annotations

import abc
import os
import socket
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.store.base import RunKey
from repro.store.memory import MemoryStore
from repro.store.sqlite import BUSY_TIMEOUT_MS, DB_NAME, LEASE_SCHEMA, SqliteStore

#: Default lease time-to-live in seconds.  A worker missing this many
#: seconds of heartbeats is presumed dead and its cell becomes stealable.
DEFAULT_TTL = 30.0


class LeaseLostError(RuntimeError):
    """Raised inside a worker when another worker has stolen its lease.

    The catching worker must abandon the run *without* writing a checkpoint
    or releasing the lease — both now belong to the thief.
    """


@dataclass(frozen=True)
class Lease:
    """One exclusive, expiring claim on a campaign cell.

    Attributes:
        key_id: :meth:`RunKey.key_id` of the claimed cell.
        owner: Claimant identity (see :func:`make_owner_id`).
        acquired_at: Wall-clock epoch seconds of the (last) acquisition.
        expires_at: Epoch seconds after which the lease is stealable.
        pid: Process id of the claimant (dead-pid vacuuming).
        host: Hostname of the claimant (pids only compare on one host).
    """

    key_id: str
    owner: str
    acquired_at: float
    expires_at: float
    pid: int
    host: str

    def expired(self, now: float) -> bool:
        """Whether the lease is stale (stealable) at wall-clock ``now``."""
        return now >= self.expires_at

    def age(self, now: float) -> float:
        """Seconds since the lease was (re-)acquired."""
        return max(0.0, now - self.acquired_at)


def make_owner_id(name: Optional[str] = None) -> str:
    """Globally unique claimant identity: ``host:pid:name``.

    The host and pid let ``ls --status`` readers (and the dead-pid vacuum)
    tell which process holds a cell; the name (a worker label, or a random
    suffix) keeps two workers in one process distinct.
    """
    return f"{socket.gethostname()}:{os.getpid()}:{name or uuid.uuid4().hex[:8]}"


class LeaseStore(abc.ABC):
    """Claim/renew/release coordination over one run store's cells.

    All timestamps come from the injectable ``clock`` (wall-clock epoch
    seconds), so expiry semantics are testable without sleeping.
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self._clock = clock

    def now(self) -> float:
        """The store's current wall-clock time."""
        return self._clock()

    @abc.abstractmethod
    def claim(self, key: RunKey, owner: str, ttl: float) -> Optional[Lease]:
        """Atomically claim ``key`` for ``owner`` for ``ttl`` seconds.

        Succeeds when the cell is unclaimed, already owned by ``owner``
        (re-entrant), or its current lease has expired (work-stealing).
        Returns the new lease, or ``None`` when another owner holds a live
        lease (or won a concurrent race).
        """

    @abc.abstractmethod
    def renew(self, key: RunKey, owner: str, ttl: float) -> bool:
        """Extend ``owner``'s lease by ``ttl`` seconds from now.

        Returns ``False`` when the lease is gone or owned by someone else —
        the heartbeat's signal that the run was stolen.
        """

    @abc.abstractmethod
    def release(self, key: RunKey, owner: str) -> bool:
        """Drop ``owner``'s lease on ``key``.

        Idempotent: releasing an already-released key returns ``True``;
        only a lease currently held by a *different* owner returns ``False``
        (and is left untouched).
        """

    @abc.abstractmethod
    def get(self, key: RunKey) -> Optional[Lease]:
        """The current lease on ``key`` (live or expired), or ``None``."""

    @abc.abstractmethod
    def leases(self) -> List[Lease]:
        """Every lease currently on file (live and expired)."""

    @abc.abstractmethod
    def reclaim_expired(self) -> List[Lease]:
        """Delete every expired lease, returning what was reclaimed."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every lease (fresh-queue reset; completed records persist)."""

    def close(self) -> None:
        """Release any resources; idempotent."""

    def __enter__(self) -> "LeaseStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _may_claim(existing: Optional[Lease], owner: str, now: float) -> bool:
    return existing is None or existing.owner == owner or existing.expired(now)


def _new_lease(key_id: str, owner: str, ttl: float, now: float) -> Lease:
    """A fresh lease for this process, acquired at ``now``."""
    return Lease(
        key_id=key_id,
        owner=owner,
        acquired_at=now,
        expires_at=now + float(ttl),
        pid=os.getpid(),
        host=socket.gethostname(),
    )


class MemoryLeaseStore(LeaseStore):
    """Dict + mutex lease store for in-process (threaded) workers."""

    def __init__(self, clock: Callable[[], float] = time.time):
        super().__init__(clock)
        self._rows: Dict[str, Lease] = {}
        self._mutex = threading.Lock()

    def claim(self, key: RunKey, owner: str, ttl: float) -> Optional[Lease]:
        key_id = key.key_id()
        with self._mutex:
            now = self._clock()
            if not _may_claim(self._rows.get(key_id), owner, now):
                return None
            lease = _new_lease(key_id, owner, ttl, now)
            self._rows[key_id] = lease
            return lease

    def renew(self, key: RunKey, owner: str, ttl: float) -> bool:
        key_id = key.key_id()
        with self._mutex:
            existing = self._rows.get(key_id)
            if existing is None or existing.owner != owner:
                return False
            now = self._clock()
            self._rows[key_id] = Lease(
                key_id=key_id,
                owner=owner,
                acquired_at=existing.acquired_at,
                expires_at=now + float(ttl),
                pid=existing.pid,
                host=existing.host,
            )
            return True

    def release(self, key: RunKey, owner: str) -> bool:
        key_id = key.key_id()
        with self._mutex:
            existing = self._rows.get(key_id)
            if existing is None:
                return True
            if existing.owner != owner:
                return False
            del self._rows[key_id]
            return True

    def get(self, key: RunKey) -> Optional[Lease]:
        return self._rows.get(key.key_id())

    def leases(self) -> List[Lease]:
        return list(self._rows.values())

    def reclaim_expired(self) -> List[Lease]:
        with self._mutex:
            now = self._clock()
            expired = [l for l in self._rows.values() if l.expired(now)]
            for lease in expired:
                del self._rows[lease.key_id]
            return expired

    def clear(self) -> None:
        with self._mutex:
            self._rows.clear()


class SqliteLeaseStore(LeaseStore):
    """Lease table inside the run store's WAL ``runs.sqlite``.

    A claim is one conditional upsert — the insert wins outright, the
    conflict branch only fires when the existing row is expired or already
    ours — so exclusivity under concurrent claimants is the database's own
    atomicity, across the threads and processes sharing the file.
    The single connection is shared between the worker's main loop and its
    heartbeat thread, hence ``check_same_thread=False`` plus a mutex.
    """

    def __init__(self, directory, clock: Callable[[], float] = time.time):
        super().__init__(clock)
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, DB_NAME)
        self._conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_MS / 1000.0, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._conn.executescript(LEASE_SCHEMA)
        self._conn.commit()
        self._mutex = threading.Lock()
        self._closed = False

    def claim(self, key: RunKey, owner: str, ttl: float) -> Optional[Lease]:
        with self._mutex:
            lease = _new_lease(key.key_id(), owner, ttl, self._clock())
            cursor = self._conn.execute(
                "INSERT INTO leases (key_id, owner, acquired_at, expires_at, pid, host) "
                "VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(key_id) DO UPDATE SET "
                "owner=excluded.owner, acquired_at=excluded.acquired_at, "
                "expires_at=excluded.expires_at, pid=excluded.pid, host=excluded.host "
                "WHERE leases.expires_at <= excluded.acquired_at "
                "OR leases.owner = excluded.owner",
                (
                    lease.key_id,
                    lease.owner,
                    lease.acquired_at,
                    lease.expires_at,
                    lease.pid,
                    lease.host,
                ),
            )
            self._conn.commit()
            return lease if cursor.rowcount else None

    def renew(self, key: RunKey, owner: str, ttl: float) -> bool:
        with self._mutex:
            cursor = self._conn.execute(
                "UPDATE leases SET expires_at = ? WHERE key_id = ? AND owner = ?",
                (self._clock() + float(ttl), key.key_id(), owner),
            )
            self._conn.commit()
            return bool(cursor.rowcount)

    def release(self, key: RunKey, owner: str) -> bool:
        with self._mutex:
            cursor = self._conn.execute(
                "DELETE FROM leases WHERE key_id = ? AND owner = ?",
                (key.key_id(), owner),
            )
            self._conn.commit()
            if cursor.rowcount:
                return True
            row = self._conn.execute(
                "SELECT 1 FROM leases WHERE key_id = ?", (key.key_id(),)
            ).fetchone()
            return row is None

    _COLUMNS = "key_id, owner, acquired_at, expires_at, pid, host"

    def _row_lease(self, row) -> Lease:
        return Lease(
            key_id=row[0],
            owner=row[1],
            acquired_at=float(row[2]),
            expires_at=float(row[3]),
            pid=int(row[4]),
            host=row[5],
        )

    def get(self, key: RunKey) -> Optional[Lease]:
        with self._mutex:
            row = self._conn.execute(
                f"SELECT {self._COLUMNS} FROM leases WHERE key_id = ?",
                (key.key_id(),),
            ).fetchone()
        return self._row_lease(row) if row is not None else None

    def leases(self) -> List[Lease]:
        with self._mutex:
            rows = self._conn.execute(
                f"SELECT {self._COLUMNS} FROM leases"
            ).fetchall()
        return [self._row_lease(row) for row in rows]

    def reclaim_expired(self) -> List[Lease]:
        with self._mutex:
            now = self._clock()
            rows = self._conn.execute(
                f"SELECT {self._COLUMNS} FROM leases WHERE expires_at <= ?", (now,)
            ).fetchall()
            self._conn.execute("DELETE FROM leases WHERE expires_at <= ?", (now,))
            self._conn.commit()
        return [self._row_lease(row) for row in rows]

    def clear(self) -> None:
        with self._mutex:
            self._conn.execute("DELETE FROM leases")
            self._conn.commit()

    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True


#: Serializes the first lease-store lookup on a memory store, so workers
#: starting at once on two threads share one queue.
_MEMORY_LEASES_LOCK = threading.Lock()


def lease_store_for(store, clock: Callable[[], float] = time.time) -> LeaseStore:
    """The lease backend matching a run store's own backend.

    Memory stores get a :class:`MemoryLeaseStore` cached *on the store
    instance* (so every in-process worker sharing the store shares the
    queue); a :class:`~repro.store.SqliteStore` gets a lease table in the
    same database, visible to every process holding the directory.
    """
    if isinstance(store, MemoryStore):
        with _MEMORY_LEASES_LOCK:
            cached = getattr(store, "_cluster_lease_store", None)
            if cached is None:
                cached = MemoryLeaseStore(clock)
                store._cluster_lease_store = cached
        return cached
    if isinstance(store, SqliteStore):
        return SqliteLeaseStore(store.directory, clock)
    raise TypeError(
        f"no lease backend for {type(store).__name__}; expected a "
        "MemoryStore or SqliteStore"
    )
