"""The durable :class:`RunStore`: one SQLite database per store directory.

Each store directory holds one ``runs.sqlite`` database: the runs, with a
composite index over (method, circuit, technology, seed) so membership
tests and filtered queries stay O(log n) regardless of campaign size, plus
the mid-run checkpoints, the quarantine markers, the service's run
``queue`` and the cluster's ``leases`` table.  Writes are committed per
``put`` — a killed process loses at most the run in flight.

The store is built for *concurrent* access: the optimization service's run
workers, cluster workers, the CLI's ``ls``/``export`` and external readers
may all hold handles on one database.  Every connection therefore enables
WAL journal mode (readers never block the writer and vice versa) and a
generous ``busy_timeout``, so simultaneous commits queue instead of failing
with ``database is locked``.  WAL coordinates through shared memory, so
every process sharing a store must run on the same host.
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.store.base import RunKey, RunStore, StoredRun

if TYPE_CHECKING:  # runtime import is lazy: the runner imports repro.store
    from repro.experiments.records import RunRecord

#: File name of the database inside the store directory.
DB_NAME = "runs.sqlite"

#: Milliseconds a connection waits on a locked database before erroring.
BUSY_TIMEOUT_MS = 10_000

#: Run log of the retired JSONL store; directories holding one are refused.
JSONL_LOG_NAME = "runs.jsonl"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    key_id      TEXT PRIMARY KEY,
    method      TEXT NOT NULL,
    circuit     TEXT NOT NULL,
    technology  TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    steps       INTEGER NOT NULL,
    key_json    TEXT NOT NULL,
    record_json TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_coords
    ON runs (method, circuit, technology, seed);
CREATE TABLE IF NOT EXISTS checkpoints (
    key_id  TEXT PRIMARY KEY,
    state   BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key_id     TEXT PRIMARY KEY,
    info_json  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS queue (
    key_id        TEXT PRIMARY KEY,
    key_json      TEXT NOT NULL,
    payload_json  TEXT NOT NULL
);
"""

#: Lease table used by ``repro.cluster`` to coordinate distributed sweeps
#: over one database.  Kept as its own script so the lease store (which
#: opens an independent connection) can assert it without the runs schema.
LEASE_SCHEMA = """
CREATE TABLE IF NOT EXISTS leases (
    key_id      TEXT PRIMARY KEY,
    owner       TEXT NOT NULL,
    acquired_at REAL NOT NULL,
    expires_at  REAL NOT NULL,
    pid         INTEGER NOT NULL,
    host        TEXT NOT NULL
);
"""


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on *this* host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # The process exists but belongs to another user.
        return True
    except OSError:
        return False
    return True


def reject_jsonl_directory(directory) -> None:
    """Refuse a store directory written by the retired JSONL store.

    Such a directory has a ``runs.jsonl`` and no ``runs.sqlite``; opening it
    would silently start an empty database beside the log and re-execute
    every cell of the sweep.
    """
    directory = os.path.expanduser(str(directory))
    log = os.path.join(directory, JSONL_LOG_NAME)
    if os.path.exists(log) and not os.path.exists(os.path.join(directory, DB_NAME)):
        raise ValueError(
            f"{log} was written by the retired JSONL run store and this "
            f"directory has no {DB_NAME}; re-run the sweep into a new store "
            "directory (runs are deterministic, so the records come out "
            "identical) or read this one with an older checkout"
        )


class SqliteStore(RunStore):
    """Directory-backed SQLite store (indexed, latest-wins upserts)."""

    def __init__(self, directory):
        self.directory = str(directory)
        reject_jsonl_directory(self.directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, DB_NAME)
        self._conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_MS / 1000.0)
        # WAL survives in the database file once set, but PRAGMAs are cheap
        # and re-asserting them makes every handle safe regardless of which
        # process created the file.  synchronous=NORMAL is the recommended
        # WAL pairing: commits lose power-failure durability of the last
        # transactions but never corrupt the database — the same "lose at
        # most the run in flight" contract documented above.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._conn.executescript(_SCHEMA)
        self._conn.executescript(LEASE_SCHEMA)
        self._conn.commit()
        self._closed = False
        # A launcher crash (kill -9) leaves its workers' leases on file;
        # expiry would eventually free them, but a fresh local process can
        # prove the owners dead right now and unblock those cells early.
        self.vacuum_leases()

    def put(self, key: RunKey, record: RunRecord) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO runs "
            "(key_id, method, circuit, technology, seed, steps, key_json, record_json) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key.key_id(),
                key.method,
                key.circuit,
                key.technology,
                int(key.seed),
                int(key.steps),
                key.canonical(),
                json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")),
            ),
        )
        self._conn.commit()

    def get(self, key: RunKey) -> Optional["RunRecord"]:
        from repro.experiments.records import RunRecord

        cursor = self._conn.execute(
            "SELECT record_json FROM runs WHERE key_id = ?", (key.key_id(),)
        )
        row = cursor.fetchone()
        if row is None:
            return None
        return RunRecord.from_dict(json.loads(row[0]))

    def __contains__(self, key: RunKey) -> bool:
        # An index probe: get() would read and decode the whole record.
        cursor = self._conn.execute(
            "SELECT 1 FROM runs WHERE key_id = ?", (key.key_id(),)
        )
        return cursor.fetchone() is not None

    def items(self) -> Iterator[StoredRun]:
        from repro.experiments.records import RunRecord

        cursor = self._conn.execute("SELECT key_json, record_json FROM runs")
        for key_json, record_json in cursor.fetchall():
            yield StoredRun(
                key=RunKey.from_dict(json.loads(key_json)),
                record=RunRecord.from_dict(json.loads(record_json)),
            )

    def query(
        self,
        method: Optional[str] = None,
        circuit: Optional[str] = None,
        technology: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List["RunRecord"]:
        from repro.experiments.records import RunRecord

        clauses, params = [], []
        for column, value in (
            ("method", method),
            ("circuit", circuit),
            ("technology", technology),
            ("seed", seed),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT record_json FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        cursor = self._conn.execute(sql, params)
        return [RunRecord.from_dict(json.loads(row[0])) for row in cursor.fetchall()]

    def __len__(self) -> int:
        cursor = self._conn.execute("SELECT COUNT(*) FROM runs")
        return int(cursor.fetchone()[0])

    def clear(self) -> None:
        self._conn.execute("DELETE FROM runs")
        self._conn.execute("DELETE FROM checkpoints")
        self._conn.execute("DELETE FROM quarantine")
        self._conn.execute("DELETE FROM queue")
        self._conn.commit()

    # --- mid-run checkpoints: a blob row per in-flight run ----------------------
    def put_checkpoint(self, key: RunKey, state: bytes) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO checkpoints (key_id, state) VALUES (?, ?)",
            (key.key_id(), sqlite3.Binary(bytes(state))),
        )
        self._conn.commit()

    def get_checkpoint(self, key: RunKey) -> Optional[bytes]:
        cursor = self._conn.execute(
            "SELECT state FROM checkpoints WHERE key_id = ?", (key.key_id(),)
        )
        row = cursor.fetchone()
        return bytes(row[0]) if row is not None else None

    def delete_checkpoint(self, key: RunKey) -> None:
        self._conn.execute(
            "DELETE FROM checkpoints WHERE key_id = ?", (key.key_id(),)
        )
        self._conn.commit()

    def clear_checkpoints(self) -> None:
        self._conn.execute("DELETE FROM checkpoints")
        self._conn.commit()

    # --- quarantine: a JSON row per poisoned cell ---------------------------------
    def put_quarantine(self, key: RunKey, info) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO quarantine (key_id, info_json) VALUES (?, ?)",
            (
                key.key_id(),
                json.dumps(dict(info), sort_keys=True, separators=(",", ":")),
            ),
        )
        self._conn.commit()

    def get_quarantine(self, key: RunKey):
        cursor = self._conn.execute(
            "SELECT info_json FROM quarantine WHERE key_id = ?", (key.key_id(),)
        )
        row = cursor.fetchone()
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except json.JSONDecodeError:
            return {}

    def delete_quarantine(self, key: RunKey) -> None:
        self._conn.execute(
            "DELETE FROM quarantine WHERE key_id = ?", (key.key_id(),)
        )
        self._conn.commit()

    def quarantine_ids(self):
        cursor = self._conn.execute(
            "SELECT key_id FROM quarantine ORDER BY key_id"
        )
        return [row[0] for row in cursor.fetchall()]

    def clear_quarantine(self) -> None:
        self._conn.execute("DELETE FROM quarantine")
        self._conn.commit()

    # --- run queue: a key and a JSON payload per accepted service run ------------
    def put_queued(self, key: RunKey, payload) -> None:
        # The upsert keeps the row's rowid: queued() lists first submissions first.
        self._conn.execute(
            "INSERT INTO queue (key_id, key_json, payload_json) VALUES (?, ?, ?) "
            "ON CONFLICT(key_id) DO UPDATE SET payload_json = excluded.payload_json",
            (
                key.key_id(),
                key.canonical(),
                json.dumps(dict(payload), sort_keys=True, separators=(",", ":")),
            ),
        )
        self._conn.commit()

    def queued(self):
        cursor = self._conn.execute(
            "SELECT key_json, payload_json FROM queue ORDER BY rowid"
        )
        return [
            (RunKey.from_dict(json.loads(key_json)), json.loads(payload_json))
            for key_json, payload_json in cursor.fetchall()
        ]

    def vacuum_leases(self) -> int:
        """Drop leases whose owning pid is provably dead on this host.

        Pids only identify processes on the machine that spawned them, so
        the sweep is restricted to leases stamped with our own hostname;
        remote workers are left to wall-clock expiry.  Returns the number
        of leases cleared.
        """
        host = socket.gethostname()
        rows = self._conn.execute(
            "SELECT key_id, pid FROM leases WHERE host = ?", (host,)
        ).fetchall()
        dead = [key_id for key_id, pid in rows if not pid_alive(int(pid))]
        for key_id in dead:
            self._conn.execute("DELETE FROM leases WHERE key_id = ?", (key_id,))
        if dead:
            self._conn.commit()
        return len(dead)

    def close(self) -> None:
        if not self._closed:
            self._conn.close()
            self._closed = True

    def describe(self) -> str:
        return f"SqliteStore({self.path}, {len(self)} runs)"
