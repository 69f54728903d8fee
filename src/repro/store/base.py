"""Canonical run keys and the :class:`RunStore` persistence protocol.

The experiment harness produces one :class:`~repro.experiments.records.RunRecord`
per (method, circuit, technology, seed, budget, FoM weighting, evaluator
stack) cell.  A :class:`RunStore` makes those records durable and queryable
across processes: the runner writes every completed run under its canonical
:class:`RunKey`, the tables/figures harness and the
:class:`~repro.store.campaign.Campaign` orchestrator read them back, and a
half-finished sweep resumes by simply skipping keys already present.

Two backends implement the protocol:

* :class:`~repro.store.memory.MemoryStore` — in-process dict (the reference
  implementation; what the old ``_RUN_CACHE`` used to be).
* :class:`~repro.store.sqlite.SqliteStore` — the durable store: one indexed
  ``runs.sqlite`` database per store directory.

Both backends share one semantic contract, enforced by the conformance tests
in ``tests/test_store.py``: ``put`` is latest-wins on duplicate keys,
``get``/``__contains__`` address by canonical key, and ``query`` filters on
the indexed run coordinates (method/circuit/technology/seed).
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # runtime import is lazy: the runner imports repro.store
    from repro.experiments.records import RunRecord


def _freeze(value):
    """Recursively convert lists to tuples (canonical hashable form)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value):
    """Recursively convert tuples to lists (JSON-serializable form)."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class RunKey:
    """Canonical identity of one optimization run.

    Covers every setting that can change the produced record: the obvious
    coordinates (method, circuit, technology, budget, seed) plus the
    canonicalised FoM weight overrides, the hard-spec toggle, the evaluator
    stack, and a free-form ``extra`` axis for RL run-shaping settings (the
    warm-up, the state encoding, and the key id of the parent run a
    transfer fine-tune starts from).  Two runs with equal keys are
    guaranteed to be bit-identical given the deterministic simulator.

    Attributes:
        method: Method registry name (``"gcn_rl"``, ``"bo"``, ...).
        circuit: Circuit registry name.
        technology: Technology node name.
        steps: Simulation budget.
        seed: Random seed.
        overrides: Sorted ``(metric, factor)`` FoM weight multipliers.
        apply_spec: Whether the circuit's hard spec was enforced.
        evaluator: The evaluator stack's :meth:`EvaluatorConfig.cache_key`.
        extra: Sorted ``(name, value)`` pairs of additional run-shaping
            settings (e.g. ``("warmup", 26)``, ``("parent", "<key id>")``).
    """

    method: str
    circuit: str
    technology: str
    steps: int
    seed: int
    overrides: Tuple[Tuple[str, float], ...] = ()
    apply_spec: bool = True
    evaluator: Tuple = ()
    extra: Tuple = ()

    def canonical(self) -> str:
        """Deterministic JSON form (the portable identity of the run)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def key_id(self) -> str:
        """Short stable hex digest of :meth:`canonical` (storage key)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:32]

    def to_dict(self) -> Dict:
        """JSON-serializable dict form (round-trips via :meth:`from_dict`)."""
        return {
            "method": self.method,
            "circuit": self.circuit,
            "technology": self.technology,
            "steps": int(self.steps),
            "seed": int(self.seed),
            "overrides": _thaw(self.overrides),
            "apply_spec": bool(self.apply_spec),
            "evaluator": _thaw(self.evaluator),
            "extra": _thaw(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunKey":
        """Rebuild a key from its :meth:`to_dict` form."""
        return cls(
            method=data["method"],
            circuit=data["circuit"],
            technology=data["technology"],
            steps=int(data["steps"]),
            seed=int(data["seed"]),
            overrides=_freeze(data.get("overrides", ())),
            apply_spec=bool(data.get("apply_spec", True)),
            evaluator=_freeze(data.get("evaluator", ())),
            extra=_freeze(data.get("extra", ())),
        )


def make_run_key(
    method: str,
    circuit: str,
    technology: str,
    steps: int,
    seed: int,
    weight_overrides: Optional[Mapping[str, float]] = None,
    apply_spec: bool = True,
    evaluator_key: Tuple = (),
    extra: Mapping = (),
) -> RunKey:
    """Build a :class:`RunKey` from runner-style arguments.

    Canonicalises the weight overrides and the ``extra`` mapping by sorting,
    so keys compare (and hash) independently of construction order.
    """
    overrides = tuple(sorted((weight_overrides or {}).items()))
    extra_items = tuple(sorted(dict(extra).items()))
    return RunKey(
        method=method,
        circuit=circuit,
        technology=technology,
        steps=int(steps),
        seed=int(seed),
        overrides=overrides,
        apply_spec=bool(apply_spec),
        evaluator=_freeze(evaluator_key),
        extra=_freeze(extra_items),
    )


@dataclass
class StoredRun:
    """One (key, record) pair: the unit of iteration and export.

    :meth:`to_dict` defines the serialized shape of the CLI ``export``
    command.
    """

    key: RunKey
    record: RunRecord

    def to_dict(self) -> Dict:
        """``{"key": ..., "record": ...}`` (JSON-serializable)."""
        return {"key": self.key.to_dict(), "record": self.record.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "StoredRun":
        from repro.experiments.records import RunRecord

        return cls(
            key=RunKey.from_dict(data["key"]),
            record=RunRecord.from_dict(data["record"]),
        )


class RunStore(abc.ABC):
    """Durable, queryable storage of completed optimization runs.

    The store is a mapping from :class:`RunKey` to
    :class:`~repro.experiments.records.RunRecord` with latest-wins semantics
    on duplicate puts, plus a filtered-scan query API over the run
    coordinates.  Implementations must be usable as context managers and must
    tolerate repeated :meth:`close` calls.
    """

    @abc.abstractmethod
    def put(self, key: RunKey, record: RunRecord) -> None:
        """Store ``record`` under ``key`` (replacing any previous record)."""

    @abc.abstractmethod
    def get(self, key: RunKey) -> Optional[RunRecord]:
        """Return the record stored under ``key``, or ``None``."""

    @abc.abstractmethod
    def items(self) -> Iterator[StoredRun]:
        """Iterate over every stored (key, record) pair."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of distinct keys in the store."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every stored run, weights blob, checkpoint, quarantine marker
        and queued cell."""

    def __contains__(self, key: RunKey) -> bool:
        return self.get(key) is not None

    def query(
        self,
        method: Optional[str] = None,
        circuit: Optional[str] = None,
        technology: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> List[RunRecord]:
        """Records matching every given filter (``None`` matches anything).

        Backends with native indexes (SQLite) override this with an indexed
        lookup; the default is a full scan over :meth:`items`.
        """
        matches = []
        for stored in self.items():
            key = stored.key
            if method is not None and key.method != method:
                continue
            if circuit is not None and key.circuit != circuit:
                continue
            if technology is not None and key.technology != technology:
                continue
            if seed is not None and key.seed != seed:
                continue
            matches.append(stored.record)
        return matches

    def keys(self) -> List[RunKey]:
        """Every distinct key currently in the store."""
        return [stored.key for stored in self.items()]

    # --- mid-run checkpoints ------------------------------------------------------
    # A checkpoint is an opaque byte blob (the pickled driver state) stored
    # *next to* the run's final record: the OptimizationDriver writes one
    # every K steps under the run's canonical key, resumes from it after a
    # kill, and the runner deletes it once the completed record is put.
    # The base implementation keeps checkpoints in process memory (enough
    # for MemoryStore and same-process interruption workflows); SqliteStore
    # overrides it with its ``checkpoints`` table.

    def _checkpoint_rows(self) -> Dict[str, bytes]:
        rows = getattr(self, "_checkpoints", None)
        if rows is None:
            rows = {}
            self._checkpoints = rows
        return rows

    def put_checkpoint(self, key: RunKey, state: bytes) -> None:
        """Store the mid-run checkpoint blob for ``key`` (latest wins)."""
        self._checkpoint_rows()[key.key_id()] = bytes(state)

    def get_checkpoint(self, key: RunKey) -> Optional[bytes]:
        """Return the checkpoint blob stored for ``key``, or ``None``."""
        return self._checkpoint_rows().get(key.key_id())

    def delete_checkpoint(self, key: RunKey) -> None:
        """Drop the checkpoint for ``key`` (no-op when absent)."""
        self._checkpoint_rows().pop(key.key_id(), None)

    def clear_checkpoints(self) -> None:
        """Drop every stored checkpoint."""
        self._checkpoint_rows().clear()

    # --- final RL weights ---------------------------------------------------------
    # The pickled actor/critic ``state_dict`` an RL run ended with, filed
    # under the run's key: run_method writes it before the record, and a
    # run naming that key as its ``parent`` starts from it (transfer).
    # Kept like checkpoints: process memory here, a table in SqliteStore.

    def _weights_rows(self) -> Dict[str, bytes]:
        rows = getattr(self, "_weights", None)
        if rows is None:
            rows = {}
            self._weights = rows
        return rows

    def put_weights(self, key: RunKey, state: bytes) -> None:
        """Store the final-weights blob of the RL run ``key`` (latest wins)."""
        self._weights_rows()[key.key_id()] = bytes(state)

    def get_weights(self, key: RunKey) -> Optional[bytes]:
        """Return the final-weights blob stored for ``key``, or ``None``."""
        return self._weights_rows().get(key.key_id())

    # --- quarantine ---------------------------------------------------------------
    # A quarantined cell is one whose execution terminally failed after
    # bounded retries: the worker records the failure here (kind, message,
    # attempts, worker id) so the scheduler stops handing the cell out, the
    # sweep drains instead of livelocking, and ``ls --status`` can show the
    # poison.  Deleting the entry re-queues the cell.  Like checkpoints,
    # the base keeps entries in process memory; SqliteStore overrides.

    def _quarantine_rows(self) -> Dict[str, Dict]:
        rows = getattr(self, "_quarantine", None)
        if rows is None:
            rows = {}
            self._quarantine = rows
        return rows

    def put_quarantine(self, key: RunKey, info: Mapping) -> None:
        """Mark ``key`` quarantined with a JSON-serializable ``info`` dict."""
        self._quarantine_rows()[key.key_id()] = dict(info)

    def get_quarantine(self, key: RunKey) -> Optional[Dict]:
        """The quarantine info stored for ``key``, or ``None``."""
        return self._quarantine_rows().get(key.key_id())

    def delete_quarantine(self, key: RunKey) -> None:
        """Lift the quarantine for ``key`` (no-op when absent)."""
        self._quarantine_rows().pop(key.key_id(), None)

    def quarantine_ids(self) -> List[str]:
        """``key_id`` of every quarantined cell."""
        return list(self._quarantine_rows().keys())

    def clear_quarantine(self) -> None:
        """Lift every quarantine."""
        self._quarantine_rows().clear()

    # --- run queue ----------------------------------------------------------------
    # A queued cell is a run the optimization service accepted: its key plus
    # the JSON payload that rebuilds its settings after a restart.  Like
    # checkpoints, the base keeps rows in process memory; SqliteStore overrides.

    def _queue_rows(self) -> Dict[str, Tuple[RunKey, Dict]]:
        rows = getattr(self, "_queue", None)
        if rows is None:
            rows = {}
            self._queue = rows
        return rows

    def put_queued(self, key: RunKey, payload: Mapping) -> None:
        """Queue ``key`` with a JSON-serializable ``payload`` (latest wins)."""
        self._queue_rows()[key.key_id()] = (key, dict(payload))

    def queued(self) -> List[Tuple[RunKey, Dict]]:
        """Every queued ``(key, payload)``, in first-submission order."""
        return list(self._queue_rows().values())

    def close(self) -> None:
        """Release any resources (file handles, connections); idempotent."""

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> str:
        """One-line summary used by logs and the CLI."""
        return f"{type(self).__name__}({len(self)} runs)"
