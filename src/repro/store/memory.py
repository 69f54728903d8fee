"""In-process reference :class:`RunStore` (what ``_RUN_CACHE`` used to be)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

from repro.store.base import RunKey, RunStore, StoredRun

if TYPE_CHECKING:  # runtime import is lazy: the runner imports repro.store
    from repro.experiments.records import RunRecord


class MemoryStore(RunStore):
    """Dict-backed store; fast, per-process, lost on exit.

    ``get`` returns the exact object that was ``put`` (no serialization), so
    repeated runs within a process share one record instance — the behaviour
    the old in-process run cache provided.
    """

    def __init__(self):
        self._rows: Dict[str, Tuple[RunKey, RunRecord]] = {}

    def put(self, key: RunKey, record: RunRecord) -> None:
        self._rows[key.key_id()] = (key, record)

    def get(self, key: RunKey) -> Optional[RunRecord]:
        row = self._rows.get(key.key_id())
        return row[1] if row is not None else None

    def items(self) -> Iterator[StoredRun]:
        for key, record in list(self._rows.values()):
            yield StoredRun(key=key, record=record)

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()
        self.clear_checkpoints()
        self._weights_rows().clear()
        self.clear_quarantine()
        self._queue_rows().clear()
