"""Supervised optimization runs: queued store cells, progress streams, adoption.

Each ``run`` request becomes a :class:`Job`: a cell in the run store's queue,
executed by an in-process :class:`~repro.cluster.CampaignWorker` over a
one-cell campaign on its own thread.  The worker claims the cell under a
lease, streams the driver's per-step callbacks to any number of subscribers,
and files checkpoints and then the record — or, after bounded retries, a
quarantine marker — under the run's key.  Jobs outlive their submitting
connection: the record lands in the store whether or not anyone waits.

A job id is the first 12 hex digits of the run key's id, so the queue row,
the lease and the record share one identity: an identical submission returns
the existing job, and the lease keeps the cell from being computed twice.

Lossless restart is queue + lease + checkpoint.  On startup the supervisor
adopts every queued cell (the ``queue`` table of ``runs.sqlite``: the key and
the payload its settings are rebuilt from) with neither a record nor a
quarantine marker.  A killed server's lease is dropped by the next store open
on its host (its pid is dead) or expires after its TTL elsewhere, so the
adopted cell is claimed at once and resumes from its latest driver checkpoint
bit-identically.  A graceful stop asks every worker to pause: each writes a
checkpoint at its next ask/tell boundary and releases its lease.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.circuits.library import get_circuit
from repro.cluster import CampaignWorker, lease_store_for
from repro.eval import EvaluatorConfig
from repro.experiments.config import ExperimentSettings
from repro.experiments.driver import DriverStep
from repro.optim.registry import list_optimizers, unknown_method_message
from repro.store import Campaign, MemoryStore, RunKey, RunRequest, RunStore, open_run_store

logger = logging.getLogger("repro.service")


def job_id_for(key: RunKey) -> str:
    """The job id of a run: the first 12 hex digits of its key id."""
    return key.key_id()[:12]


def _campaign_for(key: RunKey, payload: Mapping[str, Any], store: RunStore) -> Campaign:
    """The one-cell campaign that runs a queued cell under exactly ``key``.

    Raises ``ValueError`` when the payload no longer rebuilds the key (an
    evaluator backend that was retired, an edited row): a run must never
    execute under another key.
    """
    campaign = Campaign(
        None,
        store,
        settings=ExperimentSettings(warmup_fraction=float(payload["warmup_fraction"])),
        evaluator_config=EvaluatorConfig(**payload["evaluator"]),
        cells=[RunRequest(key.method, key.circuit, key.technology, key.steps, key.seed)],
    )
    rebuilt = campaign.key_for(campaign.cells[0])
    if rebuilt.key_id() != key.key_id():
        # A corrupt queue row, reported as the job's error.
        raise ValueError(  # repro-lint: ignore[failure-taxonomy]
            f"queued key {key.canonical()} rebuilds as {rebuilt.canonical()}"
        )
    return campaign


@dataclass
class Job:
    """Runtime state of one supervised run."""

    key: RunKey
    status: str = "running"  # running | done | failed
    adopted: bool = False
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    last_step: int = 0
    evaluated: int = 0
    best_reward: Optional[float] = None
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    finished: Optional[asyncio.Event] = None

    @property
    def job_id(self) -> str:
        return job_id_for(self.key)

    def describe(self) -> Dict[str, Any]:
        """Summary row for the ``jobs`` endpoint."""
        summary = {
            "job_id": self.job_id,
            "method": self.key.method,
            "circuit": self.key.circuit,
            "technology": self.key.technology,
            "steps": self.key.steps,
            "seed": self.key.seed,
            "status": self.status,
            "adopted": self.adopted,
            "step": self.last_step,
            "evaluated": self.evaluated,
        }
        if self.best_reward is not None:
            summary["best_reward"] = self.best_reward
        if self.error is not None:
            summary["error"] = self.error
        return summary


class RunSupervisor:
    """Owns every run job: queueing, execution, progress fan-out, adoption.

    Args:
        store_dir: Store directory whose ``runs.sqlite`` holds the queue,
            leases, checkpoints and records; without it jobs are in-memory
            only and restarts lose them.
        default_checkpoint_every: Checkpoint cadence for jobs that don't
            choose their own.
        evaluator_config: Evaluator stack runs are executed with.
    """

    def __init__(
        self,
        store_dir: str = "",
        default_checkpoint_every: int = 1,
        evaluator_config: Optional[EvaluatorConfig] = None,
    ):
        self.store_dir = store_dir
        self.default_checkpoint_every = int(default_checkpoint_every)
        self.evaluator_config = evaluator_config or EvaluatorConfig()
        self.jobs: Dict[str, Job] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        # Without a directory there is nothing to reopen per thread, so every
        # job shares this one instance (dict ops are GIL-atomic enough).
        self._memory_store = None if store_dir else MemoryStore()
        # The event loop's own handle: queue writes and adoption scans.
        self._store = self._open_store()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._lock = threading.Lock()
        self._workers: Dict[str, CampaignWorker] = {}  # guarded-by: self._lock
        self._stopping = False  # guarded-by: self._lock

    def _open_store(self) -> RunStore:
        if self._memory_store is not None:
            return self._memory_store
        return open_run_store("sqlite", self.store_dir)

    # --- submission ---------------------------------------------------------------
    def submit(
        self,
        method: str,
        circuit: str,
        technology: str = "180nm",
        steps: int = 80,
        seed: int = 0,
        checkpoint_every: Optional[int] = None,
    ) -> Job:
        """Queue a run and start its job; returns the job's runtime handle.

        An identical run that is running or done returns its existing job.
        Resubmitting a failed run lifts its quarantine and runs it again.
        Unknown methods, circuits and technologies are refused before
        anything is queued.
        """
        if method not in list_optimizers():
            # Bad client-supplied method, rejected before any evaluation runs.
            raise ValueError(  # repro-lint: ignore[failure-taxonomy]
                unknown_method_message(method)
            )
        get_circuit(circuit, technology)  # KeyError names the unknown one
        settings = ExperimentSettings()
        request = RunRequest(method, circuit, technology, steps, seed)
        key = request.key(settings, self.evaluator_config)
        job = self.jobs.get(job_id_for(key))
        if job is not None and job.status != "failed":
            return job
        if checkpoint_every is None:
            checkpoint_every = self.default_checkpoint_every
        payload = {
            "checkpoint_every": int(checkpoint_every),
            "evaluator": asdict(self.evaluator_config),
            "warmup_fraction": settings.warmup_fraction,
        }
        self._store.delete_quarantine(key)
        self._store.put_queued(key, payload)
        return self._start(key, payload)

    def adopt_pending(self) -> List[Job]:
        """Start a job for every queued cell with no record and no quarantine.

        Each adopted run resumes from its store checkpoint (when one was
        written) — the driver replays nothing and continues bit-identically.
        """
        adopted = []
        for key, payload in self._store.queued():
            if key in self._store or self._store.get_quarantine(key) is not None:
                continue
            logger.info("re-adopting run %s: %s", job_id_for(key), key.canonical())
            adopted.append(self._start(key, payload, adopted=True))
        return adopted

    def _start(self, key: RunKey, payload: Dict[str, Any], adopted: bool = False) -> Job:
        self._loop = asyncio.get_running_loop()
        job = Job(key=key, adopted=adopted, finished=asyncio.Event())
        self.jobs[job.job_id] = job
        self._tasks[job.job_id] = asyncio.create_task(self._run_job(job, payload))
        return job

    async def stop(self) -> None:
        """Pause every running job and wait until each has let go of its cell.

        Each worker checkpoints at its next ask/tell boundary and releases
        its lease; the cell stays queued, so the next server adopts it.
        """
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
        for worker in workers:
            worker.request_stop()
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        self._store.close()

    # --- execution ----------------------------------------------------------------
    def _execute(self, job: Job, payload: Dict[str, Any]) -> None:
        """Job-thread body: leaves the cell's record or quarantine marker in
        the store, or neither when a stop request paused it.

        The thread opens its own store handle: SQLite connections are bound
        to the thread that created them.
        """
        loop = self._loop

        def progress(step: DriverStep) -> None:
            # Marshal driver telemetry onto the event loop; the explicit
            # None return matters — a truthy return would early-stop the run.
            frame = {
                "type": "progress",
                "job_id": job.job_id,
                "step": step.step,
                "evaluated": step.evaluated,
                "budget": step.budget,
                "best_reward": step.best_reward,
                "wall_time_s": round(step.wall_time_s, 6),
            }
            loop.call_soon_threadsafe(self._publish, job, frame)

        with self._open_store() as store:
            try:
                campaign = _campaign_for(job.key, payload, store)
                checkpoint_every = int(payload["checkpoint_every"])
            except (KeyError, TypeError, ValueError) as error:
                info = {"kind": "invalid_request", "message": str(error), "attempts": 0}
                store.put_quarantine(job.key, info)
                return
            with lease_store_for(store) as leases:
                worker = CampaignWorker(
                    campaign,
                    lease_store=leases,
                    checkpoint_every=checkpoint_every,
                    step_callbacks=[progress],
                )
                with self._lock:
                    if self._stopping:
                        return
                    self._workers[job.job_id] = worker
                try:
                    worker.run()
                finally:
                    with self._lock:
                        del self._workers[job.job_id]

    async def _run_job(self, job: Job, payload: Dict[str, Any]) -> None:
        try:
            await asyncio.to_thread(self._execute, job, payload)
            record = self._store.get(job.key)
            quarantine = self._store.get_quarantine(job.key)
        except Exception as error:
            logger.exception("run %s failed", job.job_id)
            record, quarantine = None, {"message": f"{type(error).__name__}: {error}"}
        finally:
            self._tasks.pop(job.job_id, None)
        if record is not None:
            job.status = "done"
            job.record = record.to_dict()
            job.best_reward = job.record["best_reward"]
            self._publish(job, {"type": "result", "job_id": job.job_id, "record": job.record})
        elif quarantine is not None:
            job.status = "failed"
            job.error = quarantine.get("message")
            logger.warning("run %s failed: %s", job.job_id, job.error)
            self._publish(job, {"type": "error", "job_id": job.job_id, "error": job.error})
        else:
            return  # paused by stop(): the next server adopts the cell
        job.finished.set()

    def _publish(self, job: Job, payload: Dict[str, Any]) -> None:
        if payload.get("type") == "progress":
            job.last_step = payload["step"]
            job.evaluated = payload["evaluated"]
            job.best_reward = payload["best_reward"]
        for queue in list(job.subscribers):
            queue.put_nowait(payload)

    # --- observation --------------------------------------------------------------
    def subscribe(self, job_id: str) -> asyncio.Queue:
        """Queue of a job's future frames (terminal frame included).

        A finished job's queue is pre-loaded with its terminal frame, so
        late subscribers always receive exactly one ending frame.
        """
        job = self._require(job_id)
        queue: asyncio.Queue = asyncio.Queue()
        if job.status == "done":
            queue.put_nowait(
                {"type": "result", "job_id": job_id, "record": job.record}
            )
        elif job.status == "failed":
            queue.put_nowait({"type": "error", "job_id": job_id, "error": job.error})
        else:
            job.subscribers.append(queue)
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        job = self.jobs.get(job_id)
        if job is not None and queue in job.subscribers:
            job.subscribers.remove(queue)

    def _require(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            # Bad client-supplied id, rejected before any evaluation runs;
            # the RPC layer encodes it as a request error.
            raise KeyError(  # repro-lint: ignore[failure-taxonomy]
                f"unknown job {job_id!r}"
            )
        return job

    async def result(self, job_id: str, wait: bool = True) -> Dict[str, Any]:
        """A job's terminal payload (waits for completion by default)."""
        job = self._require(job_id)
        if wait:
            await job.finished.wait()
        if job.status == "failed":
            return {"job_id": job_id, "status": "failed", "error": job.error}
        return {"job_id": job_id, "status": job.status, "record": job.record}

    def describe_jobs(self) -> List[Dict[str, Any]]:
        """Summary of every known job, newest-submitted last."""
        return [job.describe() for job in self.jobs.values()]

    def stats(self) -> Dict[str, Any]:
        counts = {"running": 0, "done": 0, "failed": 0}
        for job in self.jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        counts["total"] = len(self.jobs)
        counts["adopted"] = sum(1 for job in self.jobs.values() if job.adopted)
        return counts
