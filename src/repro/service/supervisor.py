"""Supervised optimization runs: actor tasks, progress streams, re-adoption.

Each ``run`` request becomes a :class:`Job` — a supervised asyncio task that
executes the full :func:`~repro.experiments.runner.run_method` machinery
(store-level dedup, checkpoint/resume, record write) in a worker thread and
streams the driver's per-step callbacks back to any number of subscribers.
Jobs outlive their submitting connection: a client may disconnect and fetch
the result later by job id, or never — the record lands in the store either
way.

Lossless restart is journal + checkpoint:

* the **journal** (``service_jobs.jsonl`` in the store directory) records
  every submitted job's full spec and its terminal state, append-only and
  tolerant of a torn final line;
* the **checkpoints** are the ordinary driver checkpoints
  (strategy + environment + RNG state) filed in the run store every
  ``checkpoint_every`` steps.

On startup the supervisor replays the journal, and every job without a
terminal event is re-submitted; ``run_method`` finds the run's checkpoint
under its canonical key and resumes it bit-identically — so a ``kill -9`` of
the server loses nothing but the seconds since the last checkpoint, and the
resumed results are exactly what an uninterrupted server would have produced
(the PR 5 driver guarantee, now end-to-end across processes).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.eval import EvaluatorConfig
from repro.experiments.config import ExperimentSettings
from repro.experiments.driver import DriverStep
from repro.experiments.runner import RL_METHODS, run_method
from repro.optim.registry import list_optimizers, unknown_method_message
from repro.store import MemoryStore, RunStore, open_run_store

logger = logging.getLogger("repro.service")

#: Journal file name inside the store directory.
JOURNAL_NAME = "service_jobs.jsonl"

#: Journal events that end a job's lifecycle.
TERMINAL_EVENTS = ("done", "failed")


@dataclass
class JobSpec:
    """Everything needed to (re-)execute one optimization run.

    Carries the run coordinates *and* the evaluator stack and RL warm-up the
    submitting server resolved, so a restarted server reconstructs the exact
    same canonical :class:`~repro.store.RunKey` — and therefore finds the
    run's checkpoint — even if its own defaults changed in between.
    """

    job_id: str
    method: str
    circuit: str
    technology: str
    steps: int
    seed: int
    checkpoint_every: int
    eval_backend: str = "local"
    eval_cache_size: int = 0
    warmup: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "job_id": self.job_id,
            "method": self.method,
            "circuit": self.circuit,
            "technology": self.technology,
            "steps": int(self.steps),
            "seed": int(self.seed),
            "checkpoint_every": int(self.checkpoint_every),
            "eval_backend": self.eval_backend,
            "eval_cache_size": int(self.eval_cache_size),
        }
        if self.warmup is not None:
            data["warmup"] = int(self.warmup)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        return cls(
            job_id=data["job_id"],
            method=data["method"],
            circuit=data["circuit"],
            technology=data["technology"],
            steps=int(data["steps"]),
            seed=int(data["seed"]),
            checkpoint_every=int(data["checkpoint_every"]),
            eval_backend=data.get("eval_backend", "local"),
            eval_cache_size=int(data.get("eval_cache_size", 0)),
            warmup=data.get("warmup"),
        )


@dataclass
class Job:
    """Runtime state of one supervised run."""

    spec: JobSpec
    status: str = "running"  # running | done | failed
    adopted: bool = False
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    last_step: int = 0
    evaluated: int = 0
    best_reward: Optional[float] = None
    subscribers: List[asyncio.Queue] = field(default_factory=list)
    finished: Optional[asyncio.Event] = None

    def describe(self) -> Dict[str, Any]:
        """Summary row for the ``jobs`` endpoint."""
        summary = {
            "job_id": self.spec.job_id,
            "method": self.spec.method,
            "circuit": self.spec.circuit,
            "technology": self.spec.technology,
            "steps": self.spec.steps,
            "seed": self.spec.seed,
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
    """Owns every run job: execution, progress fan-out, journal, adoption.

    Args:
        store_dir: Store directory job results/checkpoints persist to, as a
            SQLite store, next to the journal; without it jobs are
            in-memory only and restarts lose them.
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
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # --- journal ------------------------------------------------------------------
    @property
    def journal_path(self) -> Optional[str]:
        if not self.store_dir:
            return None
        return os.path.join(self.store_dir, JOURNAL_NAME)

    def _journal_append(self, event: str, payload: Dict[str, Any]) -> None:
        path = self.journal_path
        if path is None:
            return
        os.makedirs(self.store_dir, exist_ok=True)
        row = {"event": event}
        row.update(payload)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def pending_from_journal(self) -> List[JobSpec]:
        """Specs of every journaled job without a terminal event."""
        path = self.journal_path
        if path is None or not os.path.exists(path):
            return []
        alive: Dict[str, JobSpec] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    # A kill mid-append leaves one torn final line; skip it.
                    continue
                event = row.get("event")
                if event == "submitted":
                    try:
                        spec = JobSpec.from_dict(row["job"])
                    except (KeyError, TypeError, ValueError):
                        continue
                    alive[spec.job_id] = spec
                elif event in TERMINAL_EVENTS:
                    alive.pop(row.get("job_id"), None)
        return list(alive.values())

    # --- submission ---------------------------------------------------------------
    def build_spec(
        self,
        method: str,
        circuit: str,
        technology: str,
        steps: int,
        seed: int,
        checkpoint_every: Optional[int] = None,
        settings: Optional[ExperimentSettings] = None,
    ) -> JobSpec:
        """Resolve a run request into a fully-specified, journalable spec."""
        if method not in list_optimizers():
            raise ValueError(unknown_method_message(method))
        settings = settings or ExperimentSettings()
        warmup = settings.rl_warmup(steps) if method in RL_METHODS else None
        return JobSpec(
            job_id=uuid.uuid4().hex[:12],
            method=method,
            circuit=circuit,
            technology=technology,
            steps=int(steps),
            seed=int(seed),
            checkpoint_every=(
                self.default_checkpoint_every
                if checkpoint_every is None
                else int(checkpoint_every)
            ),
            eval_backend=self.evaluator_config.backend,
            eval_cache_size=self.evaluator_config.cache_size,
            warmup=warmup,
        )

    def submit(self, spec: JobSpec, adopted: bool = False) -> Job:
        """Start (or re-adopt) a job; returns its runtime handle."""
        self._loop = asyncio.get_running_loop()
        job = Job(spec=spec, adopted=adopted, finished=asyncio.Event())
        self.jobs[spec.job_id] = job
        if not adopted:
            self._journal_append("submitted", {"job": spec.to_dict()})
        self._tasks[spec.job_id] = asyncio.create_task(self._run_job(job))
        return job

    def adopt_pending(self) -> List[Job]:
        """Re-submit every journaled job that never reached a terminal state.

        Each adopted run resumes from its store checkpoint (when one was
        written) — the driver replays nothing and continues bit-identically.
        """
        adopted = []
        for spec in self.pending_from_journal():
            logger.info(
                "re-adopting run %s (%s %s/%s steps=%d seed=%d)",
                spec.job_id,
                spec.method,
                spec.circuit,
                spec.technology,
                spec.steps,
                spec.seed,
            )
            adopted.append(self.submit(spec, adopted=True))
        return adopted

    # --- execution ----------------------------------------------------------------
    def _settings_for(self, spec: JobSpec) -> ExperimentSettings:
        """Reconstruct settings that reproduce the spec's recorded warm-up.

        ``run_key_for`` derives the RL warm-up from
        ``settings.rl_warmup(steps) = max(5, min(int(steps * fraction),
        steps - 1))``.  A journaled warm-up came from that same formula, so
        it lies in ``[5, steps - 1]`` and ``fraction = (warmup + 0.5) /
        steps`` floors back to exactly ``warmup`` — the adopted run's key
        (and checkpoint) match the original regardless of the restarted
        server's own ``REPRO_WARMUP_FRACTION``.
        """
        settings = ExperimentSettings()
        if spec.warmup is not None and spec.steps > 0:
            settings.warmup_fraction = (spec.warmup + 0.5) / spec.steps
            if settings.rl_warmup(spec.steps) != spec.warmup:
                logger.warning(
                    "job %s: could not reconstruct warmup %d for steps %d",
                    spec.job_id,
                    spec.warmup,
                    spec.steps,
                )
        return settings

    def _open_store(self) -> RunStore:
        if self._memory_store is not None:
            return self._memory_store
        return open_run_store("sqlite", self.store_dir)

    def _execute(self, job: Job):
        """Worker-thread body: the full run, with its own store handle.

        SQLite handles are bound to their creating thread, so each job opens
        a fresh connection here; WAL journal mode makes the concurrent
        writers (and any external CLI readers) safe.
        """
        spec = job.spec
        loop = self._loop

        def progress(step: DriverStep) -> None:
            # Marshal driver telemetry onto the event loop; the explicit
            # None return matters — a truthy return would early-stop the run.
            payload = {
                "type": "progress",
                "job_id": spec.job_id,
                "step": step.step,
                "evaluated": step.evaluated,
                "budget": step.budget,
                "best_reward": step.best_reward,
                "wall_time_s": round(step.wall_time_s, 6),
            }
            loop.call_soon_threadsafe(self._publish, job, payload)

        config = EvaluatorConfig(
            backend=spec.eval_backend, cache_size=spec.eval_cache_size
        )
        store = self._open_store()
        try:
            return run_method(
                spec.method,
                spec.circuit,
                technology=spec.technology,
                steps=spec.steps,
                seed=spec.seed,
                settings=self._settings_for(spec),
                evaluator_config=config,
                store=store,
                checkpoint_every=spec.checkpoint_every,
                callbacks=[progress],
            )
        finally:
            if store is not self._memory_store:
                store.close()

    async def _run_job(self, job: Job) -> None:
        spec = job.spec
        try:
            record = await asyncio.to_thread(self._execute, job)
        except Exception as error:
            logger.exception("run %s failed", spec.job_id)
            job.status = "failed"
            job.error = f"{type(error).__name__}: {error}"
            self._journal_append("failed", {"job_id": spec.job_id, "error": job.error})
            self._publish(
                job,
                {"type": "error", "job_id": spec.job_id, "error": job.error},
            )
        else:
            job.status = "done"
            job.record = record.to_dict()
            job.best_reward = job.record["best_reward"]
            self._journal_append("done", {"job_id": spec.job_id})
            self._publish(
                job,
                {"type": "result", "job_id": spec.job_id, "record": job.record},
            )
        finally:
            job.finished.set()
            self._tasks.pop(spec.job_id, None)

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

    async def drain(self) -> None:
        """Wait until every running job reaches a terminal state."""
        for task in list(self._tasks.values()):
            await asyncio.shield(task)
