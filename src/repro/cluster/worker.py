"""The campaign worker loop: claim, execute, heartbeat, release.

A :class:`CampaignWorker` turns one process (or thread) into a sweep
executor over a shared store: it repeatedly asks the
:class:`~repro.cluster.scheduler.WorkScheduler` for a claimable cell, runs
it through :func:`~repro.experiments.runner.run_method` with periodic
driver checkpoints, and keeps its lease alive from a background
:class:`LeaseHeartbeat` thread while the method runs.  It is the only cell
executor: ``Campaign.run`` (the ``sweep`` command and the table and figure
targets) runs one in process, the ``worker`` command and
``Campaign.run(workers=N)`` run one per process, and the optimization
service runs one per queued job.

Shutdown paths, in decreasing order of grace:

* **Sweep drained** — no pending cells anywhere: the loop exits.
* **SIGTERM / ``request_stop()``** — the driver's ``pause_check`` sees the
  stop flag before the next ask/tell cycle, writes a checkpoint, and the
  worker releases its lease.  Whoever claims the cell next resumes
  mid-method, bit-identically.
* **Lease stolen** — the heartbeat failed to renew (this worker stalled
  past its TTL and another worker took the cell).  ``pause_check`` raises
  :class:`~repro.cluster.leases.LeaseLostError`: the run aborts *without*
  writing a checkpoint or touching the lease — both belong to the thief.
* **Exception or Ctrl-C escaping the loop** — the lease of the cell in
  flight is released on the way out, so the next claimant (this process
  included) starts at once instead of waiting out the TTL.
* **SIGKILL** — nothing runs here, by definition.  The next store open
  on the worker's host vacuums its lease, or else the lease expires after
  its TTL; whoever claims the cell next resumes it with at most
  ``checkpoint_every`` steps of simulation re-paid.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cluster.leases import (
    DEFAULT_TTL,
    LeaseLostError,
    LeaseStore,
    lease_store_for,
    make_owner_id,
)
from repro.cluster.scheduler import Assignment, WorkScheduler
from repro.resilience import RetryPolicy, classify_exception
from repro.store.base import RunKey
from repro.store.campaign import Campaign


@dataclass
class WorkerReport:
    """Outcome of one :meth:`CampaignWorker.run` loop.

    Attributes:
        worker_id: The worker's owner identity (``host:pid:name``).
        executed: Cells this worker ran to completion.
        skipped: Claimed cells that turned out already done (raced another
            worker's final put; released without executing).
        stolen: Executed/paused cells claimed over an expired lease.
        resumed: Executed/paused cells continued from a driver checkpoint.
        paused: Cells checkpointed and released on a stop request.
        lost: Cells abandoned mid-run because the lease was stolen.
        quarantined: Cells that terminally failed after bounded retries and
            were marked poisoned in the store (never handed out again).
        evaluations: Total evaluations recorded by the cells this worker
            completed.  A resumed cell's record includes the evaluations
            its previous owner paid before the last checkpoint, so summing
            this across workers equals the grid's total budget exactly
            when no simulation was duplicated.
        wall_time_s: Wall-clock duration of the loop.
    """

    worker_id: str
    executed: int = 0
    skipped: int = 0
    stolen: int = 0
    resumed: int = 0
    paused: int = 0
    lost: int = 0
    quarantined: int = 0
    evaluations: int = 0
    wall_time_s: float = 0.0
    keys: List[RunKey] = field(default_factory=list)

    def summary(self) -> str:
        """Stable one-line form (grep target of the resume-smoke CI job).

        New counters append at the end so substring greps over the older
        fields keep matching.
        """
        return (
            f"worker {self.worker_id} done: executed={self.executed} "
            f"skipped={self.skipped} stolen={self.stolen} "
            f"resumed={self.resumed} paused={self.paused} lost={self.lost} "
            f"evaluations={self.evaluations} quarantined={self.quarantined}"
        )


class LeaseHeartbeat(threading.Thread):
    """Renews one lease in the background while a method runs.

    Daemon thread: renews every ``interval`` seconds until stopped.  A
    failed renewal means the lease is gone (stolen after an expiry, or
    released elsewhere) — the thread sets :attr:`lost` and exits, and the
    executing driver aborts at its next ``pause_check`` poll.

    Renew *errors* (store exceptions, as opposed to ``renewed=False``) are
    tolerated individually — a transient sqlite-busy must not kill a run —
    but their time is accumulated: once renewals have been failing for a
    full TTL, the lease has certainly expired on the store and another
    worker may already own the cell, so the heartbeat declares the lease
    :attr:`lost` instead of letting both workers compute it.
    """

    def __init__(
        self,
        lease_store: LeaseStore,
        key: RunKey,
        owner: str,
        ttl: float,
        interval: Optional[float] = None,
    ):
        super().__init__(name=f"lease-heartbeat-{key.key_id()[:8]}", daemon=True)
        self.lease_store = lease_store
        self.key = key
        self.owner = owner
        self.ttl = float(ttl)
        # Renew well inside the TTL so one missed beat isn't fatal.
        self.interval = interval if interval is not None else max(ttl / 3.0, 0.05)
        # guarded-by: single-writer — only run() assigns; GIL-atomic
        # bool/int flags read by the executing worker's pause polls.
        self.lost = False  # guarded-by: single-writer (heartbeat thread)
        #: Consecutive renew attempts that raised (reset by any success).
        self.consecutive_errors = 0  # guarded-by: single-writer (heartbeat thread)
        # Note: not "_stop" — threading.Thread has a private method by
        # that name and shadowing it breaks join().
        self._stop_event = threading.Event()

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=max(self.interval * 4, 1.0))

    def run(self) -> None:
        error_since: Optional[float] = None
        while not self._stop_event.wait(self.interval):
            try:
                renewed = self.lease_store.renew(self.key, self.owner, self.ttl)
            except Exception:
                # One transient store error (e.g. sqlite busy beyond the
                # timeout) must not kill the run; the lease has ttl-worth
                # of slack and the next beat retries.  But errors that
                # *persist* past the TTL mean the lease is expired on the
                # store and stealable — stop computing a cell that may
                # already belong to someone else.
                self.consecutive_errors += 1
                now = time.monotonic()
                if error_since is None:
                    error_since = now
                if now - error_since >= self.ttl:
                    self.lost = True
                    return
                continue
            self.consecutive_errors = 0
            error_since = None
            if not renewed:
                self.lost = True
                return


class CampaignWorker:
    """Executes campaign cells from a shared store until the sweep drains.

    Args:
        campaign: The grid + store (+ settings) to execute against.  The
            store must be shared with the other workers (same directory, or
            the same :class:`~repro.store.MemoryStore` instance in-process).
        lease_store: Lease backend; defaults to the one matching the
            campaign's store backend (:func:`lease_store_for`).
        worker_id: Stable owner identity; defaults to a fresh
            ``host:pid:random`` id.
        ttl: Lease time-to-live (seconds).  Trade-off: a dead worker's cell
            stays blocked for up to this long, but a live worker must
            heartbeat faster than it.
        heartbeat_interval: Seconds between renewals (default ``ttl / 3``).
        checkpoint_every: Driver checkpoint period in ask/tell steps; also
            the worst-case re-simulation a steal pays.  1 = maximal safety.
        poll_interval: Sleep between scheduler scans when every remaining
            cell is under a live lease.
        retry: Attempts per cell and the backoff between them (default
            :class:`~repro.resilience.RetryPolicy`: 3 attempts).  A cell
            whose execution raises anything but a lost lease is retried in
            place whatever the failure kind (a transient store error such as
            ``sqlite3.OperationalError`` is untagged); once the budget is
            spent the cell is marked poisoned in the store so no worker —
            this one or a future one — livelocks the sweep re-running it.
            The backoff wait is interruptible by :meth:`request_stop`.
        progress: Optional ``callback(assignment, outcome)`` with outcome
            in ``{"executed", "skipped", "paused", "lost", "quarantined"}``.
        step_callbacks: Extra per-step driver callbacks, forwarded to
            :func:`run_method` (testing/telemetry).
        evaluator: Evaluator shared by every cell this worker executes;
            defaults to one built from the campaign's evaluator stack (the
            stack its run keys name).
            Injectable so tests can wrap it in a fault injector.
    """

    def __init__(
        self,
        campaign: Campaign,
        lease_store: Optional[LeaseStore] = None,
        worker_id: Optional[str] = None,
        ttl: float = DEFAULT_TTL,
        heartbeat_interval: Optional[float] = None,
        checkpoint_every: int = 1,
        poll_interval: float = 0.5,
        retry: Optional[RetryPolicy] = None,
        progress: Optional[Callable[[Assignment, str], None]] = None,
        step_callbacks: Sequence[Callable] = (),
        evaluator=None,
    ):
        self.campaign = campaign
        # A lease store handed in belongs to the caller; one opened here
        # (a second SQLite connection) is closed when run() returns.
        self._owns_lease_store = lease_store is None
        self.lease_store = (
            lease_store if lease_store is not None else lease_store_for(campaign.store)
        )
        self.worker_id = worker_id or make_owner_id()
        self.ttl = float(ttl)
        self.heartbeat_interval = heartbeat_interval
        self.checkpoint_every = int(checkpoint_every)
        self.poll_interval = float(poll_interval)
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random()  # backoff jitter only
        self.progress = progress
        self.step_callbacks = list(step_callbacks)
        self.scheduler = WorkScheduler(
            campaign, self.lease_store, owner=self.worker_id, ttl=self.ttl
        )
        self._stop = threading.Event()
        # guarded-by: worker-thread confinement — each CampaignWorker is
        # driven by exactly one thread (launcher spawns one per worker);
        # lazy construction in _shared_evaluator never races itself.
        self._evaluator = evaluator  # guarded-by: worker-thread confinement
        self._owns_evaluator = evaluator is None

    def _shared_evaluator(self):
        """One evaluator for every cell this worker executes (lazy).

        Each run binds a per-circuit view of it, so caches and (vectorized)
        request batches persist across the worker's cells.
        """
        if self._evaluator is None:
            self._evaluator = self.campaign.evaluator_config.build()
        return self._evaluator

    def request_stop(self) -> None:
        """Ask the worker to checkpoint, release, and exit (signal-safe)."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def run(self, max_cells: Optional[int] = None) -> WorkerReport:
        """Claim-and-execute until the sweep drains (or ``max_cells``).

        A worker runs once: on the way out it closes the evaluator and the
        lease store it built itself.
        """
        report = WorkerReport(worker_id=self.worker_id)
        started = time.perf_counter()
        visited = 0
        assignment = None
        try:
            while not self._stop.is_set():
                if max_cells is not None and visited >= max_cells:
                    break
                assignment = self.scheduler.next_assignment()
                if assignment is None:
                    if self.scheduler.outstanding() == 0:
                        break
                    # Everything left is under a live lease; wait for either
                    # a release (cell done → outstanding drops) or an expiry.
                    self._stop.wait(self.poll_interval)
                    continue
                visited += 1
                self._execute(assignment, report)
        except BaseException:
            # Ctrl-C or a store error: nothing renews the lease any more, and
            # the dead-pid vacuum cannot clear a live process's lease, so
            # free the cell in flight now (release never drops another
            # owner's lease).
            if assignment is not None:
                self.lease_store.release(assignment.key, self.worker_id)
            raise
        finally:
            if self._evaluator is not None and self._owns_evaluator:
                self._evaluator.close()
                self._evaluator = None
            if self._owns_lease_store:
                self.lease_store.close()
        report.wall_time_s = time.perf_counter() - started
        return report

    def _notify(self, assignment: Assignment, outcome: str) -> None:
        if self.progress is not None:
            self.progress(assignment, outcome)

    def _execute(self, assignment: Assignment, report: WorkerReport) -> None:
        from repro.experiments.runner import run_method

        key, request = assignment.key, assignment.request
        # Between our pending-scan and the claim another worker may have
        # finished this very cell; re-check before paying for simulation.
        if key in self.campaign.store:
            self.lease_store.release(key, self.worker_id)
            report.skipped += 1
            self._notify(assignment, "skipped")
            return

        heartbeat = LeaseHeartbeat(
            self.lease_store,
            key,
            self.worker_id,
            self.ttl,
            interval=self.heartbeat_interval,
        )

        def pause_check() -> bool:
            if heartbeat.lost:
                raise LeaseLostError(
                    f"lease on {key.key_id()} lost by {self.worker_id}"
                )
            return self._stop.is_set()

        heartbeat.start()
        record = None
        failure: Optional[BaseException] = None
        attempts = 0
        try:
            for attempt in range(1, self.retry.max_attempts + 1):
                attempts = attempt
                try:
                    record = run_method(
                        request.method,
                        request.circuit,
                        technology=request.technology,
                        steps=request.steps,
                        seed=request.seed,
                        settings=self.campaign.settings,
                        weight_overrides=request.weight_overrides,
                        apply_spec=request.apply_spec,
                        evaluator_config=self.campaign.evaluator_config,
                        evaluator=self._shared_evaluator(),
                        store=self.campaign.store,
                        checkpoint_every=self.checkpoint_every,
                        callbacks=self.step_callbacks,
                        pause_check=pause_check,
                        warmup=request.warmup,
                        transferable_state=request.transferable_state,
                        parent=request.parent,
                    )
                    failure = None
                    break
                except LeaseLostError:
                    # The cell belongs to the thief now: leave the lease
                    # and the thief's checkpoints strictly alone.  Never
                    # retried — the failure is ours, not the cell's.
                    report.lost += 1
                    self._notify(assignment, "lost")
                    return
                except Exception as error:
                    failure = error
                    if attempt < self.retry.max_attempts:
                        # Interruptible backoff: request_stop() shortcuts
                        # the wait and the remaining attempts run (and, if
                        # the fault is persistent, fail) back to back.
                        self._stop.wait(
                            self.retry.backoff_delay(attempt, self._rng)
                        )
        finally:
            heartbeat.stop()

        if failure is not None:
            # Retry budget spent: the cell is poisoned.  Record the
            # taxonomy in the store so schedulers (ours and every other
            # worker's) stop handing it out, then free the lease.
            self.campaign.store.put_quarantine(
                key,
                {
                    "kind": classify_exception(failure),
                    "message": str(failure) or type(failure).__name__,
                    "attempts": attempts,
                    "worker": self.worker_id,
                },
            )
            self.lease_store.release(key, self.worker_id)
            report.quarantined += 1
            self._notify(assignment, "quarantined")
            return

        if record is None:
            # Paused by request_stop(): checkpoint is on the store; free
            # the lease so any worker (us included, later) can resume.
            self.lease_store.release(key, self.worker_id)
            report.paused += 1
            if assignment.stolen:
                report.stolen += 1
            if assignment.resumed:
                report.resumed += 1
            self._notify(assignment, "paused")
            return

        self.lease_store.release(key, self.worker_id)
        report.executed += 1
        report.evaluations += sum(record.step_evaluations)
        report.keys.append(key)
        if assignment.stolen:
            report.stolen += 1
        if assignment.resumed:
            report.resumed += 1
        self._notify(assignment, "executed")
