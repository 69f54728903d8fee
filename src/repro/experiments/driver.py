"""The generic stepwise optimization driver every paper method runs on.

One :class:`OptimizationDriver` owns what the old per-method ``run(budget)``
monoliths each reimplemented: the ask/evaluate/tell loop, budget accounting,
wall-clock timing, per-step callbacks (progress, telemetry, early stop) and
— when bound to a :class:`~repro.store.RunStore` — periodic checkpointing of
``strategy.state_dict() + environment history + RNG state``, so a killed
campaign resumes *mid-run* bit-identically instead of re-simulating from
scratch.

Proposals are dispatched to the environment's batch entry points by kind
(flat vectors, RL action matrices, physical sizings), so every simulator
batch reaches the :class:`~repro.eval.Evaluator` in exactly the shape the
strategy asked for — stacking and caching stay below the method, and
the batches are identical to the pre-redesign loops (verified by the
parity tests in ``tests/test_driver.py``).
"""

from __future__ import annotations

import logging
import pickle
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.env.environment import SizingEnvironment, StepResult
from repro.optim.base import OptimizationResult
from repro.optim.strategy import Proposal, Strategy
from repro.store.base import RunKey, RunStore

#: Checkpoint blob format version (bump on incompatible layout changes).
CHECKPOINT_VERSION = 1


@dataclass
class DriverStep:
    """Telemetry handed to per-step callbacks after each ask/tell cycle.

    Attributes:
        step: 1-based index of the completed ask/tell cycle.
        num_proposals: Evaluations consumed by this cycle.
        evaluated: Total evaluations consumed so far (across resumes).
        budget: The run's total evaluation budget.
        best_reward: Best FoM found so far.
        wall_time_s: Wall-clock seconds spent so far (across resumes).
    """

    step: int
    num_proposals: int
    evaluated: int
    budget: int
    best_reward: float
    wall_time_s: float


#: A per-step callback; returning a truthy value stops the run early.
StepCallback = Callable[[DriverStep], Optional[bool]]


class OptimizationDriver:
    """Drives one ask/tell :class:`Strategy` against one environment.

    Args:
        strategy: The optimization strategy to drive.
        environment: The environment evaluations go through; defaults to
            (and must be) the strategy's own environment — the optimization
            history lives there.
        budget: Total simulator evaluations the run may consume.
        store: Optional run store holding mid-run checkpoints.
        run_key: Canonical key the checkpoints are filed under (required for
            checkpointing/resume when ``store`` is given).
        checkpoint_every: Write a checkpoint every K ask/tell steps
            (0 disables periodic checkpoints; an interrupted ``run`` still
            writes one final checkpoint so ``max_steps`` workflows resume).
        callbacks: Per-step :data:`StepCallback` hooks; any truthy return
            value stops the run early (the run still counts as finished).
        resume: Load the stored checkpoint (if any) before the first step.
        pause_check: Optional zero-argument hook polled before every
            ask/tell cycle.  A truthy return *pauses* the run exactly like
            ``max_steps`` — checkpoint written, :attr:`finished` left False,
            partial result returned — letting an external supervisor (a
            cluster worker's SIGTERM handler) stop mid-run resumably.  An
            exception raised by the hook propagates *without* writing a
            checkpoint: that path signals the run no longer belongs to this
            process (see ``repro.cluster.LeaseLostError``) and its state on
            the store must not be touched.
    """

    def __init__(
        self,
        strategy: Strategy,
        environment: Optional[SizingEnvironment] = None,
        budget: int = 0,
        store: Optional[RunStore] = None,
        run_key: Optional[RunKey] = None,
        checkpoint_every: int = 0,
        callbacks: Sequence[StepCallback] = (),
        resume: bool = True,
        pause_check: Optional[Callable[[], bool]] = None,
    ):
        if environment is None:
            environment = strategy.environment
        if environment is not strategy.environment:
            raise ValueError(
                "the driver must run a strategy against its own environment "
                "(the optimization history is recorded there)"
            )
        self.strategy = strategy
        self.environment = environment
        self.budget = int(budget)
        self.store = store
        self.run_key = run_key
        self.checkpoint_every = int(checkpoint_every)
        self.callbacks: List[StepCallback] = list(callbacks)
        self.resume = resume
        self.pause_check = pause_check

        self.evaluated = 0
        self.step = 0
        self.step_evaluations: List[int] = []
        self.wall_time_s = 0.0
        #: True once the budget is exhausted, the strategy reports ``done``
        #: or a callback stopped the run; False after a ``max_steps`` pause.
        self.finished = False
        self.resumed = False
        self._resume_attempted = False
        self._checkpointed = False

    # --- persistence --------------------------------------------------------------
    def _checkpoint_state(self) -> bytes:
        payload = {
            "version": CHECKPOINT_VERSION,
            "strategy": self.strategy.state_dict(),
            "environment": self.environment.state_dict(),
            "evaluated": int(self.evaluated),
            "step": int(self.step),
            "step_evaluations": list(self.step_evaluations),
            "wall_time_s": float(self.wall_time_s),
        }
        return pickle.dumps(payload)

    def save_checkpoint(self) -> None:
        """Persist the full mid-run state under the run's canonical key."""
        if self.store is None or self.run_key is None:
            raise ValueError("checkpointing needs both a store and a run_key")
        self.store.put_checkpoint(self.run_key, self._checkpoint_state())
        self._checkpointed = True

    def _maybe_resume(self) -> None:
        if self._resume_attempted:
            return
        self._resume_attempted = True
        if not self.resume or self.store is None or self.run_key is None:
            return
        blob = self.store.get_checkpoint(self.run_key)
        if blob is None:
            return
        try:
            payload = pickle.loads(blob)
        except Exception as error:
            payload = error  # fall through to the corrupt-blob branch
        if not isinstance(payload, dict):
            # A torn or corrupt checkpoint (worker killed mid-write on a
            # backend without atomic blob replace, disk truncation, ...)
            # must not wedge the cell forever: drop it and restart the run
            # from step zero.  Only the steps since the last good
            # checkpoint are re-paid.
            logging.getLogger(__name__).warning(
                "discarding corrupt checkpoint for %s: %s",
                self.run_key.key_id(),
                payload if isinstance(payload, Exception) else type(payload).__name__,
            )
            self.store.delete_checkpoint(self.run_key)
            return
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {version} is not supported "
                f"(expected {CHECKPOINT_VERSION}); delete the stale checkpoint"
            )
        self.strategy.load_state_dict(payload["strategy"])
        self.environment.load_state_dict(payload["environment"])
        self.evaluated = int(payload["evaluated"])
        self.step = int(payload["step"])
        self.step_evaluations = list(payload["step_evaluations"])
        self.wall_time_s = float(payload["wall_time_s"])
        self.resumed = True
        self._checkpointed = True

    # --- evaluation dispatch ------------------------------------------------------
    def _dispatch(self, proposals: Sequence[Proposal]) -> List[StepResult]:
        """Evaluate proposals through the environment, grouped by kind.

        Consecutive proposals of the same kind form one environment batch
        (and therefore one evaluator batch), preserving submission order.
        Clipping to the design cube is owned by the environment's
        :class:`~repro.env.normalized.NormalizedEnv` wrapper — the driver
        forwards proposals untouched.
        """
        results: List[StepResult] = []
        start = 0
        while start < len(proposals):
            kind = proposals[start].kind()
            stop = start
            while stop < len(proposals) and proposals[stop].kind() == kind:
                stop += 1
            chunk = proposals[start:stop]
            if kind == "vector":
                points = np.asarray([p.vector for p in chunk], dtype=float)
                results.extend(self.environment.evaluate_normalized_batch(points))
            elif kind == "actions":
                results.extend(
                    self.environment.step_batch([p.actions for p in chunk])
                )
            else:
                results.extend(
                    self.environment.evaluate_sizings([p.sizing for p in chunk])
                )
            start = stop
        return results

    # --- the loop -----------------------------------------------------------------
    def run(self, max_steps: Optional[int] = None) -> OptimizationResult:
        """Run ask/tell cycles until the budget is spent (or ``max_steps``).

        Args:
            max_steps: Pause after this many ask/tell cycles *in this call*.
                A paused run writes a final checkpoint (when a store is
                bound), leaves :attr:`finished` False and returns the
                partial result; calling :meth:`run` again — or rebuilding
                the driver against the same store — continues bit-identically.
        """
        self._maybe_resume()
        wall_base = self.wall_time_s
        start_time = time.perf_counter()
        steps_this_call = 0
        stopped_early = False

        def sync_wall_time() -> None:
            self.wall_time_s = wall_base + (time.perf_counter() - start_time)

        while self.evaluated < self.budget and not self.strategy.done():
            if (max_steps is not None and steps_this_call >= max_steps) or (
                self.pause_check is not None and self.pause_check()
            ):
                sync_wall_time()
                if self.store is not None and self.run_key is not None:
                    self.save_checkpoint()
                self.finished = False
                return self.result()
            self.strategy.remaining = self.budget - self.evaluated
            proposals = self.strategy.ask()
            if not proposals:
                raise RuntimeError(
                    f"strategy {self.strategy.name!r} proposed nothing but is "
                    "not done(); refusing to spin"
                )
            proposals = proposals[: self.budget - self.evaluated]
            results = self._dispatch(proposals)
            self.strategy.tell(proposals, results)
            self.evaluated += len(proposals)
            self.step += 1
            steps_this_call += 1
            self.step_evaluations.append(len(proposals))
            sync_wall_time()

            event = DriverStep(
                step=self.step,
                num_proposals=len(proposals),
                evaluated=self.evaluated,
                budget=self.budget,
                best_reward=float(self.environment.best_reward),
                wall_time_s=self.wall_time_s,
            )
            for callback in self.callbacks:
                if callback(event):
                    stopped_early = True
            if stopped_early:
                break
            if (
                self.checkpoint_every > 0
                and self.store is not None
                and self.run_key is not None
                and self.step % self.checkpoint_every == 0
                and self.evaluated < self.budget
            ):
                self.save_checkpoint()

        sync_wall_time()
        self.finished = True
        # A run that ever checkpointed overwrites its last mid-run blob with
        # the *completed* state, so a later driver bound to the same
        # store+key "resumes" into an already-exhausted budget (an instant
        # no-op) instead of re-simulating the final segment from a stale
        # checkpoint.  The record-writing caller (run_method) deletes the
        # blob outright once the final record is stored.
        if self._checkpointed and self.store is not None and self.run_key is not None:
            self.save_checkpoint()
        return self.result()

    def result(self) -> OptimizationResult:
        """Package the environment history into an :class:`OptimizationResult`."""
        environment = self.environment
        return OptimizationResult(
            method=self.strategy.name,
            best_reward=environment.best_reward,
            best_metrics=dict(environment.best_metrics or {}),
            best_sizing=dict(environment.best_sizing or {}),
            rewards=list(environment.rewards()),
            num_evaluations=len(environment.history),
            wall_time_s=self.wall_time_s,
            step_evaluations=list(self.step_evaluations),
        )
