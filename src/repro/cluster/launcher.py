"""Spawn N local campaign workers as subprocesses over one shared store.

The launcher is deliberately thin: each worker is just
``python -m repro.experiments worker --store-dir ... --spec ...`` — the
exact command any *other* process on the host would run to join the sweep.
All coordination happens through the store's lease table; the launcher
only forks, waits, and summarizes.

Run-key-affecting configuration travels to the children explicitly: the
grid as one ``--spec`` JSON argument, the RL warm-up fraction and the
evaluator stack as ``REPRO_*`` environment variables.  Anything less and a
child would compute different canonical keys than the parent — and the
sweep would silently duplicate every cell.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.leases import DEFAULT_TTL
from repro.store.campaign import CampaignSpec


@dataclass
class ClusterReport:
    """Outcome of one :meth:`ClusterLauncher.run`.

    Attributes:
        workers: Number of worker processes spawned.
        exit_codes: Their exit codes, in spawn order.
        total: Cells in the grid.
        completed: Cells whose final record is in the store afterwards.
        duration_s: Wall-clock seconds from spawn to last exit.
    """

    workers: int
    exit_codes: List[int] = field(default_factory=list)
    total: int = 0
    completed: int = 0
    duration_s: float = 0.0

    def ok(self) -> bool:
        """All workers exited cleanly and every cell completed."""
        return all(code == 0 for code in self.exit_codes) and (
            self.completed >= self.total
        )

    def summary(self) -> str:
        state = "complete" if self.completed >= self.total else "incomplete"
        return (
            f"cluster {state}: workers={self.workers} "
            f"exit_codes={self.exit_codes} completed={self.completed}/{self.total} "
            f"duration={self.duration_s:.1f}s"
        )


class ClusterLauncher:
    """Runs one campaign grid with N local worker subprocesses.

    Args:
        spec: The grid to execute.
        store_dir: Shared store directory all workers read/write.
        workers: Number of worker processes.
        settings: Experiment settings; the run-key-relevant parts
            (warm-up fraction, evaluator stack) are exported to the
            children's environment.
        evaluator_config: Evaluator stack override (else from settings).
        ttl: Lease time-to-live each worker uses.
        checkpoint_every: Driver checkpoint period (steps) in each worker.
        poll_interval: Worker sleep when all remaining cells are leased.
        worker_prefix: Worker ids are ``{prefix}{index}``.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store_dir: str,
        workers: int = 2,
        settings=None,
        evaluator_config=None,
        ttl: float = DEFAULT_TTL,
        checkpoint_every: int = 1,
        poll_interval: float = 0.5,
        worker_prefix: str = "worker",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.store_dir = str(store_dir)
        self.workers = int(workers)
        self.settings = settings
        self.evaluator_config = evaluator_config
        self.ttl = float(ttl)
        self.checkpoint_every = int(checkpoint_every)
        self.poll_interval = float(poll_interval)
        self.worker_prefix = worker_prefix
        self.processes: List[subprocess.Popen] = []

    def worker_command(self, index: int) -> List[str]:
        """The standalone CLI invocation of worker ``index``.

        Identical to what an operator would type in another terminal to
        join this sweep (with their own ``--worker-id``).
        """
        return [
            sys.executable,
            "-m",
            "repro.experiments",
            "worker",
            "--store-dir",
            self.store_dir,
            "--spec",
            json.dumps(self.spec.to_dict(), sort_keys=True),
            "--worker-id",
            f"{self.worker_prefix}{index}",
            "--ttl",
            str(self.ttl),
            "--poll",
            str(self.poll_interval),
            "--checkpoint-every",
            str(self.checkpoint_every),
        ]

    def _worker_env(self) -> dict:
        env = dict(os.environ)
        # The children must import this very repro tree, launcher-from-source
        # included (PYTHONPATH may not reach the subprocess otherwise).
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        # Everything that flows into run keys must match the parent exactly.
        if self.settings is not None:
            env["REPRO_WARMUP_FRACTION"] = str(self.settings.warmup_fraction)
        evaluator = self.evaluator_config
        if evaluator is None and self.settings is not None:
            evaluator = self.settings.evaluator_config()
        if evaluator is not None:
            env["REPRO_EVAL_BACKEND"] = evaluator.backend
            env["REPRO_EVAL_CACHE"] = str(evaluator.cache_size)
        return env

    def spawn(self) -> List[subprocess.Popen]:
        """Start all worker processes (stdout/stderr inherited)."""
        env = self._worker_env()
        self.processes = [
            subprocess.Popen(self.worker_command(index), env=env)
            for index in range(self.workers)
        ]
        return self.processes

    def run(self, timeout: Optional[float] = None) -> ClusterReport:
        """Spawn the workers, wait for them, and report completion."""
        from repro.store import SqliteStore
        from repro.store.campaign import Campaign

        started = time.perf_counter()
        if not self.processes:
            self.spawn()
        deadline = None if timeout is None else started + timeout
        try:
            for process in self.processes:
                remaining = None if deadline is None else max(
                    0.0, deadline - time.perf_counter()
                )
                process.wait(timeout=remaining)
        except (KeyboardInterrupt, subprocess.TimeoutExpired):
            self.terminate()
            raise
        report = ClusterReport(
            workers=self.workers,
            exit_codes=[process.returncode for process in self.processes],
            duration_s=time.perf_counter() - started,
        )
        with SqliteStore(self.store_dir) as store:
            campaign = Campaign(
                self.spec,
                store,
                settings=self.settings,
                evaluator_config=self.evaluator_config,
            )
            status = campaign.status()
        report.total = status["total"]
        report.completed = status["completed"]
        return report

    def terminate(self, grace_s: float = 10.0) -> None:
        """SIGTERM every worker (checkpoint-and-release), then SIGKILL."""
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + grace_s
        for process in self.processes:
            if process.poll() is None:
                remaining = max(0.0, deadline - time.perf_counter())
                try:
                    process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
