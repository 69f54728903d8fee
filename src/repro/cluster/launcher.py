"""Spawn N local campaign workers as subprocesses over one shared store.

The launcher is deliberately thin: each worker is just
``python -m repro.experiments worker --store-dir ... --spec ...`` — the
exact command any *other* process on the host would run to join the sweep.
All coordination happens through the store's lease table; the launcher
only forks and waits.

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
from typing import List, Optional

from repro.cluster.leases import DEFAULT_TTL
from repro.store.campaign import Campaign
from repro.store.sqlite import SqliteStore


class ClusterLauncher:
    """Runs one campaign grid with N local worker subprocesses.

    Args:
        campaign: The grid, store and run configuration to execute.  Its
            store must be a :class:`~repro.store.SqliteStore` (the workers
            share its directory) and its grid a spec (shipped to them as
            ``--spec``); its warm-up fraction and evaluator stack are
            exported to the children's environment.
        workers: Number of worker processes.
        ttl: Lease time-to-live each worker uses.
        checkpoint_every: Driver checkpoint period (steps) in each worker.
        poll_interval: Worker sleep when all remaining cells are leased.
        worker_prefix: Worker ids are ``{prefix}{index}``.
    """

    def __init__(
        self,
        campaign: Campaign,
        workers: int = 2,
        ttl: float = DEFAULT_TTL,
        checkpoint_every: int = 1,
        poll_interval: float = 0.5,
        worker_prefix: str = "worker",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if campaign.cells is not None or not isinstance(campaign.store, SqliteStore):
            grid = "cell list" if campaign.cells is not None else "grid spec"
            raise ValueError(
                "a distributed sweep needs a grid spec and a directory-backed "
                "(sqlite) store shared between workers; got a "
                f"{grid} on {type(campaign.store).__name__}"
            )
        self.campaign = campaign
        self.store_dir = campaign.store.directory
        self.workers = int(workers)
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
            json.dumps(self.campaign.spec.to_dict(), sort_keys=True),
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
        evaluator = self.campaign.evaluator_config
        env["REPRO_WARMUP_FRACTION"] = str(self.campaign.settings.warmup_fraction)
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

    def run(self, timeout: Optional[float] = None) -> List[int]:
        """Spawn the workers, wait for them, and return their exit codes.

        The campaign's store holds the outcome; ``Campaign.run(workers=N)``
        reads its report from there.
        """
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
        return [process.returncode for process in self.processes]

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
