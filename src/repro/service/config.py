"""Declarative service configuration with ``REPRO_SERVE_*`` env overrides.

Mirrors the :class:`~repro.eval.EvaluatorConfig` idiom: a frozen-ish
dataclass that describes the server without holding any resources, so the
CLI, tests and the demo can all construct servers the same validated way.

Environment overrides (each beaten by the matching CLI flag):

* ``REPRO_SERVE_HOST`` / ``REPRO_SERVE_PORT`` — bind address.
* ``REPRO_SERVE_LINGER_MS`` — coalescing window: how long an evaluate
  submission waits for same-bucket company before a batch is issued.
* ``REPRO_SERVE_MAX_BATCH`` — designs per coalesced simulator batch.
* ``REPRO_SERVE_CHECKPOINT_EVERY`` — driver steps between run checkpoints.
* ``REPRO_SERVE_CACHE`` — per-bucket LRU design-cache capacity.
* ``REPRO_SERVE_MAX_PENDING`` — admission-control bound on queued designs.
* ``REPRO_SERVE_EVAL_ATTEMPTS`` — attempts per design for the failure
  kinds a retry can fix (injected faults, timeouts, worker crashes).
* ``REPRO_SERVE_CHAOS_RATE`` / ``REPRO_SERVE_CHAOS_SEED`` /
  ``REPRO_SERVE_CHAOS_TRANSIENT`` — seeded fault injection (chaos testing
  against a live server; 0 rate = off).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.eval import BACKENDS, EvaluatorConfig
from repro.experiments.config import _env_float, _env_int
from repro.resilience import RetryPolicy

#: Default TCP port of the optimization service.
DEFAULT_PORT = 8711

#: Default coalescing window in milliseconds.
DEFAULT_LINGER_MS = 10.0

#: Default per-bucket design-cache capacity (dedup across clients needs it).
DEFAULT_CACHE_SIZE = 4096


@dataclass
class ServiceConfig:
    """Everything needed to start one :class:`~repro.service.OptimizationService`.

    Attributes:
        host: Bind address.
        port: Bind port (0 asks the OS for an ephemeral port — tests).
        store_dir: Store directory runs/checkpoints persist to (a SQLite
            store, whose WAL mode shares it with external readers).  Empty
            serves from memory: fine, but restarts are not lossless.
        eval_backend: Evaluator backend coalesced batches go through
            (``local`` is bit-identical to direct evaluation; ``vectorized``
            trades ~1e-12 FoM parity for the stacked-MNA speedup).
        cache_size: Per-bucket LRU design cache; also the cross-client dedup
            substrate, so 0 disables stored-result dedup.
        checkpoint_every: Driver steps between run checkpoints (0 disables —
            restarts then replay runs from scratch).
        linger_ms: Coalescing window in milliseconds.
        max_batch: Designs per coalesced evaluator batch.
        max_pending: Admission-control bound on queued designs; a submit
            that would overflow it gets a retryable ``overloaded`` error
            (0 = unbounded).
        eval_attempts: Evaluation attempts per design before a retryable
            failure is terminal (1 = no retry).
        chaos_rate: Fraction of designs the chaos harness poisons with
            injected simulator faults (0 disables injection entirely).
        chaos_seed: Seed of the deterministic fault-injection decisions.
        chaos_transient: Attempts each poisoned design fails before
            recovering (0 = faults are permanent → quarantine).
    """

    host: str = field(
        default_factory=lambda: os.environ.get("REPRO_SERVE_HOST", "127.0.0.1")
    )
    port: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_PORT", DEFAULT_PORT, 0)
    )
    store_dir: str = ""
    eval_backend: str = "local"
    cache_size: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_CACHE", DEFAULT_CACHE_SIZE, 0)
    )
    checkpoint_every: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_CHECKPOINT_EVERY", 1, 0)
    )
    linger_ms: float = field(
        default_factory=lambda: _env_float("REPRO_SERVE_LINGER_MS", DEFAULT_LINGER_MS)
    )
    max_batch: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_MAX_BATCH", 64, 1)
    )
    max_pending: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_MAX_PENDING", 0, 0)
    )
    eval_attempts: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_EVAL_ATTEMPTS", 3, 1)
    )
    chaos_rate: float = field(
        default_factory=lambda: _env_float("REPRO_SERVE_CHAOS_RATE", 0.0)
    )
    chaos_seed: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_CHAOS_SEED", 0, 0)
    )
    chaos_transient: int = field(
        default_factory=lambda: _env_int("REPRO_SERVE_CHAOS_TRANSIENT", 1, 0)
    )

    def __post_init__(self):
        if not (0 <= int(self.port) <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.eval_backend not in BACKENDS:
            raise ValueError(
                f"unknown eval backend {self.eval_backend!r}; "
                f"expected one of {BACKENDS}"
            )
        if self.linger_ms < 0:
            raise ValueError(f"linger_ms must be >= 0, got {self.linger_ms}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {self.max_pending}")
        if self.eval_attempts < 1:
            raise ValueError(
                f"eval_attempts must be >= 1, got {self.eval_attempts}"
            )
        if not (0.0 <= self.chaos_rate <= 1.0):
            raise ValueError(
                f"chaos_rate must be in [0, 1], got {self.chaos_rate}"
            )
        if self.chaos_transient < 0:
            raise ValueError(
                f"chaos_transient must be >= 0, got {self.chaos_transient}"
            )

    def retry_policy(self) -> RetryPolicy:
        """The retry policy of the coalescer's resilient wrapper."""
        return RetryPolicy(max_attempts=self.eval_attempts)

    def chaos_config(self) -> Optional[Dict[str, Any]]:
        """Fault-injection kwargs for the coalescer (``None`` = chaos off)."""
        if self.chaos_rate <= 0:
            return None
        return {
            "seed": self.chaos_seed,
            "error_rate": self.chaos_rate,
            "transient_attempts": self.chaos_transient,
        }

    def evaluator_config(self) -> EvaluatorConfig:
        """The evaluator stack each coalescer bucket is built with."""
        return EvaluatorConfig(backend=self.eval_backend, cache_size=self.cache_size)

    def describe(self) -> str:
        """One-line summary used by the startup banner and logs."""
        store = f"sqlite:{self.store_dir}" if self.store_dir else "memory"
        chaos = (
            f", chaos={self.chaos_rate}@seed{self.chaos_seed}"
            if self.chaos_rate > 0
            else ""
        )
        return (
            f"ServiceConfig({self.host}:{self.port}, store={store}, "
            f"eval={self.eval_backend}, linger={self.linger_ms}ms, "
            f"checkpoint_every={self.checkpoint_every}{chaos})"
        )
