"""Retry/timeout policy: how hard to try before a failure is terminal.

One frozen :class:`RetryPolicy` value travels the resilient evaluation
path — the wrapper and the service's coalescer speak the same knobs, so
"how many attempts / how long between them / how long may one attempt
run" is configured in one shape there.  The campaign worker retries whole
cells with its own ``cell_retries`` / ``retry_backoff_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.resilience.failures import RETRYABLE_KINDS


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + jitter and a deadline.

    Attributes:
        max_attempts: Total attempts per request (1 = no retry).
        base_delay_s: Backoff before the second attempt; doubles per retry.
        max_delay_s: Backoff ceiling.
        jitter: Fractional jitter: the delay is scaled by a uniform draw
            from ``[1, 1 + jitter]`` to de-synchronize retry storms.
        deadline_s: Per-attempt wall-clock deadline (``None`` = unlimited;
            the default, because enforcing a deadline costs a watcher
            thread per attempt and the fast path must stay free).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.1
    deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive when set, got {self.deadline_s}"
            )

    def retryable(self, kind: str) -> bool:
        """Whether a failure of ``kind`` is worth another attempt."""
        return kind in RETRYABLE_KINDS

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        delay = min(
            self.max_delay_s, self.base_delay_s * (2 ** max(attempt - 1, 0))
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


#: Immediate, single-attempt policy — resilience bookkeeping without retries.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0)
