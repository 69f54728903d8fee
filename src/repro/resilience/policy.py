"""Retry policy: how many attempts, and how long to wait between them.

One frozen :class:`RetryPolicy` value shapes every retry loop: the
resilient evaluation wrapper (and so the service's coalescer) and the
campaign worker's cell retries.  Which failures deserve another attempt is
the taxonomy's call (:data:`~repro.resilience.failures.RETRYABLE_KINDS`),
not the policy's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff + jitter.

    Attributes:
        max_attempts: Total attempts per request (1 = no retry).
        base_delay_s: Backoff before the second attempt; doubles per retry.
        max_delay_s: Backoff ceiling.
        jitter: Fractional jitter: the delay is scaled by a uniform draw
            from ``[1, 1 + jitter]`` to de-synchronize retry storms.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        delay = min(
            self.max_delay_s, self.base_delay_s * (2 ** max(attempt - 1, 0))
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * rng.random()
        return delay
