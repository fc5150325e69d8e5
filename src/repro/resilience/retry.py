"""Retry policy: bounded attempts with jittered exponential backoff.

One policy object is shared by every layer that retries — the pool
supervisor (lost seed batches), the HTTP client (429/503 and reconnects)
and the job-stream resume loop — so the failure-handling defaults live in
exactly one place.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to wait between attempts.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first one; ``1`` means "never retry".
    backoff_seconds:
        Base delay before the first retry.
    backoff_multiplier:
        Exponential growth factor applied per subsequent retry.
    max_backoff_seconds:
        Upper clamp on any single computed delay (before jitter).
    jitter:
        Fraction of the delay randomised away (``0.25`` → the actual sleep
        is uniform in ``[0.75 * delay, delay]``), decorrelating retry storms
        across workers/clients.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def should_retry(self, attempt: int) -> bool:
        """Whether another attempt is allowed after ``attempt`` failures."""
        return attempt < self.max_attempts

    def backoff(self, attempt: int, rng: Optional[Callable[[], float]] = None) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered."""
        if attempt < 1:
            return 0.0
        delay = self.backoff_seconds * self.backoff_multiplier ** (attempt - 1)
        delay = min(delay, self.max_backoff_seconds)
        if self.jitter and delay > 0:
            draw = (rng or random.random)()
            delay *= 1.0 - self.jitter * draw
        return delay

    def sleep(
        self,
        attempt: int,
        *,
        retry_after: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[Callable[[], float]] = None,
    ) -> float:
        """Sleep before retry ``attempt``, honouring a server ``Retry-After`` hint.

        The hint wins when it is longer than the local backoff (the server
        knows its own backlog — e.g. its queue-drain estimate); it is still
        clamped to 60s so a hostile header cannot hang the client.
        """
        delay = self.backoff(attempt, rng=rng)
        if retry_after is not None and retry_after > delay:
            delay = min(float(retry_after), 60.0)
        if delay > 0:
            sleep(delay)
        return delay
