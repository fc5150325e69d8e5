"""Process-wide resilience counters.

The supervised executor runs deep inside the engine, far from any
:class:`~repro.service.service.ServiceMetrics` instance, so recovery
events are recorded here — one thread-safe, process-wide sink — and the
service layer folds a snapshot into its metrics (``kplex_recoveries_total``
et al. in the Prometheus rendering).  Counters only ever increase;
``pool_degraded`` is a gauge: set on serial fallback, cleared by the next
healthy pooled run.
"""

from __future__ import annotations

import threading
from typing import Dict

#: Stable counter set — always present in snapshots so scrapes never see
#: keys appear/disappear.
_COUNTERS = (
    "pool_failures",        # worker deaths / broken pools observed
    "pool_recoveries",      # pools successfully rebuilt mid-run
    "serial_fallbacks",     # runs degraded to in-process serial enumeration
    "task_retries",         # individual seed tasks resubmitted
    "poison_tasks",         # tasks that exhausted their retry budget
    "snapshots_quarantined",  # corrupt snapshot files renamed aside on load
)


class ResilienceStats:
    """Thread-safe monotonic counters plus the ``pool_degraded`` gauge."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._pool_degraded = 0

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def set_pool_degraded(self, degraded: bool) -> None:
        with self._lock:
            self._pool_degraded = 1 if degraded else 0

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    @property
    def pool_degraded(self) -> bool:
        with self._lock:
            return bool(self._pool_degraded)

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            out = dict(self._counts)
            out["pool_degraded"] = self._pool_degraded
            return out

    def reset(self) -> None:
        """Zero everything — test isolation only."""
        with self._lock:
            self._counts = {name: 0 for name in _COUNTERS}
            self._pool_degraded = 0


_GLOBAL = ResilienceStats()


def resilience_stats() -> ResilienceStats:
    """The process-wide sink the executor and persistence layers record into."""
    return _GLOBAL
