"""Supervised pool execution: retry lost work, isolate poison, degrade.

:class:`PoolSupervisor` runs a set of independent tasks through an
executor pool it can *rebuild*.  A worker death marks the whole
``ProcessPoolExecutor`` broken and fails every pending future; naive
callers see :class:`~concurrent.futures.process.BrokenProcessPool` and
lose the entire run.  The supervisor instead:

1. keeps every result that completed before the crash,
2. rebuilds the pool through ``pool_factory`` (a process-pool initializer
   hands every new worker the same read-only state the old ones had),
3. retries only the lost tasks under a :class:`RetryPolicy`,
4. re-runs crash suspects in *singleton* batches, so a deterministically
   crashing task is identified exactly and fails the run with a
   structured :class:`~repro.errors.PoisonTaskError` instead of cycling
   the pool forever,
5. falls back to in-process serial execution when pools cannot be (re)built
   or keep dying without an attributable culprit — degraded, but alive.

Tasks that *raise* (pool intact) are retried up to the policy's budget and
then also surface as :class:`PoisonTaskError`, preserving the original
exception as ``__cause__``.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Executor, Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import PoisonTaskError
from ..obs import log_event
from .retry import RetryPolicy
from .stats import resilience_stats

logger = logging.getLogger("repro.resilience")

#: A task that has crashed a pool this many times — the last time while
#: running *alone* — is declared poison.
POISON_CRASH_THRESHOLD = 2

DEFAULT_MAX_POOL_FAILURES = 4


@dataclass
class SupervisionReport:
    """What happened while supervising one run."""

    pool_failures: int = 0
    pool_recoveries: int = 0
    task_retries: int = 0
    degraded_serial: bool = False
    crash_suspects: List[Any] = field(default_factory=list)


class PoolSupervisor:
    """Run independent tasks through a rebuildable executor pool.

    Parameters
    ----------
    pool_factory:
        Zero-arg callable building a fresh pool; called again after each
        worker crash.  A factory failure triggers serial degradation.
    submit:
        ``submit(pool, item) -> Future`` dispatching one task.
    serial:
        ``serial(item) -> result`` computing one task in-process; the
        degradation path.  Must not depend on pool worker state.
    retry:
        Backoff/attempt budget for lost and failing tasks.
    stage_size:
        Tasks dispatched per batch in healthy operation (the paper's
        stage construction: ``num_workers`` consecutive seeds).
    max_pool_failures:
        Unattributable pool crashes tolerated before degrading to serial.
    """

    def __init__(
        self,
        pool_factory: Callable[[], Executor],
        submit: Callable[[Executor, Any], Future],
        serial: Callable[[Any], Any],
        *,
        retry: Optional[RetryPolicy] = None,
        stage_size: int = 1,
        max_pool_failures: int = DEFAULT_MAX_POOL_FAILURES,
        sleep: Callable[[float], None] = time.sleep,
        label: str = "pool",
    ) -> None:
        self._pool_factory = pool_factory
        self._submit = submit
        self._serial = serial
        self._retry = retry or RetryPolicy()
        self._stage_size = max(1, stage_size)
        self._max_pool_failures = max_pool_failures
        self._sleep = sleep
        self._label = label
        self._pool: Optional[Executor] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _abandon_pool(self) -> None:
        """Drop a broken pool without waiting on its corpse."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, items: Sequence[Any]) -> Tuple[List[Any], SupervisionReport]:
        """Execute every item; return results (in item order) and a report."""
        report = SupervisionReport()
        stats = resilience_stats()
        results: Dict[int, Any] = {}
        queue: deque = deque(enumerate(items))
        suspects: deque = deque()  # crash suspects, re-run one at a time
        crash_counts: Dict[int, int] = {}
        error_counts: Dict[int, int] = {}
        degraded = False

        try:
            try:
                self._pool = self._pool_factory()
            except Exception as exc:
                logger.warning(
                    "resilience: %s construction failed (%s: %s); "
                    "degrading to in-process serial execution",
                    self._label, type(exc).__name__, exc,
                )
                degraded = True

            while not degraded and (queue or suspects):
                if suspects:
                    batch = [suspects.popleft()]
                else:
                    batch = [queue.popleft() for _ in range(min(self._stage_size, len(queue)))]

                futures: Dict[Future, Tuple[int, Any]] = {}
                crashed = False
                unsubmitted: List[Tuple[int, Any]] = []
                for position, entry in enumerate(batch):
                    try:
                        futures[self._submit(self._pool, entry[1])] = entry
                    except BrokenExecutor:
                        crashed = True
                        unsubmitted = batch[position:]
                        break

                lost: List[Tuple[int, Any]] = []
                failed: List[Tuple[int, Any, BaseException]] = []
                for future, entry in futures.items():
                    try:
                        results[entry[0]] = future.result()
                    except BrokenExecutor:
                        crashed = True
                        lost.append(entry)
                    except Exception as exc:
                        failed.append((entry[0], entry[1], exc))

                # Never-started work goes straight back — no suspicion earned.
                queue.extendleft(reversed(unsubmitted))

                for idx, item, exc in failed:
                    error_counts[idx] = error_counts.get(idx, 0) + 1
                    if not self._retry.should_retry(error_counts[idx]):
                        stats.increment("poison_tasks")
                        raise PoisonTaskError(
                            f"task {item!r} failed {error_counts[idx]} times in "
                            f"{self._label} (last: {type(exc).__name__}: {exc}); "
                            "giving up",
                            item=item,
                            attempts=error_counts[idx],
                            mode="error",
                        ) from exc
                    report.task_retries += 1
                    stats.increment("task_retries")
                    log_event(
                        "task_retried",
                        level=logging.WARNING,
                        pool=self._label,
                        error=type(exc).__name__,
                        attempt=error_counts[idx],
                        max_attempts=self._retry.max_attempts,
                    )
                    logger.warning(
                        "resilience: task %r raised %s (attempt %d/%d); retrying",
                        item, type(exc).__name__,
                        error_counts[idx], self._retry.max_attempts,
                    )
                    queue.appendleft((idx, item))
                if failed and not crashed:
                    self._sleep(self._retry.backoff(max(error_counts[i] for i, _, _ in failed)))

                if crashed:
                    degraded = not self._recover(
                        lost, suspects, crash_counts, report, stats
                    )

            if queue or suspects:
                report.degraded_serial = True
                report.crash_suspects = [item for _, item in suspects]
                stats.increment("serial_fallbacks")
                stats.set_pool_degraded(True)
                log_event(
                    "serial_fallback",
                    level=logging.WARNING,
                    pool=self._label,
                    remaining_tasks=len(queue) + len(suspects),
                    pool_failures=report.pool_failures,
                )
                logger.warning(
                    "resilience: %s degraded to in-process serial execution "
                    "for %d remaining task(s) after %d pool failure(s)",
                    self._label, len(queue) + len(suspects), report.pool_failures,
                )
                for idx, item in list(suspects) + list(queue):
                    results[idx] = self._serial(item)
            else:
                stats.set_pool_degraded(False)
        finally:
            self.shutdown()

        return [results[idx] for idx in sorted(results)], report

    # ------------------------------------------------------------------ #
    # Crash handling
    # ------------------------------------------------------------------ #
    def _recover(
        self,
        lost: List[Tuple[int, Any]],
        suspects: deque,
        crash_counts: Dict[int, int],
        report: SupervisionReport,
        stats,
    ) -> bool:
        """Handle one broken pool; return True if pooled execution continues."""
        report.pool_failures += 1
        stats.increment("pool_failures")
        logger.warning(
            "resilience: %s broken (worker died) with %d task(s) in flight; "
            "failure %d/%d",
            self._label, len(lost), report.pool_failures, self._max_pool_failures,
        )

        for idx, item in lost:
            crash_counts[idx] = crash_counts.get(idx, 0) + 1
            # A task that crashed the pool while running *alone* — after
            # already being implicated once — is deterministically poison.
            if len(lost) == 1 and crash_counts[idx] >= POISON_CRASH_THRESHOLD:
                stats.increment("poison_tasks")
                raise PoisonTaskError(
                    f"task {item!r} crashed its worker process "
                    f"{crash_counts[idx]} times (isolated re-run confirmed); "
                    "refusing to retry further",
                    item=item,
                    attempts=crash_counts[idx],
                    mode="crash",
                )
        # Re-run every implicated task one at a time so the next crash is
        # attributable to exactly one of them.
        suspects.extend(lost)

        self._abandon_pool()
        if report.pool_failures >= self._max_pool_failures:
            logger.warning(
                "resilience: %s failed %d times without an attributable "
                "poison task; giving up on pooled execution",
                self._label, report.pool_failures,
            )
            return False
        self._sleep(self._retry.backoff(report.pool_failures))
        try:
            self._pool = self._pool_factory()
        except Exception as exc:
            logger.warning(
                "resilience: %s rebuild failed (%s: %s); degrading",
                self._label, type(exc).__name__, exc,
            )
            return False
        report.pool_recoveries += 1
        stats.increment("pool_recoveries")
        log_event(
            "pool_recovered",
            level=logging.WARNING,
            pool=self._label,
            pool_failures=report.pool_failures,
            lost_tasks=len(lost),
        )
        logger.warning(
            "resilience: %s rebuilt; retrying %d lost task(s)",
            self._label, len(lost),
        )
        return True
