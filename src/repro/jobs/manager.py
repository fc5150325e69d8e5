"""The :class:`JobManager`: the table of async jobs and their lifecycle.

Wraps a :class:`~repro.service.KPlexService` so long enumerations become
first-class :class:`~repro.jobs.job.Job` records instead of pinned HTTP
connections.  A job is a streamed view of the service's own solve:

* **admission and execution** — a job passes the same capacity counter
  and worker pool as ``/v1/solve`` (beyond capacity,
  :class:`~repro.errors.JobQueueFullError`, HTTP 429).  Its worker consumes
  :meth:`KPlexService.stream_run`, which replays a cached answer or streams
  the search and fills the cache.  Results feed the job's progress counters
  and its bounded :class:`~repro.jobs.job.ResultLog`, so a slow stream
  reader pauses the producer and keeps holding its service worker;
* **cancellation** — ``DELETE``-driven :meth:`cancel` propagates through
  the stream's cooperative token, so solver work actually stops;
* **garbage collection** — terminal jobs expire after their TTL (results
  freed, record retained), and the table is capped at ``max_jobs``
  records with the oldest terminal ones evicted first;
* **metrics** — jobs by state, queue depth, and a time-to-first-result
  histogram, exported as one JSON-ready snapshot.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..api.request import EnumerationRequest
from ..api.response import TERMINATION_CANCELLED
from ..errors import (
    JobNotFoundError,
    JobQueueFullError,
    ParameterError,
    ServiceClosedError,
    ServiceOverloadError,
)
from ..graph import Graph
from ..obs import Trace, TraceRecorder, activate, current_trace, log_event
from ..service.service import KPlexService
from .job import (
    JOB_CANCELLED,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    JOB_STATES,
    JOB_SUCCEEDED,
    Job,
)

#: Drain policies accepted by :meth:`JobManager.close`.
DRAIN_WAIT = "wait"
DRAIN_CANCEL = "cancel"
DRAIN_POLICIES = (DRAIN_WAIT, DRAIN_CANCEL)


@dataclass(frozen=True)
class JobManagerConfig:
    """Tunable knobs of :class:`JobManager`.

    Jobs run under the service's admission budget, so these shape the table.

    Attributes
    ----------
    result_buffer:
        Default per-job bound on buffered results (``None`` = unbounded);
        each submission may override it.
    ttl_seconds:
        Default retention of a terminal job's results before it expires.
    max_jobs:
        Hard cap on retained job records (terminal ones evicted oldest
        first beyond it).
    """

    result_buffer: Optional[int] = 4096
    ttl_seconds: float = 300.0
    max_jobs: int = 1024

    def __post_init__(self) -> None:
        if self.result_buffer is not None and self.result_buffer < 1:
            raise ParameterError(
                f"result_buffer must be >= 1 or None, got {self.result_buffer}"
            )
        if self.ttl_seconds < 0:
            raise ParameterError(
                f"ttl_seconds must be non-negative, got {self.ttl_seconds}"
            )
        if self.max_jobs < 1:
            raise ParameterError(f"max_jobs must be >= 1, got {self.max_jobs}")


class JobManager:
    """Lifecycle table of async enumeration jobs run by a service.

    >>> from repro.service import KPlexService
    >>> from repro.jobs import JobManager
    >>> service = KPlexService()
    >>> service.catalog.register("toy", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    CatalogEntry(name='toy', ...)
    >>> manager = JobManager(service)
    >>> job = manager.submit("toy", k=2, q=3)
    >>> manager.wait(job.id).state
    'succeeded'

    (doctest shown for shape only — see ``tests/test_jobs.py``.)
    """

    def __init__(
        self,
        service: KPlexService,
        config: Optional[JobManagerConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.service = service
        self.config = config or JobManagerConfig()
        self._clock = clock
        # Completed job traces are published here (the HTTP server passes
        # its ring buffer, making them retrievable via /v1/trace/<id>).
        self._recorder = recorder
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        # Counters (under self._lock).
        self._submitted = 0
        self._rejected = 0
        self._succeeded = 0
        self._failed = 0
        self._cancelled = 0
        self._expired = 0
        self._evicted = 0
        self._ttfr = service.telemetry.histogram(
            "job_ttfr_seconds",
            help_text="Time from job submission to its first streamed result",
        )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Union[EnumerationRequest, str, Graph],
        k: Optional[int] = None,
        q: Optional[int] = None,
        result_buffer: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
        **kwargs: object,
    ) -> Job:
        """Admit a job and return its PENDING record immediately.

        Accepts either a finished :class:`EnumerationRequest` or a catalog
        name / graph plus ``k``, ``q`` and request keywords (the same
        surface as :meth:`KPlexService.submit`).  ``result_buffer`` and
        ``ttl_seconds`` override the manager defaults for this job only.

        Raises :class:`JobQueueFullError` when the service's ``max_workers +
        max_queue_depth`` solves and jobs are already outstanding and
        :class:`ServiceClosedError` after :meth:`close`.
        """
        coerced = self.service._coerce(request, k, q, kwargs)
        if result_buffer is not None and result_buffer < 1:
            raise ParameterError(
                f"result_buffer must be >= 1, got {result_buffer}"
            )
        if ttl_seconds is not None and ttl_seconds < 0:
            raise ParameterError(
                f"ttl_seconds must be non-negative, got {ttl_seconds}"
            )
        spec = coerced.describe()
        if isinstance(request, str):
            spec["graph"] = request
        with self._lock:
            # Checked under the lock close() takes, so every job that can
            # still run is in the table close() settles.
            if self._closed:
                raise ServiceClosedError("the job manager is closed")
            self._gc_locked()
            job_id = uuid.uuid4().hex[:16]
            while job_id in self._jobs:  # pragma: no cover - 64-bit collision
                job_id = uuid.uuid4().hex[:16]
            job = Job(
                job_id,
                coerced,
                spec,
                result_buffer=(
                    self.config.result_buffer if result_buffer is None else result_buffer
                ),
                ttl_seconds=self.config.ttl_seconds if ttl_seconds is None else ttl_seconds,
                clock=self._clock,
            )
            self._jobs[job.id] = job
        # Jobs outlive the submitting request: each run gets its own trace
        # (request_id = job id) that remembers the submitter's request_id.
        parent = current_trace()
        try:
            future = self.service._admit(
                self._run, job, parent.request_id if parent is not None else None
            )
        except BaseException as exc:
            # Never ran: settle the record (close() may be waiting on it)
            # and drop it from the table.
            job.cancel()
            with self._lock:
                self._jobs.pop(job.id, None)
                if isinstance(exc, ServiceOverloadError):
                    self._rejected += 1
            if isinstance(exc, ServiceOverloadError):
                raise JobQueueFullError(str(exc)) from exc
            raise
        job.future = future
        with self._lock:
            self._submitted += 1
        future.add_done_callback(lambda done: self._settle_unrun(job, done))
        log_event(
            "job_submitted",
            job_id=job.id,
            graph=spec.get("graph"),
            solver=spec.get("solver"),
        )
        return job

    def _settle_unrun(self, job: Job, future: Future) -> None:
        """A job whose pool future was cancelled before it ran ends cancelled."""
        if future.cancelled():
            self._cancel(job)

    # ------------------------------------------------------------------ #
    # Table access
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        """Return the job record, or raise :class:`JobNotFoundError`."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def jobs(self, states: Optional[Sequence[str]] = None) -> List[Job]:
        """List job records in submission order, optionally state-filtered."""
        if states is not None:
            unknown = set(states) - set(JOB_STATES)
            if unknown:
                raise ParameterError(
                    f"unknown job states {sorted(unknown)}; "
                    f"known states: {', '.join(JOB_STATES)}"
                )
            wanted = frozenset(states)
        else:
            wanted = None
        with self._lock:
            self._gc_locked()
            return [
                job
                for job in self._jobs.values()
                if wanted is None or job.state in wanted
            ]

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; ``True`` if it was still cancellable.

        Propagates through the engine's cooperative token: a RUNNING job's
        solver stops between results (its progress counters freeze), a
        PENDING one never starts and frees its service slot at once.
        """
        return self._cancel(self.get(job_id))

    def _cancel(self, job: Job) -> bool:
        cancelled = job.cancel()
        if cancelled and job.state == JOB_CANCELLED:
            # Cancelled before it ran: count it here and take its queued
            # work off the service's pool (the runner would skip it).
            with self._lock:
                self._cancelled += 1
            if job.future is not None:
                job.future.cancel()
        return cancelled

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job is terminal (polling); returns the record."""
        return self._await(self.get(job_id), timeout)

    def _await(self, job: Job, timeout: Optional[float] = None) -> Job:
        deadline = None if timeout is None else self._clock() + timeout
        while not job.terminal:
            if deadline is not None and self._clock() >= deadline:
                raise TimeoutError(
                    f"job {job.id} still {job.state} after {timeout}s"
                )
            time.sleep(0.005)
        return job

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def gc(self) -> int:
        """Expire terminal jobs past their TTL; returns how many expired."""
        with self._lock:
            return self._gc_locked()

    def _gc_locked(self) -> int:
        now = self._clock()
        expired = 0
        for job in self._jobs.values():
            if job.state not in (JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED):
                continue
            age = job.age_since_finish(now)
            ttl = job.ttl_seconds
            if age is not None and ttl is not None and age >= ttl:
                if job.expire():
                    expired += 1
                    self._expired += 1
        overflow = len(self._jobs) - self.config.max_jobs
        if overflow > 0:
            for job_id in [
                job.id for job in self._jobs.values() if job.terminal
            ][:overflow]:
                del self._jobs[job_id]
                self._evicted += 1
        return expired

    # ------------------------------------------------------------------ #
    # Metrics / lifecycle
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, object]:
        """One JSON-ready snapshot of the job table and its counters."""
        with self._lock:
            by_state = {state: 0 for state in JOB_STATES}
            buffered = dropped = 0
            for job in self._jobs.values():
                by_state[job.state] += 1
                buffered += job.results.buffered
                dropped += job.results.dropped
            snapshot: Dict[str, object] = {
                "submitted": self._submitted,
                "rejected": self._rejected,
                "succeeded": self._succeeded,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "expired": self._expired,
                "evicted": self._evicted,
                "by_state": by_state,
                "queue_depth": by_state[JOB_PENDING],
                "running": by_state[JOB_RUNNING],
                "buffered_results": buffered,
                "dropped_results": dropped,
                "ttfr_samples": self._ttfr.count,
            }
        if self._ttfr.count:
            snapshot["time_to_first_result_p50_seconds"] = self._ttfr.quantile(0.50)
            snapshot["time_to_first_result_p95_seconds"] = self._ttfr.quantile(0.95)
        return snapshot

    def summary(self) -> Dict[str, object]:
        """Compact job-table summary for drain-time snapshots."""
        metrics = self.metrics()
        return {
            "jobs_total": metrics["submitted"],
            "by_state": metrics["by_state"],
            "succeeded": metrics["succeeded"],
            "failed": metrics["failed"],
            "cancelled": metrics["cancelled"],
            "expired": metrics["expired"],
            "rejected": metrics["rejected"],
        }

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has begun; submissions are rejected."""
        return self._closed

    def close(self, policy: str = DRAIN_WAIT) -> None:
        """Stop accepting jobs and settle the live ones per ``policy``.

        ``"wait"`` lets running and queued jobs finish normally;
        ``"cancel"`` cancels every non-terminal job first (cooperatively —
        running solvers stop between results).  Both then wait until every
        live job is terminal.  The service stays open.  Idempotent.
        """
        if policy not in DRAIN_POLICIES:
            raise ParameterError(
                f"unknown drain policy {policy!r}; expected one of {DRAIN_POLICIES}"
            )
        with self._lock:
            self._closed = True
            live = [job for job in self._jobs.values() if not job.terminal]
        for job in live:
            if policy == DRAIN_CANCEL:
                self._cancel(job)
        for job in live:
            self._await(job)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _encode(index: int, plex) -> Dict[str, object]:
        """One streamed k-plex as its NDJSON wire record."""
        return {
            "index": index,
            "size": plex.size,
            "kplex": list(plex.labels),
        }

    def _run(self, job: Job, parent_request_id: Optional[str] = None) -> None:
        # Each job runs under its own trace, keyed by the job's request_id
        # (= job id), so /v1/trace/<job id> shows the async work; the
        # submitting HTTP request is linked via parent_request_id.
        if self._recorder is None:
            # Tracing disabled: no recorder means nobody can ever read the
            # trace, so skip the span bookkeeping entirely.
            self._run_traced(job)
            return
        trace = Trace(request_id=job.request_id)
        root = trace.span("job", job_id=job.id)
        if parent_request_id is not None:
            root.set(parent_request_id=parent_request_id)
        # Registered live (same reason as the HTTP handler): a poller that
        # sees the terminal state must already find the trace, and running
        # jobs stay inspectable under /v1/trace/<job id>.
        self._recorder.record(trace)
        try:
            with activate(root):
                self._run_traced(job)
        finally:
            root.finish()
            trace.finish()

    def _run_traced(self, job: Job) -> None:
        if not job.try_start():
            # Cancelled while queued; the admission slot frees here.
            log_event("job_cancelled_before_start", job_id=job.id)
            return
        log_event("job_started", job_id=job.id)
        try:
            iterator, outcome = self.service.stream_run(
                job.request, cancel=job.cancel_token
            )
            index = 0
            for plex in iterator:
                appended = job.results.append(
                    self._encode(index, plex),
                    should_abort=lambda: job.cancel_token.cancelled,
                )
                if not appended:
                    if job.cancel_token.cancelled:
                        continue  # the stream stops at its next cancel check
                    break  # pragma: no cover - log closed under the producer
                # Count only what was delivered into the log, so the final
                # record's count always matches the entries a reader sees.
                job.note_result()
                if index == 0:
                    self._ttfr.observe(job.first_result_seconds)
                index += 1
        except BaseException as exc:  # noqa: BLE001 - job table absorbs errors
            job.finish(JOB_FAILED, error=f"{type(exc).__name__}: {exc}")
            with self._lock:
                self._failed += 1
            log_event("job_failed", job_id=job.id, error=type(exc).__name__)
            raise  # the service's dispatch records the failure
        try:
            statistics = outcome.run.statistics().as_dict()
        except Exception:  # repro-lint: disable=swallowed-exception
            statistics = None  # stats are best-effort; the job result stands
        cancelled = outcome.termination == TERMINATION_CANCELLED
        job.finish(
            JOB_CANCELLED if cancelled else JOB_SUCCEEDED,
            termination=outcome.termination,
            elapsed_seconds=outcome.elapsed_seconds,
            statistics=statistics,
        )
        with self._lock:
            if cancelled:
                self._cancelled += 1
            else:
                self._succeeded += 1
        log_event(
            "job_cancelled" if cancelled else "job_succeeded",
            job_id=job.id,
            results=job.result_count,
            termination=outcome.termination,
            elapsed_seconds=outcome.elapsed_seconds,
        )
