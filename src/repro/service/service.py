"""The concurrent enumeration service front-end.

:class:`KPlexService` turns the library into the system the ROADMAP
describes: a long-lived object answering heavy repeated k-plex traffic over
a :class:`~repro.service.catalog.GraphCatalog` of named graphs, with

* a bounded **worker pool** (threads — solvers release the GIL poorly, but
  the pool gives concurrency across cache hits, I/O-bound callers and the
  process-pool ``parallel`` solver, and bounds resource usage) plus
  **admission control**: at most ``max_workers + max_queue_depth`` solves
  and jobs are outstanding, everything beyond is rejected with
  :class:`~repro.errors.ServiceOverloadError` instead of queueing unboundedly;
* **cross-request caching**: a byte-budgeted
  :class:`~repro.service.cache.ResultCache` of completed responses;
  identical concurrent misses are coalesced so one search fills every
  waiter;
* **ServiceMetrics**: hit rate, p50/p95 latency, evictions, in-flight and
  admission counters, exported as one JSON-ready snapshot.

The service never mutates responses: cache hits return the shared completed
response object, so callers must treat responses as read-only (they already
are everywhere else in the repository).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Union

from ..api.engine import CancellationToken, KPlexEngine, StreamOutcome
from ..api.registry import SolverRun
from ..api.request import EnumerationRequest
from ..api.response import (
    TERMINATION_CANCELLED,
    TERMINATION_COMPLETED,
    TERMINATION_RESULT_LIMIT,
    TERMINATION_TIMEOUT,
    EnumerationResponse,
)
from ..errors import (
    CircuitOpenError,
    ParameterError,
    ServiceClosedError,
    ServiceOverloadError,
)
from ..core.kplex import KPlex
from ..graph import Graph
from ..obs import (
    DEFAULT_COUNT_BUCKETS,
    MetricsRegistry,
    activate,
    current_span,
    log_event,
    span,
)
from ..resilience import CircuitBreaker, resilience_stats
from .cache import ResultCache, result_cache_key
from .catalog import GraphCatalog
from .sizing import estimate_kplex_bytes

#: Outcome labels recorded per completed request.
OUTCOME_HIT = "hit"
OUTCOME_MISS = "miss"
OUTCOME_COALESCED = "coalesced"


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of :class:`KPlexService`.

    Attributes
    ----------
    max_workers:
        Worker threads executing admitted requests.
    max_queue_depth:
        Admitted requests allowed to wait beyond the running ones; the
        admission bound is ``max_workers + max_queue_depth`` outstanding.
    default_timeout_seconds:
        Applied to requests that carry no timeout of their own.
    result_cache_entries / result_cache_bytes:
        Memory budget of the completed-response cache (``None`` = unbounded
        on that axis); set ``result_cache_entries=0`` to disable caching.
    prepared_core_budget:
        Per-graph cap on retained ``core(level)`` subgraphs, applied through
        the catalog on registration (the prepared-index memory budget).
    breaker_failure_threshold:
        Consecutive backend failures that open the circuit breaker (new
        submissions are then shed with :class:`~repro.errors.CircuitOpenError`
        → HTTP 503 + ``Retry-After``).  ``None`` disables the breaker.
    breaker_cooldown_seconds:
        How long the breaker stays open before letting one half-open probe
        request through.
    """

    max_workers: int = 4
    max_queue_depth: int = 32
    default_timeout_seconds: Optional[float] = None
    result_cache_entries: Optional[int] = 256
    result_cache_bytes: Optional[int] = 64 * 1024 * 1024
    prepared_core_budget: Optional[int] = None
    breaker_failure_threshold: Optional[int] = 5
    breaker_cooldown_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ParameterError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.max_queue_depth < 0:
            raise ParameterError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.default_timeout_seconds is not None and self.default_timeout_seconds < 0:
            raise ParameterError(
                "default_timeout_seconds must be non-negative, got "
                f"{self.default_timeout_seconds}"
            )
        if self.breaker_failure_threshold is not None and self.breaker_failure_threshold < 1:
            raise ParameterError(
                "breaker_failure_threshold must be >= 1 (or None to disable), "
                f"got {self.breaker_failure_threshold}"
            )
        if self.breaker_cooldown_seconds <= 0:
            raise ParameterError(
                "breaker_cooldown_seconds must be > 0, got "
                f"{self.breaker_cooldown_seconds}"
            )


def _prometheus_name(parts: Sequence[str]) -> str:
    name = "_".join(part for part in parts if part)
    return "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name)


def render_prometheus(
    metrics: Dict[str, object], prefix: str = "kplex"
) -> str:
    """Render a (possibly nested) metrics dict in Prometheus text format.

    Nested dicts flatten into underscore-joined metric names
    (``result_cache.hits`` becomes ``kplex_result_cache_hits``); ``None``
    and non-numeric leaves are skipped; booleans become 0/1 gauges.  The
    output is the version 0.0.4 exposition format every Prometheus scraper
    accepts, with one ``# TYPE`` line per sample.

    Labelled series and histogram ``_bucket``/``_sum``/``_count`` families
    are rendered separately by
    :meth:`repro.obs.MetricsRegistry.render_prometheus` (which escapes
    label values); :meth:`KPlexService.metrics_prometheus_text`
    concatenates both.
    """
    lines: List[str] = []

    def emit(parts: Sequence[str], value: object) -> None:
        if isinstance(value, dict):
            for key, nested in value.items():
                emit(list(parts) + [str(key)], nested)
            return
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            return
        name = _prometheus_name(parts)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")

    for key, value in metrics.items():
        emit([prefix, str(key)], value)
    return "\n".join(lines) + "\n"


class ServiceMetrics:
    """Thread-safe request counters plus bounded bucketed histograms.

    Latency, queue-wait, phase-duration, result-count and branch-call
    distributions live in fixed-bucket histograms inside ``self.registry``
    (a :class:`~repro.obs.MetricsRegistry`), so memory stays constant no
    matter how long the server runs; the old unbounded sample deques are
    gone.  The registry is shared with the HTTP layer for labelled
    per-graph/per-route series.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry or MetricsRegistry()
        self._latency = self.registry.histogram(
            "request_latency_seconds",
            help_text="End-to-end latency of admitted solves",
        )
        self._queue_wait = self.registry.histogram(
            "queue_wait_seconds",
            help_text="Time admitted requests spent waiting for a worker",
        )
        self._result_count = self.registry.histogram(
            "result_count",
            buckets=DEFAULT_COUNT_BUCKETS,
            help_text="Maximal k-plexes returned per completed search",
        )
        self._branch_calls = self.registry.histogram(
            "branch_calls",
            buckets=DEFAULT_COUNT_BUCKETS,
            help_text="Branch-and-bound invocations per completed search",
        )
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.errors = 0
        self.in_flight = 0
        self.running = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0
        self.timeouts = 0

    def record_admitted(self) -> None:
        """One request passed admission control."""
        with self._lock:
            self.admitted += 1
            self.in_flight += 1

    def record_started(self) -> None:
        """One admitted request left the queue and began executing."""
        with self._lock:
            self.running += 1

    def record_rejected(self) -> None:
        """One request was turned away by admission control."""
        with self._lock:
            self.rejected += 1

    def record_cancelled(self) -> None:
        """One admitted request was cancelled before it ran.

        Settles the in-flight gauge and counts an error, but records no
        latency sample — a fabricated 0.0 would drag the p50/p95 estimates
        down exactly when a backlog is being shed.
        """
        with self._lock:
            self.in_flight -= 1
            self.errors += 1

    def record_outcome(self, error: bool = False, started: bool = True) -> None:
        """One admitted request or job finished (successfully or not).

        ``started=False`` settles a request that never reached
        :meth:`record_started` (e.g. a failed pool submission), so the
        ``running`` gauge stays balanced.
        """
        with self._lock:
            self.in_flight -= 1
            if started:
                self.running -= 1
            if error:
                self.errors += 1
            else:
                self.completed += 1

    def record_latency(self, seconds: float) -> None:
        """One solve's time on its worker (jobs, paced by readers, record none)."""
        self._latency.observe(seconds)

    def record_served(self, outcome: str, termination: Optional[str] = None) -> None:
        """One answer was served as a cache hit, a coalesced wait or a miss."""
        with self._lock:
            if outcome == OUTCOME_HIT:
                self.cache_hits += 1
            elif outcome == OUTCOME_COALESCED:
                self.coalesced += 1
            elif outcome == OUTCOME_MISS:
                self.cache_misses += 1
            if termination == TERMINATION_TIMEOUT:
                self.timeouts += 1

    def record_queue_wait(self, seconds: float) -> None:
        """Time one admitted request spent queued before a worker ran it."""
        self._queue_wait.observe(max(0.0, seconds))

    def observe_response(self, response: EnumerationResponse) -> None:
        """Fold a completed response's search shape into the histograms."""
        self._result_count.observe(response.count)
        statistics = response.statistics
        if statistics is not None:
            self._branch_calls.observe(statistics.branch_calls)
            for phase, seconds in (
                ("preprocess", statistics.preprocess_seconds),
                ("search", statistics.search_seconds),
            ):
                self.registry.histogram(
                    "phase_duration_seconds",
                    labels={"phase": phase},
                    help_text="Per-phase duration of completed searches",
                ).observe(seconds)

    def queue_eta_seconds(self, workers: int) -> int:
        """Estimated seconds until the current backlog drains — the derived
        ``Retry-After`` value for admission-control rejections.

        ``(queued / workers + 1)`` waves of work at the observed p50 latency
        (0.5s assumed before any sample exists), clamped to [1, 60] so the
        header is always sane.
        """
        with self._lock:
            queued = max(0, self.in_flight - self.running)
        p50 = self._latency.quantile(0.50)
        if p50 is None:
            p50 = 0.5
        eta = (queued / max(1, workers) + 1.0) * p50
        return int(min(60, max(1, math.ceil(eta))))

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready counters plus histogram-estimated latency percentiles."""
        latency = self._latency
        samples = latency.count
        with self._lock:
            served = self.cache_hits + self.cache_misses + self.coalesced
            snapshot: Dict[str, object] = {
                "requests_total": self.admitted + self.rejected,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "errors": self.errors,
                "in_flight": self.in_flight,
                "running": self.running,
                # Admission pressure before 429s start: admitted requests
                # still waiting for a worker.
                "queued": max(0, self.in_flight - self.running),
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "coalesced": self.coalesced,
                "timeouts": self.timeouts,
                "hit_rate": (
                    (self.cache_hits + self.coalesced) / served if served else 0.0
                ),
                "latency_samples": samples,
            }
        if samples:
            state = latency.snapshot()
            snapshot["latency_p50_seconds"] = latency.quantile(0.50)
            snapshot["latency_p95_seconds"] = latency.quantile(0.95)
            snapshot["latency_max_seconds"] = state.get("max", 0.0)
        return snapshot


class _Inflight:
    """Rendezvous for concurrent identical misses (request coalescing)."""

    __slots__ = ("event", "response", "exception")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[EnumerationResponse] = None
        self.exception: Optional[BaseException] = None


#: Returned by an admitted task whose run proves nothing about backend health
#: (a cancelled job): dispatch frees a half-open probe slot, closing nothing.
_INCONCLUSIVE = object()


def _replay(
    response: EnumerationResponse, cancel: Optional[CancellationToken]
) -> "tuple[Iterator[KPlex], StreamOutcome]":
    """A cached response as a stream: its k-plexes, stopped by ``cancel``."""
    outcome = StreamOutcome()
    outcome.termination = response.termination
    outcome.run = SolverRun(iter(()), lambda: response.statistics, response.solver_metadata)

    def replay() -> Iterator[KPlex]:
        started = time.perf_counter()
        for plex in response.kplexes:
            if cancel is not None and cancel.cancelled:
                outcome.termination = TERMINATION_CANCELLED
                break
            yield plex
        outcome.elapsed_seconds = time.perf_counter() - started

    return replay(), outcome


class KPlexService:
    """Concurrent, cached enumeration service over a graph catalog.

    >>> from repro.service import KPlexService
    >>> service = KPlexService()
    >>> service.catalog.register("toy", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    CatalogEntry(name='toy', ...)
    >>> service.solve("toy", k=2, q=3).count       # miss: runs the search
    1
    >>> service.solve("toy", k=2, q=3).count       # hit: served from cache
    1

    (doctest shown for shape only — see ``examples/service_demo.py``.)
    """

    def __init__(
        self,
        catalog: Optional[GraphCatalog] = None,
        config: Optional[ServiceConfig] = None,
        engine: Optional[KPlexEngine] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.catalog = catalog or GraphCatalog(
            prepared_core_budget=self.config.prepared_core_budget
        )
        self._engine = engine or KPlexEngine()
        self._result_cache: Optional[ResultCache] = (
            None
            if self.config.result_cache_entries == 0
            else ResultCache(
                max_entries=self.config.result_cache_entries,
                max_bytes=self.config.result_cache_bytes,
            )
        )
        self._metrics = ServiceMetrics()
        self._breaker: Optional[CircuitBreaker] = (
            None
            if self.config.breaker_failure_threshold is None
            else CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_seconds=self.config.breaker_cooldown_seconds,
            )
        )
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._admission_lock = threading.Lock()
        self._outstanding = 0
        self._inflight: Dict[Hashable, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #
    def request(
        self, graph: Union[str, Graph], k: int, q: int, **kwargs: object
    ) -> EnumerationRequest:
        """Build a validated request; ``graph`` may be a catalog name."""
        if isinstance(graph, str):
            # Labelled per-graph traffic counter.  Graph names are
            # user-supplied, so the Prometheus renderer escapes them.
            self._metrics.registry.counter(
                "graph_requests_total",
                labels={"graph": graph},
                help_text="Requests naming each catalog graph",
            ).inc()
        return EnumerationRequest(
            graph=self.catalog.resolve(graph), k=k, q=q, **kwargs  # type: ignore[arg-type]
        )

    def _coerce(
        self,
        request: Union[EnumerationRequest, str, Graph],
        k: Optional[int],
        q: Optional[int],
        kwargs: Dict[str, object],
    ) -> EnumerationRequest:
        if isinstance(request, EnumerationRequest):
            if k is not None or q is not None or kwargs:
                raise ParameterError(
                    "pass either a finished EnumerationRequest or "
                    "(graph, k, q, ...) keywords, not both"
                )
            return request
        if k is None or q is None:
            raise ParameterError("k and q are required when passing a graph or name")
        return self.request(request, k, q, **kwargs)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: Union[EnumerationRequest, str, Graph],
        k: Optional[int] = None,
        q: Optional[int] = None,
        **kwargs: object,
    ) -> "Future[EnumerationResponse]":
        """Admit a request and return a future for its response.

        Raises :class:`ServiceOverloadError` when ``max_workers +
        max_queue_depth`` requests and jobs are already outstanding —
        graceful rejection is the service's backpressure signal.
        """
        request = self._coerce(request, k, q, kwargs)
        # Thread pools do not inherit contextvars: hand the active span (and
        # the submit instant, for the queue-wait time) to _execute.
        return self._admit(self._execute, request, current_span(), time.time())

    def solve(
        self,
        request: Union[EnumerationRequest, str, Graph],
        k: Optional[int] = None,
        q: Optional[int] = None,
        **kwargs: object,
    ) -> EnumerationResponse:
        """Synchronous :meth:`submit` — blocks until the response is ready.

        Accepts either a finished :class:`EnumerationRequest` or a catalog
        name / graph plus ``k``, ``q`` and request keywords.  Do not call
        from inside another request's solver (it would occupy two workers).
        """
        return self.submit(request, k, q, **kwargs).result()

    def solve_many(
        self,
        requests: Iterable[Union[EnumerationRequest, str, Graph]],
    ) -> List[EnumerationResponse]:
        """Solve a batch, throttled to the service's admission capacity.

        Responses align index-for-index with ``requests``.  Submission is
        paced so the batch itself never trips admission control; rejections
        can still happen when *other* clients keep the service saturated.
        """
        coerced = [self._coerce(request, None, None, {}) for request in requests]
        results: List[Optional[EnumerationResponse]] = [None] * len(coerced)
        capacity = max(1, self.config.max_workers + self.config.max_queue_depth - 1)
        pending: Dict["Future[EnumerationResponse]", int] = {}
        index = 0
        while index < len(coerced) or pending:
            while index < len(coerced) and len(pending) < capacity:
                try:
                    future = self.submit(coerced[index])
                except ServiceOverloadError:
                    if not pending:
                        raise
                    break
                pending[future] = index
                index += 1
            if not pending:
                continue
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                results[pending.pop(future)] = future.result()
        return results  # type: ignore[return-value]

    def stream_run(
        self,
        request: EnumerationRequest,
        cancel: Optional["CancellationToken"] = None,
        on_progress: Optional[Callable] = None,
    ) -> "tuple[Iterator[KPlex], StreamOutcome]":
        """Stream a request's k-plexes, answering from the result cache first.

        Applies the default timeout and returns a lazy ``(iterator, outcome)``
        pair like :meth:`KPlexEngine.stream_run`.  A hit replays the cached
        k-plexes without a search (``cancel`` still stops it; ``on_progress``
        fires only during a search).  A miss streams the search and, once
        that stream is exhausted with a cacheable termination, stores its
        response, holding its k-plexes only while they fit the cache's byte
        budget.  A hit counts when it is looked up, a miss (and a timeout)
        once its search stream is exhausted.  Jobs run this on a worker
        admitted like :meth:`submit`; a direct call is not.
        """
        request = self._apply_defaults(request)
        cache = self._result_cache
        key: Optional[Hashable] = None
        if cache is not None:
            # Derived once, before the run, as in _solve_with_cache.
            key = result_cache_key(request)
            cached = cache.lookup(request, key=key)
            if cached is not None:
                self._metrics.record_served(OUTCOME_HIT)
                return _replay(cached, cancel)
        iterator, outcome = self._engine.stream_run(
            request, cancel=cancel, on_progress=on_progress
        )
        return self._finish_search(key, request, iterator, outcome), outcome

    def invalidate(self, name: str) -> int:
        """Retire every cached artefact of a catalog graph; return its epoch.

        Bumps the graph's epoch (so stale keys can never match again) and
        eagerly drops its result-cache entries to free their budget
        immediately.
        """
        entry = self.catalog.entry(name)
        epoch = self.catalog.invalidate(name)
        if self._result_cache is not None:
            self._result_cache.invalidate_graph(entry.graph)
        return epoch

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        """The service's circuit breaker (``None`` when disabled)."""
        return self._breaker

    def retry_after_hint(self) -> int:
        """Seconds a rejected client should wait before retrying.

        Breaker open → the remaining cooldown.  Otherwise (admission-control
        429s) → an estimate of when the queue will have drained: queue waves
        ahead of the caller times the observed p50 latency, clamped to
        [1, 60].
        """
        if self._breaker is not None:
            remaining = self._breaker.retry_after_seconds()
            if remaining > 0:
                return max(1, math.ceil(remaining))
        return self._metrics.queue_eta_seconds(self.config.max_workers)

    def metrics(self) -> Dict[str, object]:
        """One JSON-ready snapshot of service, cache and catalog state."""
        snapshot = self._metrics.snapshot()
        snapshot["result_cache"] = (
            self._result_cache.stats() if self._result_cache is not None else None
        )
        snapshot["catalog"] = {
            "graphs": len(self.catalog),
            "memory_bytes": self.catalog.total_memory_bytes(),
        }
        resilience = resilience_stats().snapshot()
        # Promoted to a top-level counter so the Prometheus rendering exposes
        # `kplex_recoveries_total` — the headline "we survived a worker
        # death" signal dashboards and the CI chaos smoke alert on.
        snapshot["recoveries_total"] = resilience["pool_recoveries"]
        snapshot["resilience"] = resilience
        snapshot["breaker"] = (
            self._breaker.snapshot() if self._breaker is not None else None
        )
        snapshot["telemetry"] = self.telemetry.snapshot()
        return snapshot

    @property
    def telemetry(self) -> MetricsRegistry:
        """Shared histogram/counter registry (also used by the HTTP layer)."""
        return self._metrics.registry

    def metrics_prometheus_text(self, prefix: str = "kplex") -> str:
        """The full :meth:`metrics` snapshot in Prometheus text format.

        Flat gauges from the JSON snapshot come first, then the registry's
        labelled counter and histogram (``_bucket``/``_sum``/``_count``)
        families with escaped label values.
        """
        payload = self.metrics()
        payload.pop("telemetry", None)
        return render_prometheus(payload, prefix=prefix) + self.telemetry.render_prometheus(
            prefix=prefix
        )

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The response cache (``None`` when disabled)."""
        return self._result_cache

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`close` has begun; submissions are rejected."""
        return self._closed

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the worker pool down.

        With ``drain=True`` (the default) every admitted request — running
        *and* queued — finishes normally and its future completes; new
        submissions are rejected with :class:`ServiceClosedError` from the
        moment the call starts.  With ``drain=False`` queued-but-unstarted
        requests are cancelled (their futures raise ``CancelledError``) and
        only the currently running ones are awaited.  Idempotent.
        """
        with self._pool_lock:
            # Under the pool lock so _ensure_pool's closed-check and pool
            # creation can never interleave with shutdown.
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=not drain)

    def __enter__(self) -> "KPlexService":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution path
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                if self._closed:
                    raise ServiceClosedError(
                        "the service is closed and no longer accepts submissions"
                    )
                self._pool = ThreadPoolExecutor(
                    max_workers=self.config.max_workers,
                    thread_name_prefix="kplex-service",
                )
            return self._pool

    def _admit(self, task: Callable[..., object], *args: object) -> Future:
        """Run ``task(*args)`` on the pool past the breaker and capacity gates.

        The one admission path of solves and jobs.  A half-open breaker lets
        one caller per cooldown through as the probe; its outcome closes or
        re-opens the circuit.
        """
        if self._closed:
            raise ServiceClosedError(
                "the service is closed and no longer accepts submissions"
            )
        # Admission is microseconds of lock work: it annotates the active
        # span instead of opening its own (span creation would dominate it).
        active_span = current_span()
        if self._breaker is not None and not self._breaker.allow():
            retry_after = max(1.0, self._breaker.retry_after_seconds())
            self._metrics.record_rejected()
            raise CircuitOpenError(
                "circuit breaker open: the enumeration backend is unhealthy "
                f"(state={self._breaker.state}); retry in {retry_after:.0f}s",
                retry_after=retry_after,
            )
        capacity = self.config.max_workers + self.config.max_queue_depth
        try:
            with self._admission_lock:
                if self._outstanding >= capacity:
                    self._metrics.record_rejected()
                    if active_span is not None:
                        active_span.set(admission_rejected=True)
                    raise ServiceOverloadError(
                        f"service at capacity: {self._outstanding} requests outstanding "
                        f"(max_workers={self.config.max_workers}, "
                        f"max_queue_depth={self.config.max_queue_depth})"
                    )
                self._outstanding += 1
                if active_span is not None:
                    active_span.set(outstanding=self._outstanding)
        except BaseException:
            # The request passed the breaker gate but never ran: release a
            # half-open probe slot it may hold, or the breaker jams open.
            if self._breaker is not None:
                self._breaker.cancel_probe()
            raise
        self._metrics.record_admitted()
        try:
            future = self._ensure_pool().submit(self._dispatch, task, args, time.time())
        except BaseException:
            with self._admission_lock:
                self._outstanding -= 1
            self._metrics.record_outcome(error=True, started=False)
            if self._breaker is not None:
                self._breaker.cancel_probe()
            raise
        future.add_done_callback(self._on_done)
        return future

    def _dispatch(self, task: Callable[..., object], args: tuple, submitted_at: float) -> object:
        """Run one admitted task on a worker; record its outcome and health."""
        self._metrics.record_queue_wait(time.time() - submitted_at)
        self._metrics.record_started()
        try:
            value = task(*args)
        except BaseException as exc:
            self._metrics.record_outcome(error=True)
            # Bad parameters say nothing about backend health; everything
            # else (solver crashes, poison tasks, engine errors) counts
            # toward opening the circuit.
            if self._breaker is not None and not isinstance(exc, ParameterError):
                self._breaker.record_failure()
            raise
        self._metrics.record_outcome()
        if self._breaker is not None:
            if value is _INCONCLUSIVE:
                self._breaker.cancel_probe()
            else:
                self._breaker.record_success()
        return value

    def _on_done(self, future: Future) -> None:
        with self._admission_lock:
            self._outstanding -= 1
        if future.cancelled():
            # Cancelled before _dispatch ran (close(drain=False), or a job
            # cancelled while queued): settle the in-flight gauge the
            # admission path incremented and free a probe slot it may hold.
            self._metrics.record_cancelled()
            if self._breaker is not None:
                self._breaker.cancel_probe()

    def _apply_defaults(self, request: EnumerationRequest) -> EnumerationRequest:
        if (
            self.config.default_timeout_seconds is not None
            and request.timeout_seconds is None
        ):
            request = request.with_changes(
                timeout_seconds=self.config.default_timeout_seconds
            )
        return request

    def _finish_search(
        self,
        key: Optional[Hashable],
        request: EnumerationRequest,
        iterator: Iterator[KPlex],
        outcome: StreamOutcome,
    ) -> Iterator[KPlex]:
        """Pass a search stream through; count and cache it once it is exhausted."""
        cache, budget = self._result_cache, self.config.result_cache_bytes
        kplexes: Optional[List[KPlex]] = [] if cache is not None else None
        size = 0
        with closing(iterator):
            for plex in iterator:
                if kplexes is not None:
                    size += estimate_kplex_bytes(plex)
                    if budget is not None and size > budget:
                        kplexes = None  # store() would reject the response
                    else:
                        kplexes.append(plex)
                yield plex
        # Reached only once the search stream is exhausted (a consumer that
        # closes this generator early leaves at the yield), so the termination
        # is read only now: it starts out as "completed".  store() keeps only
        # completed and result-limit responses.
        self._metrics.record_served(OUTCOME_MISS, outcome.termination)
        if kplexes is not None:
            cache.store(request, outcome.to_response(request, kplexes), key=key)

    def _run(self, request: EnumerationRequest) -> EnumerationResponse:
        with span("enumerate", solver=request.solver):
            return self._engine.solve(request)

    def _execute(
        self,
        request: EnumerationRequest,
        parent_span: Optional[object],
        submitted_at: float,
    ) -> EnumerationResponse:
        started = time.perf_counter()
        # Re-enter the submitter's trace context: worker threads inherit
        # nothing, so the span captured in submit() is activated explicitly.
        with activate(parent_span), span(  # type: ignore[arg-type]
            "execute", solver=request.solver
        ) as execute_span:
            if execute_span.recorded:
                # An attribute, not a child span: the wait is pure queueing
                # with no inner structure, and the cached path is too hot to
                # pay span bookkeeping for it.
                execute_span.attributes["queue_wait_ms"] = round(
                    (time.time() - submitted_at) * 1000.0, 3
                )
            try:
                request = self._apply_defaults(request)
                response, outcome = self._solve_with_cache(request)
            except BaseException as exc:
                log_event(
                    "request_error", solver=request.solver, error=type(exc).__name__
                )
                raise
            finally:
                self._metrics.record_latency(time.perf_counter() - started)
            execute_span.set(outcome=outcome, termination=response.termination)
            self._metrics.record_served(outcome, response.termination)
            self._metrics.observe_response(response)
            return response

    def _solve_with_cache(
        self, request: EnumerationRequest
    ) -> "tuple[EnumerationResponse, str]":
        cache = self._result_cache
        if cache is None:
            return self._run(request), OUTCOME_MISS
        # Derive the key once, before the run: it snapshots the graph epoch
        # at admission time, so an invalidate() racing with the search makes
        # the eventual store() land under the old (unmatchable) epoch.
        key = result_cache_key(request)
        cached = cache.lookup(request, key=key)
        # Same hot-path economy as queue_wait: the lookup is a dict probe,
        # so it rides as an attribute on the surrounding execute span.
        active = current_span()
        if active is not None:
            active.set(cache_hit=cached is not None)
        if cached is not None:
            return cached, OUTCOME_HIT
        with self._inflight_lock:
            entry = self._inflight.get(key)
            leader = entry is None
            if leader:
                entry = _Inflight()
                self._inflight[key] = entry
        if leader:
            try:
                response = self._run(request)
                cache.store(request, response, key=key)
                entry.response = response
                return response, OUTCOME_MISS
            except BaseException as exc:
                entry.exception = exc
                raise
            finally:
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                entry.event.set()
        # Follower: wait for the leader's answer instead of duplicating the
        # search (thundering-herd protection).
        with span("coalesce_wait"):
            entry.event.wait()
        if entry.exception is not None:
            raise entry.exception
        response = entry.response
        assert response is not None
        if response.termination in (TERMINATION_COMPLETED, TERMINATION_RESULT_LIMIT):
            return response, OUTCOME_COALESCED
        # The leader's run was cut short (timeout/cancel) — its partial
        # answer must not be recycled for a request that may have a larger
        # budget; run independently.
        return self._run(request), OUTCOME_MISS
