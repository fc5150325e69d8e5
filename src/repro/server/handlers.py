"""HTTP request handling for the k-plex serving front-end.

One :class:`KPlexRequestHandler` instance handles one connection of the
:class:`~repro.server.app.KPlexHTTPServer`.  The wire contract is plain
JSON over HTTP/1.1 (stdlib only, no framework):

=========  ===========================  =========================================
Method     Path                         Meaning
=========  ===========================  =========================================
``GET``    ``/healthz``                 liveness (``503`` while draining)
``GET``    ``/readyz``                  readiness: ``503`` while draining or
                                        while the worker pool is degraded to
                                        serial
``GET``    ``/v1/graphs``               catalog listing
``POST``   ``/v1/graphs``               register a graph (edges / path / dataset)
``POST``   ``/v1/solve``                run one enumeration request synchronously
``GET``    ``/v1/metrics``              service metrics (``?format=prometheus``)
``POST``   ``/v1/snapshot``             write a warm-state snapshot now
``POST``   ``/v1/jobs``                 submit an async job (``202`` + job id)
``GET``    ``/v1/jobs``                 list jobs (``?state=`` filters)
``GET``    ``/v1/jobs/<id>``            poll one job's state and progress
``DELETE`` ``/v1/jobs/<id>``            cancel a job (cooperative)
``GET``    ``/v1/jobs/<id>/results``    buffered results; ``?stream=1`` streams
                                        NDJSON over chunked transfer encoding
``GET``    ``/v1/trace``                recent traces (``?min_ms=`` filters,
                                        ``?limit=`` bounds)
``GET``    ``/v1/trace/<request_id>``   one request's full span tree
=========  ===========================  =========================================

Every request runs under its own trace: the server honours a
client-supplied ``X-Request-Id`` header (and always echoes the id back in
the response), records the completed span tree into an in-memory ring
buffer served by the ``/v1/trace`` routes, and emits one structured
``http_request`` telemetry event per request.

Every error is a structured body ``{"error": {"type", "message", "status"}}``
so clients can map failures back to the library's exception types:
overload (including a full job queue) maps to ``429`` (with a
``Retry-After`` hint), a draining or closed service to ``503``, an
exceeded server-side hard deadline to ``504``, unknown catalog names and
job ids to ``404``, duplicate registrations and invalid job-state
transitions to ``409``, results evicted from a job's bounded buffer to
``410`` and every validation problem to ``400``.

The streaming route is the one place the server holds a connection open:
results are written as one NDJSON line per chunk while the enumeration
runs, a heartbeat line keeps idle streams alive, and the final line is a
``{"done": true, ...}`` record carrying the job's terminal state — so a
client always knows whether the stream ended or was cut.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..core.config import EnumerationConfig
from ..errors import (
    CatalogError,
    JobError,
    JobNotFoundError,
    JobResultsTruncatedError,
    JobStateError,
    ParameterError,
    ReproError,
    ResilienceError,
    ServiceClosedError,
    ServiceOverloadError,
    SnapshotError,
)
from ..jobs import READ_END, READ_ITEM
from ..obs import Trace, activate, log_event, new_request_id
from ..resilience import fault_injector, resilience_stats
from .persistence import save_snapshot

#: Largest accepted request body; registering a graph inline dominates.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Longest accepted client-supplied ``X-Request-Id`` (longer ids are cut).
MAX_REQUEST_ID_CHARS = 128


class _HTTPFail(Exception):
    """Internal short-circuit carrying a ready-to-send structured error."""

    def __init__(self, status: int, kind: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind


def _classify(exc: Exception) -> Tuple[int, str]:
    """Map a library exception to an HTTP status and error-type label."""
    if isinstance(exc, ServiceOverloadError):
        # Includes JobQueueFullError: a full job table is the same
        # load-shedding signal as a full sync queue.
        return 429, type(exc).__name__
    if isinstance(exc, ServiceClosedError):
        return 503, "ServiceClosedError"
    if isinstance(exc, ResilienceError):
        # Poison tasks / unrecoverable worker crashes are backend failures,
        # not client mistakes.
        return 500, type(exc).__name__
    if isinstance(exc, JobNotFoundError):
        return 404, "JobNotFoundError"
    if isinstance(exc, JobStateError):
        return 409, "JobStateError"
    if isinstance(exc, JobResultsTruncatedError):
        return 410, "JobResultsTruncatedError"
    if isinstance(exc, JobError):
        return 400, type(exc).__name__
    if isinstance(exc, CatalogError):
        text = str(exc)
        if "unknown catalog graph" in text:
            return 404, "CatalogError"
        if "already registered" in text:
            return 409, "CatalogError"
        return 400, "CatalogError"
    if isinstance(exc, SnapshotError):
        return 500, "SnapshotError"
    if isinstance(exc, ParameterError):
        return 400, "ParameterError"
    if isinstance(exc, ReproError):
        return 400, type(exc).__name__
    return 500, type(exc).__name__


class KPlexRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's :class:`KPlexService`."""

    protocol_version = "HTTP/1.1"
    server_version = f"kplex-enum/{__version__}"
    # The status/header flush and the body are separate writes; with Nagle
    # on, the body segment stalls behind the client's delayed ACK (~40ms
    # per response on Linux loopback).
    disable_nagle_algorithm = True
    # Socket inactivity bound so a stalled client cannot wedge the
    # drain-time handler join forever.
    timeout = 60.0
    # Per-request state (set by _dispatch; class defaults keep log_message
    # safe on connections that never reach a route).
    _request_id: Optional[str] = None
    _response_status: int = 0

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch(
            {
                "/healthz": self._get_health,
                "/readyz": self._get_ready,
                "/v1/graphs": self._get_graphs,
                "/v1/metrics": self._get_metrics,
                "/v1/jobs": self._get_jobs,
                "/v1/trace": self._get_traces,
            }
        )

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch(
            {
                "/v1/solve": self._post_solve,
                "/v1/graphs": self._post_graphs,
                "/v1/snapshot": self._post_snapshot,
                "/v1/jobs": self._post_jobs,
            }
        )

    def do_DELETE(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch({})

    def _job_route(self, path: str):
        """Resolve ``/v1/jobs/<id>[/results]`` to a bound sub-handler.

        Returns ``None`` for paths outside the jobs subtree so the exact
        routes keep their 404/405 behaviour.
        """
        parts = path.rstrip("/").split("/")
        if parts[:3] != ["", "v1", "jobs"] or len(parts) < 4 or not parts[3]:
            return None
        job_id = parts[3]
        if len(parts) == 4:
            by_method = {
                "GET": self._get_job,
                "DELETE": self._delete_job,
            }
        elif len(parts) == 5 and parts[4] == "results":
            by_method = {"GET": self._get_job_results}
        else:
            raise _HTTPFail(404, "NotFound", f"no route for {path}")
        handler = by_method.get(self.command)
        if handler is None:
            raise _HTTPFail(
                405, "MethodNotAllowed", f"{self.command} not allowed on {path}"
            )
        return lambda query: handler(query, job_id)

    def _trace_route(self, path: str):
        """Resolve ``/v1/trace/<request_id>`` to a bound sub-handler."""
        parts = path.rstrip("/").split("/")
        if parts[:3] != ["", "v1", "trace"] or len(parts) != 4 or not parts[3]:
            return None
        if self.command != "GET":
            raise _HTTPFail(
                405, "MethodNotAllowed", f"{self.command} not allowed on {path}"
            )
        request_id = parts[3]
        return lambda query: self._get_trace(query, request_id)

    def _dispatch(self, routes: Dict[str, object]) -> None:
        parsed = urlparse(self.path)
        started = time.time()
        supplied = (self.headers.get("X-Request-Id") or "").strip()
        self._request_id = (
            supplied[:MAX_REQUEST_ID_CHARS] if supplied else new_request_id()
        )
        self._response_status = 0
        recorder = getattr(self.server, "recorder", None)
        if recorder is not None:
            trace: Optional[Trace] = Trace(request_id=self._request_id)
            root = trace.span("http", method=self.command, path=parsed.path)
            # Registered live, not on completion: a client may fetch its own
            # trace the instant it has the response, which can beat a
            # post-send record on a fresh connection; this also makes
            # still-running requests visible under /v1/trace.
            recorder.record(trace)
        else:
            # Tracing disabled (trace_capacity=0): every span() downstream
            # degrades to the shared no-op, keeping the hot path span-free.
            trace = None
            root = None
        handler = routes.get(parsed.path)
        try:
            with activate(root):
                try:
                    if handler is None:
                        handler = self._job_route(parsed.path)
                    if handler is None:
                        handler = self._trace_route(parsed.path)
                    if handler is None:
                        known = {"/healthz", "/readyz", "/v1/graphs", "/v1/metrics",
                                 "/v1/solve", "/v1/snapshot", "/v1/jobs", "/v1/trace"}
                        if parsed.path in known:
                            raise _HTTPFail(
                                405, "MethodNotAllowed", f"{self.command} not allowed on {parsed.path}"
                            )
                        raise _HTTPFail(404, "NotFound", f"no route for {parsed.path}")
                    handler(parse_qs(parsed.query))  # type: ignore[operator]
                except _HTTPFail as fail:
                    self._send_error_body(fail.status, fail.kind, str(fail))
                except Exception as exc:  # noqa: BLE001 - every error becomes a body
                    status, kind = _classify(exc)
                    if root is not None:
                        root.set(error=kind)
                    self._send_error_body(status, kind, str(exc))
        finally:
            self._finish_request(trace, root, parsed.path, started)

    #: Exact routes whose paths are safe as a metric label as-is.
    _EXACT_ROUTES = frozenset({
        "/healthz", "/readyz", "/v1/graphs", "/v1/metrics",
        "/v1/solve", "/v1/snapshot", "/v1/jobs", "/v1/trace",
    })

    @classmethod
    def _route_label(cls, path: str) -> str:
        """Bounded-cardinality route label: ids collapse to placeholders."""
        if path in cls._EXACT_ROUTES:
            return path
        parts = path.rstrip("/").split("/")
        if parts[:3] == ["", "v1", "jobs"] and len(parts) >= 4:
            if len(parts) == 5 and parts[4] == "results":
                return "/v1/jobs/<id>/results"
            if len(parts) == 4:
                return "/v1/jobs/<id>"
        if parts[:3] == ["", "v1", "trace"] and len(parts) == 4:
            return "/v1/trace/<id>"
        return "<other>"

    def _finish_request(
        self, trace: Optional[Trace], root, path: str, started: float
    ) -> None:
        """Close the request trace, record it, and emit access telemetry."""
        status = self._response_status
        duration = time.time() - started
        server = self.server
        if trace is not None:
            # Already in the recorder (registered at dispatch); only close.
            root.set(status=status)
            root.finish("error" if status >= 500 else "ok")
            trace.finish()
        route = self._route_label(path)
        service = getattr(server, "service", None)
        if service is not None:
            telemetry = service.telemetry
            telemetry.counter(
                "http_requests_total",
                labels={"route": route, "status": str(status)},
                help_text="HTTP requests by route and status code.",
            ).inc()
            telemetry.histogram(
                "http_request_duration_seconds",
                labels={"route": route},
                help_text="Wall-clock HTTP request duration by route.",
            ).observe(duration)
        record: Dict[str, object] = {
            "method": self.command,
            "path": path,
            "status": status,
            "duration_ms": round(duration * 1000.0, 3),
            "request_id": self._request_id,
            "client": self.client_address[0] if self.client_address else None,
        }
        log_event("http_request", **record)
        threshold = getattr(server, "slow_request_threshold", None)
        if threshold is not None and duration >= threshold:
            log_event(
                "slow_request",
                level=logging.WARNING,
                threshold_seconds=threshold,
                spans=trace.tree() if trace is not None else None,
                **record,
            )
        if getattr(server, "access_log_format", "plain") == "json":
            line = json.dumps(record, default=str, separators=(",", ":"))
        else:
            line = (
                f'{record["client"] or "-"} "{self.command} {path}" {status} '
                f'{record["duration_ms"]}ms {self._request_id}'
            )
        server.log(line)  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _get_health(self, _query: Dict[str, list]) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        if self.server.draining or service.closed:  # type: ignore[attr-defined]
            self._send_json(
                503,
                {"status": "draining"},
                headers={"Retry-After": str(self._retry_after_hint())},
            )
            return
        self._send_json(
            200,
            {
                "status": "ok",
                "graphs": len(service.catalog),
                "in_flight": service.metrics()["in_flight"],
            },
        )

    def _get_ready(self, _query: Dict[str, list]) -> None:
        """Readiness, distinct from liveness: should a router send traffic?

        ``503`` while draining/closed and while the parallel worker pool is
        degraded to serial execution.  The body always explains why.
        """
        service = self.server.service  # type: ignore[attr-defined]
        stats = resilience_stats()
        body: Dict[str, object] = {
            "pool_degraded": stats.pool_degraded,
            "recoveries_total": stats.get("pool_recoveries"),
        }
        if self.server.draining or service.closed:  # type: ignore[attr-defined]
            body["status"] = "draining"
        elif stats.pool_degraded:
            body["status"] = "degraded"
        else:
            body["status"] = "ready"
            self._send_json(200, body)
            return
        self._send_json(
            503, body, headers={"Retry-After": str(self._retry_after_hint())}
        )

    def _get_graphs(self, _query: Dict[str, list]) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        self._send_json(200, {"graphs": service.catalog.info()})

    def _get_metrics(self, query: Dict[str, list]) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        fmt = (query.get("format") or ["json"])[0].lower()
        metrics = service.metrics()
        jobs = getattr(self.server, "jobs", None)
        if jobs is not None:
            metrics["jobs"] = jobs.metrics()
        if fmt == "prometheus":
            from ..service.service import render_prometheus

            metrics.pop("telemetry", None)
            text = render_prometheus(metrics)
            text += service.telemetry.render_prometheus()
            self._send_text(200, text)
        elif fmt == "json":
            self._send_json(200, metrics)
        else:
            raise _HTTPFail(400, "BadRequest", f"unknown metrics format {fmt!r}")

    def _parse_enum_spec(
        self, body: Dict[str, object]
    ) -> Tuple[str, int, int, Dict[str, object]]:
        """Pop the shared enumeration keys of ``/v1/solve`` and ``/v1/jobs``.

        Returns ``(graph_name, k, q, request_kwargs)``; leftover-key
        validation stays with the caller, which pops its own extras first.
        """
        service = self.server.service  # type: ignore[attr-defined]
        name = self._require(body, "graph", str)
        k = self._require(body, "k", int)
        q = self._require(body, "q", int)
        kwargs: Dict[str, object] = {}
        if body.get("solver") is not None:
            kwargs["solver"] = self._expect(body, "solver", str)
        if body.get("variant") is not None:
            kwargs["variant"] = self._expect(body, "variant", str)
        if body.get("config") is not None:
            config = self._expect(body, "config", dict)
            try:
                kwargs["config"] = EnumerationConfig(**config)
            except (TypeError, ValueError) as exc:
                raise _HTTPFail(400, "BadRequest", f"invalid config: {exc}") from exc
        if body.get("timeout") is not None:
            kwargs["timeout_seconds"] = self._expect(body, "timeout", (int, float))
        if body.get("max_results") is not None:
            kwargs["max_results"] = self._expect(body, "max_results", int)
        if body.get("sort_results") is not None:
            kwargs["sort_results"] = self._expect(body, "sort_results", bool)
        if body.get("options") is not None:
            kwargs["options"] = self._expect(body, "options", dict)
        if body.get("query") is not None:
            labels = self._expect(body, "query", list)
            graph = service.catalog.get(name)
            try:
                kwargs["query_vertices"] = tuple(
                    graph.index_of(label) for label in labels
                )
            except ReproError as exc:
                raise _HTTPFail(400, "GraphError", str(exc)) from exc
        for key in ("graph", "k", "q", "solver", "variant", "config", "timeout",
                    "max_results", "sort_results", "options", "query"):
            body.pop(key, None)
        return name, k, q, kwargs

    def _post_solve(self, _query: Dict[str, list]) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        body = self._read_json_body()
        include_results = body.pop("include_results", True)
        name, k, q, kwargs = self._parse_enum_spec(body)
        if body:
            raise _HTTPFail(
                400, "BadRequest", f"unknown request keys {sorted(body)}"
            )
        request = service.request(name, k, q, **kwargs)
        # Peek (no stats, no recency) before submitting: the answer header
        # tells the cluster router whether this solve was new work worth
        # warming the backup replica with.
        cache = service.result_cache
        cache_state: Optional[str] = None
        if cache is not None:
            cache_state = "hit" if cache.peek(request) else "miss"
        future = service.submit(request)
        deadline = self.server.request_deadline  # type: ignore[attr-defined]
        try:
            response = future.result(timeout=deadline)
        except FutureTimeoutError:
            future.cancel()
            raise _HTTPFail(
                504,
                "DeadlineExceeded",
                f"request exceeded the server-side deadline of {deadline}s",
            ) from None
        payload: Dict[str, object] = {"graph": name}
        payload.update(response.as_dict(include_results=bool(include_results)))
        headers = {"X-KPlex-Cache": cache_state} if cache_state is not None else None
        self._send_json(200, payload, headers=headers)

    def _post_graphs(self, _query: Dict[str, list]) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        body = self._read_json_body()
        name = self._require(body, "name", str)
        sources = [key for key in ("edges", "path", "dataset") if body.get(key) is not None]
        if len(sources) != 1:
            raise _HTTPFail(
                400,
                "BadRequest",
                "provide exactly one of 'edges', 'path' or 'dataset'",
            )
        if sources[0] == "edges":
            from ..graph import Graph

            edges = self._expect(body, "edges", list)
            try:
                source: object = Graph.from_edges(edges, vertices=body.get("vertices"))
            except ReproError as exc:
                raise _HTTPFail(400, "GraphError", str(exc)) from exc
        elif sources[0] == "path":
            source = self._expect(body, "path", str)
        else:
            source = f"dataset:{self._expect(body, 'dataset', str)}"
        prewarm = None
        if body.get("prewarm") is not None:
            prewarm = [tuple(pair) for pair in self._expect(body, "prewarm", list)]
        entry = service.catalog.register(
            name,
            source,
            fmt=body.get("fmt", "auto"),
            prewarm=prewarm,
            replace=bool(body.get("replace", False)),
        )
        self._send_json(201, entry.describe())

    def _post_snapshot(self, _query: Dict[str, list]) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        body = self._read_json_body(optional=True)
        path = body.get("path") or self.server.snapshot_path  # type: ignore[attr-defined]
        if not path:
            raise _HTTPFail(
                400,
                "BadRequest",
                "no snapshot path: configure --snapshot or pass {'path': ...}",
            )
        # Serialise with the server's other snapshot writers (periodic
        # thread, drain): an endpoint write still in flight must not publish
        # after — and thereby clobber — a fresher drain-time snapshot.
        with self.server._snapshot_lock:  # type: ignore[attr-defined]
            snapshot = save_snapshot(
                service,
                path,
                max_requests=getattr(self.server, "snapshot_max_specs", None),
            )
        self._send_json(
            200,
            {
                "path": str(path),
                "graphs": len(snapshot["graphs"]),
                "hot_requests": len(snapshot["hot_requests"]),
            },
        )

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #
    def _trace_recorder(self):
        recorder = getattr(self.server, "recorder", None)
        if recorder is None:
            raise _HTTPFail(
                503, "ServiceClosedError", "this server records no traces"
            )
        return recorder

    def _get_traces(self, query: Dict[str, list]) -> None:
        recorder = self._trace_recorder()
        min_ms = None
        if query.get("min_ms"):
            try:
                min_ms = float(query["min_ms"][0])
            except ValueError as exc:
                raise _HTTPFail(400, "BadRequest", "'min_ms' must be a number") from exc
        limit = 50
        if query.get("limit"):
            try:
                limit = int(query["limit"][0])
            except ValueError as exc:
                raise _HTTPFail(400, "BadRequest", "'limit' must be an integer") from exc
            if limit < 0:
                raise _HTTPFail(400, "BadRequest", "'limit' must be >= 0")
        records = []
        for trace in recorder.list(min_ms=min_ms, limit=limit):
            root = trace.root
            entry: Dict[str, object] = {
                "request_id": trace.request_id,
                "created_at": round(trace.created_at, 6),
                "spans": len(trace.spans),
                "root": root.name if root is not None else None,
            }
            duration = trace.duration_ms
            if duration is not None:
                entry["duration_ms"] = round(duration, 3)
            records.append(entry)
        self._send_json(
            200,
            {"traces": records, "count": len(records), "recorded": len(recorder)},
        )

    def _get_trace(self, _query: Dict[str, list], request_id: str) -> None:
        trace = self._trace_recorder().get(request_id)
        if trace is None:
            raise _HTTPFail(
                404, "NotFound", f"no trace recorded for request id {request_id!r}"
            )
        payload = trace.to_dict()
        payload["tree"] = trace.tree()
        self._send_json(200, payload)

    # ------------------------------------------------------------------ #
    # Async jobs
    # ------------------------------------------------------------------ #
    def _jobs_manager(self):
        jobs = getattr(self.server, "jobs", None)
        if jobs is None:
            raise _HTTPFail(
                503, "ServiceClosedError", "this server has no job manager"
            )
        return jobs

    def _post_jobs(self, _query: Dict[str, list]) -> None:
        jobs = self._jobs_manager()
        if self.server.draining:  # type: ignore[attr-defined]
            raise _HTTPFail(
                503, "ServiceClosedError", "server is draining; no new jobs"
            )
        body = self._read_json_body()
        result_buffer = None
        if body.get("result_buffer") is not None:
            result_buffer = self._expect(body, "result_buffer", int)
        ttl_seconds = None
        if body.get("ttl") is not None:
            ttl_seconds = self._expect(body, "ttl", (int, float))
        body.pop("result_buffer", None)
        body.pop("ttl", None)
        name, k, q, kwargs = self._parse_enum_spec(body)
        if body:
            raise _HTTPFail(
                400, "BadRequest", f"unknown request keys {sorted(body)}"
            )
        job = jobs.submit(
            name,
            k,
            q,
            result_buffer=result_buffer,
            ttl_seconds=ttl_seconds,
            **kwargs,
        )
        self._send_json(202, job.describe())

    def _get_jobs(self, query: Dict[str, list]) -> None:
        jobs = self._jobs_manager()
        states = None
        raw = query.get("state") or []
        if raw:
            states = [
                state.strip().lower()
                for chunk in raw
                for state in chunk.split(",")
                if state.strip()
            ]
        records = [job.describe() for job in jobs.jobs(states=states)]
        self._send_json(200, {"jobs": records, "count": len(records)})

    def _get_job(self, _query: Dict[str, list], job_id: str) -> None:
        self._send_json(200, self._jobs_manager().get(job_id).describe())

    def _delete_job(self, _query: Dict[str, list], job_id: str) -> None:
        jobs = self._jobs_manager()
        cancelled = jobs.cancel(job_id)
        job = jobs.get(job_id)
        self._send_json(
            200, {"id": job_id, "cancelled": cancelled, "state": job.state}
        )

    def _get_job_results(self, query: Dict[str, list], job_id: str) -> None:
        jobs = self._jobs_manager()
        job = jobs.get(job_id)
        start = 0
        if query.get("start"):
            try:
                start = int(query["start"][0])
            except ValueError as exc:
                raise _HTTPFail(400, "BadRequest", "'start' must be an integer") from exc
            if start < 0:
                raise _HTTPFail(400, "BadRequest", "'start' must be >= 0")
        stream = (query.get("stream") or ["0"])[0].lower() in ("1", "true", "yes")
        if stream:
            heartbeat = 15.0
            if query.get("heartbeat"):
                try:
                    heartbeat = float(query["heartbeat"][0])
                except ValueError as exc:
                    raise _HTTPFail(
                        400, "BadRequest", "'heartbeat' must be a number"
                    ) from exc
                if heartbeat <= 0:
                    raise _HTTPFail(400, "BadRequest", "'heartbeat' must be > 0")
            self._stream_job_results(job, start, heartbeat)
            return
        # ``first > start`` tells the client its window was truncated out
        # of the bounded buffer (re-read from ``first``).
        first, entries, closed = job.results.snapshot(start)
        self._send_json(
            200,
            {
                "job": job.id,
                "state": job.state,
                "start": first,
                "results": entries,
                "complete": closed,
                "dropped": job.results.dropped,
            },
        )

    def _stream_job_results(self, job, start: int, heartbeat: float) -> None:
        """Stream a job's results as NDJSON over chunked transfer encoding.

        One result per line, written as it is produced; the reader cursor
        participates in the job's backpressure, so a slow consumer pauses
        the solver instead of growing the buffer.  Heartbeat lines keep
        idle connections distinguishable from dead ones.  The last line is
        always a ``done`` record (or a truncation error record), after
        which the terminating zero-length chunk closes the stream.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        if self._request_id is not None:
            # Before Cache-Control: an id ending in "0" as the *last* header
            # would put a literal b"0\r\n\r\n" on the wire, which naive
            # chunked-stream readers mistake for the terminating chunk.
            self.send_header("X-Request-Id", self._request_id)
        replica_id = getattr(self.server, "replica_id", None)
        if replica_id:
            self.send_header("X-KPlex-Replica", replica_id)
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        reader = job.results.attach(start)
        truncated: Optional[str] = None
        try:
            while True:
                try:
                    kind, _index, item = job.results.read(reader, timeout=heartbeat)
                except JobResultsTruncatedError as exc:
                    truncated = str(exc)
                    break
                if kind == READ_END:
                    break
                if kind == READ_ITEM:
                    if fault_injector().fire("http_drop"):
                        # Chaos: pretend the connection died mid-stream.  The
                        # existing client-went-away path closes the socket
                        # without the final record or terminating chunk, so
                        # the client sees a truncated chunked stream.
                        raise BrokenPipeError("injected connection drop")
                    self._write_ndjson_chunk(item)
                else:  # READ_TIMEOUT -> heartbeat keeps the connection alive
                    self._write_ndjson_chunk(
                        {"heartbeat": True, "job": job.id, "state": job.state}
                    )
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            return  # client went away; detach below unblocks the producer
        finally:
            job.results.detach(reader)
        try:
            if truncated is not None:
                self._write_ndjson_chunk(
                    {
                        "done": False,
                        "job": job.id,
                        "state": job.state,
                        "error": {
                            "type": "JobResultsTruncatedError",
                            "message": truncated,
                        },
                    }
                )
            else:
                self._write_ndjson_chunk(job.final_record())
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            self.close_connection = True

    def _write_ndjson_chunk(self, record: Dict[str, object]) -> None:
        payload = json.dumps(record, default=str).encode("utf-8") + b"\n"
        self.wfile.write(f"{len(payload):x}\r\n".encode("ascii"))
        self.wfile.write(payload)
        self.wfile.write(b"\r\n")

    # ------------------------------------------------------------------ #
    # Body / response plumbing
    # ------------------------------------------------------------------ #
    def _read_json_body(self, optional: bool = False) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            if optional:
                return {}
            raise _HTTPFail(400, "BadRequest", "a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise _HTTPFail(
                413, "PayloadTooLarge", f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPFail(400, "BadRequest", f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise _HTTPFail(400, "BadRequest", "the JSON body must be an object")
        return body

    @staticmethod
    def _require(body: Dict[str, object], key: str, kind) -> object:
        if key not in body:
            raise _HTTPFail(400, "BadRequest", f"missing required key {key!r}")
        return KPlexRequestHandler._expect(body, key, kind)

    @staticmethod
    def _expect(body: Dict[str, object], key: str, kind) -> object:
        value = body[key]
        if kind is int and isinstance(value, bool):
            raise _HTTPFail(400, "BadRequest", f"{key!r} must be an integer")
        if not isinstance(value, kind):
            expected = getattr(kind, "__name__", None) or "/".join(
                k.__name__ for k in kind
            )
            raise _HTTPFail(
                400, "BadRequest", f"{key!r} must be of type {expected}"
            )
        return value

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        encoded = json.dumps(payload, default=str).encode("utf-8")
        self._send_bytes(status, encoded, "application/json", headers)

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(
            status, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8"
        )

    def _retry_after_hint(self) -> int:
        """Derived Retry-After seconds: the service's queue-drain ETA."""
        service = getattr(self.server, "service", None)
        if service is None:
            return 1
        try:
            return service.retry_after_hint()
        except Exception as exc:  # the hint must never 500 a reply
            log_event("retry_after_hint_failed", level=logging.WARNING, error=repr(exc))
            return 1

    def _send_error_body(self, status: int, kind: str, message: str) -> None:
        encoded = json.dumps(
            {"error": {"type": kind, "message": message, "status": status}}
        ).encode("utf-8")
        headers = None
        if status in (429, 503):
            # Derived, not hardcoded: overload rejections and drain/closed
            # 503s get the service's queue-drain estimate.
            headers = {"Retry-After": str(self._retry_after_hint())}
        self._send_bytes(status, encoded, "application/json", headers)

    def _send_bytes(
        self,
        status: int,
        payload: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            if self._request_id is not None:
                self.send_header("X-Request-Id", self._request_id)
            replica_id = getattr(self.server, "replica_id", None)
            if replica_id:
                self.send_header("X-KPlex-Replica", replica_id)
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage

    def log_request(self, code: object = "-", size: object = "-") -> None:
        """Capture the response status; the access line is emitted once per
        request by :meth:`_finish_request` (with duration and request id),
        not per ``send_response`` call."""
        try:
            self._response_status = int(getattr(code, "value", code))
        except (TypeError, ValueError):
            pass

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Route handler diagnostics through the server's logger."""
        self.server.log(format % args)  # type: ignore[attr-defined]
