"""Stdlib HTTP client for the k-plex serving front-end.

:class:`ServiceClient` speaks the JSON wire contract of
:mod:`repro.server.handlers` over :mod:`http.client` — no dependencies,
so any Python process (or a curl one-liner, see the README's Deployment
section) can drive a remote server.  Structured error bodies are mapped
back onto the library's exception types: a ``429`` raises
:class:`~repro.errors.ServiceOverloadError` (or its job-queue subclass)
exactly as a local :class:`~repro.service.KPlexService` would, unknown
graphs raise :class:`~repro.errors.CatalogError`, unknown job ids raise
:class:`~repro.errors.JobNotFoundError`, validation problems raise
:class:`~repro.errors.ParameterError`, and anything unmapped raises
:class:`~repro.errors.RemoteServiceError` carrying the HTTP status.

Three transport features are opt-in:

* ``keep_alive=True`` reuses one persistent connection across calls
  (HTTP/1.1 keep-alive), transparently reconnecting once when the server
  closed it between requests.  The reused connection is **not**
  thread-safe — give each thread its own client, or leave keep-alive off
  (the default opens a fresh connection per call, which is always safe);
* every endpoint method accepts ``request_timeout`` overriding the
  client-wide socket timeout for that one call (a long solve can wait
  minutes while health checks keep failing fast);
* ``retry=RetryPolicy(...)`` turns on resilience: ``429``/``503``
  responses are retried with jittered exponential backoff honouring the
  server's ``Retry-After`` header (a queue-drain estimate), connection
  failures are retried for idempotent ``GET`` requests only (a ``POST`` may
  already have reached the server), and :meth:`iter_job_results` transparently
  reconnects a dropped stream, resuming from the last yielded record's
  ``index`` so the caller sees every record exactly once.

For multi-replica deployments ``base_url`` may be a **list** of URLs:
a connection failure on an idempotent ``GET`` rotates to the next
endpoint — each endpoint is tried once for free before any ``retry``
backoff is spent — and ``429``/``503`` answers rotate before sleeping so
a drained or overloaded replica sheds load to its peers.  Non-idempotent
requests never fail over silently.  :attr:`last_replica` carries the
``X-KPlex-Replica`` header of the most recent response (which replica
actually answered, through any router or failover), and
:attr:`last_cache` the solve path's ``X-KPlex-Cache`` verdict.

The async job API mirrors the ``/v1/jobs`` routes: :meth:`submit_job`,
:meth:`job`, :meth:`jobs`, :meth:`cancel_job`, :meth:`job_results` and
the generator :meth:`iter_job_results`, which consumes the chunked
NDJSON stream result-by-result while the enumeration is still running.
"""

from __future__ import annotations

import json
import socket
import time
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from ..errors import (
    CatalogError,
    GraphError,
    JobError,
    JobNotFoundError,
    JobQueueFullError,
    JobResultsTruncatedError,
    JobStateError,
    ParameterError,
    RemoteServiceError,
    ServiceClosedError,
    ServiceOverloadError,
    SnapshotError,
)
from ..jobs import TERMINAL_STATES
from ..obs import new_request_id
from ..resilience import RetryPolicy

#: ``error.type`` labels mapped back onto local exception types.
_ERROR_TYPES = {
    "ServiceOverloadError": ServiceOverloadError,
    "ServiceClosedError": ServiceClosedError,
    "CatalogError": CatalogError,
    "ParameterError": ParameterError,
    "GraphError": GraphError,
    "SnapshotError": SnapshotError,
    "JobError": JobError,
    "JobNotFoundError": JobNotFoundError,
    "JobQueueFullError": JobQueueFullError,
    "JobStateError": JobStateError,
    "JobResultsTruncatedError": JobResultsTruncatedError,
}

class _NoDelayHTTPConnection(HTTPConnection):
    """:class:`HTTPConnection` with Nagle's algorithm disabled.

    ``http.client`` writes headers and body as separate segments; with
    Nagle on, the body segment of every POST stalls behind the peer's
    delayed ACK (~40ms on Linux loopback), dwarfing the request itself.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


#: Connection-level failures that mean "the reused socket went stale".
_STALE_CONNECTION_ERRORS = (
    HTTPException,
    ConnectionResetError,
    BrokenPipeError,
    ConnectionAbortedError,
)


class ServiceClient:
    """Minimal blocking client for one server base URL (or a failover list).

    >>> client = ServiceClient("http://127.0.0.1:8080")   # doctest: +SKIP
    >>> client.register("toy", edges=[(0, 1), (1, 2), (0, 2)])  # doctest: +SKIP
    >>> client.solve("toy", k=2, q=3)["count"]            # doctest: +SKIP
    1
    """

    def __init__(
        self,
        base_url: Union[str, Sequence[str]],
        timeout: float = 60.0,
        keep_alive: bool = False,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        urls = [base_url] if isinstance(base_url, str) else list(base_url)
        if not urls:
            raise ParameterError("at least one base URL is required")
        self.endpoints: List[str] = []
        self._targets: List[Tuple[str, int, str]] = []
        for url in urls:
            url = url.rstrip("/")
            split = urlsplit(url)
            if split.scheme not in ("http", ""):
                raise ParameterError(
                    f"unsupported URL scheme {split.scheme!r}; only http is spoken"
                )
            self.endpoints.append(url)
            self._targets.append(
                (split.hostname or "127.0.0.1", split.port or 80,
                 split.path.rstrip("/"))
            )
        self._endpoint = 0
        self.timeout = timeout
        self.keep_alive = keep_alive
        self.retry = retry
        self._conn: Optional[HTTPConnection] = None
        #: Request id of the most recent completed call — every request
        #: carries a client-generated ``X-Request-Id`` and the server echoes
        #: it back, so this id keys ``GET /v1/trace/<id>`` (see :meth:`trace`).
        self.last_request_id: Optional[str] = None
        #: ``X-KPlex-Replica`` header of the most recent response (``None``
        #: when the server does not announce a replica identity).
        self.last_replica: Optional[str] = None
        #: ``X-KPlex-Cache`` header of the most recent response: ``"hit"`` /
        #: ``"miss"`` on the solve route, ``None`` elsewhere.
        self.last_cache: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Endpoint selection
    # ------------------------------------------------------------------ #
    @property
    def base_url(self) -> str:
        """The endpoint currently in use (rotates on failover)."""
        return self.endpoints[self._endpoint]

    @property
    def _host(self) -> str:
        return self._targets[self._endpoint][0]

    @property
    def _port(self) -> int:
        return self._targets[self._endpoint][1]

    @property
    def _path_prefix(self) -> str:
        return self._targets[self._endpoint][2]

    def _rotate(self) -> None:
        """Advance to the next endpoint (dropping any keep-alive socket)."""
        self.close()
        self._endpoint = (self._endpoint + 1) % len(self.endpoints)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def health(self, request_timeout: Optional[float] = None) -> Dict[str, object]:
        """``GET /healthz`` — returns the body even while draining (503)."""
        try:
            return self._call(  # type: ignore[return-value]
                "GET", "/healthz", request_timeout=request_timeout
            )
        except RemoteServiceError as exc:
            if exc.status == 503:
                return {"status": "draining"}
            raise

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll :meth:`health` until the server answers ``ok``."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                if self.health().get("status") == "ok":
                    return
            except (OSError, RemoteServiceError) as exc:
                last_error = exc
            time.sleep(interval)
        raise RemoteServiceError(
            f"server at {self.base_url} not ready after {timeout}s "
            f"(last error: {last_error})"
        )

    def graphs(
        self, request_timeout: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """``GET /v1/graphs`` — the catalog listing."""
        return self._call(  # type: ignore[index]
            "GET", "/v1/graphs", request_timeout=request_timeout
        )["graphs"]

    def register(
        self,
        name: str,
        edges: Optional[Sequence[Tuple[object, object]]] = None,
        vertices: Optional[Sequence[object]] = None,
        path: Optional[str] = None,
        dataset: Optional[str] = None,
        prewarm: Optional[Sequence[Tuple[int, int]]] = None,
        replace: bool = False,
        fmt: str = "auto",
        request_timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``POST /v1/graphs`` — register by edges, file path or dataset name."""
        body: Dict[str, object] = {"name": name, "replace": replace, "fmt": fmt}
        if edges is not None:
            body["edges"] = [list(edge) for edge in edges]
            if vertices is not None:
                body["vertices"] = list(vertices)
        if path is not None:
            body["path"] = path
        if dataset is not None:
            body["dataset"] = dataset
        if prewarm is not None:
            body["prewarm"] = [list(pair) for pair in prewarm]
        return self._call(  # type: ignore[return-value]
            "POST", "/v1/graphs", body, request_timeout=request_timeout
        )

    @staticmethod
    def _solve_body(
        graph: str,
        k: int,
        q: int,
        solver: Optional[str],
        variant: Optional[str],
        config: Optional[Dict[str, object]],
        timeout: Optional[float],
        max_results: Optional[int],
        query: Optional[Sequence[object]],
        options: Optional[Dict[str, object]],
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"graph": graph, "k": k, "q": q}
        for key, value in (
            ("solver", solver),
            ("variant", variant),
            ("config", config),
            ("timeout", timeout),
            ("max_results", max_results),
            ("options", options),
        ):
            if value is not None:
                body[key] = value
        if query is not None:
            body["query"] = list(query)
        return body

    def solve(
        self,
        graph: str,
        k: int,
        q: int,
        solver: Optional[str] = None,
        variant: Optional[str] = None,
        config: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        max_results: Optional[int] = None,
        query: Optional[Sequence[object]] = None,
        options: Optional[Dict[str, object]] = None,
        include_results: bool = True,
        request_timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``POST /v1/solve`` — one synchronous enumeration.

        ``timeout`` is the *solver's* budget (enforced server-side);
        ``request_timeout`` is this call's socket timeout.
        """
        body = self._solve_body(
            graph, k, q, solver, variant, config, timeout, max_results,
            query, options,
        )
        body["include_results"] = include_results
        return self._call(  # type: ignore[return-value]
            "POST", "/v1/solve", body, request_timeout=request_timeout
        )

    def metrics(
        self, fmt: Optional[str] = None, request_timeout: Optional[float] = None
    ) -> Union[Dict[str, object], str]:
        """``GET /v1/metrics`` — JSON dict, or text with ``fmt="prometheus"``."""
        suffix = f"?format={fmt}" if fmt else ""
        return self._call(
            "GET", f"/v1/metrics{suffix}", request_timeout=request_timeout
        )

    def snapshot(
        self, path: Optional[str] = None, request_timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """``POST /v1/snapshot`` — force a warm-state snapshot now."""
        body = {"path": path} if path else None
        return self._call(  # type: ignore[return-value]
            "POST", "/v1/snapshot", body, request_timeout=request_timeout
        )

    # ------------------------------------------------------------------ #
    # Traces
    # ------------------------------------------------------------------ #
    def traces(
        self,
        min_ms: Optional[float] = None,
        limit: Optional[int] = None,
        request_timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``GET /v1/trace`` — recent request/job traces, newest first."""
        params = []
        if min_ms is not None:
            params.append(f"min_ms={min_ms}")
        if limit is not None:
            params.append(f"limit={limit}")
        suffix = f"?{'&'.join(params)}" if params else ""
        return self._call(  # type: ignore[return-value]
            "GET", f"/v1/trace{suffix}", request_timeout=request_timeout
        )

    def trace(
        self,
        request_id: Optional[str] = None,
        request_timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``GET /v1/trace/<id>`` — one request's full span tree.

        Without an explicit ``request_id`` this fetches the trace of this
        client's *previous* call (:attr:`last_request_id`).
        """
        target = request_id or self.last_request_id
        if not target:
            raise ParameterError(
                "no request id: pass one or make a traced call first"
            )
        return self._call(  # type: ignore[return-value]
            "GET", f"/v1/trace/{target}", request_timeout=request_timeout
        )

    # ------------------------------------------------------------------ #
    # Async jobs
    # ------------------------------------------------------------------ #
    def submit_job(
        self,
        graph: str,
        k: int,
        q: int,
        solver: Optional[str] = None,
        variant: Optional[str] = None,
        config: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
        max_results: Optional[int] = None,
        query: Optional[Sequence[object]] = None,
        options: Optional[Dict[str, object]] = None,
        result_buffer: Optional[int] = None,
        ttl: Optional[float] = None,
        request_timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``POST /v1/jobs`` — submit asynchronously; returns the job record.

        The record's ``id`` drives :meth:`job`, :meth:`cancel_job` and
        :meth:`iter_job_results`.  ``result_buffer`` / ``ttl`` override the
        server's per-job buffering bound and retention for this job.
        """
        body = self._solve_body(
            graph, k, q, solver, variant, config, timeout, max_results,
            query, options,
        )
        if result_buffer is not None:
            body["result_buffer"] = result_buffer
        if ttl is not None:
            body["ttl"] = ttl
        return self._call(  # type: ignore[return-value]
            "POST", "/v1/jobs", body, request_timeout=request_timeout
        )

    def job(
        self, job_id: str, request_timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """``GET /v1/jobs/<id>`` — poll one job's state and progress."""
        return self._call(  # type: ignore[return-value]
            "GET", f"/v1/jobs/{job_id}", request_timeout=request_timeout
        )

    def jobs(
        self,
        states: Optional[Sequence[str]] = None,
        request_timeout: Optional[float] = None,
    ) -> List[Dict[str, object]]:
        """``GET /v1/jobs`` — list job records, optionally state-filtered."""
        suffix = f"?state={','.join(states)}" if states else ""
        return self._call(  # type: ignore[index]
            "GET", f"/v1/jobs{suffix}", request_timeout=request_timeout
        )["jobs"]

    def cancel_job(
        self, job_id: str, request_timeout: Optional[float] = None
    ) -> Dict[str, object]:
        """``DELETE /v1/jobs/<id>`` — cancel; cooperative for running jobs."""
        return self._call(  # type: ignore[return-value]
            "DELETE", f"/v1/jobs/{job_id}", request_timeout=request_timeout
        )

    def wait_job(
        self,
        job_id: str,
        timeout: float = 60.0,
        interval: float = 0.02,
    ) -> Dict[str, object]:
        """Poll :meth:`job` until the job is terminal; returns the record."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise RemoteServiceError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(interval)

    def job_results(
        self,
        job_id: str,
        start: int = 0,
        request_timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """``GET /v1/jobs/<id>/results`` — the buffered window, one shot.

        ``start`` in the response may exceed the requested one when older
        results were evicted from the job's bounded buffer.
        """
        return self._call(  # type: ignore[return-value]
            "GET",
            f"/v1/jobs/{job_id}/results?start={start}",
            request_timeout=request_timeout,
        )

    def iter_job_results(
        self,
        job_id: str,
        start: int = 0,
        heartbeat: Optional[float] = None,
        include_heartbeats: bool = False,
        request_timeout: Optional[float] = None,
    ) -> Iterator[Dict[str, object]]:
        """``GET /v1/jobs/<id>/results?stream=1`` — records as they arrive.

        Yields each NDJSON record (result lines, then exactly one final
        ``{"done": ...}`` record carrying the job's terminal state — or a
        ``{"done": false, "error": ...}`` record if the read window was
        truncated).  Heartbeat lines are skipped unless
        ``include_heartbeats`` is set.  The stream uses its own dedicated
        connection, so it composes with a keep-alive client.

        The consumer's pace is the producer's pace: reading slowly
        throttles the server-side enumeration (bounded-buffer
        backpressure) instead of buffering unboundedly.

        With a client ``retry`` policy a dropped connection (including a
        clean EOF before the final ``done`` record) is reconnected
        transparently: the stream resumes at ``last yielded index + 1``,
        so the caller still sees every record exactly once, in order.
        The attempt budget resets whenever a reconnect makes progress.
        """
        next_start = start
        failures = 0
        while True:
            progressed = False
            try:
                for record in self._stream_once(
                    job_id, next_start, heartbeat, request_timeout
                ):
                    if record.get("heartbeat"):
                        if include_heartbeats:
                            yield record
                        continue
                    if "index" in record:
                        next_start = max(next_start, int(record["index"]) + 1)
                        progressed = True
                    yield record
                    if "done" in record:
                        return
                # Exhausted without a final record: the server went away
                # between lines (a half-closed socket reads as clean EOF).
                exc: Optional[Exception] = None
            except (OSError, HTTPException) as stream_exc:
                exc = stream_exc
            if progressed:
                failures = 0
            failures += 1
            if self.retry is None or not self.retry.should_retry(failures):
                detail = f": {exc}" if exc is not None else " before the final record"
                raise RemoteServiceError(
                    f"stream from {self.base_url} dropped{detail}"
                ) from exc
            self.retry.sleep(failures)

    def _stream_once(
        self,
        job_id: str,
        start: int,
        heartbeat: Optional[float],
        request_timeout: Optional[float],
    ) -> Iterator[Dict[str, object]]:
        """One streaming connection; yields raw NDJSON records until EOF."""
        route = f"/v1/jobs/{job_id}/results?stream=1&start={start}"
        if heartbeat is not None:
            route += f"&heartbeat={heartbeat}"
        conn = _NoDelayHTTPConnection(
            self._host,
            self._port,
            timeout=request_timeout if request_timeout is not None else self.timeout,
        )
        try:
            request_id = new_request_id()
            conn.request(
                "GET",
                self._path_prefix + route,
                headers={"X-Request-Id": request_id},
            )
            response = conn.getresponse()
            self.last_request_id = (
                response.getheader("X-Request-Id") or request_id
            )
            self.last_replica = response.getheader("X-KPlex-Replica")
            if response.status >= 400:
                raise self._to_exception(
                    response.status, response.reason, response.read()
                )
            for line in response:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    # A torn trailing line from a dying connection; end the
                    # stream so the resume loop re-fetches from the last
                    # complete record instead of crashing the consumer.
                    return
                yield record
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the keep-alive connection (a later call reopens one)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _call(
        self,
        method: str,
        route: str,
        body: Optional[Dict[str, object]] = None,
        request_timeout: Optional[float] = None,
    ) -> Union[Dict[str, object], List[object], str]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        # One id per logical call: a retried request keeps its id, so the
        # server-side trace of the attempt that finally ran stays findable.
        request_id = new_request_id()
        headers = {"X-Request-Id": request_id}
        if data:
            headers["Content-Type"] = "application/json"
        timeout = request_timeout if request_timeout is not None else self.timeout
        failures = 0
        rotations = 0
        while True:
            # Recomputed each attempt: failover rotation may change the
            # endpoint (and with it the path prefix) between attempts.
            path = self._path_prefix + route
            try:
                status, reason, content_type, raw, retry_after, echoed, replica, cache_state = (
                    self._request(method, path, data, headers, timeout)
                )
                self.last_request_id = echoed or request_id
                self.last_replica = replica
                self.last_cache = cache_state
            except OSError as exc:
                # Connection-level failure.  Only idempotent GETs may be
                # replayed — a POST could have reached the server before
                # the socket died, and repeating it would double-apply.
                failures += 1
                idempotent = method == "GET"
                # Multi-endpoint failover: each peer is tried once for free
                # (no backoff) before any retry budget is spent — a dead
                # replica should cost one connect attempt, not a sleep.
                if (
                    idempotent
                    and len(self.endpoints) > 1
                    and rotations < len(self.endpoints) - 1
                ):
                    rotations += 1
                    self._rotate()
                    continue
                if (
                    self.retry is None
                    or not idempotent
                    or not self.retry.should_retry(failures)
                ):
                    raise RemoteServiceError(
                        f"cannot reach {self.base_url}: {exc}"
                    ) from exc
                if len(self.endpoints) > 1:
                    # Next backoff round starts from the next endpoint and
                    # gets a fresh free-rotation budget.
                    rotations = 0
                    self._rotate()
                self.retry.sleep(failures)
                continue
            if status in (429, 503):
                # Overload / draining: retry after the server's own hint
                # when it gave one (any method — the request never ran, so
                # replaying is safe).  With peers available, rotate first:
                # a drained or overloaded replica sheds its load.
                failures += 1
                if self.retry is not None and self.retry.should_retry(failures):
                    if len(self.endpoints) > 1:
                        self._rotate()
                    self.retry.sleep(failures, retry_after=retry_after)
                    continue
            if status >= 400:
                raise self._to_exception(status, reason, raw)
            return self._decode(raw, content_type)

    @staticmethod
    def _parse_retry_after(value: Optional[str]) -> Optional[float]:
        if value is None:
            return None
        try:
            return max(0.0, float(value))
        except ValueError:
            return None

    def _request(
        self,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
        timeout: float,
    ) -> Tuple[
        int, str, str, bytes, Optional[float], Optional[str], Optional[str],
        Optional[str],
    ]:
        if not self.keep_alive:
            conn = _NoDelayHTTPConnection(self._host, self._port, timeout=timeout)
            try:
                return self._roundtrip(conn, method, path, data, headers)
            finally:
                conn.close()
        # Keep-alive: reuse one connection, reconnecting once when the
        # server closed it between requests (idle timeout, restart).
        for attempt in (0, 1):
            try:
                if self._conn is None:
                    self._conn = _NoDelayHTTPConnection(
                        self._host, self._port, timeout=timeout
                    )
                else:
                    self._conn.timeout = timeout
                    if self._conn.sock is not None:
                        self._conn.sock.settimeout(timeout)
                return self._roundtrip(self._conn, method, path, data, headers)
            except TimeoutError:
                # A mid-request timeout leaves the connection unusable but
                # is a real per-request failure, never a stale socket.
                self.close()
                raise
            except _STALE_CONNECTION_ERRORS + (OSError,):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    @classmethod
    def _roundtrip(
        cls,
        conn: HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[
        int, str, str, bytes, Optional[float], Optional[str], Optional[str],
        Optional[str],
    ]:
        conn.request(method, path, body=data, headers=headers)
        response: HTTPResponse = conn.getresponse()
        raw = response.read()  # fully drain so the connection is reusable
        content_type = (response.headers.get_content_type() or "").lower()
        retry_after = cls._parse_retry_after(response.getheader("Retry-After"))
        echoed = response.getheader("X-Request-Id")
        replica = response.getheader("X-KPlex-Replica")
        cache_state = response.getheader("X-KPlex-Cache")
        return (
            response.status, response.reason, content_type, raw, retry_after,
            echoed, replica, cache_state,
        )

    @staticmethod
    def _decode(
        raw: bytes, content_type: str
    ) -> Union[Dict[str, object], List[object], str]:
        text = raw.decode("utf-8")
        if content_type == "application/json":
            return json.loads(text)
        return text

    @staticmethod
    def _to_exception(status: int, reason: str, raw: bytes) -> Exception:
        kind, message = "", f"HTTP {status}: {reason}"
        try:
            error = json.loads(raw.decode("utf-8")).get("error", {})
            kind = error.get("type", "")
            message = error.get("message", message)
        except (ValueError, OSError):
            pass
        mapped = _ERROR_TYPES.get(kind)
        if mapped is not None:
            return mapped(message)
        return RemoteServiceError(message, status=status, kind=kind)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()
