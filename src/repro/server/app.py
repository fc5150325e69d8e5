"""The HTTP server process wrapper: lifecycle, snapshots, graceful drain.

:class:`KPlexHTTPServer` is a :class:`ThreadingHTTPServer` that owns a
:class:`~repro.service.service.KPlexService` plus the durable-state hooks
of :mod:`repro.server.persistence`:

* an optional **periodic snapshot** thread writes the warm state to disk
  every ``snapshot_interval`` seconds (atomically, so a crash mid-write
  never corrupts the previous snapshot);
* :meth:`drain` implements the shutdown contract: stop accepting HTTP
  requests, finish in-flight work (``service.close(drain=True)``), write a
  final snapshot, and only then release the sockets;
* :func:`serve_http` is the blocking entry point used by the CLI — it
  installs SIGTERM/SIGINT handlers that trigger exactly that drain, so a
  supervisor's ``kill -TERM`` is always a clean exit.

For tests and embedded use, :func:`start_server` boots the same server on
a background thread and returns it ready to accept requests.
"""

from __future__ import annotations

import signal
import sys
import threading
from http.server import ThreadingHTTPServer
from typing import Callable, Optional, Union

from ..errors import ParameterError, SnapshotError
from ..jobs import DRAIN_POLICIES, DRAIN_WAIT, JobManager, JobManagerConfig
from ..obs import TraceRecorder
from ..service import KPlexService
from .handlers import KPlexRequestHandler
from .persistence import WarmStartReport, save_snapshot, warm_start

DEFAULT_HOST = "127.0.0.1"


class KPlexHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP front-end bound to one :class:`KPlexService`.

    Parameters
    ----------
    address:
        ``(host, port)`` to bind; port ``0`` picks an ephemeral port
        (read the result from :attr:`url`).
    service:
        The service answering the requests.  The server never creates one
        implicitly, so callers control catalog, budgets and lifetime.
    snapshot_path:
        Warm-state snapshot target for the periodic thread, the final
        drain-time snapshot and ``POST /v1/snapshot``; ``None`` disables
        all three.
    snapshot_interval:
        Seconds between periodic snapshots (``None`` = only at drain).
    request_deadline:
        Server-side hard per-request deadline in seconds; a solve that
        exceeds it is answered with a structured ``504``.  ``None`` waits
        forever (the service's own timeout still applies).
    logger:
        Callable receiving access-log lines; ``None`` keeps the server
        quiet (the stdlib default of spamming stderr is never used).
    job_config:
        The async ``/v1/jobs`` table's result buffering, TTL and record
        cap; ``None`` uses the defaults.  Jobs have no pool of their own:
        they run on the service's workers under its admission budget, so a
        job whose spec is cached streams the cached answer.
    drain_jobs:
        What :meth:`drain` does with live jobs: ``"wait"`` (default) lets
        them finish, ``"cancel"`` stops them cooperatively.  Streaming
        clients always receive a well-formed final NDJSON record either
        way.
    trace_capacity:
        How many completed request/job traces the in-memory ring buffer
        behind ``GET /v1/trace`` retains (oldest evicted first).  ``0``
        disables per-request tracing entirely (spans degrade to no-ops
        and the ``/v1/trace`` routes answer 503).
    access_log_format:
        ``"plain"`` for the classic one-line access log, ``"json"`` for
        one JSON object per request (same fields as the ``http_request``
        telemetry event).
    slow_request_threshold:
        Seconds; a request slower than this emits a ``slow_request``
        WARNING event carrying its full span tree.  ``None`` disables it.
    replica_id:
        Identity this process announces in the ``X-KPlex-Replica`` response
        header on every reply.  Set by ``serve-cluster`` so routed traffic
        is attributable over the wire; ``None`` (standalone servers) omits
        the header.
    snapshot_max_specs:
        Cap on persisted hot request specs per snapshot (top-N by hit count
        with age decay, see :func:`~repro.server.persistence.snapshot_service`).
        ``None`` disables the cap.
    """

    # Handler threads are joined on server_close(): an in-flight response is
    # always written before the process exits (the drain contract).
    daemon_threads = False
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple,
        service: KPlexService,
        snapshot_path: Optional[str] = None,
        snapshot_interval: Optional[float] = None,
        request_deadline: Optional[float] = None,
        logger: Optional[Callable[[str], None]] = None,
        job_config: Optional[JobManagerConfig] = None,
        drain_jobs: str = DRAIN_WAIT,
        trace_capacity: int = 256,
        access_log_format: str = "plain",
        slow_request_threshold: Optional[float] = None,
        replica_id: Optional[str] = None,
        snapshot_max_specs: Optional[int] = 256,
    ) -> None:
        if snapshot_max_specs is not None and snapshot_max_specs < 0:
            raise ParameterError(
                f"snapshot_max_specs must be non-negative, got {snapshot_max_specs}"
            )
        if drain_jobs not in DRAIN_POLICIES:
            raise ParameterError(
                f"unknown drain_jobs policy {drain_jobs!r}; "
                f"expected one of {DRAIN_POLICIES}"
            )
        if access_log_format not in ("plain", "json"):
            raise ParameterError(
                f"unknown access_log_format {access_log_format!r}; "
                "expected 'plain' or 'json'"
            )
        super().__init__(address, KPlexRequestHandler)
        self.service = service
        self.recorder = (
            TraceRecorder(capacity=trace_capacity) if trace_capacity > 0 else None
        )
        self.jobs = JobManager(service, job_config, recorder=self.recorder)
        self.drain_jobs = drain_jobs
        self.access_log_format = access_log_format
        self.slow_request_threshold = slow_request_threshold
        self.snapshot_path = snapshot_path
        self.snapshot_interval = snapshot_interval
        self.snapshot_max_specs = snapshot_max_specs
        self.replica_id = replica_id
        self.request_deadline = request_deadline
        self.draining = False
        self._logger = logger
        self._stop_snapshots = threading.Event()
        self._snapshot_thread: Optional[threading.Thread] = None
        # Serialises every snapshot writer (periodic thread, POST
        # /v1/snapshot handler threads, the final drain snapshot).  Each
        # writer already stages into its own unique temp file, but without
        # ordering a slow periodic write could publish *after* — and thereby
        # clobber — the fresher final snapshot of a concurrent drain.
        self._snapshot_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        self._drained = False
        self._drain_done = threading.Event()
        if snapshot_path and snapshot_interval:
            self._snapshot_thread = threading.Thread(
                target=self._snapshot_loop, name="kplex-snapshot", daemon=True
            )
            self._snapshot_thread.start()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL of the bound listener (resolves ephemeral ports)."""
        host, port = self.server_address[:2]
        display = "127.0.0.1" if host in ("0.0.0.0", "::") else host
        return f"http://{display}:{port}"

    def log(self, message: str) -> None:
        """Access-log sink used by the request handler."""
        if self._logger is not None:
            self._logger(message)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def _snapshot_loop(self) -> None:
        while not self._stop_snapshots.wait(self.snapshot_interval):
            try:
                self.write_snapshot()
            except SnapshotError as exc:  # pragma: no cover - disk trouble
                self.log(f"periodic snapshot failed: {exc}")

    def write_snapshot(self) -> Optional[dict]:
        """Write a snapshot now; returns the document (``None`` if disabled).

        Thread-safe: concurrent writers (periodic thread, handler threads,
        drain) are serialised, so the published file is always one writer's
        complete document and a later call can never be overwritten by an
        earlier, staler one.
        """
        if not self.snapshot_path:
            return None
        with self._snapshot_lock:
            return save_snapshot(
                self.service,
                self.snapshot_path,
                max_requests=self.snapshot_max_specs,
                extra={"jobs": self.jobs.summary()},
            )

    def warm_start(
        self, snapshot: Optional[Union[str, dict]] = None
    ) -> Optional[WarmStartReport]:
        """Replay a snapshot (default: :attr:`snapshot_path`) into the service."""
        source = snapshot if snapshot is not None else self.snapshot_path
        if not source:
            return None
        return warm_start(self.service, source)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def drain(self, close_service: bool = True) -> None:
        """Graceful shutdown: reject new work, finish in-flight, snapshot.

        Safe to call from any thread (SIGTERM handlers call it via
        :meth:`initiate_shutdown`) and idempotent.  ``close_service=False``
        leaves the service open for embedding callers that keep using it
        after the HTTP listener is gone.
        """
        with self._drain_lock:
            first = not self._drained
            self._drained = True
        if not first:
            # Another thread is already draining; block until it finishes so
            # every caller observes the same "fully drained" postcondition.
            self._drain_done.wait()
            return
        self.draining = True
        self._stop_snapshots.set()
        self.shutdown()  # stop serve_forever and new accepts
        # Settle the job table before the service closes: "wait" lets live
        # jobs run to completion, "cancel" stops them cooperatively.  Either
        # way every streaming handler observes its job's result log close
        # and writes a well-formed final NDJSON record before server_close()
        # joins it below.
        self.jobs.close(policy=self.drain_jobs)
        if close_service:
            self.service.close(drain=True)
        # Retire the periodic writer before taking the final snapshot: a
        # write already in flight finishes (under the snapshot lock), and
        # nothing can publish a stale document after the final one below.
        if self._snapshot_thread is not None:
            self._snapshot_thread.join()
        try:
            self.write_snapshot()
        except SnapshotError as exc:  # pragma: no cover - disk trouble
            self.log(f"final snapshot failed: {exc}")
        self.server_close()  # joins handler threads (daemon_threads = False)
        self._drain_done.set()

    def initiate_shutdown(self) -> threading.Thread:
        """Kick off :meth:`drain` on a helper thread and return it.

        ``shutdown()`` blocks until ``serve_forever`` exits, so a signal
        handler running *inside* the serving thread must hand the drain to
        another thread or deadlock.
        """
        thread = threading.Thread(target=self.drain, name="kplex-drain")
        thread.start()
        return thread


def start_server(
    service: KPlexService,
    host: str = DEFAULT_HOST,
    port: int = 0,
    **server_kwargs: object,
) -> KPlexHTTPServer:
    """Boot a server on a background thread; returns once it accepts requests."""
    server = KPlexHTTPServer((host, port), service, **server_kwargs)
    thread = threading.Thread(
        target=server.serve_forever, name="kplex-http", daemon=True
    )
    thread.start()
    server._serve_thread = thread  # type: ignore[attr-defined]
    return server


def serve_http(
    service: KPlexService,
    host: str = DEFAULT_HOST,
    port: int = 8080,
    snapshot_path: Optional[str] = None,
    snapshot_interval: Optional[float] = None,
    request_deadline: Optional[float] = None,
    logger: Optional[Callable[[str], None]] = None,
    ready: Optional[Callable[[KPlexHTTPServer], None]] = None,
    install_signal_handlers: bool = True,
    job_config: Optional[JobManagerConfig] = None,
    drain_jobs: str = DRAIN_WAIT,
    trace_capacity: int = 256,
    access_log_format: str = "plain",
    slow_request_threshold: Optional[float] = None,
    replica_id: Optional[str] = None,
    snapshot_max_specs: Optional[int] = 256,
) -> KPlexHTTPServer:
    """Serve until SIGTERM/SIGINT, then drain; the CLI's blocking core.

    ``ready`` is called with the bound server before the first request is
    accepted (the CLI prints the URL there).  On return the server has
    fully drained: no listener, no worker threads, final snapshot written
    (including the job-table summary).
    """
    server = KPlexHTTPServer(
        (host, port),
        service,
        snapshot_path=snapshot_path,
        snapshot_interval=snapshot_interval,
        request_deadline=request_deadline,
        logger=logger,
        job_config=job_config,
        drain_jobs=drain_jobs,
        trace_capacity=trace_capacity,
        access_log_format=access_log_format,
        slow_request_threshold=slow_request_threshold,
        replica_id=replica_id,
        snapshot_max_specs=snapshot_max_specs,
    )
    previous = {}
    if install_signal_handlers:

        def _handle(signum: int, _frame: object) -> None:
            server.log(f"received signal {signum}; draining")
            server.initiate_shutdown()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, _handle)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
    try:
        if ready is not None:
            ready(server)
        server.serve_forever()
        server.drain()  # no-op if a signal already drained; else clean stop
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return server


def _default_logger(message: str) -> None:  # pragma: no cover - CLI plumbing
    print(message, file=sys.stderr)
