"""HTTP serving front-end with cache persistence and warm-start replay.

This subsystem completes the deployment story the serving layer
(:mod:`repro.service`) started: state that used to die with the process
now survives it, and clients no longer need to share the interpreter.

* :class:`KPlexHTTPServer` / :func:`serve_http` / :func:`start_server` —
  a stdlib ``ThreadingHTTPServer`` exposing ``POST /v1/solve``,
  ``POST|GET /v1/graphs``, ``GET /v1/metrics`` (JSON or Prometheus text),
  ``GET /healthz``, ``POST /v1/snapshot`` and the async ``/v1/jobs``
  lifecycle routes (submit / poll / list / cancel / chunked NDJSON result
  streaming), with structured error bodies and graceful
  drain-then-shutdown on SIGTERM;
* :mod:`repro.server.persistence` — versioned on-disk snapshots of the
  hot state (catalog registrations and the hottest replayable request
  specs) validated against ``Graph.epoch`` on load;
* :func:`warm_start` — re-executes the persisted specs through the normal
  service path on boot, so a restarted server answers its recurring
  workload from a warm cache;
* :class:`ServiceClient` — a dependency-free Python client speaking the
  same wire contract.

Quick start::

    from repro.service import KPlexService
    from repro.server import ServiceClient, start_server

    service = KPlexService()
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.register("toy", edges=[(0, 1), (1, 2), (0, 2)])
    client.solve("toy", k=2, q=3)["count"]
    server.drain()
"""

from ..errors import RemoteServiceError, ServiceClosedError, SnapshotError
from .app import DEFAULT_HOST, KPlexHTTPServer, serve_http, start_server
from .client import ServiceClient
from .handlers import KPlexRequestHandler, MAX_BODY_BYTES
from .persistence import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    WarmStartReport,
    load_snapshot,
    quarantine_snapshot,
    save_snapshot,
    snapshot_service,
    warm_start,
)

__all__ = [
    "KPlexHTTPServer",
    "KPlexRequestHandler",
    "ServiceClient",
    "serve_http",
    "start_server",
    "snapshot_service",
    "save_snapshot",
    "load_snapshot",
    "quarantine_snapshot",
    "warm_start",
    "WarmStartReport",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "MAX_BODY_BYTES",
    "DEFAULT_HOST",
    "RemoteServiceError",
    "ServiceClosedError",
    "SnapshotError",
]
