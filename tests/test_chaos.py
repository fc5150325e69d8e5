"""End-to-end chaos tests: injected faults across the full HTTP stack.

Each test arms the process-wide :class:`~repro.resilience.FaultInjector`
(exactly what ``REPRO_FAULT`` / ``serve-http --fault`` arm in production)
and asserts the failure *semantics* the README promises: worker deaths
recover bit-identically, the circuit breaker sheds load with honest
``Retry-After`` values and closes again, dropped result streams resume
exactly where they left off, and torn snapshots quarantine instead of
crash-looping the boot.
"""

import json
import time
from http.client import HTTPConnection
from urllib.parse import urlsplit

import pytest

from repro.errors import CircuitOpenError, RemoteServiceError, SnapshotError
from repro.graph import generators
from repro.resilience import RetryPolicy, fault_injector, resilience_stats
from repro.server import (
    ServiceClient,
    load_snapshot,
    save_snapshot,
    start_server,
    warm_start,
)
from repro.service import KPlexService, ServiceConfig
from repro.service.service import render_prometheus

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
PARALLEL = {"num_workers": 2, "use_processes": True}


@pytest.fixture(autouse=True)
def _clean_globals():
    fault_injector().clear()
    resilience_stats().reset()
    yield
    fault_injector().clear()
    resilience_stats().reset()


def make_service(**config_kwargs) -> KPlexService:
    config_kwargs.setdefault("max_workers", 2)
    config_kwargs.setdefault("result_cache_entries", 0)  # every solve runs
    service = KPlexService(config=ServiceConfig(**config_kwargs))
    service.catalog.register("toy", EDGES)
    service.catalog.register("caveman", generators.relaxed_caveman(5, 5, 0.3, seed=13))
    service.catalog.register("busy", generators.gnm_random(60, 400, seed=5))
    return service


@pytest.fixture()
def served():
    service = make_service()
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        yield service, server, client
    finally:
        server.drain()


def _raw_request(url: str, method: str, path: str, body=None):
    """One request via http.client so response *headers* are inspectable."""
    split = urlsplit(url)
    conn = HTTPConnection(split.hostname, split.port, timeout=30)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    try:
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# --------------------------------------------------------------------------- #
# Readiness vs liveness
# --------------------------------------------------------------------------- #
def test_readyz_is_ready_and_distinct_from_healthz(served):
    _service, server, _client = served
    status, _headers, body = _raw_request(server.url, "GET", "/readyz")
    payload = json.loads(body)
    assert status == 200 and payload["status"] == "ready"
    assert payload["breaker"]["state"] == "closed"
    assert payload["pool_degraded"] is False
    assert payload["recoveries_total"] == 0


def test_readyz_reports_degraded_pool_as_not_ready(served):
    _service, server, _client = served
    resilience_stats().set_pool_degraded(True)
    status, headers, body = _raw_request(server.url, "GET", "/readyz")
    assert status == 503
    assert json.loads(body)["status"] == "degraded"
    assert int(headers["Retry-After"]) >= 1


# --------------------------------------------------------------------------- #
# Circuit breaker over the wire
# --------------------------------------------------------------------------- #
def test_breaker_opens_sheds_load_and_recloses():
    service = make_service(
        breaker_failure_threshold=1, breaker_cooldown_seconds=0.4
    )
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        # A deterministically crashing seed fails the backend request...
        fault_injector().configure("seed_crash:0")
        with pytest.raises(RemoteServiceError) as excinfo:
            client.solve("caveman", k=2, q=4, solver="parallel", options=PARALLEL)
        assert excinfo.value.kind == "PoisonTaskError"
        assert excinfo.value.status == 500

        # ...which trips the threshold-1 breaker: shed with Retry-After.
        with pytest.raises(CircuitOpenError):
            client.solve("toy", k=2, q=3)
        status, headers, _body = _raw_request(
            server.url, "POST", "/v1/solve",
            {"graph": "toy", "k": 2, "q": 3},
        )
        assert status == 503
        assert 1 <= int(headers["Retry-After"]) <= 60
        status, _headers, body = _raw_request(server.url, "GET", "/readyz")
        assert status == 503 and json.loads(body)["status"] == "breaker_open"

        # Breaker rejections never poison the job path either.
        with pytest.raises(CircuitOpenError):
            client.submit_job("toy", k=2, q=3)

        # After the cooldown the probe request closes the circuit again.
        fault_injector().clear()
        deadline_attempts = 50
        while deadline_attempts:
            try:
                response = client.solve("toy", k=2, q=3)
                break
            except CircuitOpenError:
                deadline_attempts -= 1
                time.sleep(0.05)
        assert response["count"] == 1
        status, _headers, body = _raw_request(server.url, "GET", "/readyz")
        assert status == 200 and json.loads(body)["breaker"]["state"] == "closed"
    finally:
        server.drain()


def test_client_retry_rides_out_an_open_breaker():
    service = make_service(
        breaker_failure_threshold=1, breaker_cooldown_seconds=0.2
    )
    server = start_server(service, port=0)
    patient = ServiceClient(
        server.url,
        retry=RetryPolicy(max_attempts=6, backoff_seconds=0.05, jitter=0.0),
    )
    patient.wait_ready()
    try:
        fault_injector().configure("seed_crash:0")
        with pytest.raises(RemoteServiceError):
            patient.solve("caveman", k=2, q=4, solver="parallel", options=PARALLEL)
        fault_injector().clear()
        # No manual waiting: the retrying client honours Retry-After and
        # lands after the breaker's cooldown.
        assert patient.solve("toy", k=2, q=3)["count"] == 1
    finally:
        server.drain()


def test_queue_full_429_carries_a_derived_retry_after():
    service = make_service(max_workers=1, max_queue_depth=0)
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        first = client.submit_job("busy", k=2, q=4, result_buffer=8)
        status, headers, body = _raw_request(
            server.url, "POST", "/v1/jobs", {"graph": "busy", "k": 2, "q": 4}
        )
        assert status == 429
        assert json.loads(body)["error"]["type"] == "JobQueueFullError"
        assert 1 <= int(headers["Retry-After"]) <= 60
        client.cancel_job(first["id"])
        client.wait_job(first["id"])
    finally:
        server.drain()


# --------------------------------------------------------------------------- #
# Worker death mid-enumeration: recover bit-identically
# --------------------------------------------------------------------------- #
def test_sync_solve_survives_worker_kill_bit_identically(served):
    _service, server, client = served
    fault_injector().configure("worker_kill:1")
    injected = client.solve(
        "caveman", k=2, q=4, solver="parallel", options=PARALLEL,
        request_timeout=120,
    )
    fault_injector().clear()
    clean = client.solve(
        "caveman", k=2, q=4, solver="parallel", options=PARALLEL,
        request_timeout=120,
    )
    assert injected["count"] == clean["count"]
    assert sorted(map(sorted, injected["kplexes"])) == sorted(
        map(sorted, clean["kplexes"])
    )
    metrics = client.metrics()
    assert metrics["recoveries_total"] >= 1
    rendered = render_prometheus(metrics)
    recovery_lines = [
        line for line in rendered.splitlines()
        if line.startswith("kplex_recoveries_total")
    ]
    assert recovery_lines and float(recovery_lines[0].split()[-1]) >= 1


def test_streamed_job_survives_worker_kill_bit_identically(served):
    _service, _server, client = served

    def run_job():
        record = client.submit_job(
            "caveman", k=2, q=4, solver="parallel", options=PARALLEL
        )
        records = list(client.iter_job_results(record["id"]))
        final = records[-1]
        assert final["done"] is True and final["state"] == "succeeded"
        return sorted(sorted(r["kplex"]) for r in records[:-1])

    fault_injector().configure("worker_kill:1")
    injected = run_job()
    fault_injector().clear()
    clean = run_job()
    assert injected == clean
    assert resilience_stats().get("pool_recoveries") >= 1


# --------------------------------------------------------------------------- #
# Dropped result streams: resume from the last received index
# --------------------------------------------------------------------------- #
def test_stream_drop_resumes_exactly_with_retrying_client(served):
    _service, server, client = served
    record = client.submit_job("busy", k=2, q=4, result_buffer=100_000)
    job_id = record["id"]
    done = client.wait_job(job_id, timeout=120)
    assert done["state"] == "succeeded"
    expected_count = done["progress"]["results"]
    assert expected_count > 8  # enough records for a mid-stream cut

    fault_injector().configure("http_drop:1@5")
    streaming = ServiceClient(
        server.url,
        retry=RetryPolicy(max_attempts=4, backoff_seconds=0.01, jitter=0.0),
    )
    records = list(streaming.iter_job_results(job_id))
    assert fault_injector().snapshot()[0]["fired"] == 1  # the cut happened
    final = records.pop()
    assert final["done"] is True
    # Exactly the remaining records after the cut: every index once, in
    # order, with no duplicates and no holes.
    assert [r["index"] for r in records] == list(range(expected_count))
    window = client.job_results(job_id)
    assert [sorted(r["kplex"]) for r in records] == [
        sorted(r["kplex"]) for r in window["results"]
    ]


def test_stream_drop_without_retry_raises_remote_error(served):
    _service, _server, client = served
    record = client.submit_job("busy", k=2, q=4, result_buffer=100_000)
    client.wait_job(record["id"], timeout=120)
    fault_injector().configure("http_drop:1@3")
    with pytest.raises(RemoteServiceError, match="dropped"):
        list(client.iter_job_results(record["id"]))


# --------------------------------------------------------------------------- #
# Crash-safe persistence: torn snapshots quarantine, boots stay clean
# --------------------------------------------------------------------------- #
def test_torn_snapshot_quarantines_and_boots_cold(tmp_path):
    path = tmp_path / "state.json"
    with make_service() as writer:
        writer.solve("toy", 2, 3)
        fault_injector().configure("snapshot_torn:1")
        save_snapshot(writer, path)
    # The injected torn write left unparseable JSON behind.
    with pytest.raises(SnapshotError):
        load_snapshot(path)

    with make_service(result_cache_entries=8) as reader:
        report = warm_start(reader, path, quarantine_corrupt=True)
        assert report.quarantined == str(path) + ".corrupt"
        assert report.replayed == 0 and "quarantined" in report.summary()
        assert not path.exists()
        assert (tmp_path / "state.json.corrupt").exists()
        assert resilience_stats().get("snapshots_quarantined") == 1
        # The boot is clean: the next snapshot cycle works end to end.
        writer_report = save_snapshot(reader, path)
        assert writer_report["format"] == load_snapshot(path)["format"]
    # Without opt-in, corruption still raises (library callers decide).
    with make_service() as strict:
        (tmp_path / "torn2.json").write_text("{\"format\": \"kplex")
        with pytest.raises(SnapshotError):
            warm_start(strict, tmp_path / "torn2.json")


def test_quarantine_never_overwrites_an_earlier_corpse(tmp_path):
    from repro.server import quarantine_snapshot

    path = tmp_path / "snap.json"
    (tmp_path / "snap.json.corrupt").write_text("old corpse")
    path.write_text("new corpse")
    target = quarantine_snapshot(path)
    assert target == str(path) + ".corrupt.1"
    assert (tmp_path / "snap.json.corrupt").read_text() == "old corpse"


# --------------------------------------------------------------------------- #
# CLI surface for the harness
# --------------------------------------------------------------------------- #
def test_cli_exposes_fault_and_breaker_flags():
    from repro.cli import _build_parser

    args = _build_parser().parse_args(
        [
            "serve-http", "--port", "0", "--fault", "worker_kill:1",
            "--breaker-threshold", "2", "--breaker-cooldown", "0.5",
        ]
    )
    assert args.fault == "worker_kill:1"
    assert args.breaker_threshold == 2 and args.breaker_cooldown == 0.5
    jobs_args = _build_parser().parse_args(
        ["jobs", "stream", "abc", "--retries", "3"]
    )
    assert jobs_args.retries == 3


def test_poison_task_fails_cleanly_over_jobs_api(served):
    # The acceptance bar for poison handling: structured failure record,
    # no retry loop, no hung pool — the job API keeps serving afterwards.
    _service, _server, client = served
    fault_injector().configure("seed_crash:0")
    record = client.submit_job("caveman", k=2, q=4, solver="parallel", options=PARALLEL)
    done = client.wait_job(record["id"], timeout=120)
    assert done["state"] == "failed"
    assert done["error"].startswith("PoisonTaskError:")
    assert "crashed its worker" in done["error"]
    fault_injector().clear()
    assert client.solve("toy", k=2, q=3)["count"] == 1
