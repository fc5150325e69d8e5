"""Tests for the async /v1/jobs HTTP surface: lifecycle, streaming, drain."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from repro.api import KPlexEngine
from repro.baselines.brute_force import brute_force_vertex_sets
from repro.errors import (
    JobNotFoundError,
    JobQueueFullError,
    RemoteServiceError,
)
from repro.graph import generators
from repro.server import ServiceClient, start_server
from repro.service import KPlexService, ServiceConfig

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def make_service(**config_kwargs) -> KPlexService:
    config_kwargs.setdefault("max_workers", 2)
    service = KPlexService(config=ServiceConfig(**config_kwargs))
    service.catalog.register("toy", EDGES)
    service.catalog.register("busy", generators.gnm_random(60, 400, seed=5))
    # A job that must still be running a few HTTP round trips after its
    # submission runs on "slow" (~0.5 s of search at k=2 q=4, against ~0.1 s
    # for "busy"): while a solver thread holds the GIL, one round trip can
    # take as long as the whole "busy" search.
    service.catalog.register("slow", generators.gnm_random(90, 900, seed=5))
    return service


@pytest.fixture()
def served():
    """A booted server + ready client with toy and busy graphs registered."""
    service = make_service()
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        yield service, server, client
    finally:
        server.drain()


# --------------------------------------------------------------------------- #
# Lifecycle round trips over the wire
# --------------------------------------------------------------------------- #
def test_job_submit_poll_stream_roundtrip(served):
    _service, _server, client = served
    record = client.submit_job("toy", k=2, q=3)
    assert record["state"] in ("pending", "running", "succeeded")
    assert record["spec"]["k"] == 2 and record["spec"]["graph"] == "toy"
    job_id = record["id"]

    done = client.wait_job(job_id)
    assert done["state"] == "succeeded"
    assert done["termination"] == "completed"
    assert done["progress"]["results"] == 1
    assert done["progress"]["first_result_seconds"] is not None

    records = list(client.iter_job_results(job_id))
    assert [sorted(r["kplex"]) for r in records[:-1]] == [[0, 1, 2, 3]]
    final = records[-1]
    assert final["done"] is True and final["state"] == "succeeded"
    assert final["count"] == 1 and final["termination"] == "completed"

    window = client.job_results(job_id)
    assert window["complete"] is True and len(window["results"]) == 1

    listed = client.jobs(states=["succeeded"])
    assert job_id in [job["id"] for job in listed]
    assert client.jobs(states=["failed"]) == []


def _register_checked_graph(client):
    graph = generators.erdos_renyi(12, 0.5, seed=0)
    client.register("g", edges=list(graph.edges()), vertices=graph.labels())
    return brute_force_vertex_sets(graph, 2, 4)


def _job_answer(client):
    job_id = client.submit_job("g", k=2, q=4)["id"]
    records = list(client.iter_job_results(job_id))
    final = records[-1]
    assert final["done"] is True and final["state"] == "succeeded"
    assert final["count"] == len(records) - 1
    return {frozenset(record["kplex"]) for record in records[:-1]}


def test_job_on_a_cached_spec_streams_without_a_second_search(served):
    _service, _server, client = served
    expected = _register_checked_graph(client)
    solved = client.solve("g", k=2, q=4)
    assert {frozenset(labels) for labels in solved["kplexes"]} == expected
    hits = client.metrics()["cache_hits"]
    with mock.patch.object(
        KPlexEngine, "stream_run", autospec=True, side_effect=KPlexEngine.stream_run
    ) as spy:
        assert _job_answer(client) == expected
    assert spy.call_count == 0
    assert client.metrics()["cache_hits"] == hits + 1


def test_completed_job_makes_the_next_solve_a_cache_hit(served):
    _service, _server, client = served
    expected = _register_checked_graph(client)
    assert _job_answer(client) == expected
    solved = client.solve("g", k=2, q=4)
    assert client.last_cache == "hit"
    assert {frozenset(labels) for labels in solved["kplexes"]} == expected


def test_job_error_statuses(served):
    _service, server, client = served
    with pytest.raises(JobNotFoundError):
        client.job("nope")
    with pytest.raises(JobNotFoundError):
        client.cancel_job("nope")

    # Missing required keys -> 400 before anything is admitted.
    with pytest.raises(Exception) as info:
        client._call("POST", "/v1/jobs", {"graph": "toy"})
    assert "missing required key" in str(info.value)

    # Unknown state filter -> 400.
    with pytest.raises(Exception) as info:
        client._call("GET", "/v1/jobs?state=bogus")
    assert "unknown job states" in str(info.value)

    # Unknown subroute and bad methods.
    with pytest.raises(RemoteServiceError) as info:
        client._call("GET", "/v1/jobs/abc/bogus")
    assert info.value.status == 404
    with pytest.raises(RemoteServiceError) as info:
        client._call("POST", "/v1/jobs/abc")
    assert info.value.status == 405
    with pytest.raises(RemoteServiceError) as info:
        client._call("DELETE", "/v1/solve")
    assert info.value.status == 405


def test_job_queue_budget_maps_to_429():
    service = make_service(max_workers=1, max_queue_depth=1)
    server = start_server(
        service,
        port=0,
    )
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        first = client.submit_job("slow", k=2, q=4, result_buffer=8)
        second = client.submit_job("busy", k=2, q=4)
        with pytest.raises(JobQueueFullError):
            client.submit_job("busy", k=2, q=4)
        for job_id in (first["id"], second["id"]):
            client.cancel_job(job_id)
            client.wait_job(job_id)
    finally:
        server.drain()


def test_job_cancellation_stops_solver_over_http(served):
    _service, _server, client = served
    record = client.submit_job("slow", k=2, q=4, result_buffer=50_000)
    job_id = record["id"]
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        progress = client.job(job_id)["progress"]["results"]
        if progress > 0:
            break
        time.sleep(0.002)
    assert progress > 0, "job never produced a result"

    outcome = client.cancel_job(job_id)
    assert outcome["cancelled"] is True
    done = client.wait_job(job_id)
    assert done["state"] == "cancelled" and done["termination"] == "cancelled"
    frozen = done["progress"]["results"]
    time.sleep(0.1)
    assert client.job(job_id)["progress"]["results"] == frozen

    # The stream of a cancelled job ends with a well-formed final record.
    final = list(client.iter_job_results(job_id))[-1]
    assert final["done"] is True and final["state"] == "cancelled"


def test_job_streaming_applies_backpressure():
    # A single job worker lets us attach the stream reader while the target
    # job is still queued behind a blocker, so backpressure (not ring
    # dropping) governs it from its very first result.
    service = make_service(max_workers=1, max_queue_depth=4)
    server = start_server(
        service,
        port=0,
    )
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        blocker = client.submit_job("slow", k=2, q=4)["id"]
        record = client.submit_job("busy", k=2, q=4, result_buffer=8)
        job_id = record["id"]
        stream = client.iter_job_results(job_id)
        # Attaching blocks until the queued job produces; the reader is
        # registered before the first result exists.
        first = next(stream)
        assert "kplex" in first
        # The producer cannot run ahead: at most `result_buffer` results
        # are held even though we read almost nothing yet.
        job = server.jobs.get(job_id)
        assert job.results.buffered <= 8
        consumed = [first] + list(stream)
        assert consumed[-1]["done"] is True
        assert consumed[-1]["state"] == "succeeded"
        expected = sorted(
            tuple(sorted(p.labels))
            for p in service.solve("busy", k=2, q=4).kplexes
        )
        streamed = sorted(
            tuple(sorted(r["kplex"])) for r in consumed if "kplex" in r
        )
        assert streamed == expected
        assert consumed[-1]["dropped"] == 0  # backpressure, not dropping
        client.wait_job(blocker)
    finally:
        server.drain()


# --------------------------------------------------------------------------- #
# Hammering: concurrent jobs are bit-identical to the sync path
# --------------------------------------------------------------------------- #
def test_concurrent_job_streams_match_sync_results(served):
    service, _server, client = served
    expected = sorted(
        tuple(sorted(p.labels)) for p in service.solve("busy", k=2, q=4).kplexes
    )
    failures = []

    def hammer(worker: int) -> None:
        try:
            own = ServiceClient(client.base_url, keep_alive=worker % 2 == 0)
            record = own.submit_job("busy", k=2, q=4, result_buffer=10_000)
            records = list(own.iter_job_results(record["id"]))
            final = records[-1]
            assert final["done"] is True and final["state"] == "succeeded", final
            streamed = sorted(
                tuple(sorted(r["kplex"])) for r in records if "kplex" in r
            )
            assert streamed == expected
            assert final["count"] == len(expected)
            own.close()
        except Exception as exc:  # noqa: BLE001 - surfaced to the main thread
            failures.append(f"worker {worker}: {exc}")

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures


# --------------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------------- #
def test_stream_uses_chunked_ndjson_wire_format(served):
    _service, server, client = served
    job_id = client.submit_job("toy", k=2, q=3)["id"]
    client.wait_job(job_id)

    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(
            f"GET /v1/jobs/{job_id}/results?stream=1 HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n\r\n".encode("ascii")
        )
        raw = b""
        while b"0\r\n\r\n" not in raw:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    headers, _, body = raw.partition(b"\r\n\r\n")
    text = headers.decode("latin-1")
    assert "Transfer-Encoding: chunked" in text
    assert "Content-Type: application/x-ndjson" in text
    assert "Content-Length" not in text

    # De-chunk by the HTTP/1.1 framing and parse every NDJSON line.
    lines = []
    rest = body
    while rest:
        size_text, _, rest = rest.partition(b"\r\n")
        size = int(size_text, 16)
        if size == 0:
            break
        payload, rest = rest[:size], rest[size + 2:]  # strip trailing CRLF
        assert payload.endswith(b"\n")
        lines.append(json.loads(payload))
    assert [sorted(line["kplex"]) for line in lines[:-1]] == [[0, 1, 2, 3]]
    assert lines[-1]["done"] is True and lines[-1]["state"] == "succeeded"


def test_stream_emits_heartbeats_while_idle(served):
    _service, _server, client = served
    # A pending-forever stream: submit against the busy graph with a tiny
    # heartbeat so the idle connection ticks instead of blocking silently.
    job_id = client.submit_job("toy", k=2, q=3)["id"]
    client.wait_job(job_id)
    records = list(
        client.iter_job_results(job_id, include_heartbeats=True, heartbeat=0.01)
    )
    # A finished job streams its buffer and final record without needing
    # heartbeats; the option must at least pass through cleanly.
    assert records[-1]["done"] is True

    # Force one real heartbeat: hold a stream open on a job that produces
    # nothing for a while (cancelled before it starts running).
    service_record = client.submit_job("busy", k=2, q=4)
    client.cancel_job(service_record["id"])
    records = list(
        client.iter_job_results(
            service_record["id"], include_heartbeats=True, heartbeat=0.01
        )
    )
    assert records[-1]["done"] is True


# --------------------------------------------------------------------------- #
# Metrics and snapshots
# --------------------------------------------------------------------------- #
def test_metrics_include_job_table_json_and_prometheus(served):
    _service, _server, client = served
    job_id = client.submit_job("toy", k=2, q=3)["id"]
    client.wait_job(job_id)

    metrics = client.metrics()
    assert metrics["jobs"]["submitted"] >= 1
    assert metrics["jobs"]["by_state"]["succeeded"] >= 1
    assert "time_to_first_result_p50_seconds" in metrics["jobs"]
    assert metrics["queued"] == 0  # the sync-path gauge is exported too

    text = client.metrics(fmt="prometheus")
    assert "kplex_jobs_by_state_succeeded 1" in text
    assert "kplex_jobs_queue_depth 0" in text
    assert "kplex_jobs_time_to_first_result_p50_seconds" in text
    assert "kplex_queued 0" in text


def test_drain_snapshot_records_job_summary(tmp_path):
    service = make_service()
    snapshot_path = str(tmp_path / "state.json")
    server = start_server(service, port=0, snapshot_path=snapshot_path)
    client = ServiceClient(server.url)
    client.wait_ready()
    job_id = client.submit_job("toy", k=2, q=3)["id"]
    client.wait_job(job_id)
    server.drain()
    with open(snapshot_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["jobs"]["jobs_total"] == 1
    assert document["jobs"]["by_state"]["succeeded"] == 1


# --------------------------------------------------------------------------- #
# Keep-alive transport
# --------------------------------------------------------------------------- #
def test_keep_alive_client_reuses_and_recovers_connection(served):
    _service, _server, client = served
    kept = ServiceClient(client.base_url, keep_alive=True)
    try:
        kept.health()
        conn = kept._conn
        assert conn is not None
        kept.graphs()
        kept.metrics()
        assert kept._conn is conn  # same socket across calls

        # Kill the socket under the client: the next call reconnects once.
        kept._conn.sock.close()
        assert kept.health()["status"] == "ok"
        assert kept._conn is not conn

        # Streaming composes with keep-alive (dedicated connection).
        job_id = kept.submit_job("toy", k=2, q=3)["id"]
        kept.wait_job(job_id)
        records = list(kept.iter_job_results(job_id))
        assert records[-1]["done"] is True
        kept.health()  # the reused connection is still healthy
    finally:
        kept.close()


def test_per_request_timeout_is_accepted(served):
    _service, _server, client = served
    assert client.health(request_timeout=5.0)["status"] == "ok"
    record = client.submit_job("toy", k=2, q=3, request_timeout=5.0)
    assert client.job(record["id"], request_timeout=5.0)["id"] == record["id"]


# --------------------------------------------------------------------------- #
# In-process drain while a stream is mid-flight
# --------------------------------------------------------------------------- #
def test_drain_cancel_terminates_midflight_stream_cleanly():
    # Stream a job that is still queued behind a blocker on a single job
    # worker: the heartbeat proves the stream is attached and live, and the
    # drain then cancels the job before it ever runs — a deterministic
    # "drain while a stream is mid-flight" scenario.  The blocker cannot
    # finish first: a reader attached to its one-entry result buffer never
    # reads, so its producer waits on the first full buffer until the drain
    # cancels it (unheld, it would run for seconds).
    service = make_service(max_workers=1, max_queue_depth=8)
    server = start_server(
        service,
        port=0,
        drain_jobs="cancel",
    )
    client = ServiceClient(server.url)
    client.wait_ready()
    blocker = client.submit_job("busy", k=3, q=5, result_buffer=1)["id"]
    server.jobs.get(blocker).results.attach()
    record = client.submit_job("busy", k=2, q=4)
    stream = client.iter_job_results(
        record["id"], include_heartbeats=True, heartbeat=0.02
    )
    first = next(stream)  # the job is pending, so this is a heartbeat
    assert first.get("heartbeat") is True
    drainer = threading.Thread(target=server.drain)
    drainer.start()
    consumed = [r for r in stream if "heartbeat" not in r]
    drainer.join(timeout=60)
    assert not drainer.is_alive()
    final = consumed[-1]
    assert final["done"] is True
    assert final["state"] == "cancelled"
    assert final["termination"] == "cancelled"
    # The final record's count matches what was streamed.
    assert final["count"] == sum(1 for r in consumed if "kplex" in r)
    assert server.jobs.get(blocker).state == "cancelled"


# --------------------------------------------------------------------------- #
# SIGTERM drain in a real subprocess (satellite: streaming job mid-flight)
# --------------------------------------------------------------------------- #
def _boot_serve_http(*extra_args: str) -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-http",
            "--port", "0", "--register", "busy=dataset:jazz", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"serving on (http://\S+)", line)
    assert match, f"no boot line from serve-http (got {line!r})"
    return process, match.group(1)


@pytest.mark.parametrize("policy", ["wait", "cancel"])
def test_sigterm_drain_with_stream_midflight_exits_cleanly(policy):
    process, url = _boot_serve_http("--drain-jobs", policy)
    try:
        client = ServiceClient(url)
        client.wait_ready()
        # A buffer larger than the full result set: no ring-dropping, so the
        # stream is byte-complete no matter when the reader attaches.
        record = client.submit_job("busy", k=2, q=4, result_buffer=10_000)
        stream = client.iter_job_results(record["id"])
        consumed = [next(stream)]  # first result lands in milliseconds
        assert "kplex" in consumed[0]

        # The job needs ~300ms for all 3455 results; signalling right after
        # the first one means the drain almost always catches it mid-flight.
        process.send_signal(signal.SIGTERM)
        # Keep consuming: under "wait" the stream runs to completion, under
        # "cancel" it ends early — either way the final record is a
        # well-formed done marker, never a cut connection.
        consumed.extend(stream)
        final = consumed[-1]
        assert final["done"] is True
        assert final["termination"] in ("completed", "cancelled")
        if policy == "wait":
            assert final["state"] == "succeeded"
            assert final["count"] == 3455  # jazz k=2 q=4, bit-complete
        else:
            assert final["state"] in ("cancelled", "succeeded")

        _stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0, stderr
        assert "drained cleanly" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)
