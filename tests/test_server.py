"""Tests for the HTTP serving front-end, persistence and warm-start replay."""

import dataclasses
import json
import threading
import time
import urllib.request

import pytest

from repro.api import KPlexEngine, EnumerationRequest
from repro.core import EnumerationConfig
from repro.errors import (
    CatalogError,
    ParameterError,
    RemoteServiceError,
    ServiceClosedError,
    SnapshotError,
)
from repro.graph import Graph, generators
from repro.service import KPlexService, ServiceConfig
from repro.server import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    ServiceClient,
    load_snapshot,
    save_snapshot,
    snapshot_service,
    start_server,
    warm_start,
)

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def make_service(**config_kwargs) -> KPlexService:
    return KPlexService(config=ServiceConfig(max_workers=2, **config_kwargs))


@pytest.fixture()
def served():
    """A booted server + ready client over a fresh two-worker service."""
    service = make_service()
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        yield service, server, client
    finally:
        server.drain()


# --------------------------------------------------------------------------- #
# Happy paths over the wire
# --------------------------------------------------------------------------- #
def test_http_register_solve_and_metrics(served):
    _service, _server, client = served
    entry = client.register("toy", edges=EDGES)
    assert entry["name"] == "toy" and entry["vertices"] == 4

    listed = client.graphs()
    assert [row["name"] for row in listed] == ["toy"]

    first = client.solve("toy", k=2, q=3)
    assert first["count"] == 1 and first["termination"] == "completed"
    assert sorted(first["kplexes"][0]) == [0, 1, 2, 3]

    second = client.solve("toy", k=2, q=3, include_results=False)
    assert second["count"] == 1 and "kplexes" not in second

    metrics = client.metrics()
    assert metrics["cache_hits"] == 1 and metrics["cache_misses"] == 1
    assert metrics["catalog"]["graphs"] == 1


def test_http_health_and_prometheus_text(served):
    _service, _server, client = served
    assert client.health()["status"] == "ok"
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)

    text = client.metrics(fmt="prometheus")
    assert "# TYPE kplex_hit_rate gauge" in text
    assert "kplex_cache_misses 1" in text
    assert "kplex_in_flight 0" in text
    assert "kplex_rejected 0" in text
    assert "kplex_result_cache_evictions 0" in text
    assert "kplex_latency_p50_seconds" in text
    assert "kplex_latency_p95_seconds" in text


def test_http_solve_with_query_and_solver_options(served):
    _service, _server, client = served
    client.register("toy", edges=EDGES)
    anchored = client.solve("toy", k=2, q=3, query=[3], solver="listplex")
    assert anchored["count"] == 1
    assert all(3 in plex for plex in anchored["kplexes"])


def test_http_register_by_dataset_with_prewarm(served):
    service, _server, client = served
    entry = client.register("jazz", dataset="jazz", prewarm=[(2, 8)])
    assert entry["prewarmed_levels"] == [6]
    assert service.catalog.get("jazz").num_vertices > 0


# --------------------------------------------------------------------------- #
# Malformed requests: structured 4xx bodies
# --------------------------------------------------------------------------- #
def _raw_status(url, route, payload: bytes):
    request = urllib.request.Request(
        f"{url}{route}", data=payload, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_http_malformed_requests_yield_structured_4xx(served):
    _service, server, client = served
    client.register("toy", edges=EDGES)

    status, body = _raw_status(server.url, "/v1/solve", b"this is not json")
    assert status == 400 and body["error"]["type"] == "BadRequest"

    status, body = _raw_status(server.url, "/v1/solve", b'["a", "list"]')
    assert status == 400 and "object" in body["error"]["message"]

    status, body = _raw_status(server.url, "/v1/solve", b'{"graph": "toy", "k": 2}')
    assert status == 400 and "'q'" in body["error"]["message"]

    status, body = _raw_status(
        server.url, "/v1/solve", b'{"graph": "toy", "k": "two", "q": 3}'
    )
    assert status == 400 and "'k'" in body["error"]["message"]

    status, body = _raw_status(
        server.url, "/v1/solve", b'{"graph": "toy", "k": 2, "q": 3, "bogus": 1}'
    )
    assert status == 400 and "bogus" in body["error"]["message"]

    with pytest.raises(ParameterError):
        client.solve("toy", k=0, q=3)
    with pytest.raises(CatalogError):
        client.solve("missing", k=2, q=3)
    with pytest.raises(CatalogError):
        client.register("toy", edges=EDGES)  # duplicate without replace
    with pytest.raises(RemoteServiceError) as excinfo:
        client.register("half")  # no source at all
    assert excinfo.value.status == 400

    # unknown route and wrong method
    status, body = _raw_status(server.url, "/v1/unknown", b"{}")
    assert status == 404
    status, body = _raw_status(server.url, "/healthz", b"{}")
    assert status == 405

    # the service must still be fully usable after every bad request
    assert client.solve("toy", k=2, q=3)["count"] == 1


@pytest.mark.parametrize(
    "fields",
    [
        {"edges": [[1, 2, 3]]},
        {"edges": [[1]]},
        {"edges": [[[1], 2]]},
        {"edges": [1, 2]},
        {"edges": [[1, 2]], "vertices": 5},
        {"edges": [[1, 2]], "vertices": [[1]]},
    ],
)
def test_http_malformed_graph_body_is_a_400_graph_error(served, fields):
    _service, server, client = served
    payload = json.dumps({"name": "bad", **fields}).encode()
    status, body = _raw_status(server.url, "/v1/graphs", payload)
    assert status == 400 and body["error"]["type"] == "GraphError", body
    with urllib.request.urlopen(f"{server.url}/readyz", timeout=10) as response:
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ready"
    assert client.register("good", edges=EDGES)["vertices"] == 4


def test_http_duplicate_register_conflict_status(served):
    _service, server, client = served
    client.register("toy", edges=EDGES)
    status, body = _raw_status(
        server.url,
        "/v1/graphs",
        json.dumps({"name": "toy", "edges": [list(e) for e in EDGES]}).encode(),
    )
    assert status == 409
    client.register("toy", edges=EDGES, replace=True)  # explicit replace works


def test_http_unknown_graph_is_404(served):
    _service, server, client = served
    status, body = _raw_status(
        server.url, "/v1/solve", b'{"graph": "ghost", "k": 2, "q": 3}'
    )
    assert status == 404 and body["error"]["type"] == "CatalogError"


# --------------------------------------------------------------------------- #
# Concurrency: HTTP clients get bit-identical results to a serial run
# --------------------------------------------------------------------------- #
def test_concurrent_http_clients_bit_identical_to_serial():
    graph = generators.relaxed_caveman(
        num_communities=5, community_size=6, rewire_probability=0.2, seed=11
    )
    engine = KPlexEngine()
    cells = [(2, 5), (2, 6), (3, 6)]
    serial = {
        cell: [
            list(plex.labels)
            for plex in engine.solve(
                EnumerationRequest(graph=graph, k=cell[0], q=cell[1])
            ).kplexes
        ]
        for cell in cells
    }

    service = KPlexService(config=ServiceConfig(max_workers=4))
    server = start_server(service, port=0)
    try:
        boot = ServiceClient(server.url)
        boot.wait_ready()
        # vertices pins the label->id interning order to the original graph's,
        # so the HTTP results are bit-identical (not merely set-equal)
        boot.register("caveman", edges=list(graph.edges()), vertices=graph.labels())

        results = {}
        errors = []
        lock = threading.Lock()

        def hammer(worker: int) -> None:
            client = ServiceClient(server.url)
            try:
                for round_index in range(3):
                    cell = cells[(worker + round_index) % len(cells)]
                    response = client.solve("caveman", k=cell[0], q=cell[1])
                    with lock:
                        results.setdefault(cell, []).append(response["kplexes"])
            except Exception as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        for cell, observed in results.items():
            for kplexes in observed:
                assert kplexes == serial[cell], f"divergence at {cell}"
    finally:
        server.drain()


# --------------------------------------------------------------------------- #
# close(drain=...) semantics
# --------------------------------------------------------------------------- #
class _SlowEngine:
    """Engine wrapper that makes every solve take a visible amount of time."""

    def __init__(self, delay: float = 0.15) -> None:
        self._engine = KPlexEngine()
        self.delay = delay

    def solve(self, request):
        time.sleep(self.delay)
        return self._engine.solve(request)


def test_close_drain_completes_queued_futures():
    service = KPlexService(
        config=ServiceConfig(max_workers=1, max_queue_depth=8),
        engine=_SlowEngine(),
    )
    service.catalog.register("toy", EDGES)
    futures = [
        service.submit(service.request("toy", k=2, q=3, max_results=i + 1))
        for i in range(4)
    ]
    service.close(drain=True)
    # every queued request finished normally: no cancellations, no errors
    assert [future.result(timeout=10).count for future in futures] == [1, 1, 1, 1]
    with pytest.raises(ServiceClosedError):
        service.submit(service.request("toy", k=2, q=3))
    assert service.closed
    service.close()  # idempotent


def test_close_without_drain_cancels_queued_work():
    service = KPlexService(
        config=ServiceConfig(max_workers=1, max_queue_depth=8),
        engine=_SlowEngine(delay=0.3),
    )
    service.catalog.register("toy", EDGES)
    futures = [
        service.submit(service.request("toy", k=2, q=3, max_results=i + 1))
        for i in range(4)
    ]
    service.close(drain=False)
    outcomes = {"done": 0, "cancelled": 0}
    for future in futures:
        if future.cancelled():
            outcomes["cancelled"] += 1
        else:
            future.result(timeout=10)
            outcomes["done"] += 1
    assert outcomes["done"] >= 1  # the running request always finishes
    assert outcomes["cancelled"] >= 1  # queued ones are abandoned on purpose
    # in-flight gauge settles to zero even for the cancelled futures
    assert service.metrics()["in_flight"] == 0


def test_http_draining_server_answers_503(served):
    service, server, client = served
    client.register("toy", edges=EDGES)
    service.close(drain=True)
    assert client.health()["status"] == "draining"
    with pytest.raises(ServiceClosedError):
        client.solve("toy", k=2, q=3)


# --------------------------------------------------------------------------- #
# Snapshot persistence and warm-start replay
# --------------------------------------------------------------------------- #
def test_snapshot_document_shape(tmp_path):
    service = make_service()
    service.catalog.register("toy", EDGES)
    service.solve("toy", k=2, q=3)
    service.solve("toy", k=2, q=3, solver="bron-kerbosch")
    path = tmp_path / "snap.json"
    document = save_snapshot(service, path)
    service.close()

    loaded = load_snapshot(path)
    assert loaded["format"] == SNAPSHOT_FORMAT
    assert loaded["version"] == SNAPSHOT_VERSION
    assert loaded == json.loads(path.read_text())
    assert [spec["name"] for spec in loaded["graphs"]] == ["toy"]
    assert loaded["graphs"][0]["edges"]  # inline edges for object-registered graphs
    assert len(loaded["hot_requests"]) == 2
    # hot requests are replay specs, never payloads
    assert all("kplexes" not in spec for spec in loaded["hot_requests"])
    assert "seed_specs" not in loaded
    assert document["hot_requests"][0]["graph"] == "toy"


def test_snapshot_roundtrip_restart_warms_cache(tmp_path):
    path = tmp_path / "snap.json"
    service = make_service()
    service.catalog.register("toy", EDGES)
    baseline = service.solve("toy", k=2, q=3)
    save_snapshot(service, path)
    service.close()

    restarted = make_service()
    report = warm_start(restarted, path)
    assert report.graphs_registered == 1
    assert report.replayed >= 1 and report.failed == 0

    before = restarted.metrics()["cache_hits"]
    response = restarted.solve("toy", k=2, q=3)
    after = restarted.metrics()
    assert after["cache_hits"] == before + 1  # warm hit, not a recompute
    assert after["hit_rate"] > 0
    assert response.vertex_sets() == baseline.vertex_sets()
    restarted.close()


def test_snapshot_with_legacy_seed_specs_still_warms(tmp_path):
    # Snapshots from builds with a seed-context cache also carry a
    # "seed_specs" list; it is ignored and the hot requests still replay.
    service = make_service()
    service.catalog.register("toy", EDGES)
    baseline = service.solve("toy", k=2, q=3)
    document = snapshot_service(service)
    service.close()
    config = dataclasses.asdict(EnumerationConfig.ours())
    document["seed_specs"] = [{"graph": "toy", "epoch": 0, "k": 2, "q": 3, "config": config}]
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(document))

    restarted = make_service()
    report = warm_start(restarted, load_snapshot(path))
    assert report.failed == 0 and report.replayed == len(document["hot_requests"]) == 1
    before = restarted.metrics()["cache_hits"]
    response = restarted.solve("toy", k=2, q=3)
    assert restarted.metrics()["cache_hits"] == before + 1
    assert response.vertex_sets() == baseline.vertex_sets()
    restarted.close()


def test_snapshot_with_legacy_config_sort_flag_still_warms(tmp_path):
    # Snapshots from builds whose EnumerationConfig had a sort_results field
    # store it in every config spec; it is dropped and the request replays.
    service = make_service()
    service.catalog.register("toy", EDGES)
    baseline = service.solve("toy", k=2, q=3, config=EnumerationConfig.ours())
    document = snapshot_service(service)
    service.close()
    (spec,) = document["hot_requests"]
    spec["config"]["sort_results"] = True
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(document))

    restarted = make_service()
    report = warm_start(restarted, load_snapshot(path))
    assert report.failed == 0 and report.replayed == 1
    before = restarted.metrics()["cache_hits"]
    response = restarted.solve("toy", k=2, q=3, config=EnumerationConfig.ours())
    assert restarted.metrics()["cache_hits"] == before + 1
    assert response.vertex_sets() == baseline.vertex_sets()
    restarted.close()


def test_snapshot_preserves_query_and_variant_requests(tmp_path):
    path = tmp_path / "snap.json"
    service = make_service()
    service.catalog.register("toy", EDGES)
    service.solve("toy", k=2, q=3, variant="basic")
    service.solve("toy", k=2, q=3, query_vertices=(3,))
    save_snapshot(service, path)
    service.close()

    restarted = make_service()
    report = warm_start(restarted, path)
    assert report.failed == 0 and report.replayed >= 2
    before = restarted.metrics()["cache_hits"]
    restarted.solve("toy", k=2, q=3, variant="basic")
    restarted.solve("toy", k=2, q=3, query_vertices=(3,))
    assert restarted.metrics()["cache_hits"] == before + 2
    restarted.close()


def test_stale_snapshot_rejected_after_bump_epoch(tmp_path):
    path = tmp_path / "snap.json"
    service = make_service()
    service.catalog.register("toy", EDGES)
    service.solve("toy", k=2, q=3)
    save_snapshot(service, path)

    service.catalog.get("toy").bump_epoch()
    if service.result_cache is not None:
        service.result_cache.clear()
    report = warm_start(service, path)
    assert report.replayed == 0
    assert report.graphs_stale == 1
    assert report.skipped_stale >= 1

    # nothing warmed: the next query recomputes instead of hitting
    hits_before = service.metrics()["cache_hits"]
    service.solve("toy", k=2, q=3)
    assert service.metrics()["cache_hits"] == hits_before
    service.close()


def test_snapshot_taken_after_mutation_does_not_warm_fresh_restart(tmp_path):
    path = tmp_path / "snap.json"
    service = make_service()
    service.catalog.register("toy", EDGES)
    service.catalog.get("toy").bump_epoch()  # mutated before the snapshot
    service.solve("toy", k=2, q=3)
    save_snapshot(service, path)
    service.close()

    # the re-materialised graph starts at epoch 0 and cannot vouch for the
    # post-mutation state the snapshot saw; replay must refuse to warm it
    restarted = make_service()
    report = warm_start(restarted, path)
    assert report.replayed == 0 and report.graphs_stale == 1
    restarted.close()


def test_warm_start_errors_are_collected_not_raised(tmp_path):
    path = tmp_path / "snap.json"
    service = make_service()
    service.catalog.register("toy", EDGES)
    service.solve("toy", k=2, q=3)
    document = save_snapshot(service, path)
    service.close()

    document["hot_requests"][0]["solver"] = "no-such-solver"
    restarted = make_service()
    report = warm_start(restarted, document)
    assert report.failed >= 1 and report.errors
    restarted.close()


def test_load_snapshot_rejects_garbage(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(SnapshotError):
        load_snapshot(missing)

    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(SnapshotError):
        load_snapshot(bad)

    wrong_format = tmp_path / "wrong.json"
    wrong_format.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(SnapshotError):
        load_snapshot(wrong_format)

    wrong_version = tmp_path / "version.json"
    wrong_version.write_text(
        json.dumps(
            {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION + 1,
                "graphs": [],
                "hot_requests": [],
                "seed_specs": [],
            }
        )
    )
    with pytest.raises(SnapshotError):
        load_snapshot(wrong_version)


def test_snapshot_preserves_file_registration_format(tmp_path):
    from repro.graph.io import write_edge_list

    graph_path = tmp_path / "ring.graph"  # extension gives auto-detect no hint
    write_edge_list(Graph.from_edges(EDGES), graph_path)
    service = make_service()
    service.catalog.register("ring", str(graph_path), fmt="edgelist")
    service.solve("ring", k=2, q=3)
    document = snapshot_service(service)
    assert document["graphs"][0]["path"] == str(graph_path)
    assert document["graphs"][0]["fmt"] == "edgelist"
    service.close()

    restarted = make_service()
    report = warm_start(restarted, document)
    # the recorded fmt is reused, so the re-registered graph parses identically
    assert report.graphs_registered == 1 and report.failed == 0
    assert restarted.catalog.get("ring").num_edges == len(EDGES)
    assert restarted.catalog.entry("ring").fmt == "edgelist"
    restarted.close()


def test_snapshot_skips_unrestorable_graphs(tmp_path):
    service = make_service()
    # tuple labels are hashable (valid graphs) but not JSON-representable
    weird = Graph.from_edges([((0, 0), (1, 1)), ((1, 1), (2, 2)), ((0, 0), (2, 2))])
    service.catalog.register("weird", weird)
    service.catalog.register("toy", EDGES)
    service.solve("toy", k=2, q=3)
    service.solve("weird", k=2, q=3)
    document = snapshot_service(service)
    assert [spec["name"] for spec in document["graphs"]] == ["toy"]
    assert all(spec["graph"] == "toy" for spec in document["hot_requests"])
    service.close()


def test_http_snapshot_endpoint_and_server_warm_start(tmp_path):
    path = str(tmp_path / "snap.json")
    service = make_service()
    server = start_server(service, port=0, snapshot_path=path)
    client = ServiceClient(server.url)
    client.wait_ready()
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)
    summary = client.snapshot()
    assert summary["path"] == path and summary["hot_requests"] == 1
    server.drain()

    restarted_service = make_service()
    restarted = start_server(restarted_service, port=0, snapshot_path=path)
    try:
        report = restarted.warm_start()
        assert report is not None and report.replayed >= 1
        client2 = ServiceClient(restarted.url)
        client2.wait_ready()
        client2.solve("toy", k=2, q=3)
        assert client2.metrics()["cache_hits"] >= 1
    finally:
        restarted.drain()


def test_http_snapshot_endpoint_without_path_is_400(served):
    _service, _server, client = served
    with pytest.raises(RemoteServiceError) as excinfo:
        client.snapshot()
    assert excinfo.value.status == 400


def test_drain_writes_final_snapshot(tmp_path):
    path = str(tmp_path / "snap.json")
    service = make_service()
    server = start_server(service, port=0, snapshot_path=path)
    client = ServiceClient(server.url)
    client.wait_ready()
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)
    server.drain()
    document = load_snapshot(path)
    assert len(document["hot_requests"]) == 1


def test_concurrent_snapshots_and_drain_never_tear_the_file(tmp_path):
    """Hammer write_snapshot from many threads while a drain runs.

    Every writer stages into its own temp file and publication is
    serialised, so the published snapshot must always be one writer's
    complete document, the drain's final snapshot must be the last write,
    and no temp files may be left behind.
    """
    path = tmp_path / "snap.json"
    service = make_service()
    server = start_server(
        service, port=0, snapshot_path=str(path), snapshot_interval=0.005
    )
    client = ServiceClient(server.url)
    client.wait_ready()
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)

    stop = threading.Event()
    failures = []

    def hammer():
        while not stop.is_set():
            try:
                server.write_snapshot()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                failures.append(exc)

    def hammer_endpoint():
        # The POST /v1/snapshot handler must take the same writer lock;
        # connection errors once the drain closes the listener are expected.
        while not stop.is_set():
            try:
                client.snapshot()
            except Exception as exc:  # noqa: BLE001 - recorded unless draining
                if stop.is_set() or server.draining:
                    return
                failures.append(exc)
                return

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    threads.append(threading.Thread(target=hammer_endpoint))
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let periodic + hammer writers overlap
    server.drain()
    stop.set()
    for thread in threads:
        thread.join()

    assert not failures
    # The periodic thread retired before the final snapshot was written.
    assert server._snapshot_thread is not None
    assert not server._snapshot_thread.is_alive()
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["format"] == SNAPSHOT_FORMAT
    assert document["version"] == SNAPSHOT_VERSION
    assert len(document["hot_requests"]) == 1
    leftovers = [p for p in path.parent.iterdir() if p.name != path.name]
    assert leftovers == [], f"temp files left behind: {leftovers}"


def test_retry_after_hint_reports_a_failing_service_and_falls_back(monkeypatch):
    from types import SimpleNamespace

    from repro.server import handlers

    class BrokenService:
        def retry_after_hint(self):
            raise RuntimeError("hint unavailable")

    events = []
    monkeypatch.setattr(handlers, "log_event", lambda event, **fields: events.append((event, fields)))
    handler = SimpleNamespace(server=SimpleNamespace(service=BrokenService()))
    assert handlers.KPlexRequestHandler._retry_after_hint(handler) == 1
    assert [event for event, _ in events] == ["retry_after_hint_failed"]
    assert "hint unavailable" in events[0][1]["error"]
