"""Tests for the sharded multi-replica serving layer (:mod:`repro.cluster`).

Pure-logic pieces (hash ring, histogram merging, snapshot compaction,
client failover) are tested in-process; one module-scoped two-replica
cluster exercises the real topology end to end — registration fan-out,
ring routing, peer warming, merged metrics, SIGKILL failover, drain.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ClusterError, RemoteServiceError
from repro.cluster import HashRing, ReplicaSet, start_cluster
from repro.obs import Histogram, MetricsRegistry
from repro.server import ServiceClient, snapshot_service, start_server
from repro.service import KPlexService, ServiceConfig
from repro.service.cache import ByteBudgetLRU

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def make_service(**config_kwargs) -> KPlexService:
    return KPlexService(config=ServiceConfig(max_workers=2, **config_kwargs))


# --------------------------------------------------------------------------- #
# Hash ring
# --------------------------------------------------------------------------- #
def test_ring_lookup_is_deterministic_and_member():
    ring = HashRing(["r0", "r1", "r2"])
    keys = [f"graph-{i}" for i in range(200)]
    first = [ring.lookup(key) for key in keys]
    assert first == [ring.lookup(key) for key in keys]
    assert set(first) <= {"r0", "r1", "r2"}
    # Every replica owns a reasonable share of 200 keys.
    for node in ring.nodes:
        assert first.count(node) > 20


def test_ring_add_remove_moves_about_one_nth_of_keys():
    keys = [f"graph-{i}" for i in range(1000)]
    ring = HashRing(["r0", "r1", "r2", "r3"])
    before = {key: ring.lookup(key) for key in keys}

    ring.add("r4")
    after_add = {key: ring.lookup(key) for key in keys}
    moved = sum(1 for key in keys if before[key] != after_add[key])
    # Ideal movement is 1/5 of the keys; allow generous slack for hash noise.
    assert 0.10 * len(keys) <= moved <= 0.35 * len(keys)
    # Every moved key landed on the new node, never reshuffled between old ones.
    assert all(
        after_add[key] == "r4" for key in keys if before[key] != after_add[key]
    )

    ring.remove("r4")
    assert {key: ring.lookup(key) for key in keys} == before


def test_ring_lookup_n_distinct_and_bounded():
    ring = HashRing(["r0", "r1", "r2"])
    order = ring.lookup_n("some-graph", 3)
    assert len(order) == 3 and len(set(order)) == 3
    assert order[0] == ring.lookup("some-graph")
    assert ring.lookup_n("some-graph", 10) == order  # capped at ring size


def test_ring_stable_across_processes():
    keys = ["jazz", "wiki-vote", "demo", "graph-x"]
    script = (
        "from repro.cluster import HashRing; "
        "ring = HashRing(['r0', 'r1', 'r2']); "
        f"print(','.join(ring.lookup(k) for k in {keys!r}))"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.check_output([sys.executable, "-c", script], env=env, text=True)
    local = HashRing(["r0", "r1", "r2"])
    assert out.strip() == ",".join(local.lookup(key) for key in keys)


def test_ring_empty_and_errors():
    ring = HashRing()
    with pytest.raises(KeyError):
        ring.lookup("anything")
    ring.add("only")
    assert ring.lookup("anything") == "only"
    ring.add("only")  # idempotent: no duplicate vnodes
    assert len(ring) == 1
    ring.remove("ghost")  # removing a non-member is a no-op
    assert ring.nodes == ["only"]
    with pytest.raises(ValueError):
        ring.add("")


# --------------------------------------------------------------------------- #
# Histogram / registry merging
# --------------------------------------------------------------------------- #
def test_histogram_from_snapshot_roundtrip_and_merge():
    one = Histogram(buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 5.0, 50.0):
        one.observe(value)
    restored = Histogram.from_snapshot(one.snapshot())
    assert restored.snapshot() == one.snapshot()

    two = Histogram(buckets=(0.1, 1.0, 10.0))
    two.observe(0.2)
    merged = Histogram(buckets=(0.1, 1.0, 10.0))
    merged.merge(one)
    merged.merge(two)
    snap = merged.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(55.75)


def test_registry_merge_snapshot_sums_counters_and_histograms():
    def build(factor):
        registry = MetricsRegistry()
        registry.counter("requests_total", labels={"route": "/v1/solve"}).inc(
            3 * factor
        )
        registry.gauge("in_flight").inc(2 * factor)
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05 * factor)
        hist.observe(5.0)
        return registry

    merged = MetricsRegistry()
    merged.merge_snapshot(build(1).snapshot())
    merged.merge_snapshot(build(2).snapshot())
    doc = merged.snapshot()
    assert doc["requests_total"]["series"][0]["value"] == 9
    assert doc["in_flight"]["series"][0]["value"] == 6
    hist = doc["latency_seconds"]["series"][0]
    assert hist["count"] == 4
    text = merged.render_prometheus()
    assert 'requests_total{route="/v1/solve"} 9' in text


# --------------------------------------------------------------------------- #
# Cache hit tracking + snapshot compaction
# --------------------------------------------------------------------------- #
def test_lru_tracks_hits_and_peek_is_non_mutating():
    lru = ByteBudgetLRU(max_entries=4, max_bytes=1 << 20)
    lru.put("a", "payload", 7)
    assert lru.peek("a") and not lru.peek("b")
    assert lru.get("a") == "payload"
    assert lru.get("a") == "payload"
    entries = lru.export_entries()
    assert entries[0][0] == "a" and entries[0][2] == 2  # two hits recorded
    before = lru.export_entries()
    assert lru.peek("a")
    assert lru.export_entries() == before  # peek did not bump hits/recency


def test_snapshot_compaction_keeps_hottest_specs_and_reports_drops():
    service = make_service()
    try:
        service.catalog.register("toy", EDGES)
        # Three distinct specs with hit counts 2 / 1 / 0.
        for _ in range(3):
            service.solve(service.request("toy", k=2, q=3))
        for _ in range(2):
            service.solve(service.request("toy", k=1, q=3))
        service.solve(service.request("toy", k=1, q=2))

        full = snapshot_service(service)
        assert len(full["hot_requests"]) == 3
        assert full["spec_compaction"]["dropped"] == 0

        bounded = snapshot_service(service, max_requests=2)
        kept = {(spec["k"], spec["q"]) for spec in bounded["hot_requests"]}
        assert kept == {(2, 3), (1, 3)}  # the cold (1, 2) spec was cut
        compaction = bounded["spec_compaction"]
        assert compaction["policy"] == "top-hits-age-decay"
        assert compaction["candidates"] == 3
        assert compaction["kept"] == 2 and compaction["dropped"] == 1
        assert compaction["dropped_specs"][0]["k"] == 1
        assert compaction["dropped_specs"][0]["q"] == 2
    finally:
        service.close()


# --------------------------------------------------------------------------- #
# Client failover + replica headers
# --------------------------------------------------------------------------- #
@pytest.fixture()
def replica_server():
    service = make_service()
    server = start_server(service, port=0, replica_id="solo")
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        yield server, client
    finally:
        server.drain()


def test_client_surfaces_replica_and_cache_headers(replica_server):
    _server, client = replica_server
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)
    assert client.last_replica == "solo"
    assert client.last_cache == "miss"
    client.solve("toy", k=2, q=3)
    assert client.last_cache == "hit"


def test_client_get_fails_over_to_live_endpoint(replica_server):
    server, _client = replica_server
    # Port 9 (discard) refuses connections immediately on loopback.
    client = ServiceClient(["http://127.0.0.1:9", server.url], timeout=5.0)
    assert client.health()["status"] == "ok"
    assert client.base_url == server.url  # rotated off the dead endpoint
    client.close()


def test_client_post_does_not_silently_fail_over():
    client = ServiceClient(
        ["http://127.0.0.1:9", "http://127.0.0.1:9"], timeout=2.0
    )
    with pytest.raises(RemoteServiceError):
        client.register("toy", edges=EDGES)
    client.close()


# --------------------------------------------------------------------------- #
# ReplicaSet validation
# --------------------------------------------------------------------------- #
def test_replica_set_rejects_empty_and_duplicate_ids():
    with pytest.raises(ClusterError):
        ReplicaSet([], lambda rid: [])
    with pytest.raises(ClusterError):
        ReplicaSet(["a", "a"], lambda rid: [])


# --------------------------------------------------------------------------- #
# End-to-end: a real two-replica cluster
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cluster():
    router = start_cluster(
        replicas=2,
        replica_args=["--workers", "2", "--cache-entries", "64"],
        boot_timeout=60.0,
    )
    client = ServiceClient(router.url, timeout=60.0)
    client.wait_ready(timeout=30.0)
    client.register("toy", edges=EDGES)
    try:
        yield router, client
    finally:
        exit_codes = router.drain()
        # Replicas still alive at drain time exit 0 under the SIGTERM
        # contract (the killed-and-restarted one included).
        assert all(code == 0 for code in exit_codes.values())


def test_cluster_routes_solves_and_stamps_replica(cluster):
    router, client = cluster
    response = client.solve("toy", k=2, q=3)
    assert response["count"] == 1
    owner = router.ring.lookup("toy")
    assert client.last_replica == owner
    assert client.last_cache in ("hit", "miss")
    # Same spec again: routed to the same owner, now a cache hit.
    client.solve("toy", k=2, q=3)
    assert client.last_replica == owner and client.last_cache == "hit"


def test_cluster_registration_fans_out_to_every_replica(cluster):
    router, client = cluster
    names = [row["name"] for row in client.graphs()]
    assert "toy" in names
    for replica in router.replica_set.live():
        direct = ServiceClient(replica.url)
        assert "toy" in [row["name"] for row in direct.graphs()]
        direct.close()


def test_cluster_placement_and_health(cluster):
    router, client = cluster
    assert client.health()["status"] == "ok"
    payload = client._call("GET", "/v1/cluster?graph=toy")
    assert payload["placement"]["order"][0] == router.ring.lookup("toy")
    assert len(payload["replicas"]) == 2


def test_cluster_peer_warm_reaches_backup_replica(cluster):
    router, client = cluster
    client.solve("toy", k=1, q=4)  # unique spec: a miss on the owner
    backup_id = next(
        rid for rid in router.ring.lookup_n("toy", 2)
        if rid != router.ring.lookup("toy")
    )
    backup = router.replica_set.get(backup_id)
    direct = ServiceClient(backup.url)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        direct.solve("toy", k=1, q=4)
        if direct.last_cache == "hit":
            break
        time.sleep(0.05)
    assert direct.last_cache == "hit"  # warmed spec, not our probe's miss
    direct.close()


def test_cluster_merged_metrics_json_and_prometheus(cluster):
    _router, client = cluster
    document = client.metrics()
    assert document["cluster"]["replicas"] == 2
    assert document["requests_total"] >= 1
    assert set(document["replicas"]) == {"r0", "r1"}
    text = client.metrics(fmt="prometheus")
    assert "kplex_cluster_replica_restarts_total" in text
    assert "kplex_cluster_up 2" in text


def test_cluster_jobs_route_and_stream_through_router(cluster):
    _router, client = cluster
    record = client.submit_job("toy", k=2, q=4)
    done = client.wait_job(record["id"], timeout=30.0)
    assert done["state"] == "succeeded"
    window = client.job_results(record["id"])
    assert window["complete"] is True and len(window["results"]) >= 1
    records = list(client.iter_job_results(record["id"]))
    final = records[-1]
    assert final["done"] is True and final["state"] == "succeeded"


def test_cluster_trace_propagates_router_to_replica(cluster):
    _router, client = cluster
    client.solve("toy", k=2, q=3)
    solve_id = client.last_request_id
    payload = client._call("GET", f"/v1/trace/{solve_id}")
    assert payload["router"]["spans"]
    assert payload["router"]["spans"][0]["name"] == "router"
    assert payload["replica"]["request_id"] == solve_id


def test_cluster_survives_sigkill_and_restarts_replica(cluster):
    router, client = cluster
    before = router.replica_set.restarts_total
    owner = router.replica_set.get(router.ring.lookup("toy"))
    os.kill(owner.pid, signal.SIGKILL)
    # The very next request must still succeed (ring-order failover).
    response = client.solve("toy", k=2, q=3)
    assert response["count"] == 1
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if router.replica_set.restarts_total > before and owner.state == "up":
            break
        time.sleep(0.1)
    assert router.replica_set.restarts_total > before
    assert owner.state == "up"
    # The restarted replica re-learned the catalog via registration replay.
    direct = ServiceClient(owner.url)
    assert "toy" in [row["name"] for row in direct.graphs()]
    direct.close()
    assert client.health()["status"] == "ok"
