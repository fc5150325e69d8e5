"""Tests for the observability layer: traces, metrics, events, propagation."""

import io
import json
import logging
import threading

import pytest

from repro.core.stats import PER_SEED_TOP_N, _PER_SEED_PRUNE_AT, SearchStatistics
from repro.errors import RemoteServiceError
from repro.graph import Graph, generators
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Trace,
    TraceRecorder,
    activate,
    attach_span_record,
    configure_event_logging,
    current_span,
    current_trace,
    escape_label_value,
    log_event,
    new_request_id,
    remove_event_handler,
    span,
    span_record,
    start_span,
)
from repro.parallel import ParallelConfig, parallel_enumerate_maximal_kplexes
from repro.resilience import fault_injector
from repro.server import ServiceClient, start_server
from repro.service import KPlexService, ServiceConfig

from _helpers import vertex_sets

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


# --------------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------------- #
def test_histogram_cumulative_buckets_and_bounds():
    hist = Histogram(buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 3.0, 10.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(14.5)
    assert snap["min"] == 0.5 and snap["max"] == 10.0
    # le uses <= semantics and counts are cumulative, ending at +Inf.
    assert [(b["le"], b["count"]) for b in snap["buckets"]] == [
        (1.0, 2), (2.0, 2), (5.0, 3), ("+Inf", 4),
    ]


def test_histogram_quantiles_clamped_to_observed_range():
    hist = Histogram(buckets=(0.01, 0.1, 1.0))
    assert hist.quantile(0.5) is None
    for value in (0.02, 0.03, 0.04, 0.05):
        hist.observe(value)
    p50 = hist.quantile(0.5)
    assert 0.02 <= p50 <= 0.1
    # The top quantile never exceeds the observed maximum, even though the
    # nearest-rank bucket bound (0.1) does.
    assert hist.quantile(1.0) == 0.05
    hist.observe(50.0)  # overflow bucket
    assert hist.quantile(1.0) == 50.0


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram(buckets=())


def test_histogram_merge_requires_identical_bounds():
    left, right = Histogram(buckets=(1.0, 2.0)), Histogram(buckets=(1.0, 2.0))
    left.observe(0.5)
    right.observe(1.5)
    left.merge(right)
    assert left.count == 2 and left.sum == pytest.approx(2.0)
    with pytest.raises(ValueError):
        left.merge(Histogram(buckets=(1.0, 3.0)))


def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == pytest.approx(3.5)
    with pytest.raises(ValueError):
        counter.inc(-1)
    gauge = Gauge()
    gauge.set(5)
    gauge.dec(2)
    assert gauge.value == pytest.approx(3.0)


# --------------------------------------------------------------------------- #
# Registry and Prometheus rendering
# --------------------------------------------------------------------------- #
def test_escape_label_value():
    assert escape_label_value('we"ird\\\n') == 'we\\"ird\\\\\\n'
    assert escape_label_value("plain") == "plain"


def test_registry_renders_escaped_labels_without_raw_newlines():
    registry = MetricsRegistry()
    registry.counter(
        "requests_total", labels={"graph": 'we"ird\\\nname'}
    ).inc()
    text = registry.render_prometheus(prefix="kplex")
    assert 'graph="we\\"ird\\\\\\nname"' in text
    # A hostile label value must never break the line-oriented format.
    for line in text.splitlines():
        if line.startswith("kplex_requests_total{"):
            assert line.endswith(" 1")


def test_registry_kind_and_bucket_conflicts():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")
    registry.histogram("lat", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("lat", buckets=(1.0, 3.0))


def test_registry_histogram_render_has_bucket_sum_count():
    registry = MetricsRegistry()
    registry.histogram("lat", labels={"route": "/x"}, buckets=(0.1, 1.0)).observe(0.5)
    text = registry.render_prometheus(prefix="kplex")
    assert '# TYPE kplex_lat histogram' in text
    assert 'kplex_lat_bucket{le="0.1",route="/x"} 0' in text
    assert 'kplex_lat_bucket{le="1",route="/x"} 1' in text
    assert 'kplex_lat_bucket{le="+Inf",route="/x"} 1' in text
    assert 'kplex_lat_sum{route="/x"}' in text
    assert 'kplex_lat_count{route="/x"} 1' in text


# --------------------------------------------------------------------------- #
# Traces and spans
# --------------------------------------------------------------------------- #
def test_trace_tree_nests_by_parent():
    trace = Trace(request_id="t1")
    root = trace.span("root")
    child = trace.span("child", parent=root)
    trace.span("grandchild", parent=child)
    trace.finish()
    tree = trace.tree()
    assert len(tree) == 1 and tree[0]["name"] == "root"
    assert tree[0]["children"][0]["name"] == "child"
    assert tree[0]["children"][0]["children"][0]["name"] == "grandchild"


def test_trace_span_cap_returns_unrecorded_spans():
    trace = Trace(request_id="t2", max_spans=2)
    first = trace.span("a")
    trace.span("b", parent=first)
    overflow = trace.span("c", parent=first)
    assert overflow.recorded is False
    overflow.set(x=1).finish()  # still usable, just not stored
    assert trace.dropped_spans == 1
    assert len(trace.spans) == 2


def test_span_context_manager_is_noop_without_trace():
    assert current_trace() is None
    with span("orphan") as item:
        assert item.recorded is False
        item.set(anything="goes")
    assert start_span("orphan2") is None


def test_activate_and_span_nest_under_trace():
    trace = Trace(request_id="t3")
    root = trace.span("root")
    with activate(root):
        assert current_trace() is trace
        with span("inner", tag=1) as inner:
            assert inner.recorded is True
            assert current_span() is inner
        assert current_span() is root
    assert current_span() is None
    names = [s.name for s in trace.spans]
    assert names == ["root", "inner"]
    assert trace.spans[1].parent_id == root.span_id


def test_attach_span_record_stitches_wall_clock_child():
    record = span_record("worker", 100.0, 100.5, seed=7)
    assert record["pid"] > 0
    trace = Trace(request_id="t4")
    root = trace.span("root")
    attached = attach_span_record(record, parent=root)
    assert attached.parent_id == root.span_id
    assert attached.duration_ms == pytest.approx(500.0)
    assert attached.attributes["seed"] == 7
    assert attach_span_record(record, parent=None) is None


def test_trace_recorder_evicts_oldest_and_filters():
    recorder = TraceRecorder(capacity=2)
    for name in ("a", "b", "c"):
        trace = Trace(request_id=name)
        trace.span(name).finish()
        recorder.record(trace)
    assert len(recorder) == 2
    assert recorder.get("a") is None
    assert recorder.get("c").request_id == "c"
    listed = recorder.list()
    assert [t.request_id for t in listed] == ["c", "b"]  # newest first
    assert recorder.list(min_ms=1e9) == []
    assert len(recorder.list(limit=1)) == 1


# --------------------------------------------------------------------------- #
# Structured events
# --------------------------------------------------------------------------- #
def test_log_event_emits_json_with_request_id():
    stream = io.StringIO()
    handler = configure_event_logging(stream=stream, level=logging.INFO)
    try:
        trace = Trace(request_id="evt-1")
        root = trace.span("root")
        with activate(root):
            log_event("unit_test_event", detail=42, dropped=None)
        payload = json.loads(stream.getvalue().strip().splitlines()[-1])
        assert payload["event"] == "unit_test_event"
        assert payload["request_id"] == "evt-1"
        assert payload["detail"] == 42
        assert "dropped" not in payload  # None-valued fields are omitted
        assert payload["level"] == "info"
    finally:
        remove_event_handler(handler)


# --------------------------------------------------------------------------- #
# Bounded per-seed statistics
# --------------------------------------------------------------------------- #
def test_per_seed_branch_calls_capped_to_top_n():
    stats = SearchStatistics()
    for seed in range(1000):
        stats.record_seed(subgraph_size=4)
        stats.record_seed_calls(seed, seed % 97 + 1)
    assert len(stats.per_seed_branch_calls) <= _PER_SEED_PRUNE_AT
    assert stats.per_seed_dropped > 0
    top = stats.top_seed_branch_calls(5)
    counts = list(top.values())
    assert len(top) == 5
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 97  # the heaviest seeds survive the pruning


def test_per_seed_cap_survives_merge():
    left, right = SearchStatistics(), SearchStatistics()
    for seed in range(600):
        left.record_seed_calls(seed, 1)
        right.record_seed_calls(seed + 600, 1)
    dropped_before = left.per_seed_dropped + right.per_seed_dropped
    left.merge(right)
    assert len(left.per_seed_branch_calls) <= _PER_SEED_PRUNE_AT
    assert left.per_seed_dropped >= dropped_before


def test_small_per_seed_dicts_are_untouched():
    stats = SearchStatistics()
    for seed in range(10):
        stats.record_seed_calls(seed, 1)
    assert len(stats.per_seed_branch_calls) == 10
    assert stats.per_seed_dropped == 0
    assert stats.top_seed_branch_calls(limit=PER_SEED_TOP_N)


# --------------------------------------------------------------------------- #
# Propagation across execution boundaries
# --------------------------------------------------------------------------- #
def _assert_well_formed(trace):
    """One root, every parent_id resolves, no span borrowed from elsewhere."""
    ids = {s.span_id for s in trace.spans}
    roots = [s for s in trace.spans if s.parent_id is None]
    assert len(roots) == 1, [s.name for s in roots]
    for item in trace.spans:
        assert item.trace is trace
        if item.parent_id is not None:
            assert item.parent_id in ids


def test_request_id_survives_service_worker_thread():
    service = KPlexService(config=ServiceConfig(max_workers=2))
    try:
        service.catalog.register("toy", Graph.from_edges(EDGES))
        trace = Trace(request_id="svc-1")
        root = trace.span("root")
        with activate(root):
            assert current_trace().request_id == "svc-1"
            future = service.submit(service.request("toy", 2, 3))
            response = future.result(timeout=30)
        trace.finish()
        assert len(response.kplexes) == 1
        names = [s.name for s in trace.spans]
        for expected in ("execute", "enumerate", "preprocess", "search"):
            assert expected in names, names
        # Bookkeeping steps ride as attributes, not spans (hot-path economy).
        execute = next(s for s in trace.spans if s.name == "execute")
        assert execute.attributes["queue_wait_ms"] >= 0.0
        assert execute.attributes["cache_hit"] is False
        assert root.attributes["outstanding"] >= 1
        _assert_well_formed(trace)
    finally:
        service.close()


def test_process_pool_worker_spans_stitch_into_parent_trace():
    graph = generators.ring_of_cliques(num_cliques=3, clique_size=4)
    trace = Trace(request_id="proc-1")
    root = trace.span("root")
    with activate(root):
        result = parallel_enumerate_maximal_kplexes(
            graph, 2, 4, ParallelConfig(num_workers=2, use_processes=True)
        )
    trace.finish()
    assert result
    workers = [s for s in trace.spans if s.name == "mine_seed"]
    assert workers, [s.name for s in trace.spans]
    search = next(s for s in trace.spans if s.name == "search")
    for item in workers:
        assert item.parent_id == search.span_id
        assert item.attributes["pid"] > 0
        assert item.end_time is not None
    _assert_well_formed(trace)


def test_span_trees_stay_well_formed_under_thread_hammering():
    service = KPlexService(config=ServiceConfig(max_workers=4))
    traces = {}
    errors = []
    try:
        service.catalog.register("toy", Graph.from_edges(EDGES))
        barrier = threading.Barrier(6)

        def hammer(index):
            try:
                trace = Trace(request_id=f"hammer-{index}")
                root = trace.span("root")
                barrier.wait(timeout=10)
                with activate(root):
                    future = service.submit(service.request("toy", 2, 3))
                    future.result(timeout=30)
                trace.finish()
                traces[index] = trace
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert len(traces) == 6
        for index, trace in traces.items():
            assert trace.request_id == f"hammer-{index}"
            _assert_well_formed(trace)
            assert "execute" in [s.name for s in trace.spans]
    finally:
        service.close()


def test_trace_survives_worker_kill_with_pool_recovery():
    graph = generators.ring_of_cliques(num_cliques=3, clique_size=4)
    expected = parallel_enumerate_maximal_kplexes(
        graph, 2, 4, ParallelConfig(num_workers=2, use_processes=False)
    )
    fault_injector().configure("worker_kill:1")
    try:
        trace = Trace(request_id="kill-1")
        root = trace.span("root")
        with activate(root):
            survived = parallel_enumerate_maximal_kplexes(
                graph, 2, 4, ParallelConfig(num_workers=2, use_processes=True)
            )
    finally:
        fault_injector().clear()
    trace.finish()
    assert vertex_sets(survived) == vertex_sets(expected)
    _assert_well_formed(trace)
    search = next(s for s in trace.spans if s.name == "search")
    assert search.attributes.get("pool_recoveries", 0) >= 1


# --------------------------------------------------------------------------- #
# HTTP: X-Request-Id passthrough and the /v1/trace routes
# --------------------------------------------------------------------------- #
@pytest.fixture()
def served():
    service = KPlexService(config=ServiceConfig(max_workers=2))
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    try:
        yield service, server, client
    finally:
        server.drain()


def test_http_trace_roundtrip(served):
    _service, _server, client = served
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)
    request_id = client.last_request_id
    assert request_id

    payload = client.trace(request_id)
    assert payload["request_id"] == request_id
    names = [s["name"] for s in payload["spans"]]
    for expected in ("http", "execute", "preprocess", "search"):
        assert expected in names, names
    assert payload["tree"][0]["name"] == "http"
    assert payload["tree"][0]["attributes"]["status"] == 200

    listing = client.traces(limit=10)
    assert listing["count"] >= 1
    assert any(row["request_id"] == request_id for row in listing["traces"])


def test_http_trace_unknown_id_is_404(served):
    _service, _server, client = served
    with pytest.raises(RemoteServiceError) as info:
        client.trace("nope-never-seen")
    assert info.value.status == 404


def test_http_trace_rejects_bad_query(served):
    _service, _server, client = served
    with pytest.raises(RemoteServiceError) as info:
        client.traces(min_ms="wat")
    assert info.value.status == 400


def test_http_job_trace_links_submitting_request(served):
    _service, _server, client = served
    client.register("toy", edges=EDGES)
    job = client.submit_job("toy", k=2, q=3)
    client.wait_job(job["id"])
    assert job["request_id"] == job["id"]

    payload = client.trace(job["id"])
    root = payload["tree"][0]
    assert root["name"] == "job"
    assert root["attributes"]["job_id"] == job["id"]
    # The HTTP request that submitted the job is linked by id.
    parent = root["attributes"]["parent_request_id"]
    submit_trace = client.trace(parent)
    assert submit_trace["tree"][0]["attributes"]["path"] == "/v1/jobs"
    names = [s["name"] for s in payload["spans"]]
    assert "search" in names and "preprocess" in names


def test_http_prometheus_carries_histogram_series(served):
    _service, _server, client = served
    client.register("toy", edges=EDGES)
    client.solve("toy", k=2, q=3)
    text = client.metrics(fmt="prometheus")
    assert "kplex_request_latency_seconds_bucket{" in text
    assert "kplex_request_latency_seconds_sum" in text
    assert "kplex_request_latency_seconds_count" in text
    assert 'kplex_http_requests_total{route="/v1/solve",status="200"} 1' in text


def test_prometheus_escapes_hostile_graph_names():
    service = KPlexService(config=ServiceConfig(max_workers=1))
    hostile = 'we"ird\\\nname'
    try:
        service.catalog.register(hostile, Graph.from_edges(EDGES))
        future = service.submit(service.request(hostile, 2, 3))
        future.result(timeout=30)
        text = service.metrics_prometheus_text()
        assert 'graph="we\\"ird\\\\\\nname"' in text
        for line in text.splitlines():
            assert "\n" not in line  # splitlines guarantees it; belt and braces
            if "graph_requests_total" in line and "#" not in line:
                assert line.endswith(" 1")
    finally:
        service.close()


def test_access_log_format_json(served_factory=None):
    lines = []
    service = KPlexService(config=ServiceConfig(max_workers=1))
    server = start_server(
        service,
        port=0,
        logger=lines.append,
        access_log_format="json",
        slow_request_threshold=0.0,
    )
    stream = io.StringIO()
    handler = configure_event_logging(stream=stream, level=logging.WARNING)
    client = ServiceClient(server.url)
    try:
        client.wait_ready()
        client.register("toy", edges=EDGES)
        client.solve("toy", k=2, q=3)
        solve_id = client.last_request_id
        solve_lines = [
            json.loads(line) for line in lines
            if '"path":"/v1/solve"' in line.replace(" ", "")
        ]
        assert solve_lines, lines
        record = solve_lines[-1]
        assert record["method"] == "POST"
        assert record["status"] == 200
        assert record["request_id"] == solve_id
        assert record["duration_ms"] > 0
        # Threshold 0 marks everything slow: the WARNING event carries the
        # span tree for offline inspection.
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        slow = [e for e in events if e["event"] == "slow_request"]
        assert any(e["request_id"] == solve_id for e in slow)
        tree = next(e for e in slow if e["request_id"] == solve_id)["spans"]
        assert tree[0]["name"] == "http"
    finally:
        remove_event_handler(handler)
        server.drain()
