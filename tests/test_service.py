"""Tests for the serving layer: catalog, caches, budgets and the service."""

import threading
import time

import pytest

from repro import EnumerationRequest, KPlexEngine
from repro.datasets import load_dataset
from repro.errors import CatalogError, ParameterError, ServiceError, ServiceOverloadError
from repro.graph import Graph, generators, invalidate, prepare
from repro.graph.io import write_edge_list
from repro.api import Solver, SolverRun, register_solver, unregister_solver
from repro.service import (
    ByteBudgetLRU,
    GraphCatalog,
    KPlexService,
    ResultCache,
    ServiceConfig,
    estimate_graph_bytes,
    estimate_response_bytes,
    result_cache_key,
)


def diamond_graph() -> Graph:
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


# --------------------------------------------------------------------------- #
# Graph epoch
# --------------------------------------------------------------------------- #
def test_graph_epoch_starts_at_zero_and_bumps():
    graph = diamond_graph()
    assert graph.epoch == 0
    assert graph.bump_epoch() == 1
    assert graph.epoch == 1


def test_invalidate_bumps_epoch_and_clears_caches():
    graph = diamond_graph()
    prepare(graph).decomposition
    before = graph.epoch
    invalidate(graph)
    assert graph.epoch == before + 1
    assert graph._prepared is None


def test_unpickled_graph_starts_fresh_epoch():
    import pickle

    graph = diamond_graph()
    graph.bump_epoch()
    restored = pickle.loads(pickle.dumps(graph))
    assert restored.epoch == 0


# --------------------------------------------------------------------------- #
# Prepared-index core-level memory budget
# --------------------------------------------------------------------------- #
def test_core_budget_evicts_lru_distinct_levels():
    # Levels 4/5/6 each peel at least one vertex of this graph, so all
    # three cache entries are distinct (non-identity) core subgraphs.
    graph = generators.erdos_renyi(60, 0.15, seed=7)
    invalidate(graph)
    prepared = prepare(graph, max_core_levels=2)
    reference = {level: prepared.core(level)[1] for level in (4, 5, 6)}
    info = prepared.core_budget_info()
    assert info["max_core_levels"] == 2
    assert info["distinct_levels"] <= 2
    assert info["evictions"] >= 1
    # Evicted levels are recomputed correctly on demand.
    for level, kept in reference.items():
        assert prepared.core(level)[1] == kept


def test_core_budget_exempts_identity_entries():
    graph = generators.complete_graph(8)  # no level below 7 peels anything
    invalidate(graph)
    prepared = prepare(graph, max_core_levels=1)
    for level in (1, 2, 3):
        core_graph, mapping = prepared.core(level)
        assert core_graph is graph
        assert mapping == list(range(8))
    info = prepared.core_budget_info()
    assert info["distinct_levels"] == 0
    assert info["evictions"] == 0
    assert info["identity_levels"] == [1, 2, 3]


def test_core_budget_keeps_identity_chain_after_eviction():
    graph = generators.erdos_renyi(60, 0.15, seed=11)
    invalidate(graph)
    prepared = prepare(graph, max_core_levels=1)
    first_core, first_map = prepared.core(4)
    prepared.core(6)  # evicts level 4
    again_core, again_map = prepared.core(4)
    assert again_map == first_map
    assert again_core.num_vertices == first_core.num_vertices
    # The recomputed core chains its own prepared index as before.
    chained, mapping = prepared.prepared_core(4)
    assert chained.graph is again_core
    assert mapping == again_map


def test_core_budget_rejects_negative():
    graph = diamond_graph()
    with pytest.raises(ValueError):
        prepare(graph).set_core_budget(-1)


def test_core_budget_does_not_change_results():
    graph = generators.erdos_renyi(40, 0.3, seed=3)
    engine = KPlexEngine()
    expected = [
        engine.solve(EnumerationRequest(graph=graph, k=2, q=q)).vertex_sets()
        for q in (4, 5, 6)
    ]
    invalidate(graph)
    prepare(graph, max_core_levels=1)
    capped = [
        engine.solve(EnumerationRequest(graph=graph, k=2, q=q)).vertex_sets()
        for q in (4, 5, 6)
    ]
    assert capped == expected


# --------------------------------------------------------------------------- #
# ByteBudgetLRU
# --------------------------------------------------------------------------- #
def test_lru_entry_budget_evicts_oldest():
    lru = ByteBudgetLRU(max_entries=2)
    lru.put("a", 1, 10)
    lru.put("b", 2, 10)
    assert lru.get("a") == 1  # refresh recency: b is now LRU
    lru.put("c", 3, 10)
    assert lru.get("b") is None
    assert lru.get("a") == 1 and lru.get("c") == 3
    assert lru.stats()["evictions"] == 1


def test_lru_byte_budget_and_oversized_rejection():
    lru = ByteBudgetLRU(max_bytes=100)
    assert lru.put("big", "x", 101) is False
    assert lru.stats()["rejected_oversized"] == 1
    lru.put("a", 1, 60)
    lru.put("b", 2, 60)  # over budget: evicts a
    assert lru.get("a") is None and lru.get("b") == 2
    assert lru.current_bytes <= 100


def test_lru_replacing_key_updates_bytes():
    lru = ByteBudgetLRU(max_bytes=100)
    lru.put("a", 1, 80)
    lru.put("a", 2, 30)
    assert lru.current_bytes == 30
    assert lru.get("a") == 2


# --------------------------------------------------------------------------- #
# GraphCatalog
# --------------------------------------------------------------------------- #
def test_catalog_register_all_source_kinds(tmp_path):
    catalog = GraphCatalog()
    catalog.register("from-graph", diamond_graph())
    catalog.register("from-edges", [(0, 1), (1, 2), (0, 2)])
    catalog.register("from-dataset", "dataset:jazz")
    path = tmp_path / "graph.txt"
    write_edge_list(generators.ring_of_cliques(2, 5), path)
    catalog.register("from-file", str(path))
    assert catalog.names() == ["from-dataset", "from-edges", "from-file", "from-graph"]
    assert catalog.get("from-edges").num_vertices == 3
    assert catalog.get("from-file").num_vertices == 10
    assert "from-graph" in catalog and len(catalog) == 4
    sources = {row["name"]: row["source"] for row in catalog.info()}
    assert sources["from-dataset"] == "dataset:jazz"
    assert sources["from-file"].startswith("file:")


def test_catalog_rejects_bad_sources_and_names(tmp_path):
    catalog = GraphCatalog()
    with pytest.raises(CatalogError):
        catalog.register("", diamond_graph())
    with pytest.raises(CatalogError):
        catalog.register("nope", "dataset:does-not-exist")
    with pytest.raises(CatalogError):
        catalog.register("nope", str(tmp_path / "missing.txt"))
    with pytest.raises(CatalogError):
        catalog.register("nope", 42)
    with pytest.raises(CatalogError):
        catalog.get("unknown")


def test_catalog_duplicate_needs_replace():
    catalog = GraphCatalog()
    first = diamond_graph()
    catalog.register("g", first)
    with pytest.raises(CatalogError):
        catalog.register("g", diamond_graph())
    second = diamond_graph()
    catalog.register("g", second, replace=True)
    assert catalog.get("g") is second
    # The replaced graph's epoch was bumped so its cached results retire.
    assert first.epoch == 1


def test_catalog_prewarm_materialises_index():
    catalog = GraphCatalog()
    graph = load_dataset("jazz")
    invalidate(graph)
    entry = catalog.register("jazz", graph, prewarm=[(2, 8), (2, 10)])
    assert entry.prewarmed_levels == (6, 8)
    assert set(graph._prepared.cache_info()["core_levels"]) >= {6, 8}
    assert entry.memory_bytes() > estimate_graph_bytes(graph)


def test_catalog_prewarm_validates_pairs():
    catalog = GraphCatalog()
    with pytest.raises(CatalogError):
        catalog.register("g", diamond_graph(), prewarm=[3])
    with pytest.raises(ParameterError):
        catalog.register("g2", diamond_graph(), prewarm=[(0, 3)])


def test_catalog_unregister_and_invalidate():
    catalog = GraphCatalog()
    graph = diamond_graph()
    catalog.register("g", graph)
    assert catalog.invalidate("g") == 1
    assert graph._prepared is None
    entry = catalog.unregister("g")
    assert entry.graph is graph
    assert graph.epoch == 2
    assert "g" not in catalog
    with pytest.raises(CatalogError):
        catalog.invalidate("g")


def test_catalog_applies_prepared_core_budget():
    catalog = GraphCatalog(prepared_core_budget=1)
    graph = generators.erdos_renyi(50, 0.3, seed=5)
    invalidate(graph)
    catalog.register("g", graph, prewarm=[(2, 6)])
    prepared = graph._prepared
    assert prepared.core_budget_info()["max_core_levels"] == 1


# --------------------------------------------------------------------------- #
# ResultCache
# --------------------------------------------------------------------------- #
def test_result_cache_roundtrip_and_alias_folding():
    engine = KPlexEngine()
    graph = diamond_graph()
    cache = ResultCache()
    request = EnumerationRequest(graph=graph, k=2, q=3)
    assert cache.lookup(request) is None
    response = engine.solve(request)
    assert cache.store(request, response) is True
    assert cache.lookup(request) is response
    # Same key through a solver alias and an equal-by-value config.
    alias = EnumerationRequest(graph=graph, k=2, q=3, solver="paper", variant="ours")
    assert cache.lookup(alias) is response


def test_result_cache_key_separates_parameters():
    graph = diamond_graph()
    base = EnumerationRequest(graph=graph, k=2, q=3)
    assert result_cache_key(base) == result_cache_key(
        EnumerationRequest(graph=graph, k=2, q=3, timeout_seconds=9.0)
    )
    for other in (
        EnumerationRequest(graph=graph, k=1, q=3),
        EnumerationRequest(graph=graph, k=2, q=4),
        EnumerationRequest(graph=graph, k=2, q=3, solver="bron-kerbosch"),
        EnumerationRequest(graph=graph, k=2, q=3, variant="basic"),
        EnumerationRequest(graph=graph, k=2, q=3, max_results=1),
        EnumerationRequest(graph=graph, k=2, q=3, query_vertices=(0,)),
        EnumerationRequest(graph=graph, k=2, q=3, sort_results=False),
        EnumerationRequest(graph=diamond_graph(), k=2, q=3),
    ):
        assert result_cache_key(other) != result_cache_key(base)


def test_result_cache_refuses_partial_responses():
    engine = KPlexEngine()
    graph = load_dataset("jazz")
    cache = ResultCache()
    request = EnumerationRequest(graph=graph, k=2, q=8, timeout_seconds=0.0)
    response = engine.solve(request)
    assert response.termination == "timeout"
    assert cache.store(request, response) is False
    assert len(cache) == 0


def test_result_cache_epoch_miss_after_invalidate():
    engine = KPlexEngine()
    graph = diamond_graph()
    cache = ResultCache()
    request = EnumerationRequest(graph=graph, k=2, q=3)
    cache.store(request, engine.solve(request))
    invalidate(graph)
    fresh = EnumerationRequest(graph=graph, k=2, q=3)
    assert cache.lookup(fresh) is None
    assert cache.lookup(request) is None  # same request object: key re-derives


def test_result_cache_store_uses_admission_time_key():
    # An invalidate() racing with an in-flight run must not publish the
    # pre-invalidation answer under the fresh epoch: the service stores
    # under the key derived before the run started.
    engine = KPlexEngine()
    graph = diamond_graph()
    cache = ResultCache()
    request = EnumerationRequest(graph=graph, k=2, q=3)
    admission_key = result_cache_key(request)
    response = engine.solve(request)
    invalidate(graph)  # epoch bump lands mid-"run"
    assert cache.store(request, response, key=admission_key) is True
    # The stale entry is stranded under the old epoch: a fresh request
    # (which derives the new-epoch key) misses and recomputes.
    assert cache.lookup(EnumerationRequest(graph=graph, k=2, q=3)) is None


def test_result_cache_invalidate_graph_drops_entries():
    engine = KPlexEngine()
    keep, drop = diamond_graph(), diamond_graph()
    cache = ResultCache()
    keep_request = EnumerationRequest(graph=keep, k=2, q=3)
    drop_request = EnumerationRequest(graph=drop, k=2, q=3)
    cache.store(keep_request, engine.solve(keep_request))
    cache.store(drop_request, engine.solve(drop_request))
    assert cache.invalidate_graph(drop) == 1
    assert cache.lookup(keep_request) is not None
    assert cache.lookup(drop_request) is None


# --------------------------------------------------------------------------- #
# KPlexService
# --------------------------------------------------------------------------- #
def test_service_solve_hit_and_metrics():
    with KPlexService() as service:
        service.catalog.register("toy", diamond_graph())
        first = service.solve("toy", k=2, q=3)
        second = service.solve("toy", k=2, q=3)
        assert second is first  # shared completed response
        metrics = service.metrics()
        assert metrics["cache_hits"] == 1
        assert metrics["cache_misses"] == 1
        assert metrics["completed"] == 2
        assert metrics["in_flight"] == 0
        assert metrics["hit_rate"] == 0.5
        assert metrics["latency_samples"] == 2
        assert metrics["catalog"]["graphs"] == 1


def test_service_accepts_request_objects_and_graphs():
    with KPlexService() as service:
        graph = diamond_graph()
        direct = service.solve(graph, k=2, q=3)
        request = EnumerationRequest(graph=graph, k=2, q=3)
        again = service.solve(request)
        assert again is direct  # same key: graph identity + parameters
        with pytest.raises(ParameterError):
            service.solve(request, k=2)
        with pytest.raises(ParameterError):
            service.solve(graph)  # k/q required


def test_service_default_timeout_applied():
    config = ServiceConfig(default_timeout_seconds=0.0)
    with KPlexService(config=config) as service:
        service.catalog.register("jazz", "dataset:jazz")
        response = service.solve("jazz", k=2, q=8)
        assert response.termination == "timeout"
        assert service.metrics()["timeouts"] == 1
        # Partial responses are not cached: the next call recomputes.
        assert service.metrics()["cache_hits"] == 0


def test_service_solve_many_preserves_order():
    with KPlexService(config=ServiceConfig(max_workers=3)) as service:
        service.catalog.register("jazz", "dataset:jazz")
        requests = [service.request("jazz", 2, q) for q in (8, 9, 10, 8, 9, 10)]
        responses = service.solve_many(requests)
        assert [r.q for r in responses] == [8, 9, 10, 8, 9, 10]
        assert responses[0].vertex_sets() == responses[3].vertex_sets()
        assert service.metrics()["completed"] == 6


def test_service_mutation_then_query_invalidation():
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with KPlexService() as service:
        service.catalog.register("g", graph)
        before = service.solve("g", k=1, q=3)
        assert sorted(before.vertex_sets()) == [(0, 1, 2), (3, 4, 5)]
        # Out-of-band mutation: bridge the two triangles, then invalidate.
        adjacency = [set(neigh) for neigh in graph._adjacency]
        adjacency[2].add(3)
        adjacency[3].add(2)
        graph._adjacency = [frozenset(neigh) for neigh in adjacency]
        graph._num_edges += 1
        service.invalidate("g")
        after = service.solve("g", k=1, q=3)
        # Fresh computation on the mutated structure, not the stale answer.
        assert after.vertex_sets() == before.vertex_sets()  # same cliques...
        assert after is not before
        expected = KPlexEngine().solve(
            EnumerationRequest(
                graph=Graph.from_edges(
                    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
                ),
                k=1,
                q=3,
            )
        )
        assert after.vertex_sets() == expected.vertex_sets()
        assert service.metrics()["cache_misses"] == 2


def test_service_admission_control_rejects_and_recovers():
    release = threading.Event()
    started = threading.Event()

    @register_solver("slow-test-solver", replace=True)
    class SlowSolver(Solver):
        description = "blocks until released (admission-control test)"
        requires_diameter_bound = False

        def start(self, request):
            def generate():
                started.set()
                release.wait(timeout=10.0)
                yield from ()

            return SolverRun(results=generate())

    try:
        config = ServiceConfig(max_workers=1, max_queue_depth=1)
        with KPlexService(config=config) as service:
            graph = diamond_graph()
            service.catalog.register("g", graph)
            # Distinct q values so the requests do not coalesce.
            first = service.submit("g", k=2, q=3, solver="slow-test-solver")
            started.wait(timeout=10.0)
            second = service.submit("g", k=2, q=4, solver="slow-test-solver")
            with pytest.raises(ServiceOverloadError):
                service.submit("g", k=2, q=5, solver="slow-test-solver")
            assert service.metrics()["rejected"] == 1
            release.set()
            assert first.result(timeout=10.0).count == 0
            assert second.result(timeout=10.0).count == 0
            # Capacity freed: admission accepts again.
            assert service.solve("g", k=2, q=3).count >= 1
    finally:
        unregister_solver("slow-test-solver")


def test_service_coalesces_identical_concurrent_misses():
    release = threading.Event()
    running = threading.Event()
    starts = []

    @register_solver("coalesce-test-solver", replace=True)
    class CoalesceSolver(Solver):
        description = "records how many searches actually ran"
        requires_diameter_bound = False

        def start(self, request):
            def generate():
                starts.append(time.monotonic())
                running.set()
                release.wait(timeout=10.0)
                yield from ()

            return SolverRun(results=generate())

    try:
        with KPlexService(config=ServiceConfig(max_workers=4)) as service:
            service.catalog.register("g", diamond_graph())
            leader = service.submit("g", k=2, q=3, solver="coalesce-test-solver")
            running.wait(timeout=10.0)
            followers = [
                service.submit("g", k=2, q=3, solver="coalesce-test-solver")
                for _ in range(3)
            ]
            time.sleep(0.1)  # let the followers reach the rendezvous
            release.set()
            responses = [leader.result(timeout=10.0)] + [
                follower.result(timeout=10.0) for follower in followers
            ]
            assert len(starts) == 1  # one search served all four requests
            assert all(response is responses[0] for response in responses)
            metrics = service.metrics()
            assert metrics["cache_misses"] == 1
            assert metrics["coalesced"] == 3
    finally:
        unregister_solver("coalesce-test-solver")


def test_service_closed_rejects_requests():
    service = KPlexService()
    service.catalog.register("g", diamond_graph())
    service.close()
    with pytest.raises(ServiceError):
        service.submit("g", k=2, q=3)


def test_service_byte_budget_eviction_under_load():
    config = ServiceConfig(result_cache_entries=None, result_cache_bytes=2048)
    with KPlexService(config=config) as service:
        service.catalog.register("jazz", "dataset:jazz")
        for q in (8, 9, 10, 11, 12):
            service.solve("jazz", k=2, q=q)
        stats = service.result_cache.stats()
        assert stats["current_bytes"] <= 2048
        assert stats["evictions"] + stats["rejected_oversized"] > 0


def test_service_caches_are_optional():
    config = ServiceConfig(result_cache_entries=0)
    with KPlexService(config=config) as service:
        assert service.result_cache is None
        service.catalog.register("g", diamond_graph())
        first = service.solve("g", k=2, q=3)
        second = service.solve("g", k=2, q=3)
        assert first is not second
        assert first.vertex_sets() == second.vertex_sets()
        assert service.metrics()["cache_misses"] == 2


def test_service_config_validation():
    with pytest.raises(ParameterError):
        ServiceConfig(max_workers=0)
    with pytest.raises(ParameterError):
        ServiceConfig(max_queue_depth=-1)
    with pytest.raises(ParameterError):
        ServiceConfig(default_timeout_seconds=-1.0)


# --------------------------------------------------------------------------- #
# Concurrency: N threads hammering shared catalog graphs
# --------------------------------------------------------------------------- #
def test_concurrent_clients_bit_identical_to_serial():
    cells = [
        ("jazz", 2, 8),
        ("jazz", 2, 9),
        ("wiki-vote", 2, 8),
        ("wiki-vote", 3, 12),
    ]
    engine = KPlexEngine()
    expected = {}
    for dataset, k, q in cells:
        serial_graph = load_dataset(dataset)
        response = engine.solve(EnumerationRequest(graph=serial_graph, k=k, q=q))
        # Compare by labels: catalog graphs are distinct objects with the
        # same construction, so labels are the stable identity.
        expected[(dataset, k, q)] = sorted(tuple(p.labels) for p in response.kplexes)

    with KPlexService(config=ServiceConfig(max_workers=4)) as service:
        service.catalog.register("jazz", "dataset:jazz")
        service.catalog.register("wiki-vote", "dataset:wiki-vote")
        mismatches = []
        errors = []

        def client(offset: int) -> None:
            try:
                for step in range(8):
                    dataset, k, q = cells[(offset + step) % len(cells)]
                    response = service.solve(dataset, k=k, q=q)
                    got = sorted(tuple(p.labels) for p in response.kplexes)
                    if got != expected[(dataset, k, q)]:
                        mismatches.append((dataset, k, q))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert not mismatches
        metrics = service.metrics()
        total = 6 * 8
        assert metrics["requests_total"] == total
        assert metrics["completed"] == total
        assert (
            metrics["cache_hits"] + metrics["cache_misses"] + metrics["coalesced"]
            == total
        )
        assert metrics["cache_misses"] >= len(cells)
        assert metrics["in_flight"] == 0
        assert metrics["errors"] == 0


def test_sizing_estimates_are_positive_and_monotone():
    small = diamond_graph()
    large = load_dataset("jazz")
    assert 0 < estimate_graph_bytes(small) < estimate_graph_bytes(large)
    engine = KPlexEngine()
    response_small = engine.solve(EnumerationRequest(graph=large, k=2, q=12))
    response_large = engine.solve(EnumerationRequest(graph=large, k=2, q=8))
    assert (
        0
        < estimate_response_bytes(response_small)
        < estimate_response_bytes(response_large)
    )


# --------------------------------------------------------------------------- #
# Cache accounting under overwrite/evict churn (regression coverage)
# --------------------------------------------------------------------------- #
def test_lru_put_overwrite_promotes_to_mru_and_keeps_bytes_exact():
    lru = ByteBudgetLRU(max_entries=3)
    lru.put("a", "A1", 100)
    lru.put("b", "B1", 10)
    lru.put("c", "C1", 10)
    # Overwrite "a": must replace the byte estimate, not accumulate it ...
    lru.put("a", "A2", 40)
    assert lru.current_bytes == 60
    # ... and must promote "a" to most-recently-used, so the next eviction
    # takes "b" (the oldest untouched entry), not "a".
    lru.put("d", "D1", 10)
    assert lru.get("a") == "A2"
    assert lru.get("b") is None
    assert lru.get("c") == "C1" and lru.get("d") == "D1"
    assert lru.current_bytes == 60


def test_lru_bytes_stay_exact_under_overwrite_evict_cycles():
    lru = ByteBudgetLRU(max_bytes=100)
    for cycle in range(50):
        key = f"k{cycle % 7}"
        lru.put(key, cycle, 10 + (cycle % 3) * 5)
        stats = lru.stats()
        # The tracked total must always equal the sum over live entries.
        live_total = sum(
            entry[1] for entry in lru._entries.values()
        )
        assert stats["current_bytes"] == live_total
        assert stats["current_bytes"] <= 100
    lru.clear()
    assert lru.current_bytes == 0


def test_lru_overwrite_that_pushes_over_budget_evicts_lru_first():
    lru = ByteBudgetLRU(max_bytes=100)
    lru.put("a", "A", 40)
    lru.put("b", "B", 40)
    # Growing "a" to 80 bytes busts the budget; "b" (now LRU) must go and
    # the accounting must land exactly on the survivor's estimate.
    assert lru.put("a", "A-big", 80) is True
    assert lru.get("b") is None
    assert lru.get("a") == "A-big"
    assert lru.current_bytes == 80
