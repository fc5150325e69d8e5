"""Equivalence tests for the prepared-graph cache.

The prepared index (:mod:`repro.graph.prepared`) is a pure performance
substrate: every result it produces must be bit-identical to the uncached
reference implementations.  These tests assert that on randomized graphs,
and that enumeration output is unchanged by prepared-graph cache hits.
"""

import pickle
import random

import pytest

from repro.api import EnumerationRequest, KPlexEngine
from repro.core import EnumerationConfig, enumerate_maximal_kplexes
from repro.graph import (
    Graph,
    core_decomposition,
    invalidate,
    prepare,
    set_backed_core_decomposition,
    shrink_to_core,
)
from repro.graph.generators import erdos_renyi, relaxed_caveman, star_graph
from repro.graph.prepared import ROW_BYTES_PER_EDGE
from repro.service import estimate_prepared_bytes

from _helpers import assert_matches_reference_core


def random_graphs():
    """A deterministic mix of random and degenerate graphs."""
    graphs = [
        Graph.empty(0),
        Graph.empty(5),
        Graph.complete(6),
        star_graph(7),
    ]
    rng = random.Random(20250731)
    for trial in range(12):
        n = rng.randint(1, 48)
        p = rng.random() * 0.35
        graphs.append(erdos_renyi(n, p, seed=trial))
    return graphs


# --------------------------------------------------------------------------- #
# Core decomposition and core shrinking
# --------------------------------------------------------------------------- #
def test_cached_core_decomposition_is_bit_identical_to_reference():
    for graph in random_graphs():
        reference = set_backed_core_decomposition(graph)
        cached = core_decomposition(graph)
        assert cached.order == reference.order
        assert cached.core_numbers == reference.core_numbers
        assert cached.degeneracy == reference.degeneracy
        # The underlying cache entry is computed once and reused ...
        assert prepare(graph).decomposition is prepare(graph).decomposition
        # ... while the public function hands out defensive copies, so a
        # caller mutating its result cannot corrupt later requests.
        copy = core_decomposition(graph)
        assert copy is not cached
        copy.order.reverse()
        assert core_decomposition(graph).order == reference.order


def test_shrink_to_core_vertex_map_is_mutation_safe():
    graph = erdos_renyi(30, 0.3, seed=8)
    _, vertex_map = shrink_to_core(graph, 2)
    expected = list(vertex_map)
    vertex_map.reverse()
    _, again = shrink_to_core(graph, 2)
    assert list(again) == expected


def test_shrink_to_core_matches_reference_subgraph():
    for graph in random_graphs():
        for level in range(0, 6):
            cached, cached_map = shrink_to_core(graph, level)
            assert_matches_reference_core(graph, level, cached, cached_map)


def test_shrink_to_core_identity_when_nothing_peeled():
    graph = Graph.complete(5)
    core, vertex_map = shrink_to_core(graph, 2)
    assert core is graph
    assert vertex_map == [0, 1, 2, 3, 4]


def test_prepared_core_chains_cache_entries():
    graph = relaxed_caveman(4, 5, 0.2, seed=9)
    prepared = prepare(graph)
    prepared_core, _ = prepared.prepared_core(3)
    assert prepare(prepared_core.graph) is prepared_core


# --------------------------------------------------------------------------- #
# The prepared-graph cache itself
# --------------------------------------------------------------------------- #
def test_prepare_returns_same_index_until_invalidated():
    graph = erdos_renyi(30, 0.2, seed=1)
    prepared = prepare(graph)
    assert prepare(graph) is prepared
    invalidate(graph)
    assert prepare(graph) is not prepared


def test_prepared_graph_cache_info_tracks_materialisation():
    graph = erdos_renyi(20, 0.3, seed=2)
    invalidate(graph)
    prepared = prepare(graph)
    assert prepared.cache_info() == {"decomposition": False, "rows": False, "core_levels": []}
    prepared.decomposition
    prepared.core(2)
    assert prepared.cache_info() == {"decomposition": True, "rows": False, "core_levels": [2]}
    prepared.rows
    assert prepared.cache_info()["rows"]


def test_neighbour_rows_are_counted_and_stay_behind_on_transfer():
    """A solve builds the rows on the mined core; they are estimated, never shipped."""
    graph = erdos_renyi(40, 0.3, seed=5)
    invalidate(graph)
    engine = KPlexEngine()
    engine.prepare(graph, k=2, q=5)
    core = prepare(graph).prepared_core(3)[0]
    assert not core.cache_info()["rows"]
    before = estimate_prepared_bytes(prepare(graph))
    engine.solve(EnumerationRequest(graph=graph, k=2, q=5))
    assert core.cache_info()["rows"]
    assert estimate_prepared_bytes(prepare(graph)) >= before + core.graph.num_vertices ** 2 // 8
    position = core.position
    for copy in (pickle.loads(pickle.dumps(core)), core.for_worker_transfer()):
        assert not copy.cache_info()["rows"]
        assert copy.position == position
    assert "rows" not in core.__getstate__()
    assert [row.bit_count() for row in core.rows] == core.graph.degrees()


def test_sparse_cores_get_no_neighbour_rows():
    """Rows are withheld past ``ROW_BYTES_PER_EDGE`` bytes per edge; the solve is unchanged."""
    graph = relaxed_caveman(100, 5, 0.1, seed=7)
    invalidate(graph)
    core = prepare(graph).prepared_core(2)[0]
    n, m = core.graph.num_vertices, core.graph.num_edges
    assert n * n > 8 * ROW_BYTES_PER_EDGE * m
    core.position
    before = estimate_prepared_bytes(prepare(graph))
    result = KPlexEngine().solve(EnumerationRequest(graph=graph, k=2, q=4))
    assert core.rows is None and not core.cache_info()["rows"]
    assert estimate_prepared_bytes(prepare(graph)) == before
    expected = {p.as_set() for p in enumerate_maximal_kplexes(graph, 2, 4)}
    assert {p.as_set() for p in result.kplexes} == expected


def test_thread_parallel_solves_build_rows_once_on_the_shared_core():
    from repro.parallel.executor import ParallelConfig, parallel_enumerate_maximal_kplexes

    graph = erdos_renyi(40, 0.3, seed=5)
    invalidate(graph)
    config = ParallelConfig(num_workers=2, use_processes=False)
    parallel_enumerate_maximal_kplexes(graph, 2, 5, config)
    core = prepare(graph).prepared_core(3)[0]
    rows = core.rows
    assert rows is not None
    parallel_enumerate_maximal_kplexes(graph, 2, 5, config)
    assert core.rows is rows


def test_prepared_graph_pickle_roundtrip_keeps_artifacts():
    graph = erdos_renyi(40, 0.15, seed=3)
    prepared = prepare(graph)
    prepared.decomposition
    prepared.position
    prepared.core(2)
    restored = pickle.loads(pickle.dumps(prepared))
    assert restored.graph == graph
    assert restored.graph._prepared is restored
    assert restored.cache_info() == prepared.cache_info()
    assert restored.decomposition.order == prepared.decomposition.order
    assert restored.core(2) == prepared.core(2)


def test_graph_pickle_does_not_ship_prepared_index():
    graph = erdos_renyi(25, 0.2, seed=4)
    prepare(graph).decomposition
    restored = pickle.loads(pickle.dumps(graph))
    assert restored == graph
    assert restored._prepared is None
    assert restored.degrees() == graph.degrees()


# --------------------------------------------------------------------------- #
# Seed contexts: warm prepared cache vs cold recomputation
# --------------------------------------------------------------------------- #
def test_seed_contexts_identical_on_warm_and_cold_cache():
    from repro.core.seeds import iter_seed_contexts

    config = EnumerationConfig.ours()
    k, q = 2, 4
    for seed_graph in (3, 4, 5):
        graph = erdos_renyi(30, 0.25, seed=seed_graph)
        core, _ = shrink_to_core(graph, q - k)
        warm = list(iter_seed_contexts(core, k, q, config, prepared=prepare(core)))
        invalidate(core)
        cold = list(iter_seed_contexts(core, k, q, config))
        assert [seed for seed, _ in warm] == [seed for seed, _ in cold]
        for (_, a), (_, b) in zip(warm, cold):
            if a is None or b is None:
                assert a is None and b is None
                continue
            assert a.subgraph.vertices == b.subgraph.vertices
            assert a.subgraph.adjacency == b.subgraph.adjacency
            assert a.candidate_mask == b.candidate_mask
            assert a.two_hop_mask == b.two_hop_mask
            assert a.external_vertices == b.external_vertices
            assert a.external_adjacency == b.external_adjacency
            assert a.degrees == b.degrees
            assert a.pair_ok == b.pair_ok


# --------------------------------------------------------------------------- #
# End-to-end: enumeration output is unchanged by cache hits
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("solver", ["ours", "basic", "fp", "listplex"])
def test_enumeration_identical_with_and_without_cache_hit(solver):
    graph = relaxed_caveman(5, 5, 0.3, seed=11)
    engine = KPlexEngine()
    invalidate(graph)
    cold = engine.solve(EnumerationRequest(graph=graph, k=2, q=4, solver=solver))
    warm = engine.solve(EnumerationRequest(graph=graph, k=2, q=4, solver=solver))
    assert warm.vertex_sets() == cold.vertex_sets()
    # A value-equal but distinct graph (its own cold cache) agrees too.
    clone = Graph([set(graph.neighbors(v)) for v in graph.vertices()], graph.labels())
    fresh = engine.solve(EnumerationRequest(graph=clone, k=2, q=4, solver=solver))
    assert fresh.vertex_sets() == cold.vertex_sets()


def test_statistics_time_split_is_recorded():
    graph = relaxed_caveman(4, 5, 0.3, seed=13)
    invalidate(graph)
    response = KPlexEngine().solve(EnumerationRequest(graph=graph, k=2, q=4))
    stats = response.statistics
    assert stats.preprocess_seconds > 0
    assert stats.search_seconds > 0
    assert stats.elapsed_seconds == pytest.approx(
        stats.preprocess_seconds + stats.search_seconds
    )
    payload = stats.as_dict()
    assert "preprocess_seconds" in payload and "search_seconds" in payload


def test_engine_prepare_warms_the_requested_core():
    graph = relaxed_caveman(4, 5, 0.3, seed=19)
    invalidate(graph)
    prepared = KPlexEngine.prepare(graph, k=2, q=4)
    assert prepared.cache_info()["core_levels"] == [2]
    core, _ = prepared.core(2)
    assert prepare(core).cache_info()["decomposition"]


def test_concurrent_thread_mode_parallel_runs_are_isolated():
    import threading

    from repro.core import enumerate_maximal_kplexes
    from repro.parallel.executor import (
        ParallelConfig,
        parallel_enumerate_maximal_kplexes,
    )

    graph_a = relaxed_caveman(5, 5, 0.3, seed=21)
    graph_b = erdos_renyi(40, 0.3, seed=22)
    expect_a = {p.as_set() for p in enumerate_maximal_kplexes(graph_a, 2, 4)}
    expect_b = {p.as_set() for p in enumerate_maximal_kplexes(graph_b, 2, 5)}
    config = ParallelConfig(num_workers=2, use_processes=False)
    out = {}

    def run(tag, graph, k, q):
        result = parallel_enumerate_maximal_kplexes(graph, k, q, config)
        out[tag] = {p.as_set() for p in result.kplexes}

    threads = [
        threading.Thread(target=run, args=("a", graph_a, 2, 4)),
        threading.Thread(target=run, args=("b", graph_b, 2, 5)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert out["a"] == expect_a
    assert out["b"] == expect_b


def test_solve_batch_shares_one_prepared_index():
    graph = relaxed_caveman(4, 5, 0.3, seed=17)
    invalidate(graph)
    engine = KPlexEngine()
    requests = [EnumerationRequest(graph=graph, k=2, q=4) for _ in range(4)]
    responses = engine.solve_batch(requests, max_workers=2)
    assert len({tuple(r.vertex_sets()) for r in responses}) == 1
    # One index served every request.
    assert prepare(graph).cache_info()["decomposition"]
