"""Integration tests for the high-level enumerator against oracle algorithms."""

import pytest

from repro.baselines.bron_kerbosch import bron_kerbosch_vertex_sets
from repro.baselines.brute_force import brute_force_vertex_sets
from repro.core import (
    EnumerationConfig,
    KPlexEnumerator,
    count_maximal_kplexes,
    enumerate_maximal_kplexes,
)
from repro.errors import ParameterError
from repro.graph import Graph, generators

from _helpers import random_graph_cases, vertex_sets


def test_invalid_parameters_rejected(triangle):
    with pytest.raises(ParameterError):
        KPlexEnumerator(triangle, k=0, q=3)
    with pytest.raises(ParameterError):
        KPlexEnumerator(triangle, k=2, q=2)  # q < 2k - 1


def test_triangle_clique(triangle):
    results = enumerate_maximal_kplexes(triangle, k=1, q=3)
    assert vertex_sets(results) == {frozenset({0, 1, 2})}


def test_diamond_two_plex(diamond):
    results = enumerate_maximal_kplexes(diamond, k=2, q=4)
    assert vertex_sets(results) == {frozenset({0, 1, 2, 3})}
    # As cliques (k = 1) the diamond splits into its two triangles.
    cliques = enumerate_maximal_kplexes(diamond, k=1, q=3)
    assert vertex_sets(cliques) == {frozenset({0, 1, 2}), frozenset({1, 2, 3})}


def test_empty_and_tiny_graphs():
    assert enumerate_maximal_kplexes(Graph.empty(0), k=2, q=3) == []
    assert enumerate_maximal_kplexes(Graph.empty(5), k=2, q=3) == []
    assert enumerate_maximal_kplexes(generators.path_graph(4), k=2, q=4) == []


def test_complete_graph_single_result():
    graph = Graph.complete(8)
    for k in (1, 2, 3):
        results = enumerate_maximal_kplexes(graph, k=k, q=2 * k - 1 if 2 * k - 1 > 0 else 1)
        assert vertex_sets(results) == {frozenset(range(8))}


def test_complete_multipartite_two_plexes():
    # In K_{2,2,2} every pair of parts forms a 4-cycle, which is a 2-plex.
    graph = generators.complete_multipartite([2, 2, 2])
    results = enumerate_maximal_kplexes(graph, k=2, q=4)
    for plex in results:
        assert plex.size >= 4
    assert vertex_sets(results)  # at least one maximal 2-plex of size >= 4


def test_results_translate_back_to_original_labels():
    graph = Graph.from_edges(
        [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "e")]
    )
    results = enumerate_maximal_kplexes(graph, k=2, q=4)
    labels = {tuple(sorted(map(str, plex.labels))) for plex in results}
    assert ("a", "b", "c", "d") in labels


def test_matches_brute_force_on_random_graphs():
    for index, graph in enumerate(random_graph_cases(12, max_vertices=12, seed=21)):
        for k in (1, 2, 3):
            q = max(2 * k - 1, 2)
            expected = brute_force_vertex_sets(graph, k, q)
            actual = vertex_sets(enumerate_maximal_kplexes(graph, k, q))
            assert actual == expected, f"graph #{index}, k={k}"


def test_matches_bron_kerbosch_on_structured_graphs(karate_like):
    for k, q in [(2, 5), (3, 6)]:
        expected = bron_kerbosch_vertex_sets(karate_like, k, q)
        actual = vertex_sets(enumerate_maximal_kplexes(karate_like, k, q))
        assert actual == expected


def test_count_matches_enumerate():
    graph = generators.relaxed_caveman(3, 6, 0.2, seed=12)
    assert count_maximal_kplexes(graph, 2, 5) == len(enumerate_maximal_kplexes(graph, 2, 5))


def test_iter_results_is_lazy_and_complete():
    graph = generators.relaxed_caveman(3, 6, 0.2, seed=13)
    enumerator = KPlexEnumerator(graph, 2, 5)
    streamed = vertex_sets(list(enumerator.iter_results()))
    assert streamed == vertex_sets(enumerate_maximal_kplexes(graph, 2, 5))


def test_core_graph_exposed_and_consistent():
    graph = generators.barabasi_albert(40, 2, seed=14)
    enumerator = KPlexEnumerator(graph, 2, 5)
    core = enumerator.core_graph
    assert core.num_vertices <= graph.num_vertices
    # Every core vertex has degree >= q - k inside the core (Theorem 3.5).
    if core.num_vertices:
        assert min(core.degrees()) >= 5 - 2
    assert len(enumerator.core_vertex_map) == core.num_vertices


def test_results_sorted_when_requested():
    graph = generators.relaxed_caveman(3, 6, 0.25, seed=15)
    result = KPlexEnumerator(graph, 2, 5, EnumerationConfig.ours()).run()
    sizes = [plex.size for plex in result.kplexes]
    assert sizes == sorted(sizes)
    assert result.count == len(result.kplexes)
    assert len(result.vertex_sets()) == result.count


def test_statistics_elapsed_time_recorded():
    graph = generators.relaxed_caveman(3, 6, 0.25, seed=16)
    result = KPlexEnumerator(graph, 2, 5).run()
    assert result.statistics.elapsed_seconds > 0


def test_ours_solve_reaches_the_traced_mining_names(monkeypatch):
    """kpbench's traced run times the mining layers by patching
    ``repro.core.enumerator.iter_subtasks`` and ``BranchSearcher.run_subtask``
    by name; an ``ours`` solve must go through both, or those layers read 0."""
    from repro.api import EnumerationRequest, KPlexEngine
    from repro.core import enumerator as enumerator_module
    from repro.core.branch import BranchSearcher

    counts = {"subtasks": 0, "run_subtask": 0}
    original_iter_subtasks = enumerator_module.iter_subtasks
    original_run_subtask = BranchSearcher.run_subtask

    def counting_iter_subtasks(*args, **kwargs):
        for task in original_iter_subtasks(*args, **kwargs):
            counts["subtasks"] += 1
            yield task

    def counting_run_subtask(self, task):
        counts["run_subtask"] += 1
        return original_run_subtask(self, task)

    monkeypatch.setattr(enumerator_module, "iter_subtasks", counting_iter_subtasks)
    monkeypatch.setattr(BranchSearcher, "run_subtask", counting_run_subtask)
    graph = generators.relaxed_caveman(3, 7, 0.25, seed=3)
    response = KPlexEngine().solve(EnumerationRequest(graph=graph, k=2, q=5, solver="ours"))
    stats = response.statistics
    assert response.kplexes
    assert counts["subtasks"] == stats.subtasks - stats.subtasks_pruned_by_seed_bound > 0
    assert counts["run_subtask"] == counts["subtasks"]
