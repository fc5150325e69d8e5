"""Unit tests for the baseline algorithms."""

import pytest

from repro.baselines import (
    MAX_BRUTE_FORCE_VERTICES,
    BronKerboschKPlex,
    FPLike,
    ListPlexLike,
    bron_kerbosch_maximal_kplexes,
    brute_force_maximal_kplexes,
    brute_force_vertex_sets,
    fp_config,
    fp_maximal_kplexes,
    listplex_config,
    listplex_maximal_kplexes,
)
from repro.core import is_kplex, is_maximal_kplex
from repro.errors import ParameterError
from repro.graph import Graph, generators

from _helpers import vertex_sets


# --------------------------------------------------------------------------- #
# Brute force oracle
# --------------------------------------------------------------------------- #
def test_brute_force_diamond(diamond):
    results = brute_force_maximal_kplexes(diamond, 2, 3)
    assert vertex_sets(results) == {frozenset({0, 1, 2, 3})}


def test_brute_force_respects_q(diamond):
    assert brute_force_maximal_kplexes(diamond, 1, 4) == []
    assert vertex_sets(brute_force_maximal_kplexes(diamond, 1, 3)) == {
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
    }


def test_brute_force_size_guard():
    graph = Graph.empty(MAX_BRUTE_FORCE_VERTICES + 1)
    with pytest.raises(ParameterError):
        brute_force_maximal_kplexes(graph, 1, 1)
    with pytest.raises(ParameterError):
        brute_force_maximal_kplexes(Graph.empty(3), 0, 1)


def test_brute_force_outputs_are_maximal():
    graph = generators.erdos_renyi(9, 0.5, seed=71)
    for members in brute_force_vertex_sets(graph, 2, 3):
        assert is_kplex(graph, members, 2)
        assert is_maximal_kplex(graph, members, 2)


# --------------------------------------------------------------------------- #
# Bron-Kerbosch (Algorithm 1)
# --------------------------------------------------------------------------- #
def test_bron_kerbosch_matches_brute_force():
    graph = generators.erdos_renyi(11, 0.45, seed=72)
    for k in (1, 2, 3):
        q = max(2 * k - 1, 2)
        assert vertex_sets(bron_kerbosch_maximal_kplexes(graph, k, q)) == brute_force_vertex_sets(
            graph, k, q
        )


def test_bron_kerbosch_accepts_small_q():
    # Unlike the decomposed algorithm, q may be below 2k - 1 here.
    graph = generators.path_graph(4)
    results = bron_kerbosch_maximal_kplexes(graph, 2, 2)
    assert all(is_maximal_kplex(graph, plex.vertices, 2) for plex in results)
    assert results  # the path has maximal 2-plexes of size >= 2


def test_bron_kerbosch_without_core_pruning_matches():
    graph = generators.erdos_renyi(12, 0.4, seed=73)
    with_core = BronKerboschKPlex(graph, 2, 4, use_core_pruning=True).run()
    without_core = BronKerboschKPlex(graph, 2, 4, use_core_pruning=False).run()
    assert vertex_sets(with_core) == vertex_sets(without_core)


def test_bron_kerbosch_statistics_populated():
    solver = BronKerboschKPlex(generators.relaxed_caveman(2, 5, 0.2, seed=1), 2, 4)
    results = solver.run()
    assert solver.statistics.outputs == len(results)
    assert solver.statistics.branch_calls > 0


# --------------------------------------------------------------------------- #
# ListPlex-like and FP-like baselines
# --------------------------------------------------------------------------- #
def test_listplex_config_disables_bounds():
    config = listplex_config()
    assert not config.use_upper_bound
    assert not config.use_pair_pruning
    assert not config.use_seed_upper_bound
    assert config.branching == "faplexen"


def test_fp_config_uses_sorting_bound():
    config = fp_config()
    assert config.use_upper_bound
    assert config.upper_bound_method == "fp"
    assert not config.use_pair_pruning


def test_listplex_and_fp_match_brute_force():
    graph = generators.erdos_renyi(12, 0.5, seed=74)
    k, q = 2, 3
    expected = brute_force_vertex_sets(graph, k, q)
    assert vertex_sets(listplex_maximal_kplexes(graph, k, q)) == expected
    assert vertex_sets(fp_maximal_kplexes(graph, k, q)) == expected


def test_fp_like_single_task_per_seed():
    graph = generators.relaxed_caveman(3, 6, 0.25, seed=75)
    runner = FPLike(graph, 2, 5)
    runner.run()
    # FP creates exactly one sub-task per surviving seed (no S decomposition).
    assert runner.statistics.subtasks == runner.statistics.seeds


def test_listplex_like_exposes_statistics():
    runner = ListPlexLike(generators.relaxed_caveman(3, 6, 0.25, seed=76), 2, 5)
    result = runner.run()
    assert runner.statistics.branch_calls > 0
    assert result.count == len(result.kplexes)
