"""Unit tests for the branch-and-bound search engine (Algorithm 3)."""

import functools
import itertools
from collections import deque
from unittest import mock

import pytest

from repro.baselines.brute_force import brute_force_vertex_sets
from repro.baselines.fp import FPLike
from repro.core.branch import BranchSearcher, BranchState
from repro.core.config import EnumerationConfig
from repro.core.enumerator import KPlexEnumerator, mine_seed
from repro.core.kplex import is_kplex, is_maximal_kplex
from repro.core.query import enumerate_kplexes_containing
from repro.core.seeds import SubTask, build_seed_context, iter_seed_contexts, iter_subtasks
from repro.core.stats import SearchStatistics
from repro.graph import generators
from repro.graph.prepared import prepare
from repro.parallel import ParallelConfig, parallel_enumerate_maximal_kplexes

from _helpers import vertex_sets


def _mine_graph(graph, k, q, config, timeout=None):
    """Run the full decomposition + branch search, returning result vertex sets.

    With a ``timeout`` (``τ_time``), ``mine_seed`` spills and resumes branch
    states.
    """
    stats = SearchStatistics()
    results = set()
    for _seed, context in iter_seed_contexts(graph, k, q, config, stats):
        if context is None:
            continue
        mine_seed(
            context,
            iter_subtasks(context, k, q, config, stats),
            k,
            q,
            config,
            stats,
            on_result=lambda mask, ctx=context: results.add(
                frozenset(ctx.subgraph.parents_of_mask(mask))
            ),
            timeout=timeout,
        )
    return results, stats


def test_results_are_maximal_kplexes_of_required_size():
    graph = generators.relaxed_caveman(3, 7, 0.25, seed=3)
    k, q = 2, 5
    results, stats = _mine_graph(graph, k, q, EnumerationConfig.ours())
    assert results
    assert stats.outputs == len(results)
    for members in results:
        assert len(members) >= q
        assert is_kplex(graph, members, k)
        assert is_maximal_kplex(graph, members, k)


def test_no_duplicate_outputs():
    graph = generators.erdos_renyi(18, 0.45, seed=10)
    k, q = 2, 4
    stats = SearchStatistics()
    config = EnumerationConfig.ours()
    outputs = []
    for _seed, context in iter_seed_contexts(graph, k, q, config, stats):
        if context is None:
            continue
        mine_seed(
            context,
            iter_subtasks(context, k, q, config, stats),
            k,
            q,
            config,
            stats,
            on_result=lambda mask, ctx=context: outputs.append(
                frozenset(ctx.subgraph.parents_of_mask(mask))
            ),
        )
    assert len(outputs) == len(set(outputs))


def test_upper_bound_pruning_counted_and_harmless():
    graph = generators.relaxed_caveman(3, 8, 0.3, seed=4)
    k, q = 2, 7
    with_ub, stats_with = _mine_graph(graph, k, q, EnumerationConfig.ours())
    without_ub, stats_without = _mine_graph(graph, k, q, EnumerationConfig.without_upper_bound())
    assert with_ub == without_ub
    assert stats_with.branch_calls <= stats_without.branch_calls


def test_faplexen_branching_matches_default():
    graph = generators.erdos_renyi(16, 0.5, seed=11)
    k, q = 3, 5
    default, _ = _mine_graph(graph, k, q, EnumerationConfig.ours())
    faplexen, _ = _mine_graph(graph, k, q, EnumerationConfig.ours_p())
    assert default == faplexen


def test_timeout_spills_pending_states_and_preserves_results():
    # A dense random graph guarantees deep recursion, so the zero timeout
    # must spill continuation states.
    graph = generators.erdos_renyi(18, 0.55, seed=6)
    k, q = 3, 5
    config = EnumerationConfig.ours()

    baseline, _ = _mine_graph(graph, k, q, config)

    stats = SearchStatistics()
    results = set()
    spilled = 0
    for _seed, context in iter_seed_contexts(graph, k, q, config, stats):
        if context is None:
            continue
        pending = deque()
        searcher = BranchSearcher(
            context,
            k,
            q,
            config,
            stats,
            on_result=lambda mask, ctx=context: results.add(
                frozenset(ctx.subgraph.parents_of_mask(mask))
            ),
            timeout=0.0,  # force a split at every recursion step
            task_sink=pending.append,
        )
        for task in iter_subtasks(context, k, q, config, stats):
            searcher.run_subtask(task)
            while pending:
                spilled += 1
                searcher.run_state(pending.popleft())
    assert results == baseline
    assert spilled > 0


def test_branch_state_is_frozen_record():
    state = BranchState(p_mask=1, c_mask=6, x_mask=0, minimum_degree=3)
    assert state.p_mask == 1
    assert state.minimum_degree == 3


def test_single_subtask_run_on_explicit_context():
    graph = generators.complete_graph(6)
    prepared = prepare(graph)
    config = EnumerationConfig.ours()
    stats = SearchStatistics()
    seed = prepared.decomposition.order[0]
    context = build_seed_context(prepared, seed, 1, 3, config, stats)
    assert context is not None
    results = []
    searcher = BranchSearcher(
        context, 1, 3, config, stats,
        on_result=lambda mask: results.append(context.subgraph.parents_of_mask(mask)),
    )
    searcher.run_subtask(
        SubTask(
            p_mask=1 << context.seed_local,
            c_mask=context.candidate_mask,
            x_mask=context.two_hop_mask,
        )
    )
    # The complete graph has exactly one maximal clique: all six vertices.
    assert len(results) == 1
    assert sorted(results[0]) == sorted(graph.vertices())


def test_statistics_track_pruning_counters():
    graph = generators.relaxed_caveman(4, 7, 0.3, seed=9)
    _, stats = _mine_graph(graph, 2, 6, EnumerationConfig.ours())
    assert stats.branch_calls > 0
    assert stats.seeds > 0
    assert stats.subtasks >= stats.seeds


def test_mine_seed_costs_include_spilled_states():
    # A zero timeout spills every child node; the spilled states are resumed
    # inside mine_seed and counted toward the sub-task that spilled them, so
    # each sub-task's cost matches the unsplit run's.
    graph = generators.erdos_renyi(18, 0.55, seed=6)
    k, q = 3, 5
    config = EnumerationConfig.ours()
    for _seed, context in iter_seed_contexts(graph, k, q, config):
        if context is None:
            continue
        runs = []
        for timeout in (None, 0.0):
            stats = SearchStatistics()
            found = []
            costs = mine_seed(
                context,
                iter_subtasks(context, k, q, config),
                k,
                q,
                config,
                stats,
                on_result=found.append,
                timeout=timeout,
            )
            assert sum(costs) == stats.branch_calls
            assert stats.per_seed_branch_calls == {context.seed_vertex: sum(costs)}
            runs.append((costs, sorted(found)))
        assert runs[0] == runs[1]


# Search-tree counters of every Algorithm 3 variant on fixed generator graphs:
# (branch_calls, maximality_rejections, outputs, branches_pruned_by_upper_bound,
# candidates_pruned_by_pairs, seeds_pruned_dominated, nodes_pruned_dominated).
# Any change to refinement, pivot choice or pruning order moves at least one
# of them.
PINNED_GRAPHS = {
    "er24": (lambda: generators.erdos_renyi(24, 0.45, seed=1), 2, 5),
    "er26": (lambda: generators.erdos_renyi(26, 0.35, seed=7), 3, 6),
    "caveman": (lambda: generators.relaxed_caveman(4, 9, 0.4, seed=2), 2, 5),
}
PINNED_TREES = {
    "er24": {
        "ours": (710, 53, 291, 12, 199, 0, 13),
        "ours_p": (739, 61, 291, 35, 192, 0, 12),
        "basic": (789, 55, 291, 47, 0, 0, 13),
        "basic_with_r1": (789, 55, 291, 47, 0, 0, 13),
        "basic_with_r2": (726, 54, 291, 12, 199, 0, 13),
        "without_upper_bound": (736, 54, 291, 0, 239, 0, 16),
        "with_fp_upper_bound": (710, 53, 291, 12, 199, 0, 13),
    },
    "er26": {
        "ours": (2140, 66, 615, 235, 516, 0, 29),
        "ours_p": (2202, 77, 615, 274, 502, 0, 30),
        "basic": (4319, 73, 615, 805, 0, 0, 51),
        "basic_with_r1": (3090, 69, 615, 624, 0, 0, 35),
        "basic_with_r2": (2427, 66, 615, 272, 537, 0, 38),
        "without_upper_bound": (2957, 141, 615, 0, 1037, 0, 61),
        "with_fp_upper_bound": (2140, 66, 615, 235, 516, 0, 29),
    },
    "caveman": {
        "ours": (121, 8, 58, 11, 35, 1, 7),
        "ours_p": (121, 8, 58, 11, 35, 1, 7),
        "basic": (139, 8, 58, 18, 0, 1, 7),
        "basic_with_r1": (139, 8, 58, 18, 0, 1, 7),
        "basic_with_r2": (126, 8, 58, 11, 35, 1, 7),
        "without_upper_bound": (144, 8, 58, 0, 59, 1, 7),
        "with_fp_upper_bound": (121, 8, 58, 11, 35, 1, 7),
    },
}


@pytest.mark.parametrize("graph_name", sorted(PINNED_GRAPHS))
def test_search_tree_is_pinned(graph_name):
    build, k, q = PINNED_GRAPHS[graph_name]
    graph = build()
    for variant, expected in PINNED_TREES[graph_name].items():
        stats = KPlexEnumerator(graph, k, q, getattr(EnumerationConfig, variant)()).run().statistics
        counters = (
            stats.branch_calls,
            stats.maximality_rejections,
            stats.outputs,
            stats.branches_pruned_by_upper_bound,
            stats.candidates_pruned_by_pairs,
            stats.seeds_pruned_dominated,
            stats.nodes_pruned_dominated,
        )
        assert counters == expected, variant


# The fp baseline's (branch_calls, maximality_rejections, outputs) on the same
# graphs.  Its seeds carry every earlier vertex within two hops as an external
# vertex, so these move whenever maximality against externals changes.
PINNED_FP_TREES = {
    "er24": (881, 47, 291),
    "er26": (5248, 73, 615),
    "caveman": (165, 6, 58),
}


@pytest.mark.parametrize("graph_name", sorted(PINNED_GRAPHS))
def test_fp_search_tree_is_pinned(graph_name):
    build, k, q = PINNED_GRAPHS[graph_name]
    stats = FPLike(build(), k, q).run().statistics
    counters = (stats.branch_calls, stats.maximality_rejections, stats.outputs)
    assert counters == PINNED_FP_TREES[graph_name]


def test_query_results_are_pinned():
    build, k, q = PINNED_GRAPHS["caveman"]
    found = enumerate_kplexes_containing(build(), [0], k, q)
    assert [plex.vertices for plex in found] == [
        (0, 1, 2, 4, 6), (0, 1, 2, 4, 8), (0, 1, 2, 5, 8), (0, 1, 2, 6, 27),
        (0, 1, 2, 8, 19), (0, 1, 2, 8, 27), (0, 1, 6, 27, 29), (0, 5, 6, 14, 29),
        (0, 9, 10, 13, 14), (0, 9, 10, 14, 29), (0, 9, 13, 14, 29),
        (0, 10, 11, 13, 14), (0, 10, 13, 14, 15), (0, 1, 2, 5, 6, 7),
        (0, 1, 5, 6, 28, 29),
    ]


# --------------------------------------------------------------------------- #
# Dominated nodes: a vertex of X extends every k-plex between P and P ∪ C
# --------------------------------------------------------------------------- #
def _dominated_node_corpus():
    """Graphs and parameters where the dominated-node rule fires often.

    G(n, p) at n = 12..15 and p = 0.4..0.7, and relaxed caveman graphs of 15
    vertices, at k = 1..3 and q from ``max(2k - 1, 2)`` to ``k + 4``.  Then
    twenty G(n, 0.6) at n = 14, 15 and k = 3: ``fp`` mines one sub-task per
    seed whose X starts empty, so it needs these to cut more than 50 nodes.
    """
    graphs = []
    for index, p in enumerate((0.4, 0.5, 0.6, 0.7)):
        graphs.append(generators.erdos_renyi(12 + index, p, seed=index))
        graphs.append(generators.relaxed_caveman(3, 5, 0.3, seed=index))
    corpus = [
        (graph, k, q)
        for graph in graphs
        for k in (1, 2, 3)
        for q in range(max(2 * k - 1, 2), k + 5)
    ]
    for n in (14, 15):
        for seed in range(10):
            graph = generators.erdos_renyi(n, 0.6, seed=seed)
            corpus.extend((graph, 3, q) for q in (5, 6, 7))
    return corpus


DOMINATED_NODE_CORPUS = _dominated_node_corpus()


@functools.lru_cache(maxsize=None)
def _node_corpus_answer(case_index):
    graph, k, q = DOMINATED_NODE_CORPUS[case_index]
    return brute_force_vertex_sets(graph, k, q)


def _solve_variant(variant):
    def solve(graph, k, q):
        result = KPlexEnumerator(graph, k, q, getattr(EnumerationConfig, variant)()).run()
        return vertex_sets(result.kplexes), result.statistics

    return solve


def _solve_fp(graph, k, q):
    result = FPLike(graph, k, q).run()
    return vertex_sets(result.kplexes), result.statistics


QUERY_STRIDE = 3


def _solve_query(graph, k, q):
    """Query mode for every third vertex: the ``(vertex, k-plex)`` pairs it returns."""
    stats = SearchStatistics()
    found = set()
    with mock.patch("repro.core.query.SearchStatistics", lambda: stats):
        for v in range(0, graph.num_vertices, QUERY_STRIDE):
            plexes = enumerate_kplexes_containing(graph, [v], k, q)
            found |= {(v, members) for members in vertex_sets(plexes)}
    return found, stats


def _solve_parallel_threads(graph, k, q):
    result = parallel_enumerate_maximal_kplexes(
        graph, k, q, ParallelConfig(num_workers=2, use_processes=False)
    )
    return vertex_sets(result.kplexes), result.statistics


def _solve_spilling(graph, k, q):
    """A zero ``τ_time``: every child node is spilled, then resumed."""
    return _mine_graph(graph, k, q, EnumerationConfig.ours(), timeout=0.0)


DOMINATED_NODE_SOLVERS = {
    **{variant: _solve_variant(variant) for variant in PINNED_TREES["er24"]},
    "fp": _solve_fp,
    "query": _solve_query,
    "parallel_threads": _solve_parallel_threads,
    "spill_resume": _solve_spilling,
}


@pytest.mark.parametrize("solver", sorted(DOMINATED_NODE_SOLVERS))
def test_pruning_dominated_nodes_matches_brute_force(solver):
    """Every variant, ``fp``, query mode, thread-mode ``parallel`` and a
    spilling search return the brute-force answer on a corpus where the
    dominated-node rule fires."""
    solve = DOMINATED_NODE_SOLVERS[solver]
    pruned = 0
    for index, (graph, k, q) in enumerate(DOMINATED_NODE_CORPUS):
        found, stats = solve(graph, k, q)
        expected = _node_corpus_answer(index)
        if solver == "query":
            expected = {
                (v, members) for members in expected for v in members if v % QUERY_STRIDE == 0
            }
        assert found == expected, (index, k, q)
        pruned += stats.nodes_pruned_dominated
    assert pruned > 50


def test_dominated_nodes_hold_no_maximal_kplex():
    """At each node the rule cuts, no set between ``P`` and ``P ∪ C`` is a
    maximal k-plex of ``q`` or more vertices."""
    branch = BranchSearcher._branch
    cut = []

    def recording_branch(searcher, p_mask, c_mask, x_mask, minimum_degree):
        stats = searcher.stats
        calls, pruned = stats.branch_calls, stats.nodes_pruned_dominated
        branch(searcher, p_mask, c_mask, x_mask, minimum_degree)
        # A cut node counts itself and recurses no further.
        if (stats.branch_calls, stats.nodes_pruned_dominated) == (calls + 1, pruned + 1):
            cut.append((searcher.context.subgraph, p_mask, c_mask))

    checked = 0
    with mock.patch.object(BranchSearcher, "_branch", recording_branch):
        for graph, k, q in DOMINATED_NODE_CORPUS:
            for config in (EnumerationConfig.ours(), EnumerationConfig.ours_p()):
                cut.clear()
                _, stats = _mine_graph(graph, k, q, config)
                assert len(cut) == stats.nodes_pruned_dominated
                for subgraph, p_mask, c_mask in cut:
                    p = tuple(subgraph.parents_of_mask(p_mask))
                    c = subgraph.parents_of_mask(c_mask)
                    for size in range(max(0, q - len(p)), len(c) + 1):
                        for extra in itertools.combinations(c, size):
                            assert not is_maximal_kplex(graph, p + extra, k), (k, q, p, extra)
                    checked += 1
    assert checked > 50
