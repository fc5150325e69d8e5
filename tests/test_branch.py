"""Unit tests for the branch-and-bound search engine (Algorithm 3)."""

from collections import deque

import pytest

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


def _mine_graph(graph, k, q, config):
    """Run the full decomposition + branch search, returning result vertex sets."""
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
# candidates_pruned_by_pairs, seeds_pruned_dominated).  Any change to
# refinement, pivot choice or pruning order moves at least one of them.
PINNED_GRAPHS = {
    "er24": (lambda: generators.erdos_renyi(24, 0.45, seed=1), 2, 5),
    "er26": (lambda: generators.erdos_renyi(26, 0.35, seed=7), 3, 6),
    "caveman": (lambda: generators.relaxed_caveman(4, 9, 0.4, seed=2), 2, 5),
}
PINNED_TREES = {
    "er24": {
        "ours": (792, 79, 291, 22, 243, 0),
        "ours_p": (819, 85, 291, 49, 232, 0),
        "basic": (871, 81, 291, 57, 0, 0),
        "basic_with_r1": (871, 81, 291, 57, 0, 0),
        "basic_with_r2": (808, 80, 291, 22, 243, 0),
        "without_upper_bound": (842, 81, 291, 0, 310, 0),
        "with_fp_upper_bound": (792, 79, 291, 22, 243, 0),
    },
    "er26": {
        "ours": (2185, 70, 615, 252, 524, 0),
        "ours_p": (2247, 79, 615, 293, 510, 0),
        "basic": (4416, 77, 615, 852, 0, 0),
        "basic_with_r1": (3150, 73, 615, 654, 0, 0),
        "basic_with_r2": (2493, 70, 615, 290, 550, 0),
        "without_upper_bound": (3169, 181, 615, 0, 1149, 0),
        "with_fp_upper_bound": (2185, 70, 615, 252, 524, 0),
    },
    "caveman": {
        "ours": (129, 9, 58, 19, 35, 1),
        "ours_p": (129, 9, 58, 19, 35, 1),
        "basic": (147, 9, 58, 26, 0, 1),
        "basic_with_r1": (147, 9, 58, 26, 0, 1),
        "basic_with_r2": (134, 9, 58, 19, 35, 1),
        "without_upper_bound": (172, 10, 58, 0, 74, 1),
        "with_fp_upper_bound": (129, 9, 58, 19, 35, 1),
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
        )
        assert counters == expected, variant


# The fp baseline's (branch_calls, maximality_rejections, outputs) on the same
# graphs.  Its seeds carry every earlier vertex within two hops as an external
# vertex, so these move whenever maximality against externals changes.
PINNED_FP_TREES = {
    "er24": (885, 50, 291),
    "er26": (5275, 78, 615),
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
