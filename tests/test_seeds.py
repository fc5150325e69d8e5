"""Unit tests for the search-space partitioning (Algorithm 2)."""

import itertools

from repro.core.config import EnumerationConfig
from repro.core.kplex import is_kplex
from repro.core.seeds import build_seed_context, iter_seed_contexts, iter_subtasks
from repro.core.stats import SearchStatistics
from repro.graph import generators
from repro.graph.bitset import bits_to_list, contains
from repro.graph.core_decomposition import core_decomposition
from repro.graph.prepared import prepare


def _contexts_for(graph, k, q, config=None):
    config = config or EnumerationConfig.ours()
    stats = SearchStatistics()
    contexts = [
        (seed, context)
        for seed, context in iter_seed_contexts(graph, k, q, config, stats)
    ]
    return contexts, stats


def test_seed_contexts_cover_all_seeds_in_order():
    graph = generators.relaxed_caveman(3, 6, 0.2, seed=1)
    contexts, _ = _contexts_for(graph, 2, 4)
    order = core_decomposition(graph).order
    assert [seed for seed, _ in contexts] == order


def test_candidates_are_later_neighbors_of_seed():
    graph = generators.erdos_renyi(20, 0.3, seed=2)
    config = EnumerationConfig.ours().with_changes(use_seed_pruning=False)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    for seed, context in iter_seed_contexts(graph, 2, 3, config, SearchStatistics()):
        if context is None:
            continue
        assert context.subgraph.parent_of(context.seed_local) == seed
        candidates = context.subgraph.parents_of_mask(context.candidate_mask)
        for vertex in candidates:
            assert graph.has_edge(seed, vertex)
            assert position[vertex] > position[seed]
        two_hop = context.subgraph.parents_of_mask(context.two_hop_mask)
        for vertex in two_hop:
            assert not graph.has_edge(seed, vertex)
            assert position[vertex] > position[seed]


def _earlier_within_two_hops(graph, position, seed):
    reachable = graph.neighborhood_within_two_hops(seed)
    return {vertex for vertex in reachable if position[vertex] < position[seed]}


def test_external_vertices_are_earlier_within_two_hops():
    graph = generators.erdos_renyi(20, 0.3, seed=3)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    k, q = 2, 3
    threshold = q + 1 - k
    dropped = 0
    for seed, context in iter_seed_contexts(graph, k, q, EnumerationConfig.ours(), SearchStatistics()):
        if context is None:
            continue
        members = set(context.subgraph.vertices)
        earlier = _earlier_within_two_hops(graph, position, seed)
        # Exactly the earlier two-hop vertices with >= q + 1 - k neighbours
        # in the seed subgraph are kept.
        expected = {
            vertex for vertex in earlier if len(graph.neighbors(vertex) & members) >= threshold
        }
        assert context.external_vertices == sorted(expected)
        dropped += len(earlier) - len(expected)
        for index, vertex in enumerate(context.external_vertices):
            assert context.external_adjacency[index] == context.subgraph.mask_of_parents(
                graph.neighbors(vertex) & members
            )
    assert dropped > 0


def test_dropped_externals_extend_no_kplex_of_the_seed_subgraph():
    """Soundness of the ``q + 1 - k`` cut on the external set ``V'_i``.

    Every set the search can test for maximality is a k-plex of the seed
    subgraph that holds the seed and has at least ``q`` vertices; this
    includes every brute-force result of the seed's task group.  No dropped
    external vertex may extend any of them to a larger k-plex.
    """
    dropped_total = 0
    for graph_seed in range(8):
        graph = generators.erdos_renyi(11, 0.45, seed=60 + graph_seed)
        position = prepare(graph).position
        for k, q in ((1, 3), (2, 4), (2, 5), (3, 5), (3, 6)):
            contexts = iter_seed_contexts(graph, k, q, EnumerationConfig.ours(), SearchStatistics())
            for seed, context in contexts:
                if context is None:
                    continue
                dropped = sorted(
                    _earlier_within_two_hops(graph, position, seed)
                    - set(context.external_vertices)
                )
                dropped_total += len(dropped)
                if not dropped:
                    continue
                others = context.subgraph.vertices[1:]
                for size in range(q - 1, len(others) + 1):
                    for rest in itertools.combinations(others, size):
                        members = (seed,) + rest
                        if not is_kplex(graph, members, k):
                            continue
                        for vertex in dropped:
                            assert not is_kplex(graph, members + (vertex,), k), (
                                seed, members, vertex, k, q
                            )
    assert dropped_total > 0


def test_small_seed_neighbourhoods_are_skipped():
    graph = generators.star_graph(5)
    contexts, stats = _contexts_for(graph, 2, 4)
    assert all(context is None for _, context in contexts)
    assert stats.seeds_pruned_empty == graph.num_vertices


def test_subtask_counts_respect_k_limit():
    graph = generators.erdos_renyi(16, 0.4, seed=4)
    config = EnumerationConfig.ours().with_changes(
        use_pair_pruning=False, use_seed_upper_bound=False
    )
    for k in (1, 2, 3):
        for seed, context in iter_seed_contexts(graph, k, max(2 * k - 1, 3), config, SearchStatistics()):
            if context is None:
                continue
            tasks = list(iter_subtasks(context, k, max(2 * k - 1, 3), config, SearchStatistics()))
            seed_bit = 1 << context.seed_local
            for task in tasks:
                assert task.p_mask & seed_bit
                s_mask = task.p_mask & ~seed_bit
                assert s_mask.bit_count() <= k - 1
                # S is drawn from the seed's non-neighbours only.
                assert s_mask & ~context.two_hop_mask == 0
                # Candidates are always seed neighbours.
                assert task.c_mask & ~context.candidate_mask == 0
            # Without pair pruning / R1, the number of sub-tasks equals the
            # number of subsets of the two-hop set with size < k.
            two_hop_size = context.two_hop_mask.bit_count()
            expected = sum(
                _choose(two_hop_size, size) for size in range(0, k)
            )
            assert len(tasks) == expected


def _choose(n, r):
    from math import comb

    return comb(n, r)


def test_r1_prunes_subtasks_and_counts_them():
    graph = generators.relaxed_caveman(4, 7, 0.3, seed=6)
    k, q = 3, 7
    config_with = EnumerationConfig.ours().with_changes(use_pair_pruning=False)
    config_without = config_with.with_changes(use_seed_upper_bound=False)
    stats_with = SearchStatistics()
    stats_without = SearchStatistics()
    with_tasks = 0
    without_tasks = 0
    for _seed, context in iter_seed_contexts(graph, k, q, config_with, stats_with):
        if context is not None:
            with_tasks += sum(1 for _ in iter_subtasks(context, k, q, config_with, stats_with))
    for _seed, context in iter_seed_contexts(graph, k, q, config_without, stats_without):
        if context is not None:
            without_tasks += sum(
                1 for _ in iter_subtasks(context, k, q, config_without, stats_without)
            )
    assert with_tasks <= without_tasks
    if with_tasks < without_tasks:
        assert stats_with.subtasks_pruned_by_seed_bound > 0


def test_pair_pruning_shrinks_subtask_candidates():
    graph = generators.relaxed_caveman(4, 7, 0.3, seed=8)
    k, q = 2, 6
    base = EnumerationConfig.ours().with_changes(use_seed_upper_bound=False)
    no_pairs = base.with_changes(use_pair_pruning=False)
    total_with = 0
    total_without = 0
    for _seed, context in iter_seed_contexts(graph, k, q, base, SearchStatistics()):
        if context is not None:
            total_with += sum(
                task.c_mask.bit_count()
                for task in iter_subtasks(context, k, q, base, SearchStatistics())
            )
    for _seed, context in iter_seed_contexts(graph, k, q, no_pairs, SearchStatistics()):
        if context is not None:
            total_without += sum(
                task.c_mask.bit_count()
                for task in iter_subtasks(context, k, q, no_pairs, SearchStatistics())
            )
    assert total_with <= total_without


def test_build_seed_context_returns_none_when_pruned_below_q():
    graph = generators.path_graph(8)
    decomposition = core_decomposition(graph)
    position = decomposition.position()
    context = build_seed_context(
        graph, position, decomposition.order[0], 2, 6, EnumerationConfig.ours(), SearchStatistics()
    )
    assert context is None


def test_degrees_match_subgraph():
    graph = generators.erdos_renyi(18, 0.35, seed=9)
    for _seed, context in iter_seed_contexts(graph, 2, 4, EnumerationConfig.ours(), SearchStatistics()):
        if context is None:
            continue
        for local in range(context.subgraph.size):
            assert context.degrees[local] == context.subgraph.degree(local)
        if context.pair_ok is not None:
            assert len(context.pair_ok) == context.subgraph.size
