"""Unit tests for the search-space partitioning (Algorithm 2)."""

import functools
import itertools

import pytest

from repro.baselines.brute_force import brute_force_vertex_sets
from repro.baselines.fp import FPLike, build_fp_seed_context
from repro.core.config import EnumerationConfig
from repro.core.enumerator import KPlexEnumerator
from repro.core.kplex import is_kplex
from repro.core.pruning import build_pair_matrix
from repro.core.seeds import build_seed_context, iter_seed_contexts, iter_subtasks
from repro.core.stats import SearchStatistics
from repro.graph import generators
from repro.graph.core_decomposition import core_decomposition
from repro.graph.dense import DenseSubgraph, external_adjacency_mask
from repro.graph.prepared import prepare
from repro.parallel import ParallelConfig, parallel_enumerate_maximal_kplexes

from _helpers import (
    corollary_52_fixpoint,
    dominates,
    random_graph_cases,
    seed_in_large_kplex,
    vertex_sets,
)


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


def test_fp_external_pool_is_every_earlier_vertex_within_two_hops():
    """The ``fp`` baseline applies no count cut to ``V'_i``."""
    compared = 0
    for graph in random_graph_cases(8, max_vertices=14, seed=23):
        prepared = prepare(graph)
        position = prepared.position
        for k in (1, 2, 3):
            for q in range(max(2 * k - 1, 2), 2 * k + 3):
                for seed in graph.vertices():
                    for use_seed_pruning in (True, False):
                        context = build_fp_seed_context(
                            prepared, seed, k, q, use_seed_pruning
                        )
                        if context is None:
                            continue
                        expected = sorted(_earlier_within_two_hops(graph, position, seed))
                        assert context.external_vertices == expected, (seed, k, q)
                        members = set(context.subgraph.vertices)
                        assert context.external_adjacency == [
                            context.subgraph.mask_of_parents(graph.neighbors(v) & members)
                            for v in expected
                        ]
                        compared += 1
    assert compared > 50


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
    prepared = prepare(graph)
    context = build_seed_context(
        prepared, prepared.decomposition.order[0], 2, 6, EnumerationConfig.ours(), SearchStatistics()
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


def _interleaved_context_fields(graph, position, seed, k, q):
    """The seed context built from the interleaved Corollary 5.2 fixpoint.

    Restates the construction of ``build_seed_context`` on top of
    ``corollary_52_fixpoint``: the two-hop sweep first, then the rule over
    all later vertices within two hops.  Returns ``None`` when the fixpoint
    keeps fewer than ``q`` vertices, else ``(fixpoint, fields)``, where
    ``fields`` is ``None`` when an earlier vertex dominates the fixpoint.
    """
    reach = graph.neighborhood_within_two_hops(seed) - {seed}
    later = {v for v in reach if position[v] > position[seed]}
    kept = corollary_52_fixpoint(graph, seed, later, k, q)
    if len(kept) < q:
        return None
    if any(
        dominates(graph, v, kept, k) for v in graph.vertices() if position[v] < position[seed]
    ):
        return kept, None
    neighbors = sorted(kept & graph.neighbors(seed))
    two_hop = sorted(kept - graph.neighbors(seed) - {seed})
    subgraph = DenseSubgraph(graph, [seed] + neighbors + two_hop)
    candidate_mask = subgraph.mask_of_parents(neighbors)
    two_hop_mask = subgraph.mask_of_parents(two_hop)
    externals = sorted(
        v
        for v in reach
        if position[v] < position[seed] and len(graph.neighbors(v) & kept) >= q + 1 - k
    )
    fields = {
        "vertices": subgraph.vertices,
        "adjacency": subgraph.adjacency,
        "candidate_mask": candidate_mask,
        "two_hop_mask": two_hop_mask,
        "external_vertices": externals,
        "external_adjacency": [external_adjacency_mask(subgraph, v) for v in externals],
        "degrees": [subgraph.degree(v) for v in range(subgraph.size)],
        "pair_ok": build_pair_matrix(subgraph, 0, candidate_mask, two_hop_mask, k, q),
    }
    return kept, fields


def _context_fields(context):
    return {
        "vertices": context.subgraph.vertices,
        "adjacency": context.subgraph.adjacency,
        "candidate_mask": context.candidate_mask,
        "two_hop_mask": context.two_hop_mask,
        "external_vertices": context.external_vertices,
        "external_adjacency": context.external_adjacency,
        "degrees": context.degrees,
        "pair_ok": context.pair_ok,
    }


def test_neighbour_first_corollary_builds_the_interleaved_context():
    """Rejecting on ``S*`` before the two-hop sweep changes no kept seed.

    Wherever the interleaved fixpoint keeps ``q`` or more vertices the
    context is identical field by field, unless an earlier vertex dominates
    the fixpoint; elsewhere, and for a dominated seed, the seed is rejected.
    A seed rejected only by the ``|S*| < q - k`` cut (possible for
    ``k >= 3``) must lie in no k-plex of ``q`` or more vertices of ``G_i``.
    """
    config = EnumerationConfig.ours()
    compared = cut_only = dominated = 0
    for graph in random_graph_cases(10, max_vertices=14, seed=18):
        prepared = prepare(graph)
        position = prepared.position
        for k in (1, 2, 3):
            for q in range(max(2 * k - 1, 2), 2 * k + 4):
                for seed in graph.vertices():
                    context = build_seed_context(prepared, seed, k, q, config)
                    reference = _interleaved_context_fields(graph, position, seed, k, q)
                    if reference is None:
                        assert context is None, (seed, k, q)
                        continue
                    fixpoint, fields = reference
                    if fields is None:
                        assert context is None, (seed, k, q)
                        dominated += 1
                        continue
                    if context is None:
                        assert k >= 3 and len(fixpoint & graph.neighbors(seed)) < q - k
                        assert not seed_in_large_kplex(graph, seed, fixpoint, k, q)
                        cut_only += 1
                        continue
                    assert context.seed_local == 0
                    assert _context_fields(context) == fields, (seed, k, q)
                    compared += 1
    assert compared > 50
    assert cut_only > 0
    assert dominated > 0


def test_seed_statistics_account_for_every_seed():
    """``seeds + seeds_pruned_empty + seeds_pruned_dominated`` is the number of seeds tried.

    The corollary counter grows only by vertices the rule dropped: a seed
    rejected on its neighbours adds only the later neighbours it dropped.
    """
    for graph in random_graph_cases(6, max_vertices=14, seed=19):
        tried = core_decomposition(graph).order
        for k, q in ((1, 3), (2, 4), (2, 6), (3, 6)):
            for use_seed_pruning in (True, False):
                config = EnumerationConfig.ours().with_changes(use_seed_pruning=use_seed_pruning)
                contexts, stats = _contexts_for(graph, k, q, config)
                assert len(contexts) == len(tried)
                assert (
                    stats.seeds + stats.seeds_pruned_empty + stats.seeds_pruned_dominated
                    == len(tried)
                )
                assert stats.seeds == sum(context is not None for _, context in contexts)
                if not use_seed_pruning:
                    assert stats.vertices_pruned_by_corollary == 0
            runner = FPLike(graph, k, q)
            runner.run()
            core_seeds = runner._core_graph.num_vertices if runner._prepared else 0
            assert runner.statistics.seeds + runner.statistics.seeds_pruned_empty == core_seeds


def test_seed_rejected_on_neighbours_counts_only_dropped_neighbours():
    # The first seed of a 5-cycle has two later neighbours, which share no
    # neighbour: with k = 1, q = 3 both fail ``q - 2k = 1`` and the seed is
    # rejected before its two later two-hop vertices are looked at.
    graph = generators.cycle_graph(5)
    stats = SearchStatistics()
    prepared = prepare(graph)
    seed = prepared.decomposition.order[0]
    assert build_seed_context(prepared, seed, 1, 3, EnumerationConfig.ours(), stats) is None
    assert stats.seeds_pruned_empty == 1
    assert stats.vertices_pruned_by_corollary == 2


# --------------------------------------------------------------------------- #
# Dominated seeds: an earlier vertex extends every k-plex of G_i
# --------------------------------------------------------------------------- #
def _dominance_corpus():
    """Graphs and parameters where the dominated-seed rule fires often.

    Relaxed caveman graphs and G(n, p) at p >= 0.5, k = 1..3, q from
    ``max(2k - 1, 2)`` to ``k + 4``.
    """
    graphs = []
    for index in range(4):
        graphs.append(generators.relaxed_caveman(2, 6, 0.3, seed=index))
        graphs.append(generators.erdos_renyi(11, 0.5 + 0.1 * index, seed=index))
    return [
        (graph, k, q)
        for graph in graphs
        for k in (1, 2, 3)
        for q in range(max(2 * k - 1, 2), k + 5)
    ]


DOMINANCE_CORPUS = _dominance_corpus()


@functools.lru_cache(maxsize=None)
def _brute_force(case_index):
    graph, k, q = DOMINANCE_CORPUS[case_index]
    return brute_force_vertex_sets(graph, k, q)


def _solve_enumerator(config):
    def solve(graph, k, q):
        result = KPlexEnumerator(graph, k, q, config).run()
        return vertex_sets(result.kplexes), result.statistics

    return solve


def _solve_parallel_threads(graph, k, q):
    result = parallel_enumerate_maximal_kplexes(
        graph, k, q, ParallelConfig(num_workers=2, use_processes=False)
    )
    return vertex_sets(result.kplexes), result.statistics


DOMINANCE_SOLVERS = {
    "ours": _solve_enumerator(EnumerationConfig.ours()),
    "ours_p": _solve_enumerator(EnumerationConfig.ours_p()),
    "basic": _solve_enumerator(EnumerationConfig.basic()),
    "no_seed_pruning": _solve_enumerator(
        EnumerationConfig.ours().with_changes(use_seed_pruning=False)
    ),
    "parallel_threads": _solve_parallel_threads,
}


@pytest.mark.parametrize("solver", sorted(DOMINANCE_SOLVERS))
def test_dropping_dominated_seeds_matches_brute_force(solver):
    """Every solver that builds seeds with ``build_seed_context`` returns the
    brute-force answer on a corpus where the dominated-seed rule fires."""
    solve = DOMINANCE_SOLVERS[solver]
    dominated = 0
    for index, (graph, k, q) in enumerate(DOMINANCE_CORPUS):
        found, stats = solve(graph, k, q)
        assert found == _brute_force(index), (index, k, q)
        dominated += stats.seeds_pruned_dominated
    assert dominated > 50


def test_dominated_seeds_lead_no_maximal_kplex():
    """No maximal k-plex of ``q`` or more vertices has a seed the rule drops
    as its earliest member in the degeneracy order of the ``(q - k)``-core."""
    config = EnumerationConfig.ours()
    dropped = 0
    for index, (graph, k, q) in enumerate(DOMINANCE_CORPUS):
        prepared, core_map = prepare(graph).prepared_core(q - k)
        if prepared.graph.num_vertices < q:
            continue
        position, core_of = prepared.position, {v: c for c, v in enumerate(core_map)}
        leaders = {
            min((core_of[v] for v in plex), key=position.__getitem__)
            for plex in _brute_force(index)
        }
        for seed in prepared.decomposition.order:
            stats = SearchStatistics()
            context = build_seed_context(prepared, seed, k, q, config, stats)
            if stats.seeds_pruned_dominated:
                assert context is None
                assert seed not in leaders, (index, k, q, seed)
                dropped += 1
    assert dropped > 50
