"""Property-based tests (Hypothesis) on the core invariants.

Random graphs and parameters are generated by Hypothesis; for each case the
suite checks the paper's structural theorems and the correctness contract of
the enumerator against the brute-force oracle.
"""

import functools
import itertools
import math
import threading
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EnumerationRequest, KPlexEngine
from repro.baselines.brute_force import brute_force_vertex_sets
from repro.core import EnumerationConfig, enumerate_maximal_kplexes, is_kplex
from repro.core import branch, enumerator
from repro.core.bounds import degree_bound, packing_bound, support_bound
from repro.core.branch import BranchSearcher
from repro.core.kplex import is_maximal_kplex
from repro.core.pivot import select_pivot
from repro.core.pruning import corollary_52_keep, corollary_52_neighbors
from repro.core.query import enumerate_kplexes_containing
from repro.core.seeds import (
    SeedContext,
    at_least,
    build_seed_context,
    iter_seed_contexts,
    iter_subtasks,
)
from repro.core.stats import SearchStatistics
from repro.graph import generators
from repro.graph.bitset import iter_bits, mask_from_indices
from repro.graph.core_decomposition import (
    core_decomposition,
    k_core_vertices,
    shrink_to_core,
)
from repro.graph.dense import DenseSubgraph
from repro.graph.prepared import PreparedGraph, prepare
from repro.graph.properties import is_connected_subset, subset_diameter
from repro.jobs import JobManager
from repro.parallel import ParallelConfig, parallel_enumerate_maximal_kplexes
from repro.server import ServiceClient, start_server
from repro.service import KPlexService, ServiceConfig

from _helpers import (
    assert_matches_reference_core,
    corollary_52_fixpoint,
    corollary_52_rejects,
    dominates,
    seed_in_large_kplex,
    vertex_sets,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def small_graphs(draw, max_vertices=10):
    """Erdős–Rényi graphs of 4..max_vertices vertices at edge probability 0.4..0.7.

    The probability is drawn, as in ``dense_cases``, so that some draws
    make Corollary 5.2's fixpoint run more than one round; sparse graphs
    almost never do.
    """
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    probability = draw(st.sampled_from((0.4, 0.5, 0.6, 0.7)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return generators.erdos_renyi(n, probability, seed=seed)


@st.composite
def graph_with_parameters(draw):
    graph = draw(small_graphs())
    k = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=max(2 * k - 1, 2), max_value=max(2 * k - 1, 2) + 2))
    return graph, k, q


@SETTINGS
@given(graph_with_parameters())
def test_enumeration_matches_brute_force(case):
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    actual = {frozenset(p.vertices) for p in enumerate_maximal_kplexes(graph, k, q)}
    assert actual == expected


@SETTINGS
@given(graph_with_parameters())
def test_results_satisfy_all_contracts(case):
    graph, k, q = case
    results = enumerate_maximal_kplexes(graph, k, q)
    seen = set()
    for plex in results:
        members = frozenset(plex.vertices)
        assert members not in seen  # no duplicates
        seen.add(members)
        assert len(members) >= q
        assert is_kplex(graph, members, k)
        assert is_maximal_kplex(graph, members, k)
        # Theorem 3.3: results of size >= 2k - 1 are connected with diameter <= 2.
        assert is_connected_subset(graph, members)
        assert subset_diameter(graph, members) <= 2
        # Theorem 3.5: results live inside the (q - k)-core.
        assert members <= k_core_vertices(graph, q - k)


@SETTINGS
@given(graph_with_parameters())
def test_hereditary_property(case):
    """Theorem 3.2: every subset of a k-plex is a k-plex."""
    graph, k, q = case
    for plex in enumerate_maximal_kplexes(graph, k, q):
        members = list(plex.vertices)
        for drop in range(len(members)):
            subset = members[:drop] + members[drop + 1 :]
            assert is_kplex(graph, subset, k)


@SETTINGS
@given(small_graphs(), st.integers(min_value=1, max_value=3))
def test_monotone_in_k(graph, k):
    """Every maximal k-plex is contained in some maximal (k+1)-plex."""
    q = 2 * (k + 1) - 1
    larger = {frozenset(p.vertices) for p in enumerate_maximal_kplexes(graph, k + 1, q)}
    for plex in enumerate_maximal_kplexes(graph, k, q):
        members = frozenset(plex.vertices)
        assert is_kplex(graph, members, k + 1)
        assert any(members <= other for other in larger)


@SETTINGS
@given(small_graphs())
def test_degeneracy_ordering_invariants(graph):
    decomposition = core_decomposition(graph)
    assert sorted(decomposition.order) == list(range(graph.num_vertices))
    position = decomposition.position()
    for vertex in graph.vertices():
        later = sum(1 for w in graph.neighbors(vertex) if position[w] > position[vertex])
        assert later <= decomposition.degeneracy
    # Core numbers never exceed the degeneracy and the k-core is consistent.
    for vertex, core_number in enumerate(decomposition.core_numbers):
        assert 0 <= core_number <= decomposition.degeneracy


@SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_k_core_minimum_degree(graph, k):
    core = k_core_vertices(graph, k)
    sub, _ = graph.induced_subgraph(core)
    if sub.num_vertices:
        assert min(sub.degrees()) >= k


@SETTINGS
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_shrink_to_core_matches_core_numbers(graph, level):
    core, vertex_map = shrink_to_core(graph, level)
    assert_matches_reference_core(graph, level, core, vertex_map)


@SETTINGS
@given(graph_with_parameters())
def test_upper_bounds_dominate_results(case):
    """Theorems 5.3 / 5.5: no maximal k-plex exceeds the bounds of its prefix."""
    graph, k, q = case
    results = enumerate_maximal_kplexes(graph, k, q)
    if not results:
        return
    dense = DenseSubgraph(graph, list(graph.vertices()))
    degrees = [dense.degree(v) for v in range(dense.size)]
    for plex in results:
        members = sorted(plex.vertices)
        assert degree_bound(degrees, members, k) >= len(members)
        # Take P = members minus one vertex, pivot = the removed vertex, and
        # C = everything outside P; the Theorem 5.5 bound must cover the plex.
        pivot = members[-1]
        p_mask = mask_from_indices(members[:-1])
        c_mask = mask_from_indices(v for v in graph.vertices() if v not in members[:-1])
        assert support_bound(dense, p_mask, c_mask, pivot, k) >= len(members)


@SETTINGS
@given(graph_with_parameters())
def test_variants_agree(case):
    graph, k, q = case
    reference = {frozenset(p.vertices) for p in enumerate_maximal_kplexes(graph, k, q)}
    for config in (
        EnumerationConfig.ours_p(),
        EnumerationConfig.basic(),
        EnumerationConfig.with_fp_upper_bound(),
    ):
        variant = {frozenset(p.vertices) for p in enumerate_maximal_kplexes(graph, k, q, config)}
        assert variant == reference


@st.composite
def refined_nodes(draw):
    """A searcher and one Algorithm 3 node ``⟨P, C, X⟩`` on an Erdős–Rényi
    graph, k = 1..4: ``P`` is a k-plex and ``C``, ``X`` are refined against it.

    The graphs are dense enough, and ``P`` and ``C`` drawn often enough, that
    about a third of the nodes are not leaves.
    """
    n = draw(st.integers(min_value=8, max_value=14))
    probability = draw(st.sampled_from((0.4, 0.5, 0.6, 0.7)))
    graph = generators.erdos_renyi(n, probability, seed=draw(st.integers(0, 2**16)))
    k = draw(st.integers(min_value=1, max_value=4))
    dense = DenseSubgraph(graph, list(graph.vertices()))
    roles = draw(st.lists(st.sampled_from("PPCCX-"), min_size=n, max_size=n))
    members = []
    for v, role in enumerate(roles):
        if role == "P" and is_kplex(graph, members + [v], k):
            members.append(v)
    p_mask = mask_from_indices(members)
    c_mask = mask_from_indices(v for v, role in enumerate(roles) if role in "PC") & ~p_mask
    context = SeedContext(
        seed_vertex=0,
        subgraph=dense,
        seed_local=0,
        candidate_mask=dense.full_mask,
        two_hop_mask=0,
        external_vertices=[],
        external_adjacency=[],
        degrees=[dense.degree(v) for v in range(dense.size)],
        pair_ok=None,
    )
    config = EnumerationConfig.without_upper_bound()
    searcher = BranchSearcher(context, k, 1, config, SearchStatistics(), lambda mask: None)
    c_mask, x_mask = searcher._refined(p_mask, c_mask, mask_from_indices(
        v for v, role in enumerate(roles) if role == "X"
    ))
    return searcher, k, p_mask, c_mask, x_mask


@SETTINGS
@given(refined_nodes())
def test_pivot_census_matches_its_definitions(node):
    """``select_pivot``'s one pass equals the per-vertex definitions it replaces.

    The pivot is the argmin of (degree in ``P ∪ C``, in-P count, not in
    ``P``, index) and every mask matches its definition; for every candidate
    ``v``, the census-fed Algorithm 4 bound equals ``support_bound`` and the
    include child ``_branch`` builds from the census equals ``_refined`` of
    ``P ∪ {v}``, unless a vertex of ``X`` dominates the node, which is then
    cut with no child.
    """
    searcher, k, p_mask, c_mask, x_mask = node
    dense = searcher.context.subgraph
    adjacency = dense.adjacency
    pc_mask = p_mask | c_mask
    if not pc_mask:
        return
    pivot, pivot_in_p, degree, in_p, saturated, one_short, tight, pc_saturated = select_pivot(
        dense, p_mask, c_mask, k
    )

    def in_pc(v):
        return (adjacency[v] & pc_mask).bit_count()

    def in_p_count(v):
        return (adjacency[v] & p_mask).bit_count()

    def members(mask, test):
        return mask_from_indices(v for v in iter_bits(mask) if test(v))

    def key(v):
        return in_pc(v), in_p_count(v), not p_mask >> v & 1, v

    assert pivot == min(iter_bits(pc_mask), key=key)
    assert (pivot_in_p, degree) == (bool(p_mask >> pivot & 1), in_pc(pivot))
    p_size = p_mask.bit_count()
    assert in_p == {u: in_p_count(u) for u in iter_bits(p_mask)}
    assert saturated == members(p_mask, lambda u: in_p_count(u) == p_size - k)
    assert one_short == members(p_mask, lambda u: in_p_count(u) == p_size - k + 1)
    assert tight == members(c_mask, lambda v: in_p_count(v) == p_size + 1 - k)
    assert pc_saturated == members(pc_mask, lambda v: in_pc(v) <= pc_mask.bit_count() - k)
    for v in iter_bits(c_mask):
        census_bound = packing_bound(adjacency, p_mask, c_mask, v, k, dict(in_p))
        assert census_bound == support_bound(dense, p_mask, c_mask, v, k)

    # Branch on each candidate in turn: the census says v is the pivot (and,
    # by a degree below |P ∪ C| - k, that P ∪ C is no k-plex); the rest is true.
    # A vertex of X dominates the node when it misses at most k - 1 vertices
    # of P ∪ C and each of them misses at most k - 1 of P ∪ C, itself counted.
    pc_size = pc_mask.bit_count()
    dominated = any(
        pc_size - in_pc(x) <= k - 1
        and all(pc_size - in_pc(u) <= k - 1 for u in iter_bits(pc_mask & ~adjacency[x]))
        for x in iter_bits(x_mask)
    )
    children = []
    searcher._recurse = lambda *child: children.append(child)
    for v in iter_bits(c_mask):
        census = (v, False, -k - 1, in_p, saturated, one_short, tight, pc_saturated)
        pruned = searcher.stats.nodes_pruned_dominated
        with mock.patch.object(branch, "select_pivot", lambda *args: census):
            searcher._branch(p_mask, c_mask, x_mask, searcher._minimum_degree(p_mask))
        assert searcher.stats.nodes_pruned_dominated == pruned + dominated
        if dominated:
            assert not children
            continue
        (child_p, child_c, child_x, _), _exclude = children[-2:]
        assert child_p == p_mask | 1 << v
        assert (child_c, child_x) == searcher._refined(child_p, c_mask & ~(1 << v), x_mask)


# --------------------------------------------------------------------------- #
# Differential harness: solvers, ablations and query mode against brute force
# --------------------------------------------------------------------------- #
@st.composite
def differential_cases(draw, max_vertices=10):
    """Graph, k and q, with q reaching k + 4 so that the seed-side cuts bite.

    ``q + 1 - k`` is the external-set threshold of Algorithm 2 and
    ``q - 2k`` that of Corollary 5.2; both filter only once ``q`` is a few
    above ``k``.
    """
    graph = draw(small_graphs(max_vertices))
    k = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=max(2 * k - 1, 2), max_value=k + 4))
    return graph, k, q


ABLATIONS = (
    EnumerationConfig.ours_p(),
    EnumerationConfig.basic_with_r1(),
    EnumerationConfig.basic_with_r2(),
    EnumerationConfig.without_upper_bound(),
    EnumerationConfig.with_fp_upper_bound(),
    EnumerationConfig.ours().with_changes(use_seed_pruning=False),
)


@SETTINGS
@given(differential_cases())
def test_ablations_match_brute_force(case):
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    for config in ABLATIONS:
        actual = vertex_sets(enumerate_maximal_kplexes(graph, k, q, config))
        assert actual == expected, config


@SETTINGS
@given(differential_cases())
def test_baseline_solvers_match_brute_force(case):
    """The registered baselines through the engine: ``fp`` (which shares
    Corollary 5.2 with ``ours``), ``listplex``, and ``bron-kerbosch`` at
    ``k = 1``, where it enumerates maximal cliques."""
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    engine = KPlexEngine()
    for solver in ("fp", "listplex") + (("bron-kerbosch",) if k == 1 else ()):
        response = engine.solve(EnumerationRequest(graph=graph, k=k, q=q, solver=solver))
        assert vertex_sets(response.kplexes) == expected, solver


@SETTINGS
@given(differential_cases())
def test_parallel_threads_match_brute_force(case):
    """Thread-mode ``parallel`` with 2 workers, without and with task splitting.

    A tiny ``timeout_seconds`` spills nearly every branch node as a
    ``BranchState`` of local bitsets; a resumed state's leaves test the
    seed's external vertices, so it must agree with the rebuilt context.
    """
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    for timeout in (None, 1e-9):
        parallel = ParallelConfig(num_workers=2, use_processes=False, timeout_seconds=timeout)
        result = parallel_enumerate_maximal_kplexes(graph, k, q, parallel)
        assert vertex_sets(result.kplexes) == expected, timeout


@SETTINGS
@given(differential_cases())
def test_parallel_processes_match_brute_force(case):
    """Process-mode ``parallel`` with 2 workers, without and with task
    splitting: seeds and spilled states are mined in the worker processes."""
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    for timeout in (None, 1e-9):
        parallel = ParallelConfig(num_workers=2, use_processes=True, timeout_seconds=timeout)
        result = parallel_enumerate_maximal_kplexes(graph, k, q, parallel)
        assert vertex_sets(result.kplexes) == expected, timeout


class EveryThirdRead:
    """A fake clock that reads past any deadline on every third read, else 0.

    Under a timeout it spills a deterministic subset of the search nodes,
    so spilled states include children that inherited their parent's
    refinement, and resumed states have children that inherit theirs.
    """

    def __init__(self) -> None:
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return math.inf if self.reads % 3 == 0 else 0.0


def mine_every_seed(graph, k, q, config, clock=None):
    """Mine every seed with ``mine_seed``; with a ``clock``, under a timeout read from it.

    Returns the results (with repeats), each seed's per-sub-task costs and
    the statistics.
    """
    stats = SearchStatistics()
    results = []
    costs = []
    searcher = BranchSearcher if clock is None else functools.partial(BranchSearcher, clock=clock)
    with mock.patch.object(enumerator, "BranchSearcher", searcher):
        for _seed, context in iter_seed_contexts(graph, k, q, config, stats):
            if context is None:
                continue
            costs.append(
                enumerator.mine_seed(
                    context,
                    iter_subtasks(context, k, q, config, stats),
                    k,
                    q,
                    config,
                    stats,
                    on_result=lambda mask, ctx=context: results.append(
                        frozenset(ctx.subgraph.parents_of_mask(mask))
                    ),
                    timeout=None if clock is None else 1.0,
                )
            )
    return results, costs, stats


@st.composite
def dense_cases(draw):
    """Erdős–Rényi graphs of 8..14 vertices at edge probability 0.4..0.7.

    Their search trees are deep enough for spilled states to carry
    non-empty exclusive sets, which ``small_graphs`` rarely yields.
    """
    n = draw(st.integers(min_value=8, max_value=14))
    probability = draw(st.sampled_from((0.4, 0.5, 0.6, 0.7)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    k = draw(st.integers(min_value=1, max_value=3))
    q = draw(st.integers(min_value=max(2 * k - 1, 2), max_value=k + 4))
    return generators.erdos_renyi(n, probability, seed=seed), k, q


@SETTINGS
@given(dense_cases())
def test_partial_spills_resume_exactly(case):
    """A timeout that spills some nodes and not others changes nothing.

    The spilled run finds the same k-plexes, each once, with the same
    branch calls per sub-task and the same maximality rejections, for both
    the ``Ours`` and the ``Ours_P`` branching.
    """
    graph, k, q = case
    for config in (EnumerationConfig.ours(), EnumerationConfig.ours_p()):
        results, costs, stats = mine_every_seed(graph, k, q, config)
        clock = EveryThirdRead()
        spilled, spilled_costs, spilled_stats = mine_every_seed(graph, k, q, config, clock)
        assert Counter(spilled) == Counter(results), config
        assert len(set(spilled)) == len(spilled)
        assert spilled_costs == costs, config
        assert spilled_stats.maximality_rejections == stats.maximality_rejections, config


@SETTINGS
@given(differential_cases(), st.data())
def test_query_mode_matches_filtered_brute_force(case, data):
    graph, k, q = case
    query = data.draw(
        st.sets(
            st.integers(min_value=0, max_value=graph.num_vertices - 1),
            min_size=1,
            max_size=2,
        )
    )
    expected = {members for members in brute_force_vertex_sets(graph, k, q) if query <= members}
    actual = vertex_sets(enumerate_kplexes_containing(graph, query, k, q))
    assert actual == expected


@SETTINGS
@given(differential_cases())
def test_corollary_52_early_exit_matches_fixpoint(case):
    """Below ``q`` exactly when the fixpoint is or keeps < ``q - k`` seed
    neighbours; equal to the fixpoint otherwise.

    For ``k <= 2`` the ``q - k`` reject is implied by the fixpoint being
    below ``q``; where it rejects more (``k >= 3``) the seed must lie in no
    k-plex of ``q`` or more of the fixpoint's vertices.
    """
    graph, k, q = case
    for seed in graph.vertices():
        vertices = graph.neighborhood_within_two_hops(seed)
        kept = corollary_52_keep(graph, seed, vertices, k, q)
        fixpoint = corollary_52_fixpoint(graph, seed, vertices, k, q)
        rejected = corollary_52_rejects(graph, seed, fixpoint, k, q)
        assert (len(kept) < q) == rejected
        if not rejected:
            assert kept == fixpoint
        elif len(fixpoint) >= q:
            assert k >= 3
            assert not seed_in_large_kplex(graph, seed, fixpoint, k, q)


@SETTINGS
@given(
    st.lists(st.integers(min_value=0, max_value=2**40 - 1), max_size=40),
    st.integers(min_value=1, max_value=45),
)
def test_at_least_matches_counting(rows, count):
    """``at_least`` keeps exactly the bits set in ``count`` or more rows."""
    expected = sum(
        1 << bit for bit in range(40) if sum(row >> bit & 1 for row in rows) >= count
    )
    assert at_least(rows, count) == expected


def _selection_by_sets(graph, position, seed, k, q, use_seed_pruning):
    """Algorithm 2's vertex selection for one seed, restated on vertex sets.

    Returns ``(members, pruned, rejected, dominated)``: ``members`` is
    ``None`` for a rejected or dominated seed, else the kept later
    neighbours, the kept later two-hop vertices and the externals (each
    sorted); ``pruned``, ``rejected`` and ``dominated`` are what the seed
    adds to ``vertices_pruned_by_corollary``, ``seeds_pruned_empty`` and
    ``seeds_pruned_dominated``.  A seed is dominated when an earlier vertex
    extends every k-plex of its ``G_i``.
    """
    neighbors = graph.neighbors(seed)
    later = {v for v in graph.vertices() if position[v] > position[seed]}
    pruned = 0
    if use_seed_pruning:
        s_star = corollary_52_neighbors(graph, neighbors & later, k, q)
        pruned = len(neighbors & later) - len(s_star)
        if len(s_star) < q - k:
            return None, pruned, 1, 0
        counts = {x: len(graph.neighbors(x) & s_star) for x in later - neighbors}
        two_hop = {x for x, count in counts.items() if count >= q - 2 * k + 2}
        pruned += sum(count > 0 for count in counts.values()) - len(two_hop)
    else:
        s_star = neighbors & later
        two_hop = (graph.neighborhood_within_two_hops(seed) & later) - neighbors
    members = {seed} | s_star | two_hop
    if len(members) < q:
        return None, pruned, 1, 0
    earlier = [x for x in graph.vertices() if position[x] < position[seed]]
    if any(dominates(graph, x, members, k) for x in earlier):
        return None, pruned, 0, 1
    externals = [
        x
        for x in sorted(graph.neighborhood_within_two_hops(seed))
        if position[x] < position[seed] and len(graph.neighbors(x) & members) >= q + 1 - k
    ]
    return (sorted(s_star), sorted(two_hop), externals), pruned, 0, 0


@SETTINGS
@given(
    st.integers(min_value=6, max_value=16),
    st.floats(min_value=0.2, max_value=0.8),
    st.integers(min_value=0, max_value=2**16),
)
def test_seed_selection_matches_its_set_definitions(n, p, graph_seed):
    """Both selections of ``G_i`` and ``V'_i`` equal their set form.

    The bitset-row path and the neighbour-set path (the index withholds rows
    from graphs too sparse for them), every seed, k = 1..4,
    q = 2k - 1..2k + 4, with and without Corollary 5.2: the kept neighbours
    (``S*``), two-hop vertices and externals, the dominated seeds, and the
    three seed counters, match the set definitions of the module docstring; every row equals its
    vertex's neighbour set over degeneracy positions.  Density is drawn so
    that Corollary 5.2's fixpoint takes several rounds.
    """
    graph = generators.erdos_renyi(n, p, seed=graph_seed)
    position = prepare(graph).position
    for row_bytes in (0, 10**9):
        with mock.patch("repro.graph.prepared.ROW_BYTES_PER_EDGE", row_bytes):
            prepared = PreparedGraph(graph)
            assert (prepared.rows is None) == (row_bytes == 0 or graph.num_edges == 0)
            if prepared.rows is not None:
                assert prepared.rows == [
                    sum(1 << position[u] for u in graph.neighbors(v))
                    for v in graph.vertices()
                ]
            for k in range(1, 5):
                for q in range(2 * k - 1, 2 * k + 5):
                    for use_seed_pruning in (True, False):
                        _check_seed_selection(prepared, k, q, use_seed_pruning, position)


def _check_seed_selection(prepared, k, q, use_seed_pruning, position):
    graph = prepared.graph
    config = EnumerationConfig.ours().with_changes(use_seed_pruning=use_seed_pruning)
    for seed in graph.vertices():
        stats = SearchStatistics()
        context = build_seed_context(prepared, seed, k, q, config, stats)
        expected, pruned, rejected, dominated = _selection_by_sets(
            graph, position, seed, k, q, use_seed_pruning
        )
        case = (prepared.rows is None, seed, k, q, use_seed_pruning)
        assert stats.vertices_pruned_by_corollary == pruned, case
        assert stats.seeds_pruned_empty == rejected, case
        assert stats.seeds_pruned_dominated == dominated, case
        if expected is None:
            assert context is None, case
            continue
        s_star, two_hop, externals = expected
        assert context.subgraph.vertices == [seed] + s_star + two_hop, case
        assert context.candidate_mask == context.subgraph.mask_of_parents(s_star)
        assert context.external_vertices == externals, case


# --------------------------------------------------------------------------- #
# Transports: the service, in-process jobs, HTTP solve and NDJSON job streams
# --------------------------------------------------------------------------- #
def label_sets(lists) -> set:
    """Result label lists off the wire as a comparable set of frozensets."""
    return {frozenset(labels) for labels in lists}


@SETTINGS
@given(differential_cases(max_vertices=12))
def test_engine_stream_matches_brute_force(case):
    """``KPlexEngine.stream()`` yields every maximal k-plex exactly once."""
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    streamed = [
        frozenset(plex.vertices)
        for plex in KPlexEngine().stream(EnumerationRequest(graph=graph, k=k, q=q))
    ]
    assert len(streamed) == len(set(streamed))
    assert set(streamed) == expected


@SETTINGS
@given(differential_cases(max_vertices=12))
def test_service_miss_then_hit_match_brute_force(case):
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    with KPlexService(config=ServiceConfig(max_workers=1)) as service:
        service.catalog.register("g", graph)
        miss = service.solve("g", k=k, q=q)
        hit = service.solve("g", k=k, q=q)
        metrics = service.metrics()
    assert (metrics["cache_misses"], metrics["cache_hits"]) == (1, 1)
    assert vertex_sets(miss.kplexes) == expected
    assert vertex_sets(hit.kplexes) == expected


@SETTINGS
@given(differential_cases(max_vertices=12))
def test_job_manager_stream_matches_brute_force(case):
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    with KPlexService(config=ServiceConfig(max_workers=1)) as service:
        service.catalog.register("g", graph)
        with JobManager(service) as manager:
            job = manager.submit("g", k=k, q=q)
            records = [record for _index, record in job.iter_results()]
            final = manager.wait(job.id).final_record()
    assert final["done"] is True and final["state"] == "succeeded"
    assert final["count"] == len(records)
    assert label_sets(record["kplex"] for record in records) == expected


@SETTINGS
@given(differential_cases(max_vertices=12))
def test_job_cancelled_mid_stream_counts_what_it_delivered(case):
    """A job cancelled after its first record still ends its stream honestly.

    The job's solve is held until a second reader pins its one-slot
    buffer, so a job with two or more results is cancelled while its
    solver is blocked on the second.  Read to the end, the stream's final
    record counts exactly the result records delivered; they hold no
    duplicate, are maximal k-plexes, and are all of them when the job
    succeeded.
    """
    graph, k, q = case
    expected = brute_force_vertex_sets(graph, k, q)
    with KPlexService(config=ServiceConfig(max_workers=1)) as service:
        service.catalog.register("g", graph)
        released = threading.Event()
        stream_run = service.stream_run

        def stream_run_once_released(request, **kwargs):
            released.wait()
            return stream_run(request, **kwargs)

        with mock.patch.object(service, "stream_run", stream_run_once_released):
            with JobManager(service) as manager:
                job = manager.submit("g", k=k, q=q, result_buffer=1)
                pin = job.results.attach(0)
                released.set()
                records = []
                for _index, record in job.iter_results():
                    records.append(record)
                    if len(records) == 1:
                        manager.cancel(job.id)
                job.results.detach(pin)
                final = manager.wait(job.id).final_record()
    delivered = [frozenset(record["kplex"]) for record in records]
    assert final["done"] is True
    assert final["count"] == len(delivered)
    assert len(set(delivered)) == len(delivered)
    assert set(delivered) <= expected
    if final["state"] == "succeeded":
        assert set(delivered) == expected
    else:
        assert final["state"] == "cancelled"
    if len(expected) >= 2:
        # The solver was blocked on its second result when the cancel came.
        assert final["state"] == "cancelled" and len(delivered) == 1


def test_http_solve_and_job_stream_match_brute_force():
    service = KPlexService(config=ServiceConfig(max_workers=2))
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    names = itertools.count()

    @SETTINGS
    @given(differential_cases(max_vertices=12))
    def check(case):
        graph, k, q = case
        expected = brute_force_vertex_sets(graph, k, q)
        name = f"g{next(names)}"
        client.register(name, edges=list(graph.edges()), vertices=graph.labels())
        solved = client.solve(name, k=k, q=q)
        assert solved["count"] == len(solved["kplexes"])
        assert label_sets(solved["kplexes"]) == expected

        job = client.submit_job(name, k=k, q=q)
        records = list(client.iter_job_results(job["id"]))
        final, results = records[-1], records[:-1]
        assert final["done"] is True and final["state"] == "succeeded"
        assert final["count"] == len(results)
        assert label_sets(record["kplex"] for record in results) == expected

    try:
        check()
    finally:
        server.drain()


def test_http_job_results_resume_at_start_matches_brute_force():
    """``/v1/jobs/{id}/results?start=m`` continues the stream after record m.

    The first ``m`` records of the full stream followed by the records read
    from ``start=m`` are the full stream again, and brute force's answer.
    """
    service = KPlexService(config=ServiceConfig(max_workers=2))
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    names = itertools.count()

    @SETTINGS
    @given(differential_cases(max_vertices=12), st.data())
    def check(case, data):
        graph, k, q = case
        expected = brute_force_vertex_sets(graph, k, q)
        name = f"g{next(names)}"
        client.register(name, edges=list(graph.edges()), vertices=graph.labels())
        job = client.submit_job(name, k=k, q=q)
        full = list(client.iter_job_results(job["id"]))
        results = full[:-1]
        start = data.draw(st.integers(min_value=0, max_value=len(results)), label="start")
        resumed = list(client.iter_job_results(job["id"], start=start))
        final, rest = resumed[-1], resumed[:-1]
        assert final["done"] is True and final["state"] == "succeeded"
        assert final["count"] == len(results)
        assert results[:start] + rest == results
        assert [record["index"] for record in rest] == list(range(start, len(results)))
        joined = [frozenset(record["kplex"]) for record in results[:start] + rest]
        assert len(joined) == len(set(joined))
        assert set(joined) == expected

    try:
        check()
    finally:
        server.drain()
