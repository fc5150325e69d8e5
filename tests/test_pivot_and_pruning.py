"""Unit tests for pivot selection (Example 4.1) and the pruning rules."""

import itertools

from repro.core.kplex import is_kplex
from repro.core.pivot import repick_pivot_from_candidates, select_pivot
from repro.core.pruning import (
    _pair_threshold_both_candidates,
    _pair_threshold_both_two_hop,
    _pair_threshold_mixed,
    build_pair_matrix,
    corollary_52_keep,
    pairs_allowed,
)
from repro.graph import generators
from repro.graph.bitset import bits_to_list, contains, mask_from_indices
from repro.graph.dense import DenseSubgraph

from _helpers import corollary_52_fixpoint, corollary_52_rejects, random_graph_cases


def _figure3_subgraph():
    graph = generators.paper_figure3_graph()
    order = [graph.index_of(f"v{i}") for i in range(1, 8)]
    return graph, DenseSubgraph(graph, order)


# --------------------------------------------------------------------------- #
# Pivot selection
# --------------------------------------------------------------------------- #
def test_example_41_initial_pivot_is_v3():
    """Example 4.1: with P = {v1, v3}, C = {v2, v5, v7} the pivot is v3 ∈ P."""
    _, dense = _figure3_subgraph()
    p_mask = mask_from_indices([0, 2])  # v1, v3
    c_mask = mask_from_indices([1, 4, 6])  # v2, v5, v7
    pivot, in_p, degree, *_ = select_pivot(dense, p_mask, c_mask, k=2)
    assert pivot == 2  # v3
    assert in_p
    assert degree == 1  # v3 touches only v2 inside P ∪ C


def test_example_41_repicked_pivot_is_v7():
    """Example 4.1: the re-picked pivot comes from \\bar N_C(v3) = {v5, v7} and is v7."""
    _, dense = _figure3_subgraph()
    p_mask = mask_from_indices([0, 2])
    c_mask = mask_from_indices([1, 4, 6])
    new_pivot = repick_pivot_from_candidates(dense, p_mask, c_mask, old_pivot=2)
    assert new_pivot == 6  # v7


def test_repick_returns_none_when_no_non_neighbor():
    graph = generators.complete_graph(5)
    dense = DenseSubgraph(graph, list(range(5)))
    p_mask = mask_from_indices([0])
    c_mask = mask_from_indices([1, 2, 3])
    assert repick_pivot_from_candidates(dense, p_mask, c_mask, old_pivot=0) is None


def test_select_pivot_prefers_most_saturated_on_ties():
    # Star: centre 0 adjacent to everyone; leaves mutually non-adjacent.
    graph = generators.star_graph(3)
    dense = DenseSubgraph(graph, list(range(4)))
    p_mask = mask_from_indices([0, 1])
    c_mask = mask_from_indices([2, 3])
    pivot, in_p, *_ = select_pivot(dense, p_mask, c_mask, k=2)
    # Leaves 1, 2, 3 all have degree 1 in P ∪ C; vertex 1 ∈ P has the most
    # non-neighbours in P among them, so a P-member is selected.
    assert in_p
    assert pivot == 1


def test_select_pivot_minimum_degree_rule():
    graph = generators.path_graph(4)  # 0-1-2-3
    dense = DenseSubgraph(graph, list(range(4)))
    p_mask = mask_from_indices([1])
    c_mask = mask_from_indices([0, 2, 3])
    pivot, _, degree, *_ = select_pivot(dense, p_mask, c_mask, k=2)
    assert degree == 1
    assert pivot in (0, 3)


# --------------------------------------------------------------------------- #
# Corollary 5.2 seed subgraph pruning
# --------------------------------------------------------------------------- #
def test_corollary52_never_prunes_members_of_valid_kplexes():
    """Soundness: vertices co-occurring with the seed in a valid result survive."""
    for seed_graph in range(5):
        graph = generators.erdos_renyi(11, 0.5, seed=40 + seed_graph)
        k, q = 2, 4
        for seed_vertex in range(graph.num_vertices):
            vertices = set(graph.neighborhood_within_two_hops(seed_vertex))
            kept = corollary_52_keep(graph, seed_vertex, vertices, k, q)
            # Enumerate all q-sized k-plexes containing the seed by brute force
            # and check none of their members were pruned.
            for members in itertools.combinations(sorted(vertices), q):
                if seed_vertex not in members:
                    continue
                if is_kplex(graph, members, k):
                    assert set(members) <= kept


def test_corollary52_prunes_distant_low_overlap_vertices():
    # Path 0-1-2-3-4: with q = 3, k = 1 a clique of size 3 is required; vertex
    # 2 shares no common neighbour with 0, so it is pruned from 0's subgraph.
    graph = generators.path_graph(5)
    kept = corollary_52_keep(graph, 0, {0, 1, 2}, k=1, q=3)
    assert 2 not in kept
    assert 0 in kept


def test_corollary52_stops_once_fewer_than_q_vertices_remain():
    """The early exits change only results that are rejected anyway.

    A result is rejected (fewer than ``q`` vertices) exactly when the full
    fixpoint has fewer than ``q`` vertices or fewer than ``q - k`` seed
    neighbours; every other result equals the fixpoint.
    """
    stopped_early = 0
    for seed_graph in range(6):
        graph = generators.erdos_renyi(14, 0.4, seed=70 + seed_graph)
        for k, q in ((1, 4), (2, 6), (3, 8)):
            for seed_vertex in graph.vertices():
                vertices = graph.neighborhood_within_two_hops(seed_vertex)
                kept = corollary_52_keep(graph, seed_vertex, vertices, k, q)
                fixpoint = corollary_52_fixpoint(graph, seed_vertex, vertices, k, q)
                if corollary_52_rejects(graph, seed_vertex, fixpoint, k, q):
                    assert len(kept) < q and seed_vertex in kept
                    stopped_early += kept != fixpoint
                else:
                    assert kept == fixpoint
    assert stopped_early > 0


def test_corollary52_keeps_seed_always():
    graph = generators.star_graph(4)
    kept = corollary_52_keep(graph, 0, {0, 1, 2, 3, 4}, k=2, q=10)
    assert 0 in kept


# --------------------------------------------------------------------------- #
# Vertex-pair pruning (Theorems 5.13 - 5.15)
# --------------------------------------------------------------------------- #
def _pair_matrix_for(graph, seed_vertex, k, q):
    neighbors = sorted(graph.neighbors(seed_vertex))
    two_hop = sorted(graph.two_hop_neighbors(seed_vertex))
    order = [seed_vertex] + neighbors + two_hop
    dense = DenseSubgraph(graph, order)
    candidate_mask = dense.mask_of_parents(neighbors)
    two_hop_mask = dense.mask_of_parents(two_hop)
    pair_ok = build_pair_matrix(dense, 0, candidate_mask, two_hop_mask, k, q)
    return dense, pair_ok


def test_pair_matrix_is_symmetric_and_seed_row_full():
    graph = generators.erdos_renyi(14, 0.4, seed=77)
    dense, pair_ok = _pair_matrix_for(graph, 0, k=2, q=5)
    assert pair_ok[0] == dense.full_mask
    for u in range(dense.size):
        for v in range(dense.size):
            assert contains(pair_ok[u], v) == contains(pair_ok[v], u) or u == 0 or v == 0


def test_pair_matrix_soundness_against_brute_force():
    """A pair marked forbidden never co-occurs in a k-plex of size >= q with the seed."""
    for trial in range(6):
        graph = generators.erdos_renyi(11, 0.55, seed=300 + trial)
        k, q = 2, 5
        seed_vertex = 0
        dense, pair_ok = _pair_matrix_for(graph, seed_vertex, k, q)
        vertices = dense.vertices
        forbidden = [
            (dense.parent_of(u), dense.parent_of(v))
            for u in range(dense.size)
            for v in range(u + 1, dense.size)
            if not contains(pair_ok[u], v)
        ]
        if not forbidden:
            continue
        for members in itertools.combinations(sorted(vertices), q):
            if seed_vertex not in members:
                continue
            if not is_kplex(graph, members, k):
                continue
            member_set = set(members)
            for u, v in forbidden:
                assert not (u in member_set and v in member_set), (
                    f"forbidden pair {(u, v)} appears in valid k-plex {members}"
                )


def _reference_pair_matrix(dense, seed_local, candidate_mask, two_hop_mask, k, q):
    """Theorems 5.13–5.15 applied pair by pair, as the paper states them.

    Each pair looks up its own threshold, and the common neighbours are
    counted inside ``C_S`` minus the pair's own candidate vertices.
    """
    allowed = [[True] * dense.size for _ in range(dense.size)]

    def check(u, v, within, threshold_of):
        common = dense.common_neighbors_count(u, v, within)
        if common < threshold_of(k, q, dense.has_edge(u, v)):
            allowed[u][v] = allowed[v][u] = False

    two_hop = bits_to_list(two_hop_mask)
    candidates = bits_to_list(candidate_mask)
    for u, v in itertools.combinations(two_hop, 2):
        check(u, v, candidate_mask, _pair_threshold_both_two_hop)
    for u in two_hop:
        for v in candidates:
            check(u, v, candidate_mask & ~(1 << v), _pair_threshold_mixed)
    for u, v in itertools.combinations(candidates, 2):
        check(u, v, candidate_mask & ~(1 << u) & ~(1 << v), _pair_threshold_both_candidates)
    for u in range(dense.size):
        allowed[u][seed_local] = allowed[seed_local][u] = True
    return [
        mask_from_indices(v for v in range(dense.size) if allowed[u][v])
        for u in range(dense.size)
    ]


def test_pair_matrix_matches_per_pair_thresholds():
    """The hoisted thresholds give the rows of the pair-by-pair rules.

    Covers k = 1–4 and q from 2k - 1 to 2k + 4, so thresholds that are
    negative (every pair allowed) and ones clamped by ``max(...)`` occur.
    """
    thresholds = set()
    denied = 0
    for graph in random_graph_cases(8, max_vertices=14, seed=31):
        for seed_vertex in list(graph.vertices())[:4]:
            neighbors = sorted(graph.neighbors(seed_vertex))
            two_hop = sorted(graph.two_hop_neighbors(seed_vertex))
            dense = DenseSubgraph(graph, [seed_vertex] + neighbors + two_hop)
            candidate_mask = dense.mask_of_parents(neighbors)
            two_hop_mask = dense.mask_of_parents(two_hop)
            for k in (1, 2, 3, 4):
                for q in range(2 * k - 1, 2 * k + 5):
                    rows = build_pair_matrix(dense, 0, candidate_mask, two_hop_mask, k, q)
                    reference = _reference_pair_matrix(
                        dense, 0, candidate_mask, two_hop_mask, k, q
                    )
                    assert rows == reference, (seed_vertex, k, q)
                    denied += sum(dense.size - row.bit_count() for row in rows)
                    for rule in (
                        _pair_threshold_both_two_hop,
                        _pair_threshold_mixed,
                        _pair_threshold_both_candidates,
                    ):
                        thresholds.update(rule(k, q, adjacent) for adjacent in (False, True))
    assert min(thresholds) < 0
    assert denied > 0


def test_pairs_allowed_without_matrix_is_identity():
    assert pairs_allowed(None, 3, 0b1011) == 0b1011


def test_pairs_allowed_filters_with_matrix():
    matrix = [0b111, 0b101, 0b111]
    assert pairs_allowed(matrix, 1, 0b111) == 0b101
