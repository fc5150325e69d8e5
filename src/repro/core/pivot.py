"""Pivot selection (Algorithm 3, lines 7–10 and 15–16).

The paper selects as pivot a vertex of minimum degree inside ``G[P ∪ C]``;
ties are broken towards the vertex with the most non-neighbours in ``P``
(closest to saturation), because saturated vertices in ``P`` force every
future candidate to be adjacent to them and therefore shrink the candidate
set the fastest.  When the chosen pivot already belongs to ``P`` the search
re-picks, with the same rules, a pivot among the non-neighbours of the old
pivot inside ``C`` — that candidate vertex is the one actually branched on.

The pass that picks the pivot reads ``|N(v) ∩ P|`` and ``|N(v) ∩ (P ∪ C)|``
for every ``v ∈ P ∪ C``; :func:`select_pivot` returns what the node needs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..graph.bitset import iter_bits
from ..graph.dense import DenseSubgraph


def select_pivot(
    subgraph: DenseSubgraph, p_mask: int, c_mask: int, k: int
) -> Tuple[int, bool, int, Dict[int, int], int, int, int, int]:
    """Select the pivot from a non-empty ``P ∪ C`` (Algorithm 3 lines 7–10).

    The pivot minimises ``(degree in G[P ∪ C], |N(v) ∩ P|)``; a full tie
    prefers a member of ``P`` (line 9), then the smallest local index, so the
    search is deterministic.  Returns ``(pivot, pivot_in_p, degree, in_p,
    saturated, one_short, tight, pc_saturated)``: the pivot's degree in
    ``G[P ∪ C]`` (line 11's k-plex test), ``|N(u) ∩ P|`` for each ``u ∈ P``,
    the members of ``P`` with ``k`` and with ``k − 1`` non-neighbours in
    ``P``, the members of ``C`` with exactly ``|P| + 1 − k`` neighbours in
    ``P``, and the members of ``P ∪ C`` with at most ``|P ∪ C| − k``
    neighbours in it (those that are not *loose*: a loose vertex misses at
    most ``k − 1`` vertices of ``P ∪ C``, itself counted).  Where ``P ∪ C``
    is a k-plex, the last mask is its saturated set.
    """
    adjacency = subgraph.adjacency
    pc_mask = p_mask | c_mask
    p_size = p_mask.bit_count()
    pc_size = pc_mask.bit_count()
    saturated_count = p_size - k
    short_count = saturated_count + 1  # one-short in P, tight in C
    pc_saturated_degree = pc_size - k
    # The key (degree, in-P count) packed into one integer.  P is scanned
    # before C and only a strictly smaller key wins: that is the tie order.
    stride = p_size + 1
    best_key = pc_size * stride
    best = -1
    in_p: Dict[int, int] = {}
    saturated = one_short = tight = pc_saturated = 0
    # The bit loops are inlined: this is the search's hottest code.
    mask = p_mask
    while mask:
        low = mask & -mask
        mask ^= low
        u = low.bit_length() - 1
        row = adjacency[u]
        count = (row & p_mask).bit_count()
        degree = (row & pc_mask).bit_count()
        in_p[u] = count
        if count == saturated_count:
            saturated |= low
        elif count == short_count:
            one_short |= low
        if degree <= pc_saturated_degree:
            pc_saturated |= low
        key = degree * stride + count
        if key < best_key:
            best_key = key
            best = u
    pivot_in_p = best >= 0
    mask = c_mask
    while mask:
        low = mask & -mask
        mask ^= low
        row = adjacency[low.bit_length() - 1]
        count = (row & p_mask).bit_count()
        degree = (row & pc_mask).bit_count()
        if count == short_count:
            tight |= low
        if degree <= pc_saturated_degree:
            pc_saturated |= low
        key = degree * stride + count
        if key < best_key:
            best_key = key
            best = low.bit_length() - 1
            pivot_in_p = False
    return best, pivot_in_p, best_key // stride, in_p, saturated, one_short, tight, pc_saturated


def repick_pivot_from_candidates(
    subgraph: DenseSubgraph, p_mask: int, c_mask: int, old_pivot: int
) -> Optional[int]:
    """Re-pick the pivot among ``\\bar N_C(old_pivot)`` (Algorithm 3 line 16).

    The candidates considered are the non-neighbours of ``old_pivot`` inside
    ``C``; the same minimum-degree / closest-to-saturation rules apply.
    Returns ``None`` when no such candidate exists (which cannot happen on
    the paths Algorithm 3 takes, but is handled defensively).
    """
    adjacency = subgraph.adjacency
    pool = c_mask & ~adjacency[old_pivot] & ~(1 << old_pivot)
    if pool == 0:
        return None
    pc_mask = p_mask | c_mask
    # min() keeps the first, so the smallest index, of equal keys.
    return min(
        iter_bits(pool),
        key=lambda v: ((adjacency[v] & pc_mask).bit_count(), (adjacency[v] & p_mask).bit_count()),
    )
