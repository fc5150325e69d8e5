"""Upper bounds on the size of a k-plex extending the current partial solution.

Three bounds from the paper are implemented, all expressed over the dense
bitset representation of a seed subgraph:

* :func:`degree_bound` — Theorem 5.3: ``min_{u ∈ P} d_{G_i}(u) + k``.
* :func:`support_bound` — Theorem 5.5 / Algorithm 4: ``|P| + sup_P(v_p) + |K|``
  where ``K`` is the greedy packing of the pivot's candidate neighbours
  against the remaining non-neighbour budgets (support numbers) of ``P``;
  :func:`packing_bound` is the same bound from the in-``P`` counts that
  Algorithm 3's pivot census already holds.
* :func:`seed_task_bound` — Theorem 5.7: the specialised bound for an initial
  sub-task ``P_S = {v_i} ∪ S``, used by pruning rule R1.

An additional :func:`fp_style_bound` models the upper bound of the FP
baseline: the same packing argument but driven by a sort of the candidate
set, which is what makes it asymptotically more expensive per branch node.
Finally :func:`pairwise_bound` implements Lemma 5.12, the bound underlying
the vertex-pair pruning rules; it is exposed for testing and for the analysis
utilities.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..graph.bitset import iter_bits
from ..graph.dense import DenseSubgraph


def degree_bound(degrees_in_subgraph: Sequence[int], members: Sequence[int], k: int) -> int:
    """Theorem 5.3: ``min_{u ∈ members} d_{G_i}(u) + k``.

    ``degrees_in_subgraph`` holds the degree of every local vertex inside the
    (pruned) seed subgraph; ``members`` are the local indices of ``P``.
    """
    if not members:
        return len(degrees_in_subgraph) + k
    return min(degrees_in_subgraph[u] for u in members) + k


def _in_p_counts(adjacency: Sequence[int], p_mask: int) -> Dict[int, int]:
    """Return ``|N(u) ∩ P|`` for every ``u ∈ P``."""
    return {u: (adjacency[u] & p_mask).bit_count() for u in iter_bits(p_mask)}


def _pack(
    adjacency: Sequence[int],
    p_mask: int,
    candidates: Iterable[int],
    k: int,
    in_p: Dict[int, int],
) -> int:
    """Algorithm 4: ``|K|`` for ``candidates`` packed against ``P``'s support
    numbers ``sup_P(u) = k - |P| + in_p[u]``, where ``in_p`` maps ``u ∈ P`` to
    ``|N(u) ∩ P|``.  Each packed candidate spends (decrements) its
    lowest-support blocker, the first in index order on ties."""
    floor = p_mask.bit_count() - k
    packed = 0
    for w in candidates:
        blockers = p_mask & ~adjacency[w]
        if blockers == 0:
            packed += 1
            continue
        if blockers & (blockers - 1):
            blocker = min(iter_bits(blockers), key=in_p.__getitem__)
        else:
            blocker = blockers.bit_length() - 1
        if in_p[blocker] > floor:
            in_p[blocker] -= 1
            packed += 1
    return packed


def packing_bound(
    adjacency: Sequence[int], p_mask: int, c_mask: int, pivot: int, k: int, in_p: Dict[int, int]
) -> int:
    """:func:`support_bound` from ``P``'s in-P counts ``in_p`` (consumed)."""
    row = adjacency[pivot]
    # |P| + sup_P(pivot) = k + |N(pivot) ∩ P|.
    return k + (row & p_mask).bit_count() + _pack(
        adjacency, p_mask, iter_bits(c_mask & row & ~(1 << pivot)), k, in_p
    )


def support_bound(
    subgraph: DenseSubgraph,
    p_mask: int,
    c_mask: int,
    pivot: int,
    k: int,
) -> int:
    """Theorem 5.5 / Algorithm 4: upper bound for a k-plex containing ``P ∪ {pivot}``.

    The pivot is a candidate vertex (``pivot ∈ C``).  The bound adds to
    ``|P|`` the number of the pivot's non-neighbours that may still join
    (``sup_P(pivot)``) and the size of the greedy packing ``K`` of the pivot's
    candidate neighbours against the support numbers of ``P``.
    """
    adjacency = subgraph.adjacency
    return packing_bound(adjacency, p_mask, c_mask, pivot, k, _in_p_counts(adjacency, p_mask))


def fp_style_bound(
    subgraph: DenseSubgraph,
    p_mask: int,
    c_mask: int,
    pivot: int,
    k: int,
) -> int:
    """Sorting-based upper bound modelled after FP's Lemma 5.

    The packing argument is identical to :func:`support_bound`, but candidate
    neighbours of the pivot are first *sorted* by how many non-neighbours
    they have in ``P`` (fewest first) before the greedy pass.  The resulting
    value is still a valid upper bound (the correctness argument of Theorem
    5.5 does not depend on the processing order); the sort is what makes the
    per-branch cost higher, which is exactly the trade-off the ``Ours\\ub+fp``
    ablation of Table 5 measures.
    """
    adjacency = subgraph.adjacency
    row = adjacency[pivot]
    neighbours = list(iter_bits(c_mask & row & ~(1 << pivot)))
    neighbours.sort(key=lambda w: -(adjacency[w] & p_mask).bit_count())
    return k + (row & p_mask).bit_count() + _pack(
        adjacency, p_mask, neighbours, k, _in_p_counts(adjacency, p_mask)
    )


def seed_task_bound(
    subgraph: DenseSubgraph,
    seed_local: int,
    p_mask: int,
    c_mask: int,
    degrees_in_subgraph: Sequence[int],
    k: int,
) -> int:
    """Theorem 5.7: upper bound for an initial sub-task ``P_S = {v_i} ∪ S``.

    The seed plays the role of the pivot with ``sup_{P_S}(v_i)`` forced to
    zero (no non-neighbour of the seed remains in the candidate set), so the
    bound reduces to ``|P_S| + |K|``; it is combined with the Theorem 5.3
    degree bound over the members of ``P_S``.
    """
    adjacency = subgraph.adjacency
    p_size = p_mask.bit_count()
    in_p = _in_p_counts(adjacency, p_mask)
    packing = _pack(adjacency, p_mask, iter_bits(c_mask & adjacency[seed_local]), k, in_p)
    theorem_57 = p_size + packing
    theorem_53 = degree_bound(degrees_in_subgraph, list(iter_bits(p_mask)), k)
    return min(theorem_57, theorem_53)


def pairwise_bound(subgraph: DenseSubgraph, p_mask: int, c_mask: int, k: int) -> int:
    """Lemma 5.12: ``min_{u,v ∈ P} |P| + sup_P(u) + sup_P(v) + |N_C(u) ∩ N_C(v)|``.

    Exposed primarily for validation: the vertex-pair pruning thresholds of
    Theorems 5.13–5.15 are instantiations of this bound, and the property
    tests check that it never under-estimates the true maximum.
    """
    adjacency = subgraph.adjacency
    p_size = p_mask.bit_count()
    members: List[int] = list(iter_bits(p_mask))
    if len(members) < 2:
        return p_size + c_mask.bit_count()
    in_p = _in_p_counts(adjacency, p_mask)
    best = None
    for index, u in enumerate(members):
        for v in members[index + 1 :]:
            common = (adjacency[u] & adjacency[v] & c_mask).bit_count()
            # |P| + sup_P(u) + sup_P(v), with sup_P(u) = k - |P| + |N(u) ∩ P|.
            value = 2 * k - p_size + in_p[u] + in_p[v] + common
            if best is None or value < best:
                best = value
    return best if best is not None else p_size
