"""Pruning techniques: Corollary 5.2 and the vertex-pair rules (R2).

Two families of pruning are implemented here:

* :func:`corollary_52_keep` applies Corollary 5.2 to the vertex set of a
  seed subgraph ``G_i``: a vertex that does not share enough common
  neighbours with the seed can never occur in a k-plex of size ``q`` together
  with the seed and is removed before the dense subgraph is materialised.
  Its neighbour half, :func:`corollary_52_neighbors`, lets a seed builder
  reject a seed on its neighbours alone; Algorithm 2's seed builder
  (:mod:`repro.core.seeds`) calls it on graphs too sparse for neighbour
  rows and runs the same rounds on the rows otherwise.

* :func:`build_pair_matrix` precomputes the boolean co-occurrence matrix ``T``
  of Theorems 5.13–5.15.  ``T[u][v]`` is ``False`` when ``u`` and ``v`` cannot
  both belong to a k-plex with at least ``q`` vertices in the current seed
  subgraph, based on how many common neighbours they have inside the initial
  candidate set ``C_S``.  The matrix is stored as one bitset row per local
  vertex so that filtering a candidate set is a single ``&``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from ..graph import Graph
from ..graph.bitset import iter_bits
from ..graph.dense import DenseSubgraph


def corollary_52_neighbors(
    graph: Graph, neighbors: Iterable[int], k: int, q: int
) -> Set[int]:
    """The neighbour half of Corollary 5.2: its fixpoint ``S*`` over ``neighbors``.

    ``neighbors`` are the seed's neighbours in ``G_i``.  A neighbour ``u`` is
    pruned when ``|N(u) ∩ S| < q - 2k``, where ``S`` is the set of seed
    neighbours still kept; the rule is re-applied until nothing changes.
    It never looks at the seed's two-hop vertices, because both thresholds
    of the corollary count only kept seed neighbours.

    The iteration stops as soon as fewer than ``q - k`` vertices are left,
    and such a result rejects the seed: the seed has at least
    ``|P| - k >= q - k`` neighbours in any k-plex ``P ∋ seed`` of ``G_i``
    with ``|P| >= q``, and every one of them lies in ``S*``.  The contract:
    the result has fewer than ``q - k`` vertices exactly when ``S*`` does,
    and equals ``S*`` otherwise.
    """
    kept = set(neighbors)
    threshold = q - 2 * k
    floor = q - k
    while len(kept) >= floor:
        removable = [u for u in kept if len(graph.neighbors(u) & kept) < threshold]
        if not removable:
            break
        kept.difference_update(removable)
    return kept


def corollary_52_keep(
    graph: Graph, seed: int, vertices: Iterable[int], k: int, q: int
) -> Set[int]:
    """Return the subset of ``vertices`` that survives Corollary 5.2.

    ``vertices`` is the candidate vertex set ``V_i`` of seed ``seed`` (the
    seed is always kept).  A vertex ``u`` is pruned when

    * ``u ∈ N(seed)`` and ``|N(u) ∩ N(seed)| < q - 2k`` inside ``G_i``, or
    * ``u ∈ N²(seed)`` and ``|N(u) ∩ N(seed)| < q - 2k + 2`` inside ``G_i``,

    re-applied until a fixpoint is reached.  Both counts range over kept
    seed neighbours only, so the neighbours' fixpoint ``S*`` is computed
    first (:func:`corollary_52_neighbors`) and the non-neighbours are then
    filtered against it in one pass: removing non-neighbours changes no count.

    When ``S*`` has fewer than ``q - k`` vertices the seed lies in no k-plex
    of ``q`` or more vertices, and the non-neighbours are not looked at.
    The contract: the result has fewer than ``q`` vertices exactly when the
    full fixpoint does or its ``S*`` has fewer than ``q - k`` vertices, and
    equals the fixpoint otherwise.  For ``k <= 2`` the second condition
    implies the first (a non-neighbour then needs more seed neighbours than
    ``S*`` has), so the cut only adds rejections for ``k >= 3``.
    """
    candidates = set(vertices)
    candidates.discard(seed)
    neighbors = graph.neighbors(seed)
    kept = corollary_52_neighbors(graph, candidates & neighbors, k, q)
    if len(kept) >= q - k:
        threshold = q - 2 * k + 2
        # A list, so every count is taken against S* before ``kept`` grows.
        kept.update(
            [u for u in candidates - neighbors if len(graph.neighbors(u) & kept) >= threshold]
        )
    kept.add(seed)
    return kept


# --------------------------------------------------------------------------- #
# Vertex-pair pruning (Theorems 5.13 - 5.15)
# --------------------------------------------------------------------------- #
def _pair_threshold_both_two_hop(k: int, q: int, adjacent: bool) -> int:
    """Theorem 5.13 thresholds: both endpoints in ``N²_{G_i}(v_i)``."""
    if adjacent:
        return q - k - 2 * max(k - 2, 0)
    return q - k - 2 * max(k - 3, 0)


def _pair_threshold_mixed(k: int, q: int, adjacent: bool) -> int:
    """Theorem 5.14 thresholds: one endpoint in ``N²``, the other in ``N(v_i)``.

    The thresholds follow the derivation in the paper's Appendix A.9 (the
    bound actually proven), which is the safe direction for pruning.
    """
    if adjacent:
        return q - 2 * k - max(k - 2, 0)
    return q - k - max(k - 2, 0) - max(k - 2, 1)


def _pair_threshold_both_candidates(k: int, q: int, adjacent: bool) -> int:
    """Theorem 5.15 thresholds: both endpoints in ``C_S = N_{G_i}(v_i)``."""
    if adjacent:
        return q - 3 * k
    return q - k - 2 * max(k - 1, 1)


def build_pair_matrix(
    subgraph: DenseSubgraph,
    seed_local: int,
    candidate_mask: int,
    two_hop_mask: int,
    k: int,
    q: int,
) -> List[int]:
    """Build the co-occurrence bitset rows ``pair_ok`` for a seed subgraph.

    ``pair_ok[u]`` has bit ``v`` set when Theorems 5.13–5.15 do **not** rule
    out ``u`` and ``v`` co-occurring in a k-plex of size at least ``q`` inside
    this seed subgraph.  The seed vertex row allows everything (the seed is in
    every k-plex of the task group by construction).

    Each theorem's two thresholds are computed once, as a ``(non-adjacent,
    adjacent)`` pair indexed by the pair's adjacency bit.  The common
    neighbours are counted inside ``C_S``; the theorems count them inside
    ``C_S`` minus the pair's own candidates, which is the same number
    because a vertex is never its own neighbour.  A theorem whose thresholds
    are both at most zero rules out no pair and is skipped.
    """
    size = subgraph.size
    full = subgraph.full_mask
    adjacency = subgraph.adjacency
    common_rows = [row & candidate_mask for row in adjacency]
    denied = [0] * size

    def sweep(pairs_of, thresholds) -> None:
        if max(thresholds) <= 0:
            return
        for u, others in pairs_of:
            row = adjacency[u]
            common_row = common_rows[u]
            for v in others:
                if (common_row & adjacency[v]).bit_count() < thresholds[(row >> v) & 1]:
                    denied[u] |= 1 << v
                    denied[v] |= 1 << u

    two_hop = list(iter_bits(two_hop_mask))
    candidates = list(iter_bits(candidate_mask))
    # Theorem 5.13: both vertices from the two-hop set.
    sweep(
        ((u, two_hop[index + 1 :]) for index, u in enumerate(two_hop)),
        (_pair_threshold_both_two_hop(k, q, False), _pair_threshold_both_two_hop(k, q, True)),
    )
    # Theorem 5.14: one two-hop vertex with one candidate vertex.
    sweep(
        ((u, candidates) for u in two_hop),
        (_pair_threshold_mixed(k, q, False), _pair_threshold_mixed(k, q, True)),
    )
    # Theorem 5.15: both vertices from the candidate set.
    sweep(
        ((u, candidates[index + 1 :]) for index, u in enumerate(candidates)),
        (
            _pair_threshold_both_candidates(k, q, False),
            _pair_threshold_both_candidates(k, q, True),
        ),
    )

    # The seed lies in neither set, so it may co-occur with every surviving
    # vertex of its own subgraph.
    return [full & ~row for row in denied]


def pairs_allowed(pair_ok: Optional[Sequence[int]], u: int, mask: int) -> int:
    """Filter ``mask`` down to the vertices allowed to co-occur with ``u``.

    When no pair matrix is available (R2 disabled) the mask is returned
    unchanged.
    """
    if pair_ok is None:
        return mask
    return mask & pair_ok[u]
