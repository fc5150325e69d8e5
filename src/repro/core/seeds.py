"""Search-space partitioning into seed subgraphs and initial sub-tasks (Algorithm 2).

For every seed vertex ``v_i`` (taken in degeneracy order) the algorithm
builds a *seed subgraph* ``G_i`` induced by the vertices that come after
``v_i`` in the ordering and lie within two hops of it (Eq (1) of the paper),
shrinks it with Corollary 5.2, and splits the work under ``v_i`` into
independent sub-tasks ``T_{ {v_i} ∪ S }`` — one per subset ``S`` of the
seed's non-neighbours in ``G_i`` with ``|S| <= k - 1``.  Each sub-task is a
``⟨P, C, X⟩`` triple ready to be mined by the branch-and-bound search of
Algorithm 3; the exclusive set ``X`` holds the seed subgraph vertices
excluded from ``S``.  The *external* vertices, which precede ``v_i`` in the
ordering but could still witness non-maximality, stay on the
:class:`SeedContext`: Algorithm 3 tests a result against them at output.

A kept seed's ``G_i`` is built from neighbour counts, not from a two-hop
sweep.  Both thresholds of Corollary 5.2 count only the seed's kept
*neighbours* (``|N(u) ∩ N(v_i) ∩ kept|``), so the neighbour rule
(``< q - 2k``) is first iterated to its fixpoint ``S*`` over the later
neighbours alone.  The seed is rejected when ``|S*| < q - k``: in any k-plex
``P ∋ v_i`` of ``G_i`` with ``|P| >= q`` the seed has at least
``|P| - k >= q - k`` neighbours, and Corollary 5.2 never prunes a member of
``P``, so all of them lie in ``S*``.  For ``k <= 2`` the corollary itself
already implies this cut (a two-hop vertex needs ``q - 2k + 2 > |S*|``
neighbours in ``S*``, so ``G_i`` would keep fewer than ``q`` vertices); for
``k >= 3`` it rejects more seeds.

A surviving seed then counts, in one C-level pass over the neighbour sets of
``S*``, ``|N(u) ∩ S*|`` for every vertex ``u``.  A two-hop vertex is kept
when that count is at least ``q - 2k + 2``, and since ``q >= 2k - 1`` makes
this at least 1, every vertex the rule can keep shows up in the count: the
later vertices that share no neighbour with ``S*`` fail the rule and are never
enumerated.  One pass is the fixpoint, since dropping two-hop vertices changes
no count, so a kept seed's ``G_i`` is exactly the corollary's fixpoint.

The same counter, extended with the neighbour sets of the seed and of the
kept two-hop vertices, then holds ``|N(u) ∩ G_i|`` for every vertex.  Only
the external vertices with at least ``q + 1 - k`` neighbours in the pruned
``G_i`` are kept.  This drops no witness: a vertex ``u`` that extends a
result ``H ⊆ G_i`` with ``|H| >= q`` makes ``H ∪ {u}`` a k-plex, so
``|N(u) ∩ H| >= |H| + 1 - k >= q + 1 - k``.  The count also reaches
vertices three hops from the seed (neighbours of two-hop members), so each
survivor is checked to lie within two hops, as ``V'_i`` requires.

Without Corollary 5.2 (the ``use_seed_pruning`` ablation) ``G_i`` is Eq
(1)'s full vertex set, which includes two-hop vertices reached only through
*earlier* neighbours, so that path takes the two-hop sweep instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from ..graph import Graph
from ..graph.bitset import bits_to_list
from ..graph.dense import DenseSubgraph, external_adjacency_mask
from ..graph.prepared import PreparedGraph, prepare
from .bounds import seed_task_bound
from .config import EnumerationConfig
from .pruning import build_pair_matrix, corollary_52_neighbors
from .stats import SearchStatistics


@dataclass
class SeedContext:
    """Everything shared by the sub-tasks of one seed vertex (one task group).

    Attributes
    ----------
    seed_vertex:
        The seed's vertex id in the mined graph.
    subgraph:
        The dense (bitset) representation of the pruned seed subgraph ``G_i``.
    seed_local:
        Local index of the seed inside :attr:`subgraph`.
    candidate_mask:
        ``C_S = N_{G_i}(v_i)`` as a local bitset.
    two_hop_mask:
        The seed's non-neighbours in ``G_i`` (the pool the sets ``S`` are
        drawn from) as a local bitset.
    external_vertices / external_adjacency:
        The vertices of ``V'_i`` (earlier in the degeneracy ordering, within
        two hops of the seed) that have at least ``q + 1 - k`` neighbours in
        :attr:`subgraph`, and their adjacency projected into the local index
        space; they participate only in maximality checks.  The vertices
        left out can extend no k-plex of ``q`` or more vertices of
        :attr:`subgraph` (see the module docstring), so they could never
        reject a result.
    degrees:
        Degree of every local vertex inside the pruned ``G_i`` (Theorem 5.3).
    pair_ok:
        The co-occurrence bitset rows of Theorems 5.13–5.15, or ``None`` when
        rule R2 is disabled.
    """

    seed_vertex: int
    subgraph: DenseSubgraph
    seed_local: int
    candidate_mask: int
    two_hop_mask: int
    external_vertices: List[int]
    external_adjacency: List[int]
    degrees: List[int]
    pair_ok: Optional[List[int]] = None

    @property
    def size(self) -> int:
        """Number of vertices in the (pruned) seed subgraph."""
        return self.subgraph.size


@dataclass(frozen=True)
class SubTask:
    """One initial sub-task ``T_{ {v_i} ∪ S } = ⟨P_S, C_S, X_S⟩`` (local bitsets)."""

    p_mask: int
    c_mask: int
    x_mask: int


def seed_subgraph_vertices(
    graph: Graph,
    order_position: Sequence[int],
    seed_vertex: int,
    k: int,
    q: int,
    use_seed_pruning: bool,
    stats: Optional[SearchStatistics] = None,
) -> Optional[Tuple[List[int], List[int], Counter]]:
    """The vertices of one seed's pruned ``G_i``, or ``None`` if the seed is rejected.

    Returns the kept later neighbours and the kept later two-hop vertices of
    ``seed_vertex`` (each sorted by vertex id), and a ``Counter`` holding
    ``|N(u) ∩ G_i|`` for every vertex ``u`` with a neighbour in ``G_i``.
    With ``use_seed_pruning`` Corollary 5.2 runs in the order of the module
    docstring: a seed rejected on its neighbours counts nothing further, and
    a surviving seed finds its two-hop vertices in the count over ``S*``
    (``q >= 2k - 1`` is assumed, as :func:`repro.core.kplex.validate_parameters`
    enforces).  Without it ``G_i`` is Eq (1)'s later vertices within two hops.
    ``None`` is returned, and counted in ``stats.seeds_pruned_empty``, when
    ``G_i`` cannot hold a k-plex with ``q`` vertices.
    """
    seed_position = order_position[seed_vertex]
    neighbors = graph.neighbors(seed_vertex)
    later_neighbors = [v for v in neighbors if order_position[v] > seed_position]
    if use_seed_pruning:
        kept_neighbors = corollary_52_neighbors(graph, later_neighbors, k, q)
        if stats is not None:
            stats.vertices_pruned_by_corollary += len(later_neighbors) - len(kept_neighbors)
        if len(kept_neighbors) < q - k:
            if stats is not None:
                stats.seeds_pruned_empty += 1
            return None
        # |N(u) ∩ S*| for every u; the later non-neighbours counted are the
        # only two-hop vertices the rule could keep.
        counts = Counter(chain.from_iterable(map(graph.neighbors, kept_neighbors)))
        later_two_hop = [
            v for v in counts.keys() - neighbors if order_position[v] > seed_position
        ]
        threshold = q - 2 * k + 2
        kept_two_hop = [v for v in later_two_hop if counts[v] >= threshold]
        if stats is not None:
            stats.vertices_pruned_by_corollary += len(later_two_hop) - len(kept_two_hop)
        uncounted = [seed_vertex] + kept_two_hop
    else:
        kept_neighbors = later_neighbors
        two_hop = graph.two_hop_neighbors(seed_vertex)
        kept_two_hop = [v for v in two_hop if order_position[v] > seed_position]
        counts = Counter()
        uncounted = [seed_vertex] + kept_neighbors + kept_two_hop
    if 1 + len(kept_neighbors) + len(kept_two_hop) < q:
        if stats is not None:
            stats.seeds_pruned_empty += 1
        return None
    counts.update(chain.from_iterable(map(graph.neighbors, uncounted)))
    return sorted(kept_neighbors), sorted(kept_two_hop), counts


def build_seed_context(
    graph: Graph,
    order_position: Sequence[int],
    seed_vertex: int,
    k: int,
    q: int,
    config: EnumerationConfig,
    stats: Optional[SearchStatistics] = None,
) -> Optional[SeedContext]:
    """Build the :class:`SeedContext` for one seed vertex, or ``None`` if prunable.

    ``order_position[v]`` must give the position of vertex ``v`` in the
    degeneracy ordering.  ``None`` is returned when the (pruned) seed
    subgraph is too small to contain a k-plex with ``q`` vertices.

    The external vertices are read off the neighbour counts of
    :func:`seed_subgraph_vertices` (module docstring): an earlier vertex is
    kept when it has at least ``q + 1 - k`` neighbours in ``G_i`` and lies
    within two hops of the seed, a C-level membership or disjointness test
    paid only by the few vertices that pass the count.
    """
    members = seed_subgraph_vertices(
        graph, order_position, seed_vertex, k, q, config.use_seed_pruning, stats
    )
    if members is None:
        return None
    kept_neighbors, kept_two_hop, counts = members

    # Local ordering: seed first, then its neighbours, then its non-neighbours,
    # each group sorted by vertex id.  Keeping the seed at index 0 makes masks
    # easy to reason about in tests.
    local_vertices = [seed_vertex] + kept_neighbors + kept_two_hop
    subgraph = DenseSubgraph(graph, local_vertices)
    seed_local = 0
    candidate_mask = subgraph.mask_of_parents(kept_neighbors)
    two_hop_mask = subgraph.mask_of_parents(kept_two_hop)

    seed_position = order_position[seed_vertex]
    neighbors = graph.neighbors(seed_vertex)
    external_threshold = q + 1 - k
    external_vertices = sorted(
        vertex
        for vertex, count in counts.items()
        if count >= external_threshold
        and order_position[vertex] < seed_position
        and (vertex in neighbors or not graph.neighbors(vertex).isdisjoint(neighbors))
    )
    external_adjacency = [
        external_adjacency_mask(subgraph, vertex) for vertex in external_vertices
    ]
    degrees = [row.bit_count() for row in subgraph.adjacency]

    pair_ok = None
    if config.use_pair_pruning:
        pair_ok = build_pair_matrix(
            subgraph, seed_local, candidate_mask, two_hop_mask, k, q
        )

    if stats is not None:
        stats.record_seed(subgraph.size)
    return SeedContext(
        seed_vertex=seed_vertex,
        subgraph=subgraph,
        seed_local=seed_local,
        candidate_mask=candidate_mask,
        two_hop_mask=two_hop_mask,
        external_vertices=external_vertices,
        external_adjacency=external_adjacency,
        degrees=degrees,
        pair_ok=pair_ok,
    )


def iter_subtasks(
    context: SeedContext,
    k: int,
    q: int,
    config: EnumerationConfig,
    stats: Optional[SearchStatistics] = None,
) -> Iterator[SubTask]:
    """Enumerate the sub-tasks of a seed context (Algorithm 2 lines 7–10).

    Subsets ``S`` of the seed's non-neighbours are generated by a
    set-enumeration search bounded by ``|S| <= k - 1``.  When rule R2 is
    active, extending ``S`` by a vertex ``u`` immediately filters both the
    remaining extension pool (Theorem 5.13) and the sub-task candidate set
    ``C_S`` (Theorem 5.14) through the pair matrix.  When rule R1 is active,
    sub-tasks whose Theorem 5.7 upper bound falls below ``q`` are skipped.
    """
    subgraph = context.subgraph
    seed_bit = 1 << context.seed_local
    two_hop_members = bits_to_list(context.two_hop_mask)
    pair_ok = context.pair_ok

    def emit(s_mask: int, c_mask: int) -> Optional[SubTask]:
        p_mask = seed_bit | s_mask
        if stats is not None:
            stats.subtasks += 1
        if config.use_seed_upper_bound and s_mask:
            bound = seed_task_bound(
                subgraph, context.seed_local, p_mask, c_mask, context.degrees, k
            )
            if bound < q:
                if stats is not None:
                    stats.subtasks_pruned_by_seed_bound += 1
                return None
        return SubTask(p_mask=p_mask, c_mask=c_mask, x_mask=context.two_hop_mask & ~s_mask)

    def recurse(
        s_mask: int, start: int, c_mask: int, extension_mask: int
    ) -> Iterator[SubTask]:
        task = emit(s_mask, c_mask)
        if task is not None:
            yield task
        if s_mask.bit_count() >= k - 1:
            return
        for position in range(start, len(two_hop_members)):
            vertex = two_hop_members[position]
            if (extension_mask >> vertex) & 1 == 0:
                continue
            new_c_mask = c_mask
            new_extension = extension_mask
            if pair_ok is not None:
                new_c_mask &= pair_ok[vertex]
                new_extension &= pair_ok[vertex]
                if stats is not None:
                    stats.candidates_pruned_by_pairs += (
                        c_mask.bit_count() - new_c_mask.bit_count()
                    )
            yield from recurse(
                s_mask | (1 << vertex), position + 1, new_c_mask, new_extension
            )

    yield from recurse(0, 0, context.candidate_mask, context.two_hop_mask)


def iter_seed_contexts(
    graph: Graph,
    k: int,
    q: int,
    config: EnumerationConfig,
    stats: Optional[SearchStatistics] = None,
    prepared: Optional[PreparedGraph] = None,
) -> Iterator[Tuple[int, Optional[SeedContext]]]:
    """Iterate over ``(seed_vertex, SeedContext or None)`` in degeneracy order.

    The caller is expected to have already shrunk ``graph`` to its
    ``(q - k)``-core (Theorem 3.5); the seed order is the degeneracy ordering
    of that graph.  The degeneracy ordering comes from the graph's prepared
    index (computed once per graph, shared across requests); pass
    ``prepared`` to reuse an index the caller already holds.
    """
    if prepared is None:
        prepared = prepare(graph)
    position = prepared.position
    for seed_vertex in prepared.decomposition.order:
        context = build_seed_context(graph, position, seed_vertex, k, q, config, stats)
        yield seed_vertex, context
