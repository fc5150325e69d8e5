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

Vertex selection reads the prepared index's neighbour rows
(:attr:`~repro.graph.prepared.PreparedGraph.rows`, ``N(u)`` as a bitset over
degeneracy positions), so a count ``|N(u) ∩ A|`` for every ``u`` at once is
:func:`at_least` over the rows of ``A``.  A row op costs ``n/64`` machine
words whatever the degree, so the index builds rows only for graphs whose
rows fit in ``ROW_BYTES_PER_EDGE`` bytes per edge; on sparser graphs the
same counts come from a ``Counter`` over neighbour sets, with the same
thresholds and the same result.  Both thresholds of Corollary 5.2
count only the seed's kept *neighbours*, so the neighbour rule
(``< q - 2k``) is first iterated to its fixpoint ``S*`` over the later
neighbours alone.  The seed is rejected when ``|S*| < q - k``: in any k-plex
``P ∋ v_i`` of ``G_i`` with ``|P| >= q`` the seed has at least
``|P| - k >= q - k`` neighbours, and Corollary 5.2 never prunes a member of
``P``, so all of them lie in ``S*``.  For ``k <= 2`` the corollary itself
already implies this cut; for ``k >= 3`` it rejects more seeds.  A later
non-neighbour is then kept when at least ``q - 2k + 2`` rows of ``S*`` hold
it; one pass is the fixpoint, since dropping two-hop vertices changes no
count, so a kept seed's ``G_i`` is exactly the corollary's fixpoint.

Only the earlier vertices held by at least ``q + 1 - k`` rows of the pruned
``G_i`` become externals.  This drops no witness: a vertex ``u`` that extends
a result ``H ⊆ G_i`` with ``|H| >= q`` makes ``H ∪ {u}`` a k-plex, so
``|N(u) ∩ H| >= |H| + 1 - k >= q + 1 - k``.  Each survivor is checked to
lie within two hops (it is a neighbour of the seed or shares one), as
``V'_i`` requires.

Without Corollary 5.2 (the ``use_seed_pruning`` ablation) ``G_i`` is Eq
(1)'s full vertex set: the later neighbours plus the later non-neighbours
of any neighbour, earlier ones included.

A kept seed is dropped, before its degrees, pair matrix and sub-tasks are
built, when one external vertex ``e`` *dominates* ``G_i``: ``e`` misses at
most ``k - 1`` vertices of ``G_i``, and every vertex ``u`` it misses is
*loose*, ``|G_i \\ N(u)| <= k - 1`` with ``u`` counted as its own
non-neighbour.  Then ``R ∪ {e}`` is a k-plex for every k-plex ``R ⊆ G_i``
(Definition 3.1): ``e`` misses itself and at most ``k - 1`` members of
``R``; a member adjacent to ``e`` misses what it missed in ``R``; and a
member ``u`` that ``e`` misses misses at most ``|R \\ N(u)| + 1 <=
|G_i \\ N(u)| + 1 <= k`` vertices of ``R ∪ {e}``.  Every result of the seed
is a k-plex of ``G_i``, so none is maximal and dropping the seed is exact.
A dominating ``e`` has at least ``|G_i| + 1 - k >= q + 1 - k`` neighbours in
``G_i``, so it is always among the externals tested.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain
from operator import or_
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..graph import Graph
from ..graph.bitset import bits_to_list, iter_bits
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


#: A seed's kept later neighbours, kept later two-hop vertices and a function
#: listing its externals (see :func:`seed_subgraph_vertices`).
Selection = Tuple[List[int], List[int], Callable[[], List[int]]]


class SeedIndex(NamedTuple):
    """The artefacts of a :class:`PreparedGraph` that seed selection reads.

    :func:`iter_seed_contexts` binds them once per solve instead of reading
    the index's properties again for every seed.
    """

    graph: Graph
    position: List[int]
    rows: Optional[List[int]]
    order: List[int]

    @classmethod
    def of(cls, prepared: PreparedGraph) -> "SeedIndex":
        return cls(prepared.graph, prepared.position, prepared.rows, prepared.decomposition.order)


def at_least(rows: Iterable[int], count: int) -> int:
    """The bits set in at least ``count`` (``>= 1``) of ``rows``.

    Counts in bit slices: ``digits[i]`` holds bit ``i`` of every position's
    count, so adding a row ripples a carry through a few digits, whatever
    ``count`` is; the positions that reach ``count`` are then read off by
    comparing the digits with it, most significant first.
    """
    digits: List[int] = []
    reached = 0
    for row in rows:
        reached |= row
        carry = row
        for i, digit in enumerate(digits):
            digits[i] = digit ^ carry
            carry &= digit
            if not carry:
                break
        else:
            if carry:
                digits.append(carry)
    if count >> len(digits):
        return 0
    greater, equal = 0, reached
    for i in range(len(digits) - 1, -1, -1):
        if count >> i & 1:
            equal &= digits[i]
        else:
            greater |= equal & digits[i]
            equal &= ~digits[i]
    return greater | equal


def seed_subgraph_vertices(
    prepared: PreparedGraph,
    seed_vertex: int,
    k: int,
    q: int,
    use_seed_pruning: bool,
    stats: Optional[SearchStatistics] = None,
    index: Optional[SeedIndex] = None,
) -> Optional[Selection]:
    """The vertices of one seed's pruned ``G_i``, or ``None`` if the seed is rejected.

    Returns the kept later neighbours and the kept later two-hop vertices of
    ``seed_vertex`` (each sorted by vertex id), and a function listing the
    externals: ``V'_i``'s vertices with at least ``q + 1 - k`` neighbours in
    ``G_i``, sorted.  Selection follows the module docstring, on
    ``prepared``'s neighbour rows when it has them and on neighbour sets
    otherwise: a seed rejected on its neighbours selects nothing further
    (``q >= 2k - 1`` is assumed, as
    :func:`repro.core.kplex.validate_parameters` enforces).  Without
    ``use_seed_pruning`` ``G_i`` is Eq (1)'s later vertices within two hops.
    ``None`` is returned, and counted in ``stats.seeds_pruned_empty``, when
    ``G_i`` cannot hold a k-plex with ``q`` vertices.  ``index`` is
    ``SeedIndex.of(prepared)`` when the caller has bound it already.
    """
    if index is None:
        index = SeedIndex.of(prepared)
    if index.rows is not None:
        return _select_by_rows(index, seed_vertex, k, q, use_seed_pruning, stats)
    graph, position = index.graph, index.position
    seed_position = position[seed_vertex]
    neighbors = graph.neighbors(seed_vertex)
    later_neighbors = [v for v in neighbors if position[v] > seed_position]
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
        reached = [v for v in counts.keys() - neighbors if position[v] > seed_position]
        two_hop = [v for v in reached if counts[v] >= q - 2 * k + 2]
        if stats is not None:
            stats.vertices_pruned_by_corollary += len(reached) - len(two_hop)
        uncounted = [seed_vertex] + two_hop
    else:
        kept_neighbors = later_neighbors
        reached = graph.neighborhood_within_two_hops(seed_vertex) - neighbors
        two_hop = [v for v in reached if position[v] > seed_position]
        counts = Counter()
        uncounted = [seed_vertex] + kept_neighbors + two_hop
    if 1 + len(kept_neighbors) + len(two_hop) < q:
        if stats is not None:
            stats.seeds_pruned_empty += 1
        return None

    externals = partial(
        _externals_by_counts, graph, position, seed_vertex, counts, uncounted, q + 1 - k
    )
    return sorted(kept_neighbors), sorted(two_hop), externals


def _rejected(stats: Optional[SearchStatistics]) -> None:
    if stats is not None:
        stats.seeds_pruned_empty += 1
    return None


def _select_by_rows(
    index: SeedIndex,
    seed_vertex: int,
    k: int,
    q: int,
    use_seed_pruning: bool,
    stats: Optional[SearchStatistics],
) -> Optional[Selection]:
    """:func:`seed_subgraph_vertices` on the neighbour rows of ``index``."""
    graph, position, rows, order = index
    seed_position = position[seed_vertex]
    seed_row = rows[seed_vertex]
    later = -1 << (seed_position + 1)
    neighbors = graph.neighbors(seed_vertex)
    kept_neighbors = {v for v in neighbors if position[v] > seed_position}
    if use_seed_pruning:
        # Corollary 5.2's neighbour rule to S*, a whole round at a time as in
        # corollary_52_neighbors, so a rejected seed's counter matches it.
        kept = seed_row & later
        later_count = len(kept_neighbors)
        while len(kept_neighbors) >= q - k:
            dropped = [u for u in kept_neighbors if (rows[u] & kept).bit_count() < q - 2 * k]
            if not dropped:
                break
            kept_neighbors.difference_update(dropped)
            kept &= ~sum(1 << position[u] for u in dropped)
        if stats is not None:
            stats.vertices_pruned_by_corollary += later_count - len(kept_neighbors)
        if len(kept_neighbors) < q - k:
            return _rejected(stats)
        outside = later & ~seed_row
        two_hop_mask = at_least(map(rows.__getitem__, kept_neighbors), q - 2 * k + 2) & outside
        if stats is not None:
            reached = reduce(or_, map(rows.__getitem__, kept_neighbors), 0) & outside
            stats.vertices_pruned_by_corollary += reached.bit_count() - two_hop_mask.bit_count()
    else:
        two_hop_mask = reduce(or_, map(rows.__getitem__, neighbors), 0) & later & ~seed_row
    if 1 + len(kept_neighbors) + two_hop_mask.bit_count() < q:
        return _rejected(stats)
    two_hop = [order[at] for at in iter_bits(two_hop_mask)]

    members = [seed_vertex, *kept_neighbors, *two_hop]
    externals = partial(_externals_by_rows, index, seed_vertex, members, q + 1 - k)
    return sorted(kept_neighbors), sorted(two_hop), externals


def _externals_by_counts(
    graph: Graph,
    position: List[int],
    seed_vertex: int,
    counts: Counter,
    uncounted: List[int],
    threshold: int,
) -> List[int]:
    # The count reaches three hops (neighbours of two-hop members), so the
    # few survivors are tested to lie within two hops.
    counts.update(chain.from_iterable(map(graph.neighbors, uncounted)))
    neighbors = graph.neighbors(seed_vertex)
    seed_position = position[seed_vertex]
    return sorted(
        vertex
        for vertex, count in counts.items()
        if count >= threshold
        and position[vertex] < seed_position
        and (vertex in neighbors or not graph.neighbors(vertex).isdisjoint(neighbors))
    )


def _externals_by_rows(
    index: SeedIndex, seed_vertex: int, members: List[int], threshold: int
) -> List[int]:
    _graph, position, rows, order = index
    seed_row = rows[seed_vertex]
    witnesses = at_least(map(rows.__getitem__, members), threshold)
    return sorted(
        order[at]
        for at in iter_bits(witnesses & ((1 << position[seed_vertex]) - 1))
        if (seed_row >> at) & 1 or rows[order[at]] & seed_row
    )


def build_seed_context(
    prepared: PreparedGraph,
    seed_vertex: int,
    k: int,
    q: int,
    config: EnumerationConfig,
    stats: Optional[SearchStatistics] = None,
    index: Optional[SeedIndex] = None,
) -> Optional[SeedContext]:
    """Build the :class:`SeedContext` for one seed vertex, or ``None`` if prunable.

    ``prepared`` is the index of the mined graph (``index`` its bound
    :class:`SeedIndex`, if the caller has one); the seed's ``G_i`` is
    selected by :func:`seed_subgraph_vertices`.  ``None`` is
    returned when the (pruned) seed subgraph is too small to contain a
    k-plex with ``q`` vertices, or when an external vertex dominates it
    (counted in ``stats.seeds_pruned_dominated``).  The external vertices
    are the earlier vertices within two hops held by at least ``q + 1 - k``
    rows of ``G_i`` (module docstring).
    """
    if index is None:
        index = SeedIndex.of(prepared)
    members = seed_subgraph_vertices(
        prepared, seed_vertex, k, q, config.use_seed_pruning, stats, index
    )
    if members is None:
        return None
    kept_neighbors, kept_two_hop, externals = members

    # Local ordering: seed first, then its neighbours, then its non-neighbours,
    # each group sorted by vertex id.  Keeping the seed at index 0 makes masks
    # easy to reason about in tests.
    local_vertices = [seed_vertex] + kept_neighbors + kept_two_hop
    subgraph = DenseSubgraph(index.graph, local_vertices)
    seed_local = 0
    candidate_mask = subgraph.mask_of_parents(kept_neighbors)
    two_hop_mask = subgraph.mask_of_parents(kept_two_hop)

    external = externals()
    external_adjacency = [external_adjacency_mask(subgraph, vertex) for vertex in external]
    if _dominated(subgraph, external_adjacency, k):
        if stats is not None:
            stats.seeds_pruned_dominated += 1
        return None
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
        external_vertices=external,
        external_adjacency=external_adjacency,
        degrees=degrees,
        pair_ok=pair_ok,
    )


def _dominated(subgraph: DenseSubgraph, external_adjacency: List[int], k: int) -> bool:
    """Whether an external vertex extends every k-plex of ``subgraph`` (module docstring)."""
    full, adjacency = subgraph.full_mask, subgraph.adjacency
    # A loose vertex misses at most k - 1 vertices of G_i, itself included.
    loose_degree = subgraph.size + 1 - k
    for row in external_adjacency:
        missed = full & ~row
        if missed.bit_count() < k and all(
            adjacency[u].bit_count() >= loose_degree for u in iter_bits(missed)
        ):
            return True
    return False


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
    index = SeedIndex.of(prepared)
    for seed_vertex in index.order:
        yield seed_vertex, build_seed_context(prepared, seed_vertex, k, q, config, stats, index)
