"""FP-style baseline.

FP (Dai et al., CIKM 2022) also mines seed subgraphs in degeneracy order but,
unlike ListPlex and the paper's algorithm, it does **not** split a seed's
work into sub-tasks over the seed's two-hop non-neighbours: the whole two-hop
neighbourhood forms a single candidate set.  Its branch pruning relies on an
upper bound whose computation requires sorting the candidate set in every
recursion (Lemma 5 of the FP paper), which the paper identifies as its main
per-node overhead.

The re-implementation below reuses the shared branch-and-bound engine with

* a single sub-task per seed whose candidate set is the full two-hop
  neighbourhood (no ``S`` enumeration),
* the sorting-based upper bound (``upper_bound_method="fp"``),
* no vertex-pair pruning and no Theorem 5.7 sub-task pruning.
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterator, List, Optional, Set, Tuple

from ..core.config import UPPER_BOUND_FP, EnumerationConfig
from ..core.enumerator import EnumerationResult, mine_seed
from ..core.kplex import KPlex, validate_parameters
from ..core.seeds import SeedContext, SubTask, seed_subgraph_vertices
from ..core.stats import SearchStatistics
from ..graph import Graph
from ..graph.core_decomposition import shrink_to_core
from ..graph.dense import DenseSubgraph, external_adjacency_mask
from ..graph.prepared import PreparedGraph, prepare


def fp_config() -> EnumerationConfig:
    """Configuration matching the techniques used by the FP baseline."""
    return EnumerationConfig(
        use_upper_bound=True,
        upper_bound_method=UPPER_BOUND_FP,
        use_seed_upper_bound=False,
        use_pair_pruning=False,
        use_seed_pruning=True,
    )


def build_fp_seed_context(
    prepared: PreparedGraph,
    seed_vertex: int,
    k: int,
    q: int,
    use_seed_pruning: bool = True,
    stats: Optional[SearchStatistics] = None,
) -> Optional[SeedContext]:
    """Build an FP-style seed context: one candidate set, no sub-task split.

    Every earlier vertex within two hops of the seed is an external vertex:
    FP applies no count cut to ``V'_i``.
    """
    members = seed_subgraph_vertices(prepared, seed_vertex, k, q, use_seed_pruning, stats)
    if members is None:
        return None
    kept_neighbors, kept_two_hop, _externals = members

    graph, order_position = prepared.graph, prepared.position
    local_vertices = [seed_vertex] + sorted(kept_neighbors + kept_two_hop)
    subgraph = DenseSubgraph(graph, local_vertices)
    candidate_mask = subgraph.full_mask & ~1  # everyone except the seed (index 0)
    seed_position = order_position[seed_vertex]
    external_vertices = sorted(
        vertex
        for vertex in graph.neighborhood_within_two_hops(seed_vertex)
        if order_position[vertex] < seed_position
    )
    external_adjacency = [
        external_adjacency_mask(subgraph, vertex) for vertex in external_vertices
    ]
    degrees = [subgraph.degree(v) for v in range(subgraph.size)]
    if stats is not None:
        stats.record_seed(subgraph.size)
    return SeedContext(
        seed_vertex=seed_vertex,
        subgraph=subgraph,
        seed_local=0,
        candidate_mask=candidate_mask,
        two_hop_mask=0,
        external_vertices=external_vertices,
        external_adjacency=external_adjacency,
        degrees=degrees,
        pair_ok=None,
    )


class FPLike:
    """Baseline enumerator mirroring FP's search strategy."""

    def __init__(self, graph: Graph, k: int, q: int) -> None:
        validate_parameters(k, q)
        self.graph = graph
        self.k = k
        self.q = q
        self.config = fp_config()
        self.statistics = SearchStatistics()
        # Preprocessing (core shrinking + degeneracy ordering) is timed here
        # so the preprocess/search split is comparable with the 'ours' path.
        started = time.perf_counter()
        self._core_graph, self._core_map = shrink_to_core(graph, q - k)
        self._prepared: Optional[PreparedGraph] = None
        if self._core_graph.num_vertices >= q:
            self._prepared = prepare(self._core_graph)
            self._prepared.position
        preprocess = time.perf_counter() - started
        self.statistics.preprocess_seconds += preprocess
        self.statistics.elapsed_seconds += preprocess

    def iter_results(self) -> Iterator[KPlex]:
        """Lazily yield maximal k-plexes, one seed's task group at a time."""
        started = time.perf_counter()
        try:
            for _calls, found in self.iter_seed_groups():
                yield from found
        finally:
            # Abandoned generators (cancellation, budgets) still record time.
            duration = time.perf_counter() - started
            self.statistics.search_seconds += duration
            self.statistics.elapsed_seconds += duration

    def iter_seed_groups(self) -> Iterator[Tuple[int, List[KPlex]]]:
        """Mine seed by seed; yield each seed's branch calls and its results."""
        if self._prepared is None:
            return
        for seed_vertex in self._prepared.decomposition.order:
            context = build_fp_seed_context(
                self._prepared, seed_vertex, self.k, self.q, stats=self.statistics
            )
            if context is None:
                continue
            self.statistics.subtasks += 1
            found: List[KPlex] = []
            (calls,) = mine_seed(
                context,
                [SubTask(p_mask=1, c_mask=context.candidate_mask, x_mask=0)],
                self.k,
                self.q,
                self.config,
                self.statistics,
                on_result=lambda mask, ctx=context, sink=found: sink.append(
                    self._translate(ctx, mask)
                ),
            )
            yield calls, found

    def run(self) -> EnumerationResult:
        """Enumerate all maximal k-plexes with at least ``q`` vertices."""
        results = list(self.iter_results())
        results.sort(key=lambda plex: (plex.size, plex.vertices))
        return EnumerationResult(
            kplexes=results,
            statistics=self.statistics,
            k=self.k,
            q=self.q,
            config=self.config,
        )

    def _translate(self, context: SeedContext, mask: int) -> KPlex:
        core_vertices = context.subgraph.parents_of_mask(mask)
        original = [self._core_map[v] for v in core_vertices]
        return KPlex.from_vertices(self.graph, original, self.k)


def fp_maximal_kplexes(graph: Graph, k: int, q: int) -> List[KPlex]:
    """Functional wrapper returning the FP-style baseline results."""
    return FPLike(graph, k, q).run().kplexes


def fp_vertex_sets(graph: Graph, k: int, q: int) -> Set[FrozenSet[int]]:
    """Return the baseline results as a set of frozensets (for tests)."""
    return {plex.as_set() for plex in fp_maximal_kplexes(graph, k, q)}
