"""High-level enumeration API (the paper's Algorithm 2 driving Algorithm 3).

:class:`KPlexEnumerator` owns the whole sequential pipeline:

1. shrink the input graph to its ``(q - k)``-core (Theorem 3.5);
2. compute the degeneracy ordering and iterate over seed vertices;
3. build each seed subgraph, prune it with Corollary 5.2, and optionally
   precompute the vertex-pair co-occurrence matrix (rule R2);
4. enumerate the initial sub-tasks ``T_{ {v_i} ∪ S }`` (optionally pruned by
   the Theorem 5.7 bound, rule R1);
5. mine every sub-task with the branch-and-bound search of Algorithm 3.

Step 5 is :func:`mine_seed`, the one place a seed's task group is mined.
Every path that runs Algorithm 3 goes through it: this enumerator, the
parallel workers, the FP baseline, query mode and the cost collection of the
simulated scheduler.  It resumes the branch states a ``τ_time`` timeout
spills before starting the next sub-task, returns each sub-task's branch
calls, and records the seed's total in the heavy-seed table of
:class:`SearchStatistics`.

Results are reported as :class:`~repro.core.kplex.KPlex` records whose vertex
ids and labels refer to the *original* input graph.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..graph import Graph
from ..graph.prepared import prepare
from ..obs import start_span
from .branch import BranchSearcher, ResultCallback
from .config import EnumerationConfig
from .kplex import KPlex, validate_parameters
from .seeds import SeedContext, SubTask, iter_seed_contexts, iter_subtasks
from .stats import SearchStatistics


def mine_seed(
    context: SeedContext,
    tasks: Iterable[SubTask],
    k: int,
    q: int,
    config: EnumerationConfig,
    stats: SearchStatistics,
    on_result: ResultCallback,
    timeout: Optional[float] = None,
) -> List[int]:
    """Mine one seed's task group with Algorithm 3.

    Each sub-task of ``tasks`` runs to completion before the next starts:
    with a ``timeout`` (the paper's ``τ_time``), the branch states it spills
    are resumed first, each with a fresh deadline.  Returns the branch calls
    of every sub-task, its spilled states included, and records their sum
    as the seed's entry in ``stats``' heavy-seed table.
    """
    pending: deque = deque()
    searcher = BranchSearcher(
        context,
        k,
        q,
        config,
        stats,
        on_result,
        timeout=timeout,
        task_sink=pending.append if timeout is not None else None,
    )
    costs: List[int] = []
    for task in tasks:
        before = stats.branch_calls
        searcher.run_subtask(task)
        while pending:
            searcher.run_state(pending.popleft())
        costs.append(stats.branch_calls - before)
    stats.record_seed_calls(context.seed_vertex, sum(costs))
    return costs


@dataclass
class EnumerationResult:
    """Outcome of one enumeration run."""

    kplexes: List[KPlex]
    statistics: SearchStatistics
    k: int
    q: int
    config: EnumerationConfig

    @property
    def count(self) -> int:
        """Number of maximal k-plexes found."""
        return len(self.kplexes)

    def vertex_sets(self) -> List[Tuple[int, ...]]:
        """Return the result vertex sets (sorted tuples of input-graph ids)."""
        return [plex.vertices for plex in self.kplexes]

    def __iter__(self) -> Iterator[KPlex]:
        return iter(self.kplexes)

    def __len__(self) -> int:
        return len(self.kplexes)


class KPlexEnumerator:
    """Configurable enumerator for maximal k-plexes with at least ``q`` vertices.

    Parameters
    ----------
    graph:
        The input graph.
    k:
        The k-plex relaxation parameter (``k = 1`` gives maximal cliques).
    q:
        Minimum result size; must satisfy ``q >= 2k - 1`` (Definition 3.4).
    config:
        Optional :class:`EnumerationConfig`; defaults to the paper's ``Ours``
        variant with every pruning technique enabled.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        q: int,
        config: Optional[EnumerationConfig] = None,
    ) -> None:
        validate_parameters(k, q)
        self.graph = graph
        self.k = k
        self.q = q
        self.config = config or EnumerationConfig.ours()
        self.statistics = SearchStatistics()
        # The (q-k)-core the search actually runs on, plus the map back to
        # the input graph's vertex ids.  Both the shrinking and the core's
        # degeneracy ordering come from the prepared-graph index, so repeated
        # runs on the same graph object skip this work entirely; the time the
        # lookups actually take is recorded as preprocessing.
        preprocess_span = start_span("preprocess", core_level=q - k)
        started = time.perf_counter()
        self._prepared_core, self._core_map = prepare(graph).prepared_core(q - k)
        self._core_graph = self._prepared_core.graph
        if self._core_graph.num_vertices >= q:
            # Materialise the ordering up front so the preprocess/search
            # time split is meaningful.
            self._prepared_core.position
        preprocess = time.perf_counter() - started
        self.statistics.preprocess_seconds += preprocess
        self.statistics.elapsed_seconds += preprocess
        if preprocess_span is not None:
            preprocess_span.set(
                core_vertices=self._core_graph.num_vertices
            ).finish()

    # ------------------------------------------------------------------ #
    # Properties describing the preprocessed search space
    # ------------------------------------------------------------------ #
    @property
    def core_graph(self) -> Graph:
        """The ``(q - k)``-core the enumeration operates on."""
        return self._core_graph

    @property
    def core_vertex_map(self) -> Sequence[int]:
        """Map from core-graph vertex ids back to input-graph vertex ids."""
        return self._core_map

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def _result_from_mask(self, context: SeedContext, p_mask: int) -> KPlex:
        core_vertices = context.subgraph.parents_of_mask(p_mask)
        original = [self._core_map[v] for v in core_vertices]
        return KPlex.from_vertices(self.graph, original, self.k)

    def iter_results(self) -> Iterator[KPlex]:
        """Lazily yield maximal k-plexes (order follows the seed ordering)."""
        # The span parent is whatever is active when the first result is
        # pulled (the engine consumes this generator on the same thread).
        search_span = start_span("search")
        started = time.perf_counter()
        # try/finally so abandoned generators (early cancellation, timeout,
        # result budgets) still record the time they consumed.
        try:
            if self._core_graph.num_vertices >= self.q:
                for _seed, context in iter_seed_contexts(
                    self._core_graph,
                    self.k,
                    self.q,
                    self.config,
                    self.statistics,
                    prepared=self._prepared_core,
                ):
                    if context is None:
                        continue
                    found: List[KPlex] = []
                    mine_seed(
                        context,
                        iter_subtasks(
                            context, self.k, self.q, self.config, self.statistics
                        ),
                        self.k,
                        self.q,
                        self.config,
                        self.statistics,
                        on_result=lambda mask, ctx=context, sink=found: sink.append(
                            self._result_from_mask(ctx, mask)
                        ),
                    )
                    yield from found
        finally:
            duration = time.perf_counter() - started
            self.statistics.search_seconds += duration
            self.statistics.elapsed_seconds += duration
            if search_span is not None:
                search_span.set(
                    seeds=self.statistics.seeds,
                    branch_calls=self.statistics.branch_calls,
                    outputs=self.statistics.outputs,
                ).finish()

    def run(self) -> EnumerationResult:
        """Enumerate all maximal k-plexes and return the collected result."""
        results = sorted(self.iter_results(), key=lambda plex: (plex.size, plex.vertices))
        return EnumerationResult(
            kplexes=results,
            statistics=self.statistics,
            k=self.k,
            q=self.q,
            config=self.config,
        )

    def count(self) -> int:
        """Count maximal k-plexes without keeping them in memory."""
        total = 0
        for _ in self.iter_results():
            total += 1
        return total


def enumerate_maximal_kplexes(
    graph: Graph,
    k: int,
    q: int,
    config: Optional[EnumerationConfig] = None,
) -> List[KPlex]:
    """Enumerate all maximal k-plexes of ``graph`` with at least ``q`` vertices.

    This is the one-call functional API, kept as a thin shim over
    :class:`repro.api.KPlexEngine` (solver ``"ours"``); results match the
    paper's default algorithm ``Ours``.
    """
    from ..api.engine import KPlexEngine
    from ..api.request import EnumerationRequest

    return KPlexEngine().solve(
        EnumerationRequest(
            graph=graph,
            k=k,
            q=q,
            solver="ours",
            config=config,
        )
    ).kplexes


def count_maximal_kplexes(
    graph: Graph,
    k: int,
    q: int,
    config: Optional[EnumerationConfig] = None,
) -> int:
    """Count the maximal k-plexes of ``graph`` with at least ``q`` vertices.

    Shim over :meth:`repro.api.KPlexEngine.count`: results are streamed and
    discarded, never materialised.
    """
    from ..api.engine import KPlexEngine
    from ..api.request import EnumerationRequest

    return KPlexEngine().count(
        EnumerationRequest(graph=graph, k=k, q=q, solver="ours", config=config)
    )
