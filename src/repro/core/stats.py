"""Search statistics collected during enumeration.

The counters mirror the quantities the paper uses to explain its speedups:
how many seed subgraphs and sub-tasks were generated, how many branch nodes
were explored, and how often each pruning technique fired.  They are also the
cost model consumed by the simulated parallel scheduler
(:mod:`repro.parallel.scheduler`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict

#: Upper bound on entries kept in ``per_seed_branch_calls``.  Long-lived
#: servers accumulate stats objects (result caches hold them per response),
#: so per-seed tracking keeps only the heaviest seeds once a run exceeds
#: this many: exactly the ones worth looking at when diagnosing skew.
PER_SEED_TOP_N = 64

#: Pruning is amortised: the dict may transiently grow to this many entries
#: before being cut back to :data:`PER_SEED_TOP_N`.
_PER_SEED_PRUNE_AT = 4 * PER_SEED_TOP_N


@dataclass
class SearchStatistics:
    """Mutable counters filled in by the enumerator."""

    # Every seed tried is counted once: ``seeds`` when its task group is
    # built, ``seeds_pruned_empty`` when its G_i is too small for a k-plex
    # of q vertices, ``seeds_pruned_dominated`` when one earlier (external)
    # vertex extends every k-plex of its G_i, so none is maximal
    # (repro.core.seeds).
    seeds: int = 0
    seed_subgraph_vertices: int = 0
    seeds_pruned_empty: int = 0
    seeds_pruned_dominated: int = 0
    subtasks: int = 0
    subtasks_pruned_by_seed_bound: int = 0
    branch_calls: int = 0
    outputs: int = 0
    branches_pruned_by_upper_bound: int = 0
    candidates_pruned_by_pairs: int = 0
    # Vertices Corollary 5.2 dropped from seed subgraphs: the later
    # neighbours outside the fixpoint S*, plus the counted later two-hop
    # vertices not kept.  A two-hop vertex is counted only when it has a
    # neighbour in S* (repro.core.seeds finds two-hop vertices by counting
    # over S*); one without fails the rule anyway and is not enumerated.  A
    # seed rejected on its neighbours (fewer than q - k survive) adds only
    # the later neighbours dropped before the reject.
    vertices_pruned_by_corollary: int = 0
    maximality_rejections: int = 0
    # Algorithm 3 nodes cut because one vertex of their local X extends every
    # k-plex between P and P ∪ C (repro.core.branch).
    nodes_pruned_dominated: int = 0
    elapsed_seconds: float = 0.0
    # Split of elapsed_seconds: graph-level preprocessing (core shrinking,
    # degeneracy ordering — near zero on a prepared-graph
    # cache hit) vs the search proper (seed subgraphs + branch and bound).
    preprocess_seconds: float = 0.0
    search_seconds: float = 0.0
    # Fault-tolerance events observed during a parallel run: worker pools
    # rebuilt after a crash, seed tasks resubmitted, and whether the run
    # finished on the in-process serial fallback (degradation ladder).
    pool_recoveries: int = 0
    task_retries: int = 0
    serial_fallbacks: int = 0
    # Branch calls per mined seed, filled once per seed by
    # repro.core.enumerator.mine_seed.  Bounded to the PER_SEED_TOP_N
    # heaviest seeds (see _prune_per_seed); per_seed_dropped counts entries
    # discarded by that cap.
    per_seed_branch_calls: Dict[int, int] = field(default_factory=dict)
    per_seed_dropped: int = 0

    def record_seed(self, subgraph_size: int) -> None:
        """Record that a seed subgraph with ``subgraph_size`` vertices was built."""
        self.seeds += 1
        self.seed_subgraph_vertices += subgraph_size

    def record_seed_calls(self, seed_vertex: int, branch_calls: int) -> None:
        """Record the branch calls a seed's mined task group took in total."""
        self.per_seed_branch_calls[seed_vertex] = branch_calls
        self._prune_per_seed()

    def _prune_per_seed(self) -> None:
        if len(self.per_seed_branch_calls) < _PER_SEED_PRUNE_AT:
            return
        kept = heapq.nlargest(
            PER_SEED_TOP_N,
            self.per_seed_branch_calls.items(),
            key=lambda item: (item[1], item[0]),
        )
        self.per_seed_dropped += len(self.per_seed_branch_calls) - len(kept)
        self.per_seed_branch_calls = dict(kept)

    def top_seed_branch_calls(self, limit: int = PER_SEED_TOP_N) -> Dict[int, int]:
        """The ``limit`` seeds with the most branch calls (descending)."""
        ranked = heapq.nlargest(
            max(0, limit),
            self.per_seed_branch_calls.items(),
            key=lambda item: (item[1], item[0]),
        )
        return dict(ranked)

    def merge(self, other: "SearchStatistics") -> "SearchStatistics":
        """Accumulate ``other`` into this object (used by the parallel executor)."""
        self.seeds += other.seeds
        self.seed_subgraph_vertices += other.seed_subgraph_vertices
        self.seeds_pruned_empty += other.seeds_pruned_empty
        self.seeds_pruned_dominated += other.seeds_pruned_dominated
        self.subtasks += other.subtasks
        self.subtasks_pruned_by_seed_bound += other.subtasks_pruned_by_seed_bound
        self.branch_calls += other.branch_calls
        self.outputs += other.outputs
        self.branches_pruned_by_upper_bound += other.branches_pruned_by_upper_bound
        self.candidates_pruned_by_pairs += other.candidates_pruned_by_pairs
        self.vertices_pruned_by_corollary += other.vertices_pruned_by_corollary
        self.maximality_rejections += other.maximality_rejections
        self.nodes_pruned_dominated += other.nodes_pruned_dominated
        self.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        self.preprocess_seconds = max(self.preprocess_seconds, other.preprocess_seconds)
        self.search_seconds = max(self.search_seconds, other.search_seconds)
        self.pool_recoveries += other.pool_recoveries
        self.task_retries += other.task_retries
        self.serial_fallbacks += other.serial_fallbacks
        for seed, calls in other.per_seed_branch_calls.items():
            self.per_seed_branch_calls[seed] = self.per_seed_branch_calls.get(seed, 0) + calls
        self.per_seed_dropped += other.per_seed_dropped
        self._prune_per_seed()
        return self

    def as_dict(self) -> Dict[str, float]:
        """Return the scalar counters as a dictionary (for tables and logs)."""
        return {
            "seeds": self.seeds,
            "seed_subgraph_vertices": self.seed_subgraph_vertices,
            "seeds_pruned_empty": self.seeds_pruned_empty,
            "seeds_pruned_dominated": self.seeds_pruned_dominated,
            "subtasks": self.subtasks,
            "subtasks_pruned_by_seed_bound": self.subtasks_pruned_by_seed_bound,
            "branch_calls": self.branch_calls,
            "outputs": self.outputs,
            "branches_pruned_by_upper_bound": self.branches_pruned_by_upper_bound,
            "candidates_pruned_by_pairs": self.candidates_pruned_by_pairs,
            "vertices_pruned_by_corollary": self.vertices_pruned_by_corollary,
            "maximality_rejections": self.maximality_rejections,
            "nodes_pruned_dominated": self.nodes_pruned_dominated,
            "elapsed_seconds": self.elapsed_seconds,
            "preprocess_seconds": self.preprocess_seconds,
            "search_seconds": self.search_seconds,
            "pool_recoveries": self.pool_recoveries,
            "task_retries": self.task_retries,
            "serial_fallbacks": self.serial_fallbacks,
        }

    def __str__(self) -> str:
        parts = [f"{key}={value}" for key, value in self.as_dict().items()]
        return "SearchStatistics(" + ", ".join(parts) + ")"
