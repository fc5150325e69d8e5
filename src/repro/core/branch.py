"""Branch-and-bound search over one seed subgraph (Algorithm 3).

:class:`BranchSearcher` mines one sub-task ``⟨P, C, X⟩`` at a time.  All sets
are bitsets over the local index space of the seed subgraph.  The seed's
external vertices (those preceding it in the degeneracy ordering,
``SeedContext.external_vertices``) are not part of a node: they matter only to
maximality, so the leaves of lines 4–6 and 11–14 test their set against every
row of ``SeedContext.external_adjacency``.  k-plexes are hereditary, so an
external vertex that extends a leaf's ``P`` also extended every ancestor's
``P``; carrying and refining the external set down the tree would give the
same verdict.

The searcher implements both algorithm variants of the paper:

* ``Ours`` (``branching="pivot"``): when the saturation-maximising pivot
  falls inside ``P`` it is re-picked among the pivot's non-neighbours in
  ``C`` (lines 15–16), and the include-branch is pruned whenever the Eq (3)
  upper bound drops below ``q`` (lines 17–19).
* ``Ours_P`` (``branching="faplexen"``): when the pivot falls inside ``P``
  the search instead produces the ``sup_P(v_p) + 1`` branches of
  Eq (4)–(6), the branching rule of FaPlexen / ListPlex.

Lines 2–3 of Algorithm 3 (refine ``C`` and ``X`` against ``P``) run only
where ``P`` changes, not at every node.  Every node receives ``C`` and ``X``
already refined against its ``P`` (:meth:`BranchSearcher._refined`):

* an exclude child (line 20, Eq (4) and Eq (5)) keeps ``P``, so it inherits
  its parent's refined sets — the moved vertex passed the same test;
* an include child (line 19) builds its ``C`` from the counts of the
  parent's pivot pass (:func:`~repro.core.pivot.select_pivot`), which also
  feed the Algorithm 4 bound and the lines 11–14 maximality test; only its
  ``X`` is refined vertex by vertex;
* each Eq (5)/(6) step, a root sub-task and a spilled :class:`BranchState`
  resumed by :meth:`BranchSearcher.run_state` refine from scratch.

A node that is not a lines 11–14 leaf is cut before it branches when a
vertex ``x`` of its ``X`` *dominates* it: ``x`` misses at most ``k − 1``
vertices of ``P ∪ C`` and each of them is *loose*, missing at most ``k − 1``
vertices of ``P ∪ C`` itself counted (the census's ``pc_saturated`` holds the
members that are not).  Then ``S ∪ {x}`` is a k-plex for every k-plex ``S``
with ``P ⊆ S ⊆ P ∪ C``: ``x`` misses itself and at most ``k − 1`` members of
``S``, and a member ``u`` it misses misses at most ``k − 1`` vertices of
``S`` and ``x``.  So no result below the node is maximal, whatever the
variant or ``q``; ``SearchStatistics.nodes_pruned_dominated`` counts the
cuts.  The seed's externals are not tested here, only at the leaves.

A *timeout* hook supports the parallel executor of Section 6: when a
deadline is exceeded the searcher stops recursing and emits the pending
branch states to a task sink, turning a straggler sub-task into many smaller
tasks that other workers can steal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, List, Optional, Tuple

from ..graph.bitset import bits_to_list, iter_bits
from .bounds import fp_style_bound, packing_bound
from .config import BRANCHING_FAPLEXEN, UPPER_BOUND_FP, EnumerationConfig
from .pivot import repick_pivot_from_candidates, select_pivot
from .seeds import SeedContext, SubTask
from .stats import SearchStatistics

ResultCallback = Callable[[int], None]


@dataclass(frozen=True)
class BranchState:
    """A frozen search node, used to hand work between workers.

    ``minimum_degree`` caches ``min_{u ∈ P} d_{G_i}(u)`` so the Theorem 5.3
    bound does not need to rescan ``P`` at every node.  Whether ``C`` and
    ``X`` are already refined against ``P`` is not part of the record:
    :meth:`BranchSearcher.run_state` refines them again, so a spilled state
    resumes exactly.
    """

    p_mask: int
    c_mask: int
    x_mask: int
    minimum_degree: int


class BranchSearcher:
    """Branch-and-bound search engine for one seed context."""

    def __init__(
        self,
        context: SeedContext,
        k: int,
        q: int,
        config: EnumerationConfig,
        stats: SearchStatistics,
        on_result: ResultCallback,
        timeout: Optional[float] = None,
        task_sink: Optional[Callable[[BranchState], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.context = context
        self.k = k
        self.q = q
        self.config = config
        self.stats = stats
        self.on_result = on_result
        self.timeout = timeout
        self.task_sink = task_sink
        self.clock = clock
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def run_subtask(self, task: SubTask) -> None:
        """Mine one initial sub-task produced by Algorithm 2."""
        state = BranchState(
            p_mask=task.p_mask,
            c_mask=task.c_mask,
            x_mask=task.x_mask,
            minimum_degree=self._minimum_degree(task.p_mask),
        )
        self.run_state(state)

    def run_state(self, state: BranchState) -> None:
        """Mine a (possibly resumed) branch state, honouring the timeout.

        The state's ``C`` and ``X`` are refined against its ``P`` here; the
        nodes below inherit or redo that refinement (see the module notes).
        """
        if self.timeout is not None:
            self._deadline = self.clock() + self.timeout
        else:
            self._deadline = None
        p_mask = state.p_mask
        self._branch(
            p_mask,
            *self._refined(p_mask, state.c_mask, state.x_mask),
            state.minimum_degree,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _minimum_degree(self, p_mask: int) -> int:
        degrees = self.context.degrees
        members = bits_to_list(p_mask)
        if not members:
            return self.context.size
        return min(degrees[u] for u in members)

    def _saturated_mask(self, p_mask: int, p_size: int) -> int:
        adjacency = self.context.subgraph.adjacency
        target = p_size - self.k
        saturated = 0
        for u in iter_bits(p_mask):
            if (adjacency[u] & p_mask).bit_count() == target:
                saturated |= 1 << u
        return saturated

    def _refine(self, pool: int, rows: List[int], p_mask: int, threshold: int, saturated: int) -> int:
        """Keep the pool members whose addition keeps ``P`` a k-plex."""
        refined = 0
        for v in iter_bits(pool):
            row = rows[v]
            if (row & p_mask).bit_count() >= threshold and (saturated & ~row) == 0:
                refined |= 1 << v
        return refined

    def _refined(self, p_mask: int, c_mask: int, x_mask: int) -> Tuple[int, int]:
        """Lines 2–3: keep the members of ``C`` and ``X`` that still form a
        k-plex together with ``P``."""
        adjacency = self.context.subgraph.adjacency
        p_size = p_mask.bit_count()
        threshold = p_size + 1 - self.k
        saturated = self._saturated_mask(p_mask, p_size)
        return (
            self._refine(c_mask, adjacency, p_mask, threshold, saturated),
            self._refine(x_mask, adjacency, p_mask, threshold, saturated),
        )

    def _is_maximal_against(self, pc_mask: int, pc_size: int, x_mask: int, saturated: int) -> bool:
        """Return ``True`` when no vertex of the local ``X`` and no external
        vertex of the seed can extend ``pc_mask``, whose saturated members
        are ``saturated``."""
        context = self.context
        threshold = pc_size + 1 - self.k
        local_rows = (context.subgraph.adjacency[v] for v in iter_bits(x_mask))
        for row in chain(local_rows, context.external_adjacency):
            if (row & pc_mask).bit_count() >= threshold and (saturated & ~row) == 0:
                return False
        return True

    def _recurse(self, p_mask: int, c_mask: int, x_mask: int, minimum_degree: int) -> None:
        """Recurse into a child node, or hand it to the task sink on timeout."""
        if (
            self._deadline is not None
            and self.task_sink is not None
            and self.clock() >= self._deadline
        ):
            self.task_sink(BranchState(p_mask, c_mask, x_mask, minimum_degree))
            return
        self._branch(p_mask, c_mask, x_mask, minimum_degree)

    # ------------------------------------------------------------------ #
    # Algorithm 3
    # ------------------------------------------------------------------ #
    def _branch(self, p_mask: int, c_mask: int, x_mask: int, minimum_degree: int) -> None:
        """One node; ``C`` and ``X`` are refined against ``P``."""
        context = self.context
        adjacency = context.subgraph.adjacency
        stats = self.stats
        stats.branch_calls += 1

        k = self.k
        q = self.q
        p_size = p_mask.bit_count()

        # Lines 4-6: no candidate left.  Every member of the refined X extends
        # P, so only an empty X sends the seed's external vertices to the test.
        if c_mask == 0:
            if x_mask == 0 and self._is_maximal_against(
                p_mask, p_size, 0, self._saturated_mask(p_mask, p_size)
            ):
                if p_size >= q:
                    self.on_result(p_mask)
                    stats.outputs += 1
            else:
                stats.maximality_rejections += 1
            return

        # Lines 7-10: pivot selection, with the counts the rest of the node reads.
        (
            pivot, pivot_in_p, pivot_degree_pc, in_p, saturated, one_short, tight, pc_saturated
        ) = select_pivot(context.subgraph, p_mask, c_mask, k)
        pc_mask = p_mask | c_mask
        pc_size = p_size + c_mask.bit_count()

        # Lines 11-14: P ∪ C is already a k-plex.
        if pivot_degree_pc >= pc_size - k:
            if pc_size >= q:
                if self._is_maximal_against(pc_mask, pc_size, x_mask, pc_saturated):
                    self.on_result(pc_mask)
                    stats.outputs += 1
                else:
                    stats.maximality_rejections += 1
            return

        # A vertex of X that misses at most k - 1 vertices of P ∪ C, each of
        # them loose, extends every k-plex between P and P ∪ C: no result
        # below this node is maximal.
        threshold = pc_size + 1 - k
        mask = x_mask
        while mask:
            low = mask & -mask
            mask ^= low
            row = adjacency[low.bit_length() - 1]
            if (row & pc_mask).bit_count() >= threshold and (pc_saturated & ~row) == 0:
                stats.nodes_pruned_dominated += 1
                return

        # Lines 15-16 / Ours_P branching.
        if pivot_in_p:
            if self.config.branching == BRANCHING_FAPLEXEN:
                self._branch_faplexen(p_mask, c_mask, x_mask, minimum_degree, pivot)
                return
            repicked = repick_pivot_from_candidates(context.subgraph, p_mask, c_mask, pivot)
            if repicked is None:
                # Defensive fallback; unreachable when P is a valid k-plex
                # because a non-saturated minimum-degree pivot always has a
                # non-neighbour left in C (see Section 4 of the paper).
                repicked = (c_mask & -c_mask).bit_length() - 1
            pivot = repicked

        pivot_bit = 1 << pivot

        # Lines 17-19: include branch, guarded by the Eq (3) upper bound.
        include_allowed = True
        if self.config.use_upper_bound and q > 0:
            if self.config.upper_bound_method == UPPER_BOUND_FP:
                bound = fp_style_bound(context.subgraph, p_mask, c_mask, pivot, k)
            else:
                bound = packing_bound(adjacency, p_mask, c_mask, pivot, k, in_p)
            degree_bound_value = min(minimum_degree, context.degrees[pivot]) + k
            if min(bound, degree_bound_value) < q:
                include_allowed = False
                stats.branches_pruned_by_upper_bound += 1

        if include_allowed:
            child_c = c_mask & ~pivot_bit
            child_x = x_mask
            if context.pair_ok is not None:
                allowed = context.pair_ok[pivot]
                removed = (child_c & ~allowed).bit_count() + (child_x & ~allowed).bit_count()
                if removed:
                    stats.candidates_pruned_by_pairs += removed
                child_c &= allowed
                child_x &= allowed
            # Lines 2-3 for P ∪ {pivot}: drop the tight candidates the pivot
            # misses, then the non-neighbours of each member it saturates
            # (the one-short members of P it misses, and itself if tight).
            row = adjacency[pivot]
            child_c &= ~(tight & ~row)
            newly_saturated = (one_short & ~row) | (tight & pivot_bit)
            for u in iter_bits(newly_saturated):
                child_c &= adjacency[u]
            child_p = p_mask | pivot_bit
            saturated |= newly_saturated
            self._recurse(
                child_p,
                child_c,
                self._refine(child_x, adjacency, child_p, p_size + 2 - k, saturated),
                min(minimum_degree, context.degrees[pivot]),
            )

        # Line 20: exclude branch (always taken); P and its refinement stay.
        self._recurse(p_mask, c_mask & ~pivot_bit, x_mask | pivot_bit, minimum_degree)

    # ------------------------------------------------------------------ #
    # Ours_P: Eq (4)-(6) branching
    # ------------------------------------------------------------------ #
    def _branch_faplexen(
        self,
        p_mask: int,
        c_mask: int,
        x_mask: int,
        minimum_degree: int,
        pivot: int,
    ) -> None:
        context = self.context
        adjacency = context.subgraph.adjacency
        k = self.k
        p_size = p_mask.bit_count()
        support = k - (p_size - (adjacency[pivot] & p_mask).bit_count())
        non_neighbors = bits_to_list(c_mask & ~adjacency[pivot] & ~(1 << pivot))
        if not non_neighbors:
            # Cannot happen for a valid pivot (it would make P ∪ C a k-plex),
            # handled defensively by falling back to the binary branching.
            fallback = (c_mask & -c_mask).bit_length() - 1
            fallback_bit = 1 << fallback
            child_p = p_mask | fallback_bit
            self._recurse(
                child_p,
                *self._refined(child_p, c_mask & ~fallback_bit, x_mask),
                min(minimum_degree, context.degrees[fallback]),
            )
            self._recurse(p_mask, c_mask & ~fallback_bit, x_mask | fallback_bit, minimum_degree)
            return
        support = max(1, min(support, len(non_neighbors)))

        # Branch 1 (Eq (4)): exclude w_1.
        first = non_neighbors[0]
        self._recurse(p_mask, c_mask & ~(1 << first), x_mask | (1 << first), minimum_degree)

        # Branches 2..support (Eq (5)) and the final branch (Eq (6)).  Each
        # step includes w_index, which the previous step (or, for w_1, this
        # node's refinement) found to extend P; so P stays a k-plex.
        current_p = p_mask
        current_c = c_mask
        current_x = x_mask
        current_min = minimum_degree
        for index in range(1, support + 1):
            # Include w_index (1-based: w_1 .. w_support) into P.
            w = non_neighbors[index - 1]
            w_bit = 1 << w
            current_p |= w_bit
            current_c &= ~w_bit
            current_min = min(current_min, context.degrees[w])
            if context.pair_ok is not None:
                allowed = context.pair_ok[w]
                removed = (current_c & ~allowed).bit_count() + (current_x & ~allowed).bit_count()
                if removed:
                    self.stats.candidates_pruned_by_pairs += removed
                current_c &= allowed
                current_x &= allowed

            if index < support:
                # Eq (5): exclude w_{index+1}.
                excluded = non_neighbors[index]
                excluded_bit = 1 << excluded
                child_c, child_x = self._refined(
                    current_p, current_c & ~excluded_bit, current_x | excluded_bit
                )
                self._recurse(current_p, child_c, child_x, current_min)
                if not child_x & excluded_bit:
                    # P ∪ {w_1..w_index+1} is not a k-plex; by hereditariness
                    # no later branch (which includes this set) can produce
                    # results.
                    return
            else:
                # Eq (6): include w_1..w_support and drop the remaining
                # non-neighbours of the (now saturated) pivot from C.
                remaining = 0
                for other in non_neighbors[support:]:
                    remaining |= 1 << other
                self._recurse(
                    current_p,
                    *self._refined(current_p, current_c & ~remaining, current_x),
                    current_min,
                )
