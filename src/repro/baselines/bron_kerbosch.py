"""Bron–Kerbosch style maximal k-plex enumeration (Algorithm 1 of the paper).

This is the classic backtracking scheme: grow ``P`` one candidate at a time,
keep the exclusive set ``X`` of vertices already considered so that only
maximal sets are reported.  No seed-subgraph decomposition, no pivoting, no
upper bounds — it is the unoptimised reference the paper builds on, and a
secondary oracle for the test-suite on small and medium graphs.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set

from ..core.kplex import KPlex, can_extend, validate_parameters
from ..core.stats import SearchStatistics
from ..graph import Graph
from ..graph.core_decomposition import shrink_to_core


class BronKerboschKPlex:
    """Algorithm 1: Bron–Kerbosch adapted to maximal k-plex enumeration.

    Parameters mirror :class:`repro.core.enumerator.KPlexEnumerator`.  Unlike
    the decomposed algorithm, any ``q >= 1`` is accepted because this variant
    does not rely on the two-hop (diameter) property.
    """

    def __init__(self, graph: Graph, k: int, q: int, use_core_pruning: bool = True) -> None:
        validate_parameters(k, q, enforce_diameter_bound=False)
        self.graph = graph
        self.k = k
        self.q = q
        self.statistics = SearchStatistics()
        if use_core_pruning and q > k:
            self._mined_graph, self._vertex_map = shrink_to_core(graph, q - k)
        else:
            self._mined_graph, self._vertex_map = graph, list(graph.vertices())

    def run(self) -> List[KPlex]:
        """Enumerate all maximal k-plexes with at least ``q`` vertices."""
        results: List[FrozenSet[int]] = []
        mined = self._mined_graph
        if mined.num_vertices >= self.q:
            self._expand(frozenset(), set(mined.vertices()), set(), results)
        translated = [
            KPlex.from_vertices(
                self.graph, [self._vertex_map[v] for v in members], self.k
            )
            for members in results
        ]
        translated.sort(key=lambda plex: (plex.size, plex.vertices))
        self.statistics.outputs = len(translated)
        return translated

    # ------------------------------------------------------------------ #
    # Recursive expansion (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _expand(
        self,
        members: FrozenSet[int],
        candidates: Set[int],
        excluded: Set[int],
        results: List[FrozenSet[int]],
    ) -> None:
        graph = self._mined_graph
        self.statistics.branch_calls += 1
        if not candidates:
            if not excluded and len(members) >= self.q:
                results.append(members)
            return
        # Size pruning: even taking every candidate cannot reach q vertices.
        if len(members) + len(candidates) < self.q:
            return
        remaining = set(candidates)
        shared_excluded = set(excluded)
        for vertex in sorted(candidates):
            if vertex not in remaining:
                continue
            remaining.discard(vertex)
            grown = members | {vertex}
            next_candidates = {
                u for u in remaining if can_extend(graph, grown, u, self.k)
            }
            next_excluded = {
                u for u in shared_excluded if can_extend(graph, grown, u, self.k)
            }
            self._expand(grown, next_candidates, next_excluded, results)
            shared_excluded.add(vertex)


def bron_kerbosch_maximal_kplexes(
    graph: Graph, k: int, q: int, use_core_pruning: bool = True
) -> List[KPlex]:
    """Functional wrapper around :class:`BronKerboschKPlex`."""
    return BronKerboschKPlex(graph, k, q, use_core_pruning=use_core_pruning).run()


def bron_kerbosch_vertex_sets(graph: Graph, k: int, q: int) -> Set[FrozenSet[int]]:
    """Return the Bron–Kerbosch results as a set of frozensets (for tests)."""
    return {plex.as_set() for plex in bron_kerbosch_maximal_kplexes(graph, k, q)}
