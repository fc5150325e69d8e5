"""k-core decomposition, degeneracy ordering and k-shells.

The enumeration algorithm relies on three facts established in Section 3 of
the paper:

* every k-plex with at least ``q`` vertices is contained in the ``(q-k)``-core
  of the graph (Theorem 3.5), so the input can be shrunk before mining;
* the degeneracy ordering produced by the linear-time peeling algorithm of
  Batagelj & Zaversnik bounds the number of *later* neighbours of every vertex
  by the degeneracy ``D``, which keeps seed subgraphs small;
* vertices removed with the same minimum degree form a k-shell; ties inside a
  shell are broken by vertex id so the ordering is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from .graph import Graph


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of the peeling algorithm.

    Attributes
    ----------
    order:
        The degeneracy ordering ``η = [v_1, ..., v_n]`` (internal vertex ids).
    core_numbers:
        ``core_numbers[v]`` is the core number (shell index) of vertex ``v``.
    degeneracy:
        The degeneracy ``D`` of the graph, i.e. the maximum core number.
    """

    order: List[int]
    core_numbers: List[int]
    degeneracy: int

    def position(self) -> List[int]:
        """Return ``position[v]`` = index of vertex ``v`` within :attr:`order`."""
        positions = [0] * len(self.order)
        for index, vertex in enumerate(self.order):
            positions[vertex] = index
        return positions

    def shells(self) -> Dict[int, List[int]]:
        """Group vertices by core number (the k-shells), keyed by ``k``."""
        grouped: Dict[int, List[int]] = {}
        for vertex in self.order:
            grouped.setdefault(self.core_numbers[vertex], []).append(vertex)
        return grouped


def core_decomposition(graph: Graph) -> CoreDecomposition:
    """Return the core decomposition of ``graph`` (cached per graph object).

    Vertices are repeatedly removed in order of minimum remaining degree; ties
    are broken by the smallest vertex id, matching the convention used in the
    paper to make the ordering unique.  The result is computed once per graph
    through the prepared-graph index (:mod:`repro.graph.prepared`) and reused
    by every subsequent request on the same graph object.
    """
    from .prepared import prepare  # local import: prepared depends on this module

    cached = prepare(graph).decomposition
    # Fresh lists per call: callers historically received their own copy and
    # may mutate it (e.g. to experiment with orderings); the cached object
    # itself must stay pristine for every later request on this graph.
    return CoreDecomposition(
        order=list(cached.order),
        core_numbers=list(cached.core_numbers),
        degeneracy=cached.degeneracy,
    )


def set_backed_core_decomposition(graph: Graph) -> CoreDecomposition:
    """Reference peeling over the adjacency sets (uncached).

    The bucket-queue implementation that the prepared-graph index caches
    (see :mod:`repro.graph.prepared`); its core numbers also serve the tests
    as an independent reference for :func:`k_core_vertices`.
    """
    n = graph.num_vertices
    if n == 0:
        return CoreDecomposition(order=[], core_numbers=[], degeneracy=0)

    degrees = graph.degrees()
    max_degree = max(degrees) if degrees else 0
    # Bucket queue: buckets[d] holds the vertices whose current degree is d.
    buckets: List[Set[int]] = [set() for _ in range(max_degree + 1)]
    for vertex, degree in enumerate(degrees):
        buckets[degree].add(vertex)

    removed = [False] * n
    current = list(degrees)
    order: List[int] = []
    core_numbers = [0] * n
    degeneracy = 0
    level = 0

    for _ in range(n):
        while level <= max_degree and not buckets[level]:
            level += 1
        if level > max_degree:
            break
        vertex = min(buckets[level])
        buckets[level].discard(vertex)
        removed[vertex] = True
        degeneracy = max(degeneracy, level)
        core_numbers[vertex] = degeneracy
        order.append(vertex)
        for neighbour in graph.neighbors(vertex):
            if removed[neighbour]:
                continue
            degree = current[neighbour]
            if degree > level:
                buckets[degree].discard(neighbour)
                buckets[degree - 1].add(neighbour)
                current[neighbour] = degree - 1
                if degree - 1 < level:
                    level = degree - 1
        # Removing a vertex can only lower degrees, so the scan level may need
        # to move back by at most one bucket; handled above via the min update.
        if level > 0 and buckets[level - 1]:
            level -= 1

    return CoreDecomposition(order=order, core_numbers=core_numbers, degeneracy=degeneracy)


def degeneracy_ordering(graph: Graph) -> List[int]:
    """Return only the degeneracy ordering of ``graph``."""
    return core_decomposition(graph).order


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy ``D`` of ``graph``."""
    return core_decomposition(graph).degeneracy


def k_core_vertices(graph: Graph, k: int) -> Set[int]:
    """Return the vertex set of the ``k``-core of ``graph``.

    The ``k``-core is the (unique, possibly empty) maximal induced subgraph in
    which every vertex has degree at least ``k``.  It is computed by the same
    peeling process: repeatedly delete any vertex whose remaining degree is
    below ``k``.
    """
    if k <= 0:
        return set(graph.vertices())
    degrees = graph.degrees()
    alive = [True] * graph.num_vertices
    stack = [v for v in graph.vertices() if degrees[v] < k]
    for vertex in stack:
        alive[vertex] = False
    while stack:
        vertex = stack.pop()
        for neighbour in graph.neighbors(vertex):
            if alive[neighbour]:
                degrees[neighbour] -= 1
                if degrees[neighbour] < k:
                    alive[neighbour] = False
                    stack.append(neighbour)
    return {v for v in graph.vertices() if alive[v]}


def k_core_subgraph(graph: Graph, k: int):
    """Return the ``k``-core as a new :class:`Graph` plus the vertex map."""
    return graph.induced_subgraph(k_core_vertices(graph, k))


def shrink_to_core(graph: Graph, minimum_degree: int):
    """Shrink ``graph`` to its ``minimum_degree``-core (Theorem 3.5 helper).

    Returns ``(core_graph, vertex_map)`` where ``vertex_map[new_id]`` is the
    vertex id in the original graph.  Cached per graph object and core level
    via the prepared-graph index; when nothing is peeled the input graph
    itself is returned with an identity map, so the core's own cached
    preprocessing is shared too.
    """
    from .prepared import prepare  # local import: prepared depends on this module

    core_graph, vertex_map = prepare(graph).core(minimum_degree)
    # The cached vertex map is shared across requests; hand out a copy.
    return core_graph, list(vertex_map)


def validate_degeneracy_ordering(graph: Graph, order: Sequence[int]) -> bool:
    """Check that ``order`` is a valid degeneracy ordering of ``graph``.

    An ordering is valid if every vertex has at most ``D`` neighbours among
    the vertices that come after it, where ``D`` is the graph degeneracy.
    Used by tests and by the verification utilities.
    """
    if sorted(order) != list(range(graph.num_vertices)):
        return False
    cap = degeneracy(graph)
    position = {vertex: index for index, vertex in enumerate(order)}
    for vertex in order:
        later = sum(1 for w in graph.neighbors(vertex) if position[w] > position[vertex])
        if later > cap:
            return False
    return True
