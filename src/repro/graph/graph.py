"""Undirected simple graph used throughout the library.

The paper works on undirected, unweighted simple graphs.  :class:`Graph`
stores such a graph as adjacency sets over a contiguous integer vertex space
``0 .. n-1`` and keeps an optional mapping back to the caller's original
vertex labels (SNAP-style files frequently use sparse integer ids).

The class is deliberately immutable after construction: every algorithm in
the library treats the input graph as read-only, which keeps sharing across
worker processes and sub-tasks safe.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import GraphError

Edge = Tuple[Hashable, Hashable]


class Graph:
    """An immutable undirected simple graph.

    Parameters
    ----------
    adjacency:
        A list of neighbour sets, one per vertex, indexed by the internal
        vertex id.  The structure must already be symmetric and free of
        self-loops; use :meth:`from_edges` to build a graph from raw edges.
    labels:
        Optional original labels, one per internal vertex id.  When omitted
        the labels are the internal ids themselves.
    """

    __slots__ = (
        "_adjacency",
        "_labels",
        "_label_index",
        "_num_edges",
        "_degrees",
        "_prepared",
        "_epoch",
        "__weakref__",
    )

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> None:
        frozen = [frozenset(neigh) for neigh in adjacency]
        n = len(frozen)
        for vertex, neighbours in enumerate(frozen):
            for other in neighbours:
                if other < 0 or other >= n:
                    raise GraphError(f"neighbour {other} of vertex {vertex} is out of range")
                if other == vertex:
                    raise GraphError(f"self-loop at vertex {vertex}")
                if vertex not in frozen[other]:
                    raise GraphError(f"edge ({vertex}, {other}) is not symmetric")
        labels = list(range(n)) if labels is None else list(labels)
        if len(labels) != n:
            raise GraphError("labels must have one entry per vertex")
        label_index = {label: index for index, label in enumerate(labels)}
        if len(label_index) != n:
            raise GraphError("vertex labels must be unique")
        self._set_fields(frozen, labels, label_index)

    def _set_fields(
        self,
        adjacency: List[FrozenSet[int]],
        labels: List[Hashable],
        label_index: Optional[Dict[Hashable, int]] = None,
    ) -> None:
        """Set every field; the caller guarantees a valid symmetric graph."""
        if label_index is None:
            label_index = {label: index for index, label in enumerate(labels)}
        self._adjacency = adjacency
        self._labels = labels
        self._label_index = label_index
        self._num_edges = sum(map(len, adjacency)) // 2
        self._degrees: Optional[Tuple[int, ...]] = None
        # Lazily attached repro.graph.prepared.PreparedGraph; lives and dies
        # with this object so repeated queries reuse the preprocessing.
        self._prepared = None
        # Cache-coherency counter for the serving layer: any out-of-band
        # change to this object (or an explicit invalidation) bumps it, so
        # result caches keyed by (graph, epoch) can never serve stale data.
        # It is a per-process token, not part of the graph's value, so
        # unpickled copies start a fresh sequence too.
        self._epoch = 0

    @classmethod
    def _trusted(
        cls,
        adjacency: Iterable[Iterable[int]],
        labels: List[Hashable],
        label_index: Optional[Dict[Hashable, int]] = None,
    ) -> "Graph":
        """Build from rows an internal builder made symmetric, loop-free, in
        range and with unique labels, without checking any of it again."""
        graph = cls.__new__(cls)
        graph._set_fields([frozenset(neigh) for neigh in adjacency], labels, label_index)
        return graph

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        vertices: Optional[Iterable[Hashable]] = None,
    ) -> "Graph":
        """Build a graph from an iterable of edges.

        Duplicate edges and self-loops are silently dropped, matching the
        preprocessing every k-plex paper applies to the raw SNAP files.
        ``vertices`` may list isolated vertices (or simply fix the label
        order); any endpoint not listed is appended in first-seen order.
        """
        index: Dict[Hashable, int] = {}
        adjacency: List[set] = []
        get = index.get
        kind, item = "vertex label", vertices
        try:
            for item in vertices if vertices is not None else ():
                if item not in index:
                    index[item] = len(adjacency)
                    adjacency.append(set())
            kind, item = "edge", edges
            for item in edges:
                u_label, v_label = item
                u = get(u_label)
                if u is None:
                    u = index[u_label] = len(adjacency)
                    adjacency.append(set())
                v = get(v_label)
                if v is None:
                    v = index[v_label] = len(adjacency)
                    adjacency.append(set())
                if u != v:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        except (TypeError, ValueError) as exc:
            raise GraphError(f"malformed {kind} {item!r}: {exc}") from exc
        return cls._trusted(adjacency, list(index), index)

    @classmethod
    def empty(cls, num_vertices: int) -> "Graph":
        """Return a graph with ``num_vertices`` vertices and no edges."""
        return cls([set() for _ in range(num_vertices)])

    @classmethod
    def complete(cls, num_vertices: int) -> "Graph":
        """Return the complete graph on ``num_vertices`` vertices."""
        adjacency = [set(range(num_vertices)) - {v} for v in range(num_vertices)]
        return cls(adjacency)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        """Iterate over the internal vertex ids ``0 .. n-1``."""
        return iter(range(self.num_vertices))

    def edges(self) -> List[Tuple[int, int]]:
        """Return the edges as ``(u, v)`` pairs with ``u < v``, in increasing ``u``."""
        return [(u, v) for u, neigh in enumerate(self._adjacency) for v in neigh if u < v]

    def neighbors(self, vertex: int) -> FrozenSet[int]:
        """Return the neighbour set of ``vertex``."""
        return self._adjacency[vertex]

    def degree(self, vertex: int) -> int:
        """Return the degree of ``vertex``."""
        return len(self._adjacency[vertex])

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if ``u`` and ``v`` are adjacent."""
        return v in self._adjacency[u]

    def max_degree(self) -> int:
        """Return the maximum vertex degree ``Δ`` (0 for an empty graph)."""
        if self.num_vertices == 0:
            return 0
        return max(len(neigh) for neigh in self._adjacency)

    def label(self, vertex: int) -> Hashable:
        """Return the original label of an internal vertex id."""
        return self._labels[vertex]

    def labels(self) -> List[Hashable]:
        """Return the original labels indexed by internal vertex id."""
        return list(self._labels)

    def index_of(self, label: Hashable) -> int:
        """Return the internal id of an original vertex label."""
        try:
            return self._label_index[label]
        except KeyError as exc:
            raise GraphError(f"unknown vertex label: {label!r}") from exc

    # ------------------------------------------------------------------ #
    # Neighbourhood and subgraph operations
    # ------------------------------------------------------------------ #
    def neighborhood_within_two_hops(self, vertex: int) -> FrozenSet[int]:
        """Return ``{vertex} ∪ N(vertex) ∪ N²(vertex)``."""
        closed = {vertex}
        closed.update(self._adjacency[vertex])
        for neighbour in self._adjacency[vertex]:
            closed.update(self._adjacency[neighbour])
        return frozenset(closed)

    def common_neighbors(self, u: int, v: int) -> FrozenSet[int]:
        """Return ``N(u) ∩ N(v)``."""
        return self._adjacency[u] & self._adjacency[v]

    def induced_subgraph(self, vertices: Iterable[int]) -> Tuple["Graph", List[int]]:
        """Return the induced subgraph on ``vertices`` and the vertex map.

        The returned list maps the new internal ids back to the ids in this
        graph; labels are carried over so results remain addressable by the
        caller's original identifiers.
        """
        kept = sorted(set(vertices))
        position = {vertex: index for index, vertex in enumerate(kept)}
        adjacency = [
            {position[w] for w in self._adjacency[v] if w in position} for v in kept
        ]
        return Graph._trusted(adjacency, [self._labels[v] for v in kept]), kept

    @property
    def epoch(self) -> int:
        """Monotonic change counter used as a cache-coherency token.

        Result caches key their entries by ``(graph, graph.epoch)``; bumping
        the epoch (see :meth:`bump_epoch` and
        :func:`repro.graph.prepared.invalidate`) retires every cached
        artefact derived from the previous state of the graph.
        """
        return self._epoch

    def bump_epoch(self) -> int:
        """Advance the epoch after an out-of-band change and return it.

        The graph is designed to be immutable, so callers that nevertheless
        replace internal state (dataset reloads, test harnesses) must bump
        the epoch so caches keyed by it stop serving results computed from
        the previous structure.  :func:`repro.graph.prepared.invalidate`
        calls this automatically.
        """
        self._epoch += 1
        return self._epoch

    def degrees(self) -> List[int]:
        """Return all vertex degrees indexed by vertex id.

        The degree sequence is computed once and cached; a fresh list is
        returned every call because several peeling algorithms mutate it.
        """
        if self._degrees is None:
            self._degrees = tuple(len(neigh) for neigh in self._adjacency)
        return list(self._degrees)

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        # The derived caches (_degrees, _label_index and especially the
        # prepared index, which references this graph back) are rebuilt on
        # the receiving side instead of being shipped.
        return (self._adjacency, self._labels)

    def __setstate__(self, state) -> None:
        adjacency, labels = state
        self._set_fields(adjacency, labels)

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, vertex: object) -> bool:
        return isinstance(vertex, int) and 0 <= vertex < self.num_vertices

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._labels == other._labels and self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))
