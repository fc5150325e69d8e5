"""Dense bitset-backed subgraph representation.

Seed subgraphs ``G_i`` (Algorithm 2) are small and dense, so the paper stores
them as adjacency matrices.  The pure-Python analogue used here is a list of
integer bitsets, one adjacency row per local vertex.  All hot-path operations
of the branch-and-bound search (set intersection, degree counting, candidate
filtering) become integer bit operations on these rows.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import GraphError
from .bitset import bits_to_list, iter_bits, mask_from_indices
from .graph import Graph


class DenseSubgraph:
    """An induced subgraph stored as bitset adjacency rows.

    Parameters
    ----------
    parent:
        The graph the subgraph was induced from.
    vertices:
        Parent vertex ids included in the subgraph, in local-index order.
    """

    __slots__ = ("parent", "vertices", "members", "index", "adjacency", "full_mask")

    def __init__(self, parent: Graph, vertices: Sequence[int]) -> None:
        self.parent = parent
        self.vertices: List[int] = list(vertices)
        self.members: FrozenSet[int] = frozenset(self.vertices)
        if len(self.members) != len(self.vertices):
            raise GraphError("duplicate vertices in dense subgraph")
        self.index: Dict[int, int] = {
            vertex: position for position, vertex in enumerate(self.vertices)
        }
        self.adjacency: List[int] = [
            external_adjacency_mask(self, vertex) for vertex in self.vertices
        ]
        self.full_mask = (1 << len(self.vertices)) - 1

    # ------------------------------------------------------------------ #
    # Sizes and lookups
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of vertices in the subgraph."""
        return len(self.vertices)

    def local_of(self, parent_vertex: int) -> int:
        """Return the local index of a parent vertex id."""
        try:
            return self.index[parent_vertex]
        except KeyError as exc:
            raise GraphError(f"vertex {parent_vertex} is not part of the subgraph") from exc

    def parent_of(self, local_vertex: int) -> int:
        """Return the parent vertex id of a local index."""
        return self.vertices[local_vertex]

    def parents_of_mask(self, mask: int) -> List[int]:
        """Translate a local bitset into the list of parent vertex ids."""
        return [self.vertices[local] for local in iter_bits(mask)]

    def mask_of_parents(self, parent_vertices: Iterable[int]) -> int:
        """Translate parent vertex ids into a local bitset."""
        return mask_from_indices(self.index[v] for v in parent_vertices)

    # ------------------------------------------------------------------ #
    # Adjacency queries (local indices)
    # ------------------------------------------------------------------ #
    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if local vertices ``u`` and ``v`` are adjacent."""
        return (self.adjacency[u] >> v) & 1 == 1

    def degree(self, local_vertex: int) -> int:
        """Return the degree of ``local_vertex`` within the subgraph."""
        return self.adjacency[local_vertex].bit_count()

    def degree_in(self, local_vertex: int, mask: int) -> int:
        """Return the number of neighbours of ``local_vertex`` inside ``mask``."""
        return (self.adjacency[local_vertex] & mask).bit_count()

    def non_neighbors_in(self, local_vertex: int, mask: int) -> int:
        """Return the number of non-neighbours of ``local_vertex`` inside ``mask``.

        The vertex itself counts as a non-neighbour when it belongs to
        ``mask``, matching the ``\\bar d_P`` convention of the paper.
        """
        members = mask.bit_count()
        return members - (self.adjacency[local_vertex] & mask).bit_count()

    def common_neighbors_count(self, u: int, v: int, within: Optional[int] = None) -> int:
        """Return ``|N(u) ∩ N(v)|``, optionally restricted to the bitset ``within``."""
        common = self.adjacency[u] & self.adjacency[v]
        if within is not None:
            common &= within
        return common.bit_count()

    def restrict(self, keep_mask: int) -> "DenseSubgraph":
        """Return a new dense subgraph induced on the local vertices of ``keep_mask``."""
        kept_parents = self.parents_of_mask(keep_mask)
        return DenseSubgraph(self.parent, kept_parents)

    def to_graph(self) -> Tuple[Graph, List[int]]:
        """Materialise the subgraph as a :class:`Graph` plus the vertex map."""
        adjacency = [bits_to_list(self.adjacency[v]) for v in range(self.size)]
        labels = [self.parent.label(vertex) for vertex in self.vertices]
        return Graph._trusted(adjacency, labels), list(self.vertices)

    def __repr__(self) -> str:
        edges = sum(row.bit_count() for row in self.adjacency) // 2
        return f"DenseSubgraph(size={self.size}, edges={edges})"


def external_adjacency_mask(subgraph: DenseSubgraph, parent_vertex: int) -> int:
    """Return the bitset of subgraph vertices adjacent to a parent-graph vertex.

    Exclusive-set vertices coming from ``V'_i`` (earlier in the degeneracy
    ordering) are not part of the seed subgraph, yet the maximality check must
    know which subgraph vertices they touch; the subgraph's own adjacency
    rows are built the same way.  Only the neighbours inside the subgraph are
    visited, found by a C-level set intersection, so a high-degree vertex
    costs no more than its neighbours in the subgraph.
    """
    index = subgraph.index
    row = 0
    for neighbour in subgraph.parent.neighbors(parent_vertex) & subgraph.members:
        row |= 1 << index[neighbour]
    return row
