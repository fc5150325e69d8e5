"""Query-anchored enumeration (community search with k-plexes).

A common way the paper's motivating applications use cohesive-subgraph mining
is *community search*: given one or more query vertices (a suspected
criminal's account, a protein of interest), list the cohesive groups that
contain them.  This module enumerates every maximal k-plex with at least
``q`` vertices that contains a given set of query vertices, re-using the
branch-and-bound engine but anchoring the search at the query instead of
walking all seeds in degeneracy order:

* the partial solution starts as the query set itself (which must be a
  k-plex, otherwise no result exists);
* candidates are the vertices within two hops of every query vertex
  (Theorem 3.3 restricts members of any result to that region), shrunk by
  the Corollary 5.2 common-neighbour rule relative to each query vertex;
* no exclusive set is needed initially, because every possible extender of a
  result is itself within the candidate region and therefore examined by the
  search.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..graph import Graph
from ..graph.dense import DenseSubgraph
from .config import EnumerationConfig
from .enumerator import mine_seed
from .kplex import KPlex, is_kplex, validate_parameters, validate_query_vertices
from .pruning import corollary_52_keep
from .seeds import SeedContext, SubTask
from .stats import SearchStatistics


def _candidate_region(graph: Graph, query: Sequence[int], k: int, q: int,
                      config: EnumerationConfig) -> List[int]:
    """Vertices that may co-occur with every query vertex in a valid result."""
    region = set(graph.neighborhood_within_two_hops(query[0]))
    for vertex in query[1:]:
        region &= graph.neighborhood_within_two_hops(vertex)
    region.update(query)
    if config.use_seed_pruning:
        for vertex in query:
            region = corollary_52_keep(graph, vertex, region, k, q)
            region.update(query)
    return sorted(region)


def enumerate_kplexes_containing(
    graph: Graph,
    query_vertices: Iterable[int],
    k: int,
    q: int,
    config: Optional[EnumerationConfig] = None,
) -> List[KPlex]:
    """Enumerate all maximal k-plexes with ``>= q`` vertices containing the query.

    ``query_vertices`` are internal vertex ids of ``graph``.  Maximality is
    with respect to the whole graph (a returned set cannot be extended by any
    vertex, inside or outside the query's neighbourhood).  Raises
    :class:`ParameterError` when the query itself is not a k-plex, exceeds
    ``q`` in no possible way, or contains unknown vertices.
    """
    validate_parameters(k, q)
    config = config or EnumerationConfig.ours()
    query = list(validate_query_vertices(graph, query_vertices, q))
    if not is_kplex(graph, query, k):
        return []

    region = _candidate_region(graph, query, k, q, config)
    if len(region) < q:
        return []

    anchor = query[0]
    ordered = [anchor] + [v for v in region if v != anchor]
    subgraph = DenseSubgraph(graph, ordered)
    anchor_local = 0
    query_mask = subgraph.mask_of_parents(query)
    candidate_mask = subgraph.full_mask & ~query_mask
    degrees = [subgraph.degree(v) for v in range(subgraph.size)]

    context = SeedContext(
        seed_vertex=anchor,
        subgraph=subgraph,
        seed_local=anchor_local,
        candidate_mask=candidate_mask,
        two_hop_mask=0,
        external_vertices=[],
        external_adjacency=[],
        degrees=degrees,
        pair_ok=None,
    )
    results: List[KPlex] = []
    mine_seed(
        context,
        [SubTask(p_mask=query_mask, c_mask=candidate_mask, x_mask=0)],
        k,
        q,
        # The pair matrix is built relative to a seed-subgraph structure that
        # does not apply to an anchored query, so R2 is disabled here; every
        # other technique (bounds, pivoting) applies unchanged.
        config.with_changes(use_pair_pruning=False),
        SearchStatistics(),
        on_result=lambda mask: results.append(
            KPlex.from_vertices(graph, subgraph.parents_of_mask(mask), k)
        ),
    )
    results.sort(key=lambda plex: (plex.size, plex.vertices))
    return results


def best_community_for(
    graph: Graph,
    query_vertex: int,
    k: int,
    q: int,
    config: Optional[EnumerationConfig] = None,
) -> Optional[KPlex]:
    """Return the largest (ties: densest-first by vertex order) k-plex containing the query.

    Convenience wrapper for the common "give me *the* community of this
    vertex" use case; ``None`` when no k-plex of size ``q`` contains it.
    """
    results = enumerate_kplexes_containing(graph, [query_vertex], k, q, config)
    if not results:
        return None
    return max(results, key=lambda plex: (plex.size, plex.vertices))
