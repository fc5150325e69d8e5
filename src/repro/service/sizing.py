"""Deterministic memory estimators for the serving layer's budgets.

The result cache in :mod:`repro.service.cache` and the catalog's per-graph
accounting need a *byte cost* for heterogeneous Python objects (graphs,
prepared indexes, responses).  ``sys.getsizeof`` is shallow and recursive
measurement is far too slow for a hot cache path, so the
estimators below use closed-form models calibrated against CPython 3.11
container overheads.  They are estimates — stable, monotone in the payload
size, and cheap — which is exactly what an eviction budget needs; nothing
here claims allocator-exact accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.response import EnumerationResponse
    from ..core.kplex import KPlex
    from ..graph import Graph
    from ..graph.prepared import PreparedGraph

# CPython 3.11 container overheads (64-bit), rounded to friendly constants.
_OBJECT = 56  # small instance / dataclass header
_POINTER = 8
_SET_ENTRY = 60  # amortised per-element cost of a (frozen)set slot
_LIST_ENTRY = 8  # pointer per list slot
_SMALL_INT = 32  # boxed int (most vertex ids are cached small ints; be safe)
_TUPLE_BASE = 56


def estimate_graph_bytes(graph: "Graph") -> int:
    """Approximate resident size of a :class:`~repro.graph.graph.Graph`.

    Counts the adjacency frozensets (the dominant term: one entry per
    directed edge), the label list and the label index dictionary.
    """
    n = graph.num_vertices
    m = graph.num_edges
    adjacency = n * (_OBJECT + _POINTER) + 2 * m * _SET_ENTRY
    labels = n * (_LIST_ENTRY + _SMALL_INT)
    label_index = n * (2 * _POINTER + _SET_ENTRY)
    return _OBJECT + adjacency + labels + label_index


def estimate_prepared_bytes(prepared: "PreparedGraph") -> int:
    """Approximate resident size of the materialised prepared-index artefacts.

    Only counts what has actually been built: the core decomposition lists,
    the neighbour rows (``n²/8`` bytes of bitsets) and every *distinct*
    cached core subgraph (identity entries share the source graph and
    contribute only their vertex map).
    """
    total = _OBJECT
    decomposition = prepared._decomposition
    if decomposition is not None:
        total += 2 * len(decomposition.order) * (_LIST_ENTRY + _SMALL_INT)
    if prepared._position is not None:
        total += len(prepared._position) * (_LIST_ENTRY + _SMALL_INT)
    if prepared._rows is not None:
        n = len(prepared._rows)
        total += n * (_LIST_ENTRY + _SMALL_INT) + n * n // 8
    for core_graph, vertex_map in prepared._cores.values():
        total += len(vertex_map) * (_LIST_ENTRY + _SMALL_INT)
        if core_graph is not prepared.graph:
            total += estimate_graph_bytes(core_graph)
            nested = core_graph._prepared
            if nested is not None:
                total += estimate_prepared_bytes(nested)
    return total


def estimate_response_bytes(response: "EnumerationResponse") -> int:
    """Approximate resident size of a cached :class:`EnumerationResponse`.

    The payload is dominated by the result k-plexes: two tuples (vertex ids
    and labels) per k-plex.  The request's graph is deliberately *not*
    counted — cache entries hold a reference to a graph that lives in the
    catalog anyway, so charging each entry for it would make a handful of
    results on a large graph look gigantic.
    """
    # response + statistics + request + metadata, then the k-plexes
    return 4 * _OBJECT + sum(estimate_kplex_bytes(plex) for plex in response.kplexes)


def estimate_kplex_bytes(plex: "KPlex") -> int:
    """One result k-plex's share of :func:`estimate_response_bytes`."""
    return _OBJECT + 2 * (_TUPLE_BASE + len(plex.vertices) * (_POINTER + _SMALL_INT))
