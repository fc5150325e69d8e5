"""Named-graph catalog with lifecycle and pre-warming (the serving registry).

A service answering many queries over the same graphs needs those graphs to
be *resources with names and a lifecycle*, not objects re-supplied on every
call.  :class:`GraphCatalog` provides exactly that:

* ``register()`` accepts a :class:`~repro.graph.graph.Graph`, a raw edge
  iterable, a graph file readable by :func:`repro.graph.io.load_graph`, or a
  ``dataset:<name>`` entry of :mod:`repro.datasets.registry`;
* registration **pre-warms** the graph's
  :class:`~repro.graph.prepared.PreparedGraph` index (the ``(q-k)``-core
  plus ordering for every ``(k, q)`` pair the caller expects to serve), so
  the first request pays no preprocessing latency;
* every entry tracks an estimated memory footprint (graph + materialised
  index) for capacity planning;
* ``invalidate()`` / ``unregister()`` retire an entry: the graph's epoch is
  bumped, so every serving-layer cache entry derived from it is dead on
  arrival (see :mod:`repro.service.cache`).

The catalog is thread-safe; entries are immutable snapshots.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.kplex import validate_parameters
from ..errors import CatalogError
from ..graph import Graph
from ..graph.io import load_graph
from ..graph.prepared import PreparedGraph
from ..graph.prepared import invalidate as invalidate_prepared
from ..graph.prepared import prepare
from .sizing import estimate_graph_bytes, estimate_prepared_bytes

#: Accepted ``source`` types for :meth:`GraphCatalog.register`.
GraphSource = Union[Graph, str, Iterable[Tuple[Hashable, Hashable]]]

#: Prefix selecting a bundled dataset instead of a file path.
DATASET_PREFIX = "dataset:"


@dataclass(frozen=True)
class CatalogEntry:
    """Immutable snapshot of one registered graph."""

    name: str
    graph: Graph = field(repr=False)
    source: str
    registered_at: float
    prewarmed_levels: Tuple[int, ...]
    fmt: str = "auto"

    @property
    def num_vertices(self) -> int:
        """Vertex count of the registered graph."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count of the registered graph."""
        return self.graph.num_edges

    @property
    def epoch(self) -> int:
        """Current epoch of the registered graph (live, not a snapshot)."""
        return self.graph.epoch

    def memory_bytes(self) -> int:
        """Estimated bytes held by the graph plus its materialised index."""
        total = estimate_graph_bytes(self.graph)
        prepared = self.graph._prepared
        if prepared is not None:
            total += estimate_prepared_bytes(prepared)
        return total

    def describe(self) -> Dict[str, object]:
        """Loggable summary row (used by ``catalog.info()`` and the CLI)."""
        return {
            "name": self.name,
            "source": self.source,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "epoch": self.epoch,
            "prewarmed_levels": list(self.prewarmed_levels),
            "memory_bytes": self.memory_bytes(),
        }


class GraphCatalog:
    """Registry of named graphs shared by every request of a service.

    Parameters
    ----------
    prepared_core_budget:
        Optional per-graph cap on retained ``core(level)`` subgraphs — the
        ROADMAP's *prepared-index memory budget* — applied to every graph on
        registration (see :meth:`PreparedGraph.set_core_budget`).
    """

    def __init__(self, prepared_core_budget: Optional[int] = None) -> None:
        self._lock = threading.RLock()
        self._entries: Dict[str, CatalogEntry] = {}
        self.prepared_core_budget = prepared_core_budget

    # ------------------------------------------------------------------ #
    # Registration and resolution
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        source: GraphSource,
        *,
        fmt: str = "auto",
        prewarm: Optional[Sequence[Tuple[int, int]]] = None,
        replace: bool = False,
    ) -> CatalogEntry:
        """Register a graph under ``name`` and pre-warm its prepared index.

        ``source`` may be a :class:`Graph`, a ``dataset:<name>`` string, a
        path to a graph file (``fmt`` as in :func:`load_graph`), or an
        iterable of edges.  ``prewarm`` lists the ``(k, q)`` pairs the
        service expects; each warms the ``(q-k)``-core and its degeneracy
        ordering so the first matching request starts at the search proper.
        Re-registering an existing name requires ``replace=True`` and bumps
        the old graph's epoch (its cached results must not be served for the
        newcomer).
        """
        if not isinstance(name, str) or not name.strip():
            raise CatalogError("catalog names must be non-empty strings")
        name = name.strip()
        graph, source_label = self._materialise(source, fmt)
        levels = self._prewarm(graph, prewarm)
        entry = CatalogEntry(
            name=name,
            graph=graph,
            source=source_label,
            registered_at=time.time(),
            prewarmed_levels=levels,
            fmt=fmt,
        )
        with self._lock:
            previous = self._entries.get(name)
            if previous is not None:
                if not replace:
                    raise CatalogError(
                        f"graph {name!r} is already registered; pass replace=True "
                        f"to swap it"
                    )
                if previous.graph is not graph:
                    previous.graph.bump_epoch()
            self._entries[name] = entry
        return entry

    def _materialise(self, source: GraphSource, fmt: str) -> Tuple[Graph, str]:
        if isinstance(source, Graph):
            return source, "graph"
        if isinstance(source, str):
            if source.startswith(DATASET_PREFIX):
                from ..datasets import load_dataset  # local: heavy module

                dataset = source[len(DATASET_PREFIX) :]
                try:
                    return load_dataset(dataset), source
                except Exception as exc:
                    raise CatalogError(
                        f"cannot build dataset {dataset!r}: {exc}"
                    ) from exc
            try:
                return load_graph(source, fmt=fmt), f"file:{source}"
            except OSError as exc:
                raise CatalogError(f"cannot read graph file {source!r}: {exc}") from exc
        try:
            edges = list(source)
        except TypeError as exc:
            raise CatalogError(
                f"unsupported graph source of type {type(source).__name__}; expected "
                f"a Graph, a 'dataset:<name>' / file path string, or an edge iterable"
            ) from exc
        return Graph.from_edges(edges), f"edges:{len(edges)}"

    def _prewarm(
        self, graph: Graph, prewarm: Optional[Sequence[Tuple[int, int]]]
    ) -> Tuple[int, ...]:
        prepared: PreparedGraph = prepare(
            graph, max_core_levels=self.prepared_core_budget
        )
        levels: List[int] = []
        for pair in prewarm or ():
            try:
                k, q = pair
            except (TypeError, ValueError) as exc:
                raise CatalogError(
                    f"prewarm entries must be (k, q) pairs, got {pair!r}"
                ) from exc
            validate_parameters(k, q, enforce_diameter_bound=False)
            prepared_core, _ = prepared.prepared_core(q - k)
            prepared_core.position
            if q - k not in levels:
                levels.append(q - k)
        return tuple(levels)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Graph:
        """Return the graph registered under ``name``."""
        return self.entry(name).graph

    def entry(self, name: str) -> CatalogEntry:
        """Return the catalog entry for ``name``."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                known = ", ".join(sorted(self._entries)) or "<empty catalog>"
                raise CatalogError(
                    f"unknown catalog graph {name!r}; registered: {known}"
                ) from None

    def resolve(self, graph: Union[str, Graph]) -> Graph:
        """Accept either a catalog name or a graph object (service front door)."""
        if isinstance(graph, Graph):
            return graph
        return self.get(graph)

    def names(self) -> List[str]:
        """Registered names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def invalidate(self, name: str) -> int:
        """Drop the graph's cached artefacts and bump its epoch.

        Returns the new epoch.  Subsequent requests re-run the preprocessing
        and can never be answered from results computed before the call.
        """
        entry = self.entry(name)
        invalidate_prepared(entry.graph)
        return entry.graph.epoch

    def unregister(self, name: str) -> CatalogEntry:
        """Remove ``name`` from the catalog and retire its cache entries."""
        with self._lock:
            entry = self.entry(name)
            del self._entries[name]
        entry.graph.bump_epoch()
        return entry

    def clear(self) -> None:
        """Unregister every graph."""
        with self._lock:
            names = list(self._entries)
        for name in names:
            try:
                self.unregister(name)
            except CatalogError:  # pragma: no cover - concurrent removal
                pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def total_memory_bytes(self) -> int:
        """Estimated bytes across all registered graphs and their indexes."""
        with self._lock:
            entries = list(self._entries.values())
        return sum(entry.memory_bytes() for entry in entries)

    def info(self) -> List[Dict[str, object]]:
        """Summary rows for every entry (CLI / metrics endpoints)."""
        with self._lock:
            entries = [self._entries[name] for name in sorted(self._entries)]
        return [entry.describe() for entry in entries]

    def __repr__(self) -> str:
        with self._lock:
            return f"GraphCatalog(graphs={sorted(self._entries)})"
