"""The cross-request result cache with a memory budget.

:class:`ResultCache` sits behind :class:`~repro.service.service.KPlexService`
and holds completed :class:`EnumerationResponse` objects, keyed by ``(graph
identity, graph epoch, solver, k, q, config signature, query, result
budget)``.  A hit skips the whole search.  A miss runs Algorithm 2 from
scratch: seed subgraphs are built per request and dropped once mined.

Its LRU core, :class:`ByteBudgetLRU`, is governed by a configurable **memory
budget**: an entry-count cap and/or a byte cap fed by the estimators in
:mod:`repro.service.sizing`.  Eviction statistics are part of ``stats()`` so
the service metrics can report them.

Keys embed the graph's *epoch* (see :meth:`repro.graph.graph.Graph.epoch`):
any invalidation bumps the epoch, so entries computed from a previous state
of a graph can never be served again — they simply age out of the LRU.
Entries hold a strong reference to their graph (via the stored response),
which pins the ``id(graph)`` component of the key for exactly as long as the
entry lives.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..api.registry import get_solver
from ..api.request import EnumerationRequest
from ..api.response import (
    TERMINATION_COMPLETED,
    TERMINATION_RESULT_LIMIT,
    EnumerationResponse,
)
from ..core.config import EnumerationConfig
from ..graph import Graph
from .sizing import estimate_response_bytes


class ByteBudgetLRU:
    """Thread-safe LRU bounded by an entry count and/or a byte budget.

    Subclasses (or composition) provide the key derivation and the per-value
    byte estimate; this core owns ordering, eviction and statistics.  A
    value whose estimate alone exceeds the byte budget is rejected outright
    (recorded as ``rejected_oversized``) instead of wiping the whole cache.
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be non-negative, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # Per entry: [value, nbytes, hit_count, last_access (monotonic)].
        # Hit count and access time feed the snapshot compaction policy
        # (top-N by hits with age decay) without changing eviction, which
        # stays pure LRU.
        self._entries: "OrderedDict[Hashable, List[object]]" = OrderedDict()
        self._current_bytes = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._rejected_oversized = 0

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached value or ``None``; hits refresh LRU recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            entry[2] += 1  # type: ignore[operator]
            entry[3] = time.monotonic()
            return entry[0]

    def peek(self, key: Hashable) -> bool:
        """``True`` when ``key`` is cached, without touching stats or recency.

        The HTTP solve handler uses this to report ``X-KPlex-Cache`` before
        submitting: it must observe the cache without perturbing hit counts
        or LRU order, since the real lookup happens inside the service.
        """
        with self._lock:
            return key in self._entries

    def put(self, key: Hashable, value: object, nbytes: int) -> bool:
        """Insert ``value`` under ``key``; returns ``False`` when rejected."""
        if self.max_bytes is not None and nbytes > self.max_bytes:
            with self._lock:
                self._rejected_oversized += 1
            return False
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._current_bytes -= previous[1]  # type: ignore[operator]
            self._entries[key] = [value, nbytes, 0, time.monotonic()]
            self._current_bytes += nbytes
            self._stores += 1
            self._evict_locked()
            return key in self._entries

    def _evict_locked(self) -> None:
        while (
            self.max_entries is not None and len(self._entries) > self.max_entries
        ) or (self.max_bytes is not None and self._current_bytes > self.max_bytes):
            if not self._entries:
                return
            _key, entry = self._entries.popitem(last=False)
            self._current_bytes -= entry[1]  # type: ignore[operator]
            self._evictions += 1

    def remove_where(self, predicate: Callable[[Hashable, object], bool]) -> int:
        """Drop every entry matching ``predicate(key, value)``; return the count."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if predicate(key, entry[0])
            ]
            for key in doomed:
                entry = self._entries.pop(key)
                self._current_bytes -= entry[1]  # type: ignore[operator]
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry (statistics are preserved)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0

    def export_entries(self) -> List[Tuple[Hashable, object, int, float]]:
        """``(key, value, hits, last_access)`` tuples, hottest (MRU) first.

        A point-in-time copy for exporters — iterating it cannot race with
        concurrent gets/puts, and it does not refresh recency.  The per-entry
        usage stats are what the snapshot compaction policy scores on;
        ``last_access`` is a ``time.monotonic()`` stamp, comparable only
        within this process.
        """
        with self._lock:
            return [
                (key, entry[0], entry[2], entry[3])  # type: ignore[misc]
                for key, entry in reversed(self._entries.items())
            ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Estimated bytes currently held (sum of entry estimates)."""
        with self._lock:
            return self._current_bytes

    def stats(self) -> Dict[str, object]:
        """Counters and occupancy snapshot for metrics endpoints."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "entries": len(self._entries),
                "current_bytes": self._current_bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "stores": self._stores,
                "evictions": self._evictions,
                "rejected_oversized": self._rejected_oversized,
            }


# --------------------------------------------------------------------------- #
# Key derivation helpers
# --------------------------------------------------------------------------- #
def _options_signature(request: EnumerationRequest) -> Tuple[Tuple[str, str], ...]:
    """Hashable, order-insensitive digest of the solver-specific options."""
    return tuple(sorted((key, repr(value)) for key, value in request.options.items()))


def _effective_config(request: EnumerationRequest) -> Optional[EnumerationConfig]:
    # EnumerationConfig is a frozen dataclass, hence hashable and comparable
    # by value.  For the configurable solvers the *effective* default is
    # resolved so that e.g. variant="ours" and no variant key identically;
    # fixed-strategy solvers keep None (they reject overrides anyway).
    config = request.resolved_config()
    if config is None:
        from ..api.solvers import _ConfigurableSolver  # local: import cycle

        solver_cls = get_solver(request.solver)
        if issubclass(solver_cls, _ConfigurableSolver):
            config = solver_cls()._effective_config(request)
    return config


def result_cache_key(request: EnumerationRequest) -> Hashable:
    """The cross-request identity of a request's *completed* answer.

    Everything that can change the result set participates: the graph (by
    identity *and* epoch), the solver (canonical registry name, so aliases
    share entries), ``k``/``q``, the effective configuration, the query
    anchor, the result budget and the sort order.  The timeout deliberately
    does not — only runs that finished within their budget are stored, and a
    completed answer is the same for every timeout.
    """
    graph = request.graph
    return (
        id(graph),
        graph.epoch,
        get_solver(request.solver).name,
        request.k,
        request.q,
        _effective_config(request),
        request.query_vertices,
        request.max_results,
        request.sort_results,
        _options_signature(request),
    )


#: Termination reasons whose result sets are deterministic and reusable.
_CACHEABLE_TERMINATIONS = (TERMINATION_COMPLETED, TERMINATION_RESULT_LIMIT)


class ResultCache:
    """LRU of completed :class:`EnumerationResponse` objects.

    Only responses that ran to completion (or hit their explicit
    ``max_results`` budget, which is part of the key) are stored; timed-out
    and cancelled runs are partial and never reused.  Hits return the shared
    response object — treat it as read-only, like every other cache entry in
    this repository.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 256,
        max_bytes: Optional[int] = 64 * 1024 * 1024,
    ) -> None:
        self._lru = ByteBudgetLRU(max_entries=max_entries, max_bytes=max_bytes)

    def lookup(
        self, request: EnumerationRequest, key: Optional[Hashable] = None
    ) -> Optional[EnumerationResponse]:
        """Return the cached response for an equivalent request, if any.

        ``key`` lets callers that already derived :func:`result_cache_key`
        skip re-deriving it.
        """
        value = self._lru.get(result_cache_key(request) if key is None else key)
        return value  # type: ignore[return-value]

    def peek(
        self, request: EnumerationRequest, key: Optional[Hashable] = None
    ) -> bool:
        """``True`` when an equivalent request is cached; no stats/recency."""
        return self._lru.peek(result_cache_key(request) if key is None else key)

    def store(
        self,
        request: EnumerationRequest,
        response: EnumerationResponse,
        key: Optional[Hashable] = None,
    ) -> bool:
        """Store a finished response; returns ``False`` when not cacheable.

        Callers that computed the key *before* running the request should
        pass it here: the key snapshots the graph's epoch at admission time,
        so an ``invalidate()`` racing with the run strands the entry under
        the old epoch instead of publishing a pre-invalidation answer under
        the fresh one.
        """
        if response.termination not in _CACHEABLE_TERMINATIONS:
            return False
        return self._lru.put(
            result_cache_key(request) if key is None else key,
            response,
            estimate_response_bytes(response),
        )

    def invalidate_graph(self, graph: Graph) -> int:
        """Eagerly drop every entry computed from ``graph`` (any epoch)."""
        target = id(graph)
        return self._lru.remove_where(
            lambda key, value: key[0] == target
            and value.request.graph is graph  # type: ignore[union-attr]
        )

    def export_requests_scored(
        self,
    ) -> List[Tuple[EnumerationRequest, int, float]]:
        """``(request, hits, last_access)`` for every live entry, MRU first.

        This is the warm-start export: ``snapshot_service`` scores these by
        hit count with age decay to decide which specs survive a bounded
        snapshot, and re-executing them through the normal service path
        rebuilds the cache.  Only entries stored under their graph's
        **current** epoch are returned — entries stranded under an older
        epoch are unreachable and must not be replayed.
        """
        scored: List[Tuple[EnumerationRequest, int, float]] = []
        for key, value, hits, last_access in self._lru.export_entries():
            response: EnumerationResponse = value  # type: ignore[assignment]
            if key[1] != response.request.graph.epoch:  # type: ignore[index]
                continue
            scored.append((response.request, hits, last_access))
        return scored

    def clear(self) -> None:
        """Drop every entry."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def current_bytes(self) -> int:
        """Estimated bytes currently held."""
        return self._lru.current_bytes

    def stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters plus occupancy."""
        return self._lru.stats()
