"""Serving layer: graph catalog, cross-request caches and the query service.

This subsystem layers the ROADMAP's production-service shape on top of
:class:`~repro.api.engine.KPlexEngine`:

* :class:`GraphCatalog` — graphs as named resources with pre-warming,
  memory accounting and an invalidate/unregister lifecycle;
* :class:`ResultCache` — a byte-budgeted LRU reusing completed responses
  across requests (keys embed the graph epoch, so invalidation can never
  serve stale data);
* :class:`KPlexService` — the concurrent front-end: bounded worker pool,
  admission control, request coalescing and a :class:`ServiceMetrics`
  snapshot.

Quick start
-----------
>>> from repro.service import KPlexService
>>> service = KPlexService()
>>> _ = service.catalog.register("toy", [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
>>> service.solve("toy", k=2, q=3).count
1
>>> service.metrics()["cache_misses"]
1
"""

from ..errors import (
    CatalogError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
)
from .cache import ByteBudgetLRU, ResultCache, result_cache_key
from .catalog import CatalogEntry, GraphCatalog
from .service import (
    OUTCOME_COALESCED,
    OUTCOME_HIT,
    OUTCOME_MISS,
    KPlexService,
    ServiceConfig,
    ServiceMetrics,
    render_prometheus,
)
from .sizing import (
    estimate_graph_bytes,
    estimate_prepared_bytes,
    estimate_response_bytes,
)

__all__ = [
    "KPlexService",
    "ServiceConfig",
    "ServiceMetrics",
    "GraphCatalog",
    "CatalogEntry",
    "ResultCache",
    "ByteBudgetLRU",
    "result_cache_key",
    "ServiceError",
    "CatalogError",
    "ServiceOverloadError",
    "ServiceClosedError",
    "render_prometheus",
    "OUTCOME_HIT",
    "OUTCOME_MISS",
    "OUTCOME_COALESCED",
    "estimate_graph_bytes",
    "estimate_prepared_bytes",
    "estimate_response_bytes",
]
