"""repro — Efficient Enumeration of Large Maximal k-Plexes (EDBT 2025 reproduction).

Public API
----------
The recommended entry point is the engine facade in :mod:`repro.api`:

* :class:`repro.KPlexEngine` — ``solve()`` / ``stream()`` / ``count()`` /
  ``solve_batch()`` over every registered solver;
* :class:`repro.EnumerationRequest` / :class:`repro.EnumerationResponse` —
  the validated request and the self-describing response;
* :func:`repro.solver_names` / :func:`repro.register_solver` — the pluggable
  solver registry (``"ours"``, ``"fp"``, ``"listplex"``, ``"bron-kerbosch"``,
  ``"brute-force"``, ``"parallel"``, ...).

The original functional API is preserved as thin shims over the engine:

* :class:`repro.Graph` — the undirected simple graph type.
* :func:`repro.enumerate_maximal_kplexes` — run the paper's algorithm (``Ours``).
* :func:`repro.count_maximal_kplexes` — count results without materialising them.
* :class:`repro.KPlexEnumerator` — configurable enumerator (ablation variants,
  baselines, statistics).
* :class:`repro.EnumerationConfig` — the knobs corresponding to the paper's
  pruning techniques and algorithm variants.
* :func:`repro.parallel_enumerate_maximal_kplexes` — task-parallel version
  (Section 6 of the paper).

Quick start
-----------
>>> from repro import Graph, KPlexEngine, EnumerationRequest
>>> graph = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
>>> response = KPlexEngine().solve(EnumerationRequest(graph=graph, k=2, q=3))
>>> sorted(sorted(p.vertices) for p in response.kplexes)
[[0, 1, 2, 3]]

or, with the legacy one-call API:

>>> from repro import enumerate_maximal_kplexes
>>> plexes = enumerate_maximal_kplexes(graph, k=2, q=3)
>>> sorted(sorted(p.vertices) for p in plexes)
[[0, 1, 2, 3]]
"""

from .core import (
    EnumerationConfig,
    EnumerationResult,
    KPlex,
    KPlexEnumerator,
    SearchStatistics,
    best_community_for,
    count_maximal_kplexes,
    enumerate_kplexes_containing,
    enumerate_maximal_kplexes,
    is_kplex,
    is_maximal_kplex,
)
from .errors import (
    CatalogError,
    DatasetError,
    FormatError,
    GraphError,
    ParameterError,
    RemoteServiceError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    SnapshotError,
)
from .graph import Graph, PreparedGraph
from .parallel import ParallelConfig, parallel_enumerate_maximal_kplexes
from .api import (
    CancellationToken,
    EnumerationRequest,
    EnumerationResponse,
    KPlexEngine,
    ProgressEvent,
    Solver,
    get_solver,
    register_solver,
    solver_names,
)
from .service import (
    GraphCatalog,
    KPlexService,
    ResultCache,
    ServiceConfig,
    ServiceMetrics,
)

__version__ = "1.2.0"

__all__ = [
    "Graph",
    "PreparedGraph",
    "KPlex",
    "KPlexEnumerator",
    "EnumerationConfig",
    "EnumerationResult",
    "SearchStatistics",
    "KPlexEngine",
    "EnumerationRequest",
    "EnumerationResponse",
    "CancellationToken",
    "ProgressEvent",
    "Solver",
    "register_solver",
    "get_solver",
    "solver_names",
    "enumerate_maximal_kplexes",
    "count_maximal_kplexes",
    "enumerate_kplexes_containing",
    "best_community_for",
    "is_kplex",
    "is_maximal_kplex",
    "ParallelConfig",
    "parallel_enumerate_maximal_kplexes",
    "KPlexService",
    "ServiceConfig",
    "ServiceMetrics",
    "GraphCatalog",
    "ResultCache",
    "ReproError",
    "GraphError",
    "ParameterError",
    "DatasetError",
    "FormatError",
    "ServiceError",
    "CatalogError",
    "ServiceOverloadError",
    "ServiceClosedError",
    "SnapshotError",
    "RemoteServiceError",
    "__version__",
]
