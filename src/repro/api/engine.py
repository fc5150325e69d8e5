"""The :class:`KPlexEngine` facade.

One entry point for every way of mining maximal k-plexes in this repository:

* :meth:`KPlexEngine.solve` — run a request to completion (or until its
  timeout / result budget) and return an :class:`EnumerationResponse`;
* :meth:`KPlexEngine.stream` — lazily yield results as the search finds
  them, with cooperative cancellation and progress callbacks;
* :meth:`KPlexEngine.count` — count results without materialising them;
* :meth:`KPlexEngine.solve_batch` — run many requests and return responses
  in request order (optionally on a thread pool).

Solvers are resolved by name through the pluggable registry
(:mod:`repro.api.registry`), so the engine itself is algorithm-agnostic.

Timeouts and cancellation are *cooperative*: they are checked every time
control returns to the engine between results, so the granularity is one
seed task group for the incremental solvers and the whole run for the eager
ones (their capability listing says which is which).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from ..core.kplex import KPlex, validate_parameters
from ..core.stats import SearchStatistics
from ..errors import ParameterError
from ..graph import Graph
from ..graph.prepared import PreparedGraph
from ..graph.prepared import prepare as _prepare_graph
from ..obs import start_span
from .registry import Solver, SolverRun, get_solver, solver_names, solver_table
from .request import EnumerationRequest
from .response import (
    TERMINATION_CANCELLED,
    TERMINATION_COMPLETED,
    TERMINATION_RESULT_LIMIT,
    TERMINATION_TIMEOUT,
    EnumerationResponse,
)

# Ensure the built-in solvers are registered whenever the engine is imported.
from . import solvers as _builtin_solvers  # noqa: F401


class CancellationToken:
    """Cooperative cancellation handle for :meth:`KPlexEngine.stream`.

    Thread-safe: one thread may consume the stream while another calls
    :meth:`cancel`.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; the stream stops before its next result."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """``True`` once :meth:`cancel` has been called."""
        return self._event.is_set()


@dataclass(frozen=True)
class ProgressEvent:
    """Passed to ``on_progress`` after each streamed result."""

    count: int
    elapsed_seconds: float
    latest: KPlex


class StreamOutcome:
    """Mutable bookkeeping shared between the streaming loop and its caller.

    Filled in as the stream produced by :meth:`KPlexEngine.stream_run`
    advances: once the iterator is exhausted (or closed), ``termination``
    holds the reason the run ended, ``elapsed_seconds`` the wall-clock time
    since dispatch, and ``run`` the underlying :class:`SolverRun` (for
    statistics and solver metadata).
    """

    def __init__(self) -> None:
        self.termination: str = TERMINATION_COMPLETED
        self.elapsed_seconds: float = 0.0
        self.run: Optional[SolverRun] = None

    def to_response(
        self, request: EnumerationRequest, kplexes: List[KPlex]
    ) -> EnumerationResponse:
        """The response of a finished stream that yielded ``kplexes``.

        Sorts ``kplexes`` in place when the request asks for sorted results.
        """
        if request.sort_results:
            kplexes.sort(key=lambda plex: (plex.size, plex.vertices))
        run = self.run
        return EnumerationResponse(
            kplexes=kplexes,
            statistics=run.statistics() if run is not None else SearchStatistics(),
            request=request,
            solver=get_solver(request.solver).name,
            termination=self.termination,
            elapsed_seconds=self.elapsed_seconds,
            solver_metadata=dict(run.metadata) if run is not None else {},
        )


class KPlexEngine:
    """Facade over the solver registry — the library's request/response API.

    >>> from repro import Graph
    >>> from repro.api import EnumerationRequest, KPlexEngine
    >>> graph = Graph.from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    >>> engine = KPlexEngine()
    >>> response = engine.solve(EnumerationRequest(graph=graph, k=2, q=3))
    >>> [sorted(p.vertices) for p in response]
    [[0, 1, 2, 3]]
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock

    # ------------------------------------------------------------------ #
    # Request construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def request(graph: Graph, k: int, q: int, **kwargs: object) -> EnumerationRequest:
        """Build a validated :class:`EnumerationRequest` (keyword passthrough)."""
        return EnumerationRequest(graph=graph, k=k, q=q, **kwargs)  # type: ignore[arg-type]

    @staticmethod
    def prepare(
        graph: Graph, k: Optional[int] = None, q: Optional[int] = None
    ) -> PreparedGraph:
        """Pre-warm the prepared-graph index of ``graph`` and return it.

        All solvers share this per-graph cache automatically — repeated
        :meth:`solve` / :meth:`stream` / :meth:`solve_batch` calls on the
        same graph object pay the graph-structure work only once; the index
        lives exactly as long as the graph object does.

        Without parameters this only attaches the (empty) index; the cores
        and their orderings are cached on first use because they depend on
        ``q - k``.  Pass the ``k``/``q`` a service expects to warm that core
        and its degeneracy ordering, moving the whole preprocessing cost of
        the first matching request out of its latency.
        """
        if (k is None) != (q is None):
            raise ParameterError(
                "pass both k and q to warm a core level, or neither"
            )
        prepared = _prepare_graph(graph)
        if k is not None and q is not None:
            validate_parameters(k, q, enforce_diameter_bound=False)
            prepared_core, _ = prepared.prepared_core(q - k)
            prepared_core.position
        return prepared

    @staticmethod
    def solvers() -> List[str]:
        """Primary names of every registered solver."""
        return solver_names()

    # ------------------------------------------------------------------ #
    # Core dispatch
    # ------------------------------------------------------------------ #
    def _start(self, request: EnumerationRequest) -> tuple[Solver, SolverRun]:
        solver_cls = get_solver(request.solver)
        if request.query_vertices is not None and not solver_cls.supports_query:
            raise ParameterError(
                f"solver {solver_cls.name!r} does not support query-anchored "
                f"enumeration; use one of "
                f"{[c['solver'] for c in solver_table() if c['supports_query']]}"
            )
        solver = solver_cls()
        return solver, solver.start(request)

    def _stream(
        self,
        request: EnumerationRequest,
        outcome: StreamOutcome,
        cancel: Optional[CancellationToken],
        on_progress: Optional[Callable[[ProgressEvent], None]],
    ) -> Iterator[KPlex]:
        # Start the clock before dispatch so elapsed_seconds (and the
        # timeout budget) cover the solver's preprocessing as well.
        # The span is started (not activated — this is a generator) under
        # whatever span is current when the first result is pulled.
        run_span = start_span("solver_run", solver=request.solver)
        started = self._clock()
        _solver, run = self._start(request)
        outcome.run = run
        deadline = (
            started + request.timeout_seconds
            if request.timeout_seconds is not None
            else None
        )
        results = iter(run.results)
        count = 0
        try:
            while True:
                if cancel is not None and cancel.cancelled:
                    outcome.termination = TERMINATION_CANCELLED
                    break
                if deadline is not None and self._clock() >= deadline:
                    outcome.termination = TERMINATION_TIMEOUT
                    break
                try:
                    plex = next(results)
                except StopIteration:
                    outcome.termination = TERMINATION_COMPLETED
                    break
                count += 1
                yield plex
                if on_progress is not None:
                    on_progress(
                        ProgressEvent(
                            count=count,
                            elapsed_seconds=self._clock() - started,
                            latest=plex,
                        )
                    )
                if request.max_results is not None and count >= request.max_results:
                    outcome.termination = TERMINATION_RESULT_LIMIT
                    break
        finally:
            outcome.elapsed_seconds = self._clock() - started
            if run_span is not None:
                run_span.set(
                    termination=outcome.termination, results=count
                ).finish()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def stream(
        self,
        request: EnumerationRequest,
        cancel: Optional[CancellationToken] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> Iterator[KPlex]:
        """Lazily yield maximal k-plexes as the solver produces them.

        No search work happens before the first item is pulled.  The
        request's ``timeout_seconds`` / ``max_results`` budgets and the
        optional ``cancel`` token all stop the stream early; ``on_progress``
        is invoked after every yielded result.
        """
        return self._stream(request, StreamOutcome(), cancel, on_progress)

    def stream_run(
        self,
        request: EnumerationRequest,
        cancel: Optional[CancellationToken] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> "tuple[Iterator[KPlex], StreamOutcome]":
        """Like :meth:`stream`, but also return the run's outcome record.

        The returned :class:`StreamOutcome` is populated as the iterator
        advances and is final once the iterator stops (or is closed): the
        service's job path (:meth:`KPlexService.stream_run`) uses it to tell
        a completed enumeration from a timeout, a result-limit stop or a
        cooperative cancellation, and to build the response it caches.
        """
        outcome = StreamOutcome()
        return self._stream(request, outcome, cancel, on_progress), outcome

    def solve(
        self,
        request: EnumerationRequest,
        cancel: Optional[CancellationToken] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> EnumerationResponse:
        """Run a request to completion (or budget) and collect the response."""
        outcome = StreamOutcome()
        return outcome.to_response(
            request, list(self._stream(request, outcome, cancel, on_progress))
        )

    def count(
        self,
        request: EnumerationRequest,
        cancel: Optional[CancellationToken] = None,
    ) -> int:
        """Count results without keeping them in memory."""
        return sum(1 for _ in self._stream(request, StreamOutcome(), cancel, None))

    def solve_batch(
        self,
        requests: Sequence[EnumerationRequest],
        max_workers: Optional[int] = None,
    ) -> List[EnumerationResponse]:
        """Solve many requests; responses align index-for-index with requests.

        With ``max_workers`` > 1 the requests run on a thread pool (results
        are still returned in request order).  Each request's own timeout and
        result budget apply individually.
        """
        requests = list(requests)
        if max_workers is not None and max_workers > 1 and len(requests) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                return list(pool.map(self.solve, requests))
        return [self.solve(request) for request in requests]
