"""Task-parallel enumeration (Section 6 of the paper).

The parallelisation unit is the *task group* of one seed vertex: building the
seed subgraph ``G_i`` and mining all of its sub-tasks.  Seeds are processed in
stages of ``num_workers`` consecutive seeds of the degeneracy ordering, which
is the paper's scheme for keeping every worker's working set (one seed
subgraph at a time) small and cache-friendly.

Straggler elimination uses the timeout mechanism of the paper: while mining a
sub-task, once the elapsed time exceeds ``timeout_seconds`` the searcher stops
recursing and re-enqueues the pending branch states as fresh tasks.  Inside a
worker process this bounds the size of any contiguous unit of work; the
deterministic scheduler in :mod:`repro.parallel.scheduler` additionally models
the cross-worker stealing the C++ implementation performs, which a Python
process pool cannot do cheaply.

Both a process pool (true parallelism) and a thread pool (useful for tests
and for small graphs where process start-up dominates) are supported.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..core.config import EnumerationConfig
from ..core.enumerator import EnumerationResult, mine_seed
from ..core.kplex import KPlex, validate_parameters
from ..core.seeds import build_seed_context, iter_subtasks
from ..core.stats import SearchStatistics
from ..errors import FaultInjectedError, WorkerCrashError
from ..graph import Graph
from ..graph.prepared import PreparedGraph, prepare
from ..obs import attach_span_record, span, span_record, start_span
from ..resilience import PoolSupervisor, RetryPolicy, fault_injector

DEFAULT_TIMEOUT_SECONDS = 1e-4  # the paper's default τ_time = 0.1 ms


@dataclass(frozen=True)
class ParallelConfig:
    """Configuration of the parallel executor.

    Attributes
    ----------
    num_workers:
        Number of worker processes/threads (defaults to the CPU count).
    timeout_seconds:
        The straggler timeout ``τ_time``; ``None`` disables task splitting.
    use_processes:
        ``True`` for a process pool (real parallelism), ``False`` for threads.
    enumeration:
        The sequential algorithm configuration each worker runs.
    retry:
        Retry/backoff budget the pool supervisor applies to seed tasks lost
        to a worker crash or raised from a worker; ``None`` uses the
        :class:`~repro.resilience.RetryPolicy` defaults.
    max_pool_failures:
        Unattributable pool crashes tolerated before the run degrades to
        in-process serial enumeration.
    """

    num_workers: int = field(default_factory=lambda: os.cpu_count() or 1)
    timeout_seconds: Optional[float] = DEFAULT_TIMEOUT_SECONDS
    use_processes: bool = True
    enumeration: EnumerationConfig = field(default_factory=EnumerationConfig.ours)
    retry: Optional[RetryPolicy] = None
    max_pool_failures: int = 4


# --------------------------------------------------------------------------- #
# Worker-side state and functions (module level so they can be pickled)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _WorkerState:
    """Read-only state shared by the task groups of one parallel run.

    Workers receive the driver's :class:`PreparedGraph` of the (q-k)-core —
    including the finished degeneracy ordering — so no worker repeats the
    graph-level preprocessing.
    """

    prepared: PreparedGraph
    k: int
    q: int
    config: EnumerationConfig
    timeout: Optional[float]


#: Per-process state slot, filled once by the process-pool initializer.  The
#: thread-pool path never touches it (each run binds its own state via
#: functools.partial), so concurrent thread-mode runs cannot clobber each
#: other.
_PROCESS_STATE: List[Optional[_WorkerState]] = [None]


def _initialise_worker(state: _WorkerState) -> None:
    """Process-pool initializer: store the state once per worker process."""
    _PROCESS_STATE[0] = state


#: What a worker returns for one seed: the results as sorted core-vertex
#: tuples, the seed's statistics, and a span record of its wall-clock run.
SeedOutcome = Tuple[List[Tuple[int, ...]], SearchStatistics, Dict[str, object]]


def _mine_seed(seed_vertex: int) -> SeedOutcome:
    """Process-pool entry point: mine one seed with the per-process state."""
    state = _PROCESS_STATE[0]
    assert state is not None, "worker process was not initialised"
    return _mine_seed_with_state(state, seed_vertex)


def _mine_seed_with_state(state: _WorkerState, seed_vertex: int) -> SeedOutcome:
    """Mine the whole task group of one seed vertex inside a worker.

    The :class:`SearchStatistics` object itself travels back, heavy-seed
    table included, next to a span record (wall-clock start/end plus the
    worker pid) that the driver stitches into the request trace: workers
    cannot share the driver's contextvars, so the span rides the result
    channel.
    """
    started_wall = time.time()
    stats = SearchStatistics()
    results: List[Tuple[int, ...]] = []
    context = build_seed_context(
        state.prepared, seed_vertex, state.k, state.q, state.config, stats
    )
    if context is not None:
        mine_seed(
            context,
            iter_subtasks(context, state.k, state.q, state.config, stats),
            state.k,
            state.q,
            state.config,
            stats,
            on_result=lambda mask: results.append(
                tuple(sorted(context.subgraph.parents_of_mask(mask)))
            ),
            timeout=state.timeout,
        )
    record = span_record(
        "mine_seed",
        started_wall,
        time.time(),
        seed=seed_vertex,
        branch_calls=stats.branch_calls,
        outputs=len(results),
    )
    return results, stats, record


def _mine_seed_faulted(
    seed_vertex: int, kind: str, param: Optional[float]
) -> SeedOutcome:
    """Fault-wrapped worker entry point (chaos testing only).

    The *driver's* :class:`FaultInjector` decides — and consumes the budget
    for — each fault before submission; the worker merely enacts it.  A
    respawned worker therefore never re-inherits a live fault and kills
    itself forever.
    """
    if kind == "kill":
        os._exit(1)
    if kind == "exc":
        raise FaultInjectedError(f"injected worker failure at seed {seed_vertex}")
    if kind == "delay" and param:
        time.sleep(param)
    return _mine_seed(seed_vertex)


def _evaluate_thread_seed_fault(
    injector, seed_vertex: int
) -> Optional[Tuple[str, Optional[float]]]:
    """Thread-mode seed faults: the subset that is safe without a process.

    ``seed_delay`` and ``seed_exception`` behave identically in both pool
    modes; the crash faults (``seed_crash``, ``worker_kill``) stay
    process-pool-only — enacting them in a thread would take down the whole
    driver instead of one worker.
    """
    raise_at = injector.param("seed_exception")
    if raise_at is not None and int(raise_at) == seed_vertex and injector.fire("seed_exception"):
        return ("exc", None)
    delay = injector.param("seed_delay")
    if delay is not None and injector.fire("seed_delay"):
        return ("delay", delay)
    return None


def _evaluate_seed_fault(injector, seed_vertex: int) -> Optional[Tuple[str, Optional[float]]]:
    """Driver-side: which armed fault (if any) applies to this submission."""
    crash_at = injector.param("seed_crash")
    if crash_at is not None and int(crash_at) == seed_vertex and injector.fire("seed_crash"):
        return ("kill", None)
    raise_at = injector.param("seed_exception")
    if raise_at is not None and int(raise_at) == seed_vertex and injector.fire("seed_exception"):
        return ("exc", None)
    if injector.fire("worker_kill"):
        return ("kill", None)
    delay = injector.param("seed_delay")
    if delay is not None and injector.fire("seed_delay"):
        return ("delay", delay)
    return None


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #
def _enumerate_parallel(
    graph: Graph,
    k: int,
    q: int,
    parallel: Optional[ParallelConfig] = None,
) -> EnumerationResult:
    """Implementation of the task-parallel enumeration (used by the engine's
    ``parallel`` solver; library callers should go through
    :func:`parallel_enumerate_maximal_kplexes` or
    :class:`repro.api.KPlexEngine`)."""
    validate_parameters(k, q)
    parallel = parallel or ParallelConfig()
    started = time.perf_counter()

    # Graph-level preprocessing, all served by (and cached in) the prepared
    # index: core shrinking and the degeneracy ordering shipped to the
    # workers.
    preprocess_span = start_span("preprocess", core_level=q - k)
    prepared_core, core_map = prepare(graph).prepared_core(q - k)
    core_graph = prepared_core.graph
    merged_stats = SearchStatistics()
    merged_stats.preprocess_seconds = time.perf_counter() - started
    if preprocess_span is not None:
        preprocess_span.set(core_vertices=core_graph.num_vertices).finish()
    kplexes: List[KPlex] = []

    if core_graph.num_vertices >= q:
        with span("seed_generation") as seed_span:
            seeds = prepared_core.decomposition.order
            # Materialise the position index before pickling so no worker
            # recomputes the ordering; this is still preprocessing time.
            prepared_core.position
            seed_span.set(seeds=len(seeds))
        merged_stats.preprocess_seconds = time.perf_counter() - started
        stage = parallel.num_workers
        # Threads share the core's own index, so its neighbour rows are
        # built once and stay cached; processes get a slim picklable copy.
        state = _WorkerState(
            prepared_core.for_worker_transfer() if parallel.use_processes else prepared_core,
            k,
            q,
            parallel.enumeration,
            parallel.timeout_seconds,
        )

        if parallel.use_processes:
            injector = fault_injector()

            # Every worker unpickles the same slim state once; the rebuild
            # path after a crash reuses it unchanged.
            def pool_factory():
                if injector.fire("pool_build"):
                    raise WorkerCrashError("injected pool construction failure")
                return ProcessPoolExecutor(
                    max_workers=parallel.num_workers,
                    initializer=_initialise_worker,
                    initargs=(state,),
                )

            def submit(pool, seed_vertex):
                if injector.enabled:
                    fault = _evaluate_seed_fault(injector, seed_vertex)
                    if fault is not None:
                        return pool.submit(
                            _mine_seed_faulted, seed_vertex, fault[0], fault[1]
                        )
                return pool.submit(_mine_seed, seed_vertex)

            # Degradation ladder's last rung: mine in-process.  Fault
            # points never apply here — the fallback must be safe.
            serial = partial(_mine_seed_with_state, state)

            supervisor = PoolSupervisor(
                pool_factory,
                submit,
                serial,
                retry=parallel.retry,
                stage_size=stage,
                max_pool_failures=parallel.max_pool_failures,
                label="parallel process pool",
            )
            with span(
                "search", mode="processes", seeds=len(seeds), stage_size=stage
            ) as search_span:
                outcomes, report = supervisor.run(seeds)
                search_span.set(
                    pool_recoveries=report.pool_recoveries,
                    task_retries=report.task_retries,
                )
            merged_stats.pool_recoveries = report.pool_recoveries
            merged_stats.task_retries = report.task_retries
            merged_stats.serial_fallbacks = 1 if report.degraded_serial else 0
            for seed_results, seed_stats, record in outcomes:
                # Worker span records cross the process boundary with the
                # results; re-parent them under the search span so worker
                # time lands in the right subtree.
                if search_span.recorded:
                    attach_span_record(record, parent=search_span)
                merged_stats.merge(seed_stats)
                for core_vertices in seed_results:
                    original = [core_map[v] for v in core_vertices]
                    kplexes.append(KPlex.from_vertices(graph, original, k))
        else:
            # Bind this run's state directly instead of going through the
            # per-process slot, so concurrent thread-mode runs are isolated.
            # Threads cannot die under the driver, so the thread pool runs
            # unsupervised.
            mine_state = partial(_mine_seed_with_state, state)
            injector = fault_injector()
            if injector.enabled:
                def mine(seed_vertex, _mine=mine_state, _injector=injector):
                    fault = _evaluate_thread_seed_fault(_injector, seed_vertex)
                    if fault is not None:
                        kind, param = fault
                        if kind == "exc":
                            raise FaultInjectedError(
                                f"injected worker failure at seed {seed_vertex}"
                            )
                        if kind == "delay" and param:
                            time.sleep(param)
                    return _mine(seed_vertex)
            else:
                mine = mine_state
            pool = ThreadPoolExecutor(max_workers=parallel.num_workers)
            try:
                with span(
                    "search", mode="threads", seeds=len(seeds), stage_size=stage
                ):
                    for start in range(0, len(seeds), stage):
                        block = seeds[start : start + stage]
                        with span(
                            "seed_batch", offset=start, size=len(block)
                        ) as batch_span:
                            for seed_results, seed_stats, record in pool.map(
                                mine, block
                            ):
                                if batch_span.recorded:
                                    attach_span_record(record, parent=batch_span)
                                merged_stats.merge(seed_stats)
                                for core_vertices in seed_results:
                                    original = [core_map[v] for v in core_vertices]
                                    kplexes.append(
                                        KPlex.from_vertices(graph, original, k)
                                    )
            finally:
                pool.shutdown()

    with span("merge", results=len(kplexes)):
        kplexes.sort(key=lambda plex: (plex.size, plex.vertices))
    merged_stats.elapsed_seconds = time.perf_counter() - started
    merged_stats.search_seconds = (
        merged_stats.elapsed_seconds - merged_stats.preprocess_seconds
    )
    merged_stats.outputs = len(kplexes)
    return EnumerationResult(
        kplexes=kplexes,
        statistics=merged_stats,
        k=k,
        q=q,
        config=parallel.enumeration,
    )


def parallel_enumerate_maximal_kplexes(
    graph: Graph,
    k: int,
    q: int,
    parallel: Optional[ParallelConfig] = None,
) -> EnumerationResult:
    """Enumerate all maximal k-plexes with at least ``q`` vertices in parallel.

    The result is identical (as a set of vertex sets) to the sequential
    :func:`repro.core.enumerate_maximal_kplexes`; statistics of all workers
    are merged into a single :class:`SearchStatistics`.

    This is a thin shim over :class:`repro.api.KPlexEngine` (solver
    ``"parallel"``), kept for backwards compatibility; it still returns the
    legacy :class:`EnumerationResult`.
    """
    from ..api.engine import KPlexEngine
    from ..api.request import EnumerationRequest

    parallel = parallel or ParallelConfig()
    response = KPlexEngine().solve(
        EnumerationRequest(
            graph=graph,
            k=k,
            q=q,
            solver="parallel",
            options={"parallel": parallel},
        )
    )
    return EnumerationResult(
        kplexes=response.kplexes,
        statistics=response.statistics,
        k=k,
        q=q,
        config=parallel.enumeration,
    )
