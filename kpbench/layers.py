"""Per-layer timers installed from outside the program.

A traced run wraps the public functions at each layer boundary for the
duration of a ``with`` block and restores the originals on exit; nothing in
the program is edited.  The wrappers take one clock read on entry and one on
exit, so per-node work inside the search is never instrumented.

Mining layers (``trace_mining``):

* ``seeds.build`` — :func:`repro.core.seeds.build_seed_context` (Algorithm 2);
* ``subtasks.gen`` — time spent producing each item of
  :func:`repro.core.seeds.iter_subtasks`, as the enumerator imports it;
* ``branch`` — :meth:`BranchSearcher.run_subtask` (Algorithm 3), minus the
  materialisation it triggers;
* ``materialize`` — :meth:`KPlex.from_vertices`.

None of these nest inside one another except materialisation inside the
branch search, which is subtracted, so the self times add up.

Serving layers (``trace_serving``) wrap :meth:`KPlexService.submit`,
:meth:`ResultCache.lookup`, :meth:`KPlexEngine.solve`,
:meth:`GraphCatalog.register`, :meth:`JobManager.submit` and
:meth:`KPlexService.stream_run`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List

from repro.api.engine import KPlexEngine
from repro.core import enumerator as enumerator_module
from repro.core import seeds as seeds_module
from repro.core.branch import BranchSearcher
from repro.core.kplex import KPlex
from repro.jobs.manager import JobManager
from repro.service import GraphCatalog, KPlexService, ResultCache

clock = time.perf_counter


@contextmanager
def _patched(owner: object, attribute: str, make: Callable[[object], object]):
    original = vars(owner)[attribute]
    setattr(owner, attribute, make(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


class MiningTrace:
    """Accumulated self time (seconds) and counts of the mining layers."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)


@contextmanager
def trace_mining(trace: MiningTrace) -> Iterator[MiningTrace]:
    seconds, counts = trace.seconds, trace.counts

    def wrap_build(original):
        def build_seed_context(*args, **kwargs):
            started = clock()
            context = original(*args, **kwargs)
            seconds["seeds.build"] += clock() - started
            counts["seeds.attempted"] += 1
            if context is not None:
                counts["seeds.kept"] += 1
                counts["seeds.externals"] += len(context.external_vertices)
                counts["seeds.subgraph_vertices"] += context.size
            return context

        return build_seed_context

    def wrap_subtasks(original):
        def iter_subtasks(*args, **kwargs):
            tasks = original(*args, **kwargs)
            while True:
                started = clock()
                try:
                    task = next(tasks)
                except StopIteration:
                    seconds["subtasks.gen"] += clock() - started
                    return
                seconds["subtasks.gen"] += clock() - started
                counts["subtasks.count"] += 1
                yield task

        return iter_subtasks

    def wrap_run_subtask(original):
        def run_subtask(self, task):
            started = clock()
            materialized = seconds["materialize"]
            try:
                return original(self, task)
            finally:
                nested = seconds["materialize"] - materialized
                seconds["branch"] += clock() - started - nested

        return run_subtask

    def wrap_from_vertices(original):
        build = original.__func__

        def from_vertices(cls, graph, vertices, k):
            started = clock()
            plex = build(cls, graph, vertices, k)
            seconds["materialize"] += clock() - started
            counts["materialize.results"] += 1
            return plex

        return classmethod(from_vertices)

    with ExitStack() as stack:
        stack.enter_context(_patched(seeds_module, "build_seed_context", wrap_build))
        stack.enter_context(
            _patched(enumerator_module, "iter_subtasks", wrap_subtasks)
        )
        stack.enter_context(_patched(BranchSearcher, "run_subtask", wrap_run_subtask))
        stack.enter_context(_patched(KPlex, "from_vertices", wrap_from_vertices))
        yield trace


class ServingTrace:
    """Samples taken at the serving layer boundaries (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._by_request: Dict[int, dict] = {}
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # One record per service request, opened by the cache lookup on the
    # service worker thread and closed by the future's done callback.
    def open_request(self, request: object, hit: bool, lookup_s: float) -> None:
        record = {"hit": hit, "engine_s": 0.0}
        self._local.record = record
        with self._lock:
            self._by_request[id(request)] = record
            self.samples["cache.lookup_us"].append(lookup_s * 1e6)

    def add_engine_time(self, seconds: float) -> None:
        record = getattr(self._local, "record", None)
        if record is not None:
            record["engine_s"] += seconds

    def close_request(self, request: object, service_s: float) -> None:
        with self._lock:
            record = self._by_request.pop(id(request), None)
            if record is None:  # rejected before the lookup ran
                return
            if record["hit"]:
                self.samples["service.hit_s"].append(service_s)
            else:
                self.samples["service.miss_s"].append(service_s)
                self.samples["service.wait_s"].append(service_s - record["engine_s"])


@contextmanager
def trace_serving(trace: ServingTrace) -> Iterator[ServingTrace]:
    def wrap_submit(original):
        def submit(self, request, *args, **kwargs):
            started = clock()
            future = original(self, request, *args, **kwargs)
            future.add_done_callback(
                lambda _f: trace.close_request(request, clock() - started)
            )
            return future

        return submit

    def wrap_lookup(original):
        def lookup(self, request, *args, **kwargs):
            started = clock()
            found = original(self, request, *args, **kwargs)
            trace.open_request(request, found is not None, clock() - started)
            return found

        return lookup

    def wrap_engine_solve(original):
        def solve(self, *args, **kwargs):
            started = clock()
            try:
                return original(self, *args, **kwargs)
            finally:
                trace.add_engine_time(clock() - started)

        return solve

    def timed(name: str):
        def wrap(original):
            def call(*args, **kwargs):
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    trace.add(name, clock() - started)

            return call

        return wrap

    def wrap_stream_run(original):
        def stream_run(self, *args, **kwargs):
            started = clock()
            iterator, outcome = original(self, *args, **kwargs)

            def first_timed():
                first = True
                try:
                    for plex in iterator:
                        if first:
                            trace.add("jobs.first_result_s", clock() - started)
                            first = False
                        yield plex
                finally:
                    iterator.close()

            return first_timed(), outcome

        return stream_run

    with ExitStack() as stack:
        stack.enter_context(_patched(KPlexService, "submit", wrap_submit))
        stack.enter_context(_patched(ResultCache, "lookup", wrap_lookup))
        stack.enter_context(_patched(KPlexEngine, "solve", wrap_engine_solve))
        stack.enter_context(
            _patched(GraphCatalog, "register", timed("catalog.register_s"))
        )
        stack.enter_context(_patched(JobManager, "submit", timed("jobs.submit_s")))
        stack.enter_context(_patched(KPlexService, "stream_run", wrap_stream_run))
        yield trace
