"""Measurement phases shared by the workloads.

Every traced run reports every per-layer metric of BENCHMARK.json, each
measured on the workload's own inputs: the search layers on its graphs
(:func:`put_search_layers`), the graph layer on building and preparing them
(:class:`SetupTimes`), and the parallel layer's fixed cost per request
(:func:`put_parallel_fixed`).  The serving layers come from ``serve.py``.
"""

from __future__ import annotations

import gc
import math
from collections import Counter
from statistics import fmean, median
from typing import Callable, List, Optional, Sequence

from repro import EnumerationRequest, Graph, KPlexEngine
from repro.graph import generators
from repro.graph.prepared import prepare

from layers import MiningTrace, clock, trace_mining
from report import (
    RunResult,
    at_reference_speed,
    pin_to_quietest_cpu,
    sample_host_speed,
    unpin,
)

MIN_ROUNDS = 2
PARALLEL_OPTIONS = {"num_workers": 2, "use_processes": True}
SEARCH_LAYERS = ("seeds.build", "subtasks.gen", "branch", "materialize")
FIXED_COST_REPS = 5


def timed(call: Callable[[], object], quiet: bool = True):
    """``(seconds, reference seconds, value)`` of one call.

    The call runs after a collection and a probe of the host's speed, pinned
    to the quickest CPU if ``quiet`` (see :func:`report.pin_to_quietest_cpu`);
    a second probe follows it, and the time is also given scaled by the two
    probes to the reference host speed (:func:`report.at_reference_speed`).
    """
    gc.collect()
    before = pin_to_quietest_cpu() if quiet else sample_host_speed()
    started = clock()
    value = call()
    elapsed = clock() - started
    probe_s = (before + sample_host_speed()) / 2
    return elapsed, at_reference_speed(elapsed, probe_s), value


def rounds(seconds: float, minimum: int = MIN_ROUNDS):
    """Round indices until ``seconds`` have passed, at least ``minimum`` of them."""
    deadline = clock() + seconds
    count = 0
    while count < minimum or clock() < deadline:
        yield count
        count += 1


class SetupTimes:
    """Build and cold-prepare times of fresh graphs (``graph`` layer)."""

    def __init__(self) -> None:
        self.build: List[float] = []
        self.core: List[float] = []
        self.core_vertices: List[int] = []
        #: Build plus prepare, scaled to the reference host speed.
        self.scaled: List[float] = []

    def probe(self, engine: KPlexEngine, build: Callable[[], Graph], k: int, q: int,
              count_core: bool = False) -> None:
        """Build one graph and prepare its (q-k)-core cold; time both halves."""
        halves = []

        def build_and_prepare():
            started = clock()
            graph = build()
            built = clock()
            engine.prepare(graph, k, q)
            halves.extend((built - started, clock() - built))
            return graph

        _elapsed, scaled, graph = timed(build_and_prepare)
        self.build.append(halves[0])
        self.core.append(halves[1])
        self.scaled.append(scaled)
        if count_core:
            core, _map = prepare(graph).prepared_core(q - k)
            self.core_vertices.append(core.graph.num_vertices)

    def put_layers(self, result: RunResult) -> None:
        result.put("graph.build_s", median(self.build), "s")
        result.put("prepared.core_s", median(self.core), "s")
        result.put("prepared.core_vertices", fmean(self.core_vertices), "count")


def put_search_layers(
    engine: KPlexEngine,
    requests: Sequence[EnumerationRequest],
    seconds: float,
    result: RunResult,
    record: Callable[[int, object], None],
) -> None:
    """Time each request traced and untraced, alternately, in rounds.

    Layer times are per enumeration, from each request's fastest traced run,
    averaged over the requests; ``engine.self_s`` is the traced enumeration
    time minus the four layer self times, so the five add up to
    ``trace.enum_s``.  ``record(index, response)`` sees every answer.
    """
    count = len(requests)
    best_plain = [math.inf] * count
    best_traced = [math.inf] * count
    best_trace: List[Optional[MiningTrace]] = [None] * count
    best_stats: List[Optional[object]] = [None] * count
    for round_index in rounds(seconds):
        for index, request in enumerate(requests):
            # Alternate which of the pair runs first, so drift in host speed
            # within a round does not bias the overhead ratio.
            for traced_turn in ((False, True) if round_index % 2 == 0 else (True, False)):
                if traced_turn:
                    trace = MiningTrace()
                    with trace_mining(trace):
                        elapsed, _scaled, response = timed(lambda: engine.solve(request))
                    if elapsed < best_traced[index]:
                        best_traced[index] = elapsed
                        best_trace[index] = trace
                        best_stats[index] = response.statistics
                else:
                    elapsed, _scaled, response = timed(lambda: engine.solve(request))
                    best_plain[index] = min(best_plain[index], elapsed)
                record(index, response)
                del response

    layer_s = {name: fmean(t.seconds[name] for t in best_trace) for name in SEARCH_LAYERS}
    totals: Counter = sum((Counter(t.counts) for t in best_trace), Counter())
    traced_enum = fmean(best_traced)
    kept = max(1, totals["seeds.kept"])
    result.put("seeds.build_s", layer_s["seeds.build"], "s")
    result.put("seeds.attempted", totals["seeds.attempted"] / count, "count")
    result.put("seeds.kept", totals["seeds.kept"] / count, "count")
    result.put("seeds.keep_ratio", totals["seeds.kept"] / max(1, totals["seeds.attempted"]), "ratio")
    result.put("seeds.externals_mean", totals["seeds.externals"] / kept, "count")
    result.put("seeds.subgraph_mean", totals["seeds.subgraph_vertices"] / kept, "count")
    result.put("subtasks.gen_s", layer_s["subtasks.gen"], "s")
    result.put("subtasks.count", totals["subtasks.count"] / count, "count")
    result.put("branch.self_s", layer_s["branch"], "s")
    result.put("branch.calls", fmean(s.branch_calls for s in best_stats), "count")
    result.put(
        "branch.maximality_rejections",
        fmean(s.maximality_rejections for s in best_stats),
        "count",
    )
    result.put("materialize.s", layer_s["materialize"], "s")
    result.put("materialize.results", totals["materialize.results"] / count, "count")
    result.put("engine.self_s", traced_enum - sum(layer_s.values()), "s")
    result.put("trace.enum_s", traced_enum, "s")
    result.put("trace.overhead", traced_enum / fmean(best_plain), "ratio")


def put_parallel_fixed(engine: KPlexEngine, result: RunResult) -> None:
    """``parallel.fixed_ms``: best of a few ``parallel`` solves of two 8-cliques.

    The search is trivial, so what is timed is the parallel layer's cost per
    request: pool spawn, graph transfer and teardown.
    """
    request = EnumerationRequest(
        graph=generators.ring_of_cliques(2, 8), k=2, q=8, solver="parallel",
        options=dict(PARALLEL_OPTIONS),
    )
    fixed = []
    unpin()
    for _rep in range(FIXED_COST_REPS):
        elapsed, _scaled, response = timed(lambda: engine.solve(request), quiet=False)
        fixed.append(elapsed)
        result.check(len(response.kplexes) == 2, "parallel solve of two 8-cliques")
    result.put("parallel.fixed_ms", 1000.0 * min(fixed), "ms")
