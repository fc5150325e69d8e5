"""Prepared-graph cache — repeated queries on the same graph.

The ROADMAP's service scenario sends many enumeration requests against the
same loaded graph.  Before the prepared-graph index, every request re-ran the
(q-k)-core shrinking, the degeneracy ordering and the adjacency construction
from scratch; with the index they are computed once per graph and every
further request starts at the search proper.

This bench replays a repeated-query workload twice — with the cache
invalidated before every request (the old behaviour) and with the cache warm
— and asserts the headline claim of the optimisation: at least a 5x
total-time win on preprocessing-dominated traffic.
"""

import time

from repro.analysis.reporting import render_table
from repro.api import EnumerationRequest, KPlexEngine
from repro.datasets import load_dataset
from repro.graph import invalidate

from _bench_utils import run_once

REPEATS = 20


def _replay(engine, graph, queries, cold: bool) -> float:
    if not cold:
        invalidate(graph)  # pay the one-time preparation inside the timing
    started = time.perf_counter()
    for k, q in queries:
        if cold:
            invalidate(graph)
        engine.solve(EnumerationRequest(graph=graph, k=k, q=q))
    return time.perf_counter() - started


def _compare(dataset: str, queries):
    graph = load_dataset(dataset)
    engine = KPlexEngine()
    cold_seconds = _replay(engine, graph, queries, cold=True)
    warm_seconds = _replay(engine, graph, queries, cold=False)
    return {
        "dataset": dataset,
        "requests": len(queries),
        "uncached_seconds": round(cold_seconds, 4),
        "cached_seconds": round(warm_seconds, 4),
        "speedup": round(cold_seconds / warm_seconds, 2) if warm_seconds else 0.0,
    }


def test_bench_prepared_cache_repeated_queries(benchmark, scale):
    def run():
        # Preprocessing-dominated: high q keeps the (q-k)-core tiny, so the
        # request cost is almost entirely the graph-structure work the
        # prepared index caches.
        rows = [
            _compare("enwiki-2021", [(2, 20)] * REPEATS),
            _compare("soc-pokec", [(2, 16)] * REPEATS),
            # Mixed parameters against one graph: every (q-k) level is cached
            # independently, the whole-graph ordering is shared.
            _compare("wiki-vote", [(2, 10), (2, 12), (3, 12), (2, 14)] * (REPEATS // 4)),
        ]
        return rows

    rows = run_once(benchmark, run)
    print()
    print(render_table(rows, title="Prepared-graph cache — repeated-query replay"))
    preprocessing_dominated = rows[:2]
    assert all(row["speedup"] >= 5.0 for row in preprocessing_dominated), rows
    # The mixed search-heavy row gains little from the cache; gate it with a
    # noise margin so shared CI runners cannot flake the suite.
    assert all(row["speedup"] >= 0.8 for row in rows), rows
