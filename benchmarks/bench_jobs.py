"""Async job streaming — time-to-first-result vs the synchronous path.

The point of ``/v1/jobs`` + chunked NDJSON streaming is latency to the
*first* result: a synchronous ``POST /v1/solve`` client sees nothing until
the full enumeration finishes and the complete JSON body arrives, while a
streaming consumer receives k-plexes as the solver emits them.

This bench boots a real :class:`KPlexHTTPServer` with both service-side
caches disabled (so every run pays true search cost and the comparison is
between transports, not cache states), runs the jazz ``k=2, q=4`` workload
(3455 maximal k-plexes, ~0.3s of enumeration) both ways, and gates:

* **>= 5x**: median time-to-first-result through a streamed job is at
  least 5x lower than through the synchronous endpoint;
* **bit-completeness**: the streamed record set matches the synchronous
  response exactly.
"""

import statistics
import time

from repro.analysis.reporting import render_table
from repro.server import ServiceClient, start_server
from repro.service import KPlexService, ServiceConfig

from _bench_utils import run_once

GATE_TTFR_SPEEDUP = 5.0
ROUNDS = 5
DATASET = "jazz"
K, Q = 2, 4


def _boot():
    service = KPlexService(
        config=ServiceConfig(max_workers=2, result_cache_entries=0)
    )
    server = start_server(service, port=0)
    client = ServiceClient(server.url)
    client.wait_ready()
    client.register(DATASET, dataset=DATASET)
    return server, client


def _sync_first_result_seconds(client):
    started = time.perf_counter()
    response = client.solve(DATASET, k=K, q=Q)
    elapsed = time.perf_counter() - started
    return elapsed, response["kplexes"]


def _stream_first_result_seconds(client):
    started = time.perf_counter()
    record = client.submit_job(DATASET, k=K, q=Q, result_buffer=10_000)
    first = None
    streamed = []
    for item in client.iter_job_results(record["id"]):
        if "kplex" in item:
            if first is None:
                first = time.perf_counter() - started
            streamed.append(item)
    assert first is not None, "job stream produced no results"
    return first, streamed


def test_bench_job_stream_time_to_first_result(benchmark):
    def run():
        server, client = _boot()
        try:
            sync_seconds, streamed = [], None
            sync_results = None
            for _ in range(ROUNDS):
                elapsed, sync_results = _sync_first_result_seconds(client)
                sync_seconds.append(elapsed)
            stream_seconds = []
            for _ in range(ROUNDS):
                first, streamed = _stream_first_result_seconds(client)
                stream_seconds.append(first)
        finally:
            server.drain()

        sync_set = sorted(tuple(sorted(labels)) for labels in sync_results)
        stream_set = sorted(tuple(sorted(r["kplex"])) for r in streamed)
        return {
            "dataset": f"{DATASET} k={K} q={Q}",
            "results": len(stream_set),
            "sync_first_ms": round(statistics.median(sync_seconds) * 1e3, 3),
            "stream_first_ms": round(statistics.median(stream_seconds) * 1e3, 3),
            "ttfr_speedup": round(
                statistics.median(sync_seconds) / statistics.median(stream_seconds), 2
            ),
            "bit_identical": sync_set == stream_set,
        }

    row = run_once(benchmark, run)
    print()
    print(render_table([row], title="Job streaming: time to first result over HTTP"))

    assert row["bit_identical"], "streamed results differ from the synchronous path"
    assert row["ttfr_speedup"] >= GATE_TTFR_SPEEDUP, (
        f"streaming only reached the first result {row['ttfr_speedup']}x sooner "
        f"than sync (gate {GATE_TTFR_SPEEDUP}x)"
    )
