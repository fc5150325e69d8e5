"""The ``serve-mixed`` workload: HTTP reads beside writes and streamed jobs.

An in-process :func:`start_server` serves two closed-loop client threads
that send each operation of their schedules in lockstep (a barrier before
each), so two requests of the same kind are always in flight together and
what overlaps what does not change from run to run.  Each client owns its
own graphs, so whether a solve is a cache hit or a miss follows from that
client's schedule alone, never from thread timing.  One round of a client,
on the next graph it owns:

1. ``POST /v1/graphs`` re-registers the graph (``replace=true``) with its
   other version: the write bumps the epoch and retires cached answers;
2. ``POST /v1/solve`` misses and runs the solver;
3. ``HITS_PER_ROUND`` more identical solves are answered from the cache;
4. on light graphs, ``POST /v1/jobs`` submits the same spec and its NDJSON
   stream is read to the final ``done`` record.

Before each lockstep step the whole process is pinned to the CPU that
currently runs a short probe loop fastest, and the probe time is kept as a
host speed sample (see ``report.pin_to_quietest_cpu``).

The traffic runs as passes of ``ROUNDS_PER_PASS`` rounds that send the same
operations, and ``--seconds`` sets how many passes (``PASS_SECONDS`` each),
so the sample counts of a run repeat exactly.  ``solve_ms`` is the median
cache-miss latency and ``setup_s`` the median boot, each scaled by the probe
times taken around it to the reference host speed
(``report.at_reference_speed``).  Every answer is
checked against the in-process engine's answer for the same graph version
and ``(k, q)``.

:func:`probe_serving` serves one graph of a mining workload the same way, so
that every workload's traced run reports the serving layers.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Tuple

from repro import EnumerationRequest, Graph, KPlexEngine
from repro.server import ServiceClient, start_server
from repro.service import KPlexService

from inputs import (
    SERVED_GRAPHS,
    TINY_SERVED_GRAPHS,
    edge_list,
    relabel,
    result_digest,
    served_graph_seed,
)
from layers import ServingTrace, clock, trace_serving
from phases import SetupTimes, put_parallel_fixed, put_search_layers, timed
from report import RunResult, at_reference_speed, peak_rss_mb, pin_to_quietest_cpu

HITS_PER_ROUND = 9
#: Versions of each served graph; re-registrations alternate between them.
VERSIONS = 2
#: A pass is a fixed number of rounds per client: every graph once per
#: version, and over a hundred hits.
ROUNDS_PER_PASS = 6
#: About how long one pass takes; ``--seconds`` buys this many passes.
PASS_SECONDS = 3.0
SETUP_REPS = 15
CLIENT_TIMEOUT_S = 60.0
#: Rounds and hits per round of :func:`probe_serving`.
PROBE_ROUNDS = 2
PROBE_HITS = 5


class _Schedule:
    """Every client's rounds, the graph versions they send and their answers.

    Version 0 of each graph is registered at boot.  Round ``r`` of a pass
    visits graph ``r mod n`` of the client and re-registers it with its other
    version, so every write changes the answer.  Every pass sends the same
    operations in the same order.
    """

    def __init__(self, seed: int, tiny: bool, passes: int) -> None:
        self.owned = TINY_SERVED_GRAPHS if tiny else SERVED_GRAPHS
        self.rounds_per_pass = 2 if tiny else ROUNDS_PER_PASS
        self.rounds = passes * self.rounds_per_pass
        self.edges: Dict[Tuple[str, int], List[Tuple[object, object]]] = {}
        self.answers: Dict[Tuple[str, int], str] = {}
        self.requests: List[EnumerationRequest] = []
        engine = KPlexEngine()
        for client, graphs in enumerate(self.owned):
            for slot, served in enumerate(graphs):
                for version in range(VERSIONS):
                    generator_seed = served_graph_seed(client, slot, version)
                    graph = relabel(served.build(generator_seed), seed, served.name).graph
                    edges = edge_list(graph)
                    self.edges[served.name, version] = edges
                    request = EnumerationRequest(
                        graph=Graph.from_edges(edges), k=served.k, q=served.q
                    )
                    self.requests.append(request)
                    self.answers[served.name, version] = result_digest(
                        plex.labels for plex in engine.solve(request).kplexes
                    )

    def plan(self, client: int):
        """``(served graph, version)`` for each round of ``client``."""
        graphs = self.owned[client]
        for round_index in range(self.rounds):
            visit, slot = divmod(round_index % self.rounds_per_pass, len(graphs))
            yield graphs[slot], (visit + 1) % VERSIONS

    def served(self):
        for graphs in self.owned:
            yield from graphs


def _boot(schedule: _Schedule):
    """Start a server and register version 0 of every graph over HTTP."""
    server = start_server(KPlexService(), port=0)
    try:
        with ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S) as client:
            for served in schedule.served():
                client.register(
                    served.name,
                    edges=schedule.edges[served.name, 0],
                    prewarm=[(served.k, served.q)],
                )
    except BaseException:
        server.drain()
        raise
    return server


@dataclass
class _ClientSamples:
    """What the client side saw, for the serving layer metrics."""

    hits: List[float] = field(default_factory=list)
    misses: List[float] = field(default_factory=list)
    body_kb: List[float] = field(default_factory=list)
    first_byte: List[float] = field(default_factory=list)
    ttfr: List[float] = field(default_factory=list)


class _Log:
    """Samples and verdicts, shared by the client threads."""

    def __init__(self, result: RunResult) -> None:
        self._lock = threading.Lock()
        self.result = result
        self.client = _ClientSamples()
        #: The probe time taken before each lockstep step, by the barrier.
        self.step_probes: List[float] = []
        #: Each cache miss's latency and the step it ran in.
        self._miss_steps: List[Tuple[float, int]] = []

    def open_step(self) -> None:
        """Barrier action: pin to the quickest CPU and keep its probe time."""
        self.step_probes.append(pin_to_quietest_cpu())

    def scaled_misses(self) -> List[float]:
        """Each miss scaled by the probes before and after its step."""
        scaled = []
        for seconds, step in self._miss_steps:
            around = self.step_probes[step:step + 2]
            scaled.append(at_reference_speed(seconds, sum(around) / len(around)))
        return scaled

    def check(self, ok: bool, what: str) -> None:
        with self._lock:
            self.result.check(ok, what)

    def op(self, kind: str, ok: bool, seconds: float, what: str) -> None:
        """Count one operation; keep its latency in the list named ``kind``."""
        with self._lock:
            self.result.check(ok, what)
            getattr(self.client, kind).append(seconds)
            if kind == "misses":
                self._miss_steps.append((seconds, len(self.step_probes) - 1))

    def add(self, kind: str, value: float) -> None:
        with self._lock:
            getattr(self.client, kind).append(value)

    def error(self, what: str, exc: BaseException) -> None:
        self.check(False, f"{what}: {type(exc).__name__}: {exc}")


def _client_loop(url, schedule, client_index, log, gate) -> None:
    try:
        with ServiceClient(url, timeout=CLIENT_TIMEOUT_S, keep_alive=True) as client:
            for round_index, (served, version) in enumerate(schedule.plan(client_index)):
                what = f"client {client_index} round {round_index} {served.name}"
                _round(client, served, version, schedule, log, gate, what)
    except threading.BrokenBarrierError:
        return  # the other client stopped, or the run is being torn down
    finally:
        gate.abort()


def _round(client, served, version, schedule, log, gate, what) -> None:
    key = (served.name, version)
    gate.wait()
    try:
        client.register(
            served.name,
            edges=schedule.edges[key],
            prewarm=[(served.k, served.q)],
            replace=True,
        )
        log.check(True, f"{what} register")
    except Exception as exc:  # counted, and the schedule goes on
        log.error(f"{what} register", exc)
    for attempt in range(1 + HITS_PER_ROUND):
        expected = "miss" if attempt == 0 else "hit"
        gate.wait()
        try:
            started = clock()
            payload = client.solve(served.name, served.k, served.q)
            elapsed = clock() - started
            ok = (
                client.last_cache == expected
                and result_digest(payload["kplexes"]) == schedule.answers[key]
            )
            log.op("hits" if attempt else "misses", ok, elapsed, f"{what} solve {expected}")
            log.add("body_kb", _body_kb(payload))
        except Exception as exc:
            log.error(f"{what} solve {expected}", exc)
    if not served.streamed:
        return
    gate.wait()
    try:
        job = _read_job(client, served.name, served.k, served.q)
        ok = job.ok(lambda rows: result_digest(rows) == schedule.answers[key])
        log.op("ttfr", ok, job.ttfr, f"{what} job stream")
        log.add("first_byte", job.first_byte)
    except Exception as exc:
        log.error(f"{what} job", exc)


def _body_kb(payload: dict) -> float:
    return len(json.dumps(payload, default=str)) / 1024.0


@dataclass
class _Job:
    """One job read to its ``done`` record; times in seconds."""

    ttfr: float
    first_byte: float
    rows: List[object]
    done: dict

    def ok(self, correct: Callable[[List[object]], bool]) -> bool:
        return (
            self.done.get("done") is True
            and self.done.get("state") == "succeeded"
            and self.done.get("count") == len(self.rows)
            and correct(self.rows)
        )


def _read_job(client, name: str, k: int, q: int) -> _Job:
    """Submit a job and read its NDJSON stream to the final ``done`` record."""
    started = clock()
    job = client.submit_job(name, k, q)
    opened = clock()
    first = None
    rows = []
    done = {}
    for record in client.iter_job_results(job["id"]):
        if "done" in record:
            done = record
            break
        if first is None:
            first = clock()
        rows.append(record["kplex"])
    if first is None:
        raise RuntimeError(f"job stream of {name} held no result record")
    return _Job(first - started, first - opened, rows, done)


def run_serving(seed: int, seconds: float, traced: bool, tiny: bool) -> RunResult:
    result = RunResult()
    passes = 2 if tiny else max(3, round(seconds / PASS_SECONDS))
    schedule = _Schedule(seed, tiny, passes)
    setup: List[float] = []
    server = None
    log = _Log(result)
    trace = ServingTrace()
    try:
        for _rep in range(SETUP_REPS):
            if server is not None:
                server.drain()
                server = None
            _elapsed, scaled, server = timed(lambda: _boot(schedule))
            setup.append(scaled)
        _traffic(server.url, schedule, log, trace if traced else None)
    finally:
        if server is not None:
            server.drain()
    if traced:
        _put_serving_layers(result, trace, log.client)
        _put_other_layers(result, schedule, seconds)
        return result
    result.put("setup_s", median(setup), "s")
    result.put("solve_ms", 1000.0 * median(log.scaled_misses()), "ms")
    result.put("peak_rss_mb", peak_rss_mb(), "MiB")
    result.put("ok_ratio", result.ok_ratio, "ratio")
    return result


def _traffic(url, schedule, log, trace) -> None:
    gate = threading.Barrier(
        len(schedule.owned), action=log.open_step, timeout=CLIENT_TIMEOUT_S
    )
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(url, schedule, index, log, gate),
            name=f"kpbench-client-{index}",
        )
        for index in range(len(schedule.owned))
    ]
    try:
        if trace is not None:
            with trace_serving(trace):
                _start_and_join(threads)
        else:
            _start_and_join(threads)
    finally:
        gate.abort()
        for thread in threads:
            if thread.is_alive():
                thread.join()


def _start_and_join(threads) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _put_other_layers(result: RunResult, schedule: _Schedule, seconds: float) -> None:
    """The search, graph and parallel layers on the served graphs, in process."""
    engine = KPlexEngine()
    answers = list(schedule.answers.values())

    def record(index, response):
        digest = result_digest(plex.labels for plex in response.kplexes)
        result.check(digest == answers[index], f"in-process solve of served graph {index}")

    put_search_layers(engine, schedule.requests, seconds / 4, result, record)
    setup = SetupTimes()
    for served in schedule.served():
        for version in range(VERSIONS):
            edges = schedule.edges[served.name, version]
            setup.probe(
                engine, lambda: Graph.from_edges(edges), served.k, served.q,
                count_core=True,
            )
    setup.put_layers(result)
    put_parallel_fixed(engine, result)


def _put_serving_layers(result: RunResult, trace: ServingTrace, client: _ClientSamples) -> None:
    samples = trace.samples
    hits, misses = samples["service.hit_s"], samples["service.miss_s"]
    result.put("http.hit_samples", len(client.hits), "count")
    result.put("http.miss_samples", len(client.misses), "count")
    result.put("http.hit_self_ms", 1000.0 * (median(client.hits) - median(hits)), "ms")
    result.put("http.body_kb", sum(client.body_kb) / len(client.body_kb), "KiB")
    result.put("service.hit_ratio", len(hits) / (len(hits) + len(misses)), "ratio")
    result.put("cache.lookup_us", median(samples["cache.lookup_us"]), "us")
    result.put("service.miss_ms", 1000.0 * median(misses), "ms")
    result.put("service.wait_ms", 1000.0 * median(samples["service.wait_s"]), "ms")
    result.put("catalog.register_ms", 1000.0 * median(samples["catalog.register_s"]), "ms")
    result.put("jobs.submit_ms", 1000.0 * median(samples["jobs.submit_s"]), "ms")
    result.put(
        "jobs.first_result_ms", 1000.0 * median(samples["jobs.first_result_s"]), "ms"
    )
    result.put("jobs.first_byte_ms", 1000.0 * median(client.first_byte), "ms")
    result.put("jobs.ttfr_ms", 1000.0 * median(client.ttfr), "ms")


def probe_serving(
    graph: Graph,
    k: int,
    q: int,
    correct: Callable[[List[object]], bool],
    result: RunResult,
) -> None:
    """Serve ``graph`` over HTTP under the serving trace; put the serving layers.

    One client, ``PROBE_ROUNDS`` rounds of: register (``replace`` after the
    first), a cache miss, ``PROBE_HITS`` hits, and a job read to its ``done``
    record.  ``correct(rows)`` checks an answer given as label lists.
    """
    edges = edge_list(graph)
    trace = ServingTrace()
    samples = _ClientSamples()
    server = start_server(KPlexService(), port=0)
    try:
        with ServiceClient(server.url, timeout=CLIENT_TIMEOUT_S, keep_alive=True) as client:
            with trace_serving(trace):
                for round_index in range(PROBE_ROUNDS):
                    client.register(
                        "probe", edges=edges, prewarm=[(k, q)], replace=round_index > 0
                    )
                    for attempt in range(1 + PROBE_HITS):
                        expected = "miss" if attempt == 0 else "hit"
                        started = clock()
                        payload = client.solve("probe", k, q)
                        (samples.hits if attempt else samples.misses).append(
                            clock() - started
                        )
                        samples.body_kb.append(_body_kb(payload))
                        result.check(
                            client.last_cache == expected and correct(payload["kplexes"]),
                            f"served probe graph: solve {expected}",
                        )
                    job = _read_job(client, "probe", k, q)
                    samples.first_byte.append(job.first_byte)
                    samples.ttfr.append(job.ttfr)
                    result.check(job.ok(correct), "served probe graph: job stream")
    finally:
        server.drain()
    _put_serving_layers(result, trace, samples)
