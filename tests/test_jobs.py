"""Tests for the async job subsystem (repro.jobs): records, log, manager."""

import threading
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.api import CancellationToken, EnumerationRequest, KPlexEngine, StreamOutcome
from repro.baselines.brute_force import brute_force_vertex_sets
from repro.errors import (
    JobNotFoundError,
    JobQueueFullError,
    JobResultsTruncatedError,
    JobStateError,
    ParameterError,
    ServiceClosedError,
)
from repro.graph import Graph, generators
from repro.jobs import (
    JOB_CANCELLED,
    JOB_EXPIRED,
    JOB_FAILED,
    JOB_PENDING,
    JOB_RUNNING,
    JOB_SUCCEEDED,
    READ_END,
    READ_ITEM,
    READ_TIMEOUT,
    Job,
    JobManager,
    JobManagerConfig,
    ResultLog,
)
from repro.resilience.breaker import STATE_HALF_OPEN
from repro.service import KPlexService, ServiceConfig
from repro.service.sizing import estimate_kplex_bytes

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def make_manager(max_jobs=1024, **service_kwargs) -> JobManager:
    service_kwargs.setdefault("max_workers", 2)
    service = KPlexService(config=ServiceConfig(**service_kwargs))
    service.catalog.register("toy", EDGES)
    service.catalog.register("busy", generators.gnm_random(60, 400, seed=5))
    return JobManager(service, JobManagerConfig(max_jobs=max_jobs))


def toy_request() -> EnumerationRequest:
    return EnumerationRequest(graph=Graph.from_edges(EDGES), k=2, q=3)


# --------------------------------------------------------------------------- #
# ResultLog
# --------------------------------------------------------------------------- #
def test_result_log_drops_oldest_without_readers():
    log = ResultLog(limit=4)
    for i in range(10):
        assert log.append(i)
    assert log.buffered == 4 and log.dropped == 6
    first, entries, closed = log.snapshot()
    assert first == 6 and entries == [6, 7, 8, 9] and not closed


def test_result_log_reader_sees_everything_in_order():
    log = ResultLog(limit=None)
    for i in range(5):
        log.append(i)
    log.close()
    reader = log.attach(0)
    seen = []
    while True:
        kind, index, item = log.read(reader)
        if kind == READ_END:
            break
        seen.append((index, item))
    assert seen == [(i, i) for i in range(5)]


def test_result_log_read_timeout_reports_heartbeat_opportunity():
    log = ResultLog(limit=4)
    reader = log.attach(0)
    kind, index, item = log.read(reader, timeout=0.01)
    assert (kind, index, item) == (READ_TIMEOUT, None, None)
    log.append("x")
    assert log.read(reader, timeout=0.5) == (READ_ITEM, 0, "x")


def test_result_log_backpressure_blocks_producer_for_lagging_reader():
    log = ResultLog(limit=3)
    reader = log.attach(0)
    produced = []

    def producer():
        for i in range(10):
            log.append(i, poll_seconds=0.005)
            produced.append(i)

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.05)
    # The buffer is full and the reader still needs entry 0: the producer
    # must be paused with nothing dropped.
    assert log.buffered == 3 and log.dropped == 0
    assert len(produced) == 3
    seen = []
    while len(seen) < 10:
        kind, index, item = log.read(reader, timeout=1.0)
        assert kind == READ_ITEM
        seen.append(item)
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen == list(range(10)) and log.dropped == 0


def test_result_log_detach_unblocks_producer():
    log = ResultLog(limit=2)
    reader = log.attach(0)
    done = threading.Event()

    def producer():
        for i in range(6):
            log.append(i, poll_seconds=0.005)
        done.set()

    thread = threading.Thread(target=producer)
    thread.start()
    time.sleep(0.03)
    assert not done.is_set()  # blocked on the lagging reader
    log.detach(reader)
    assert done.wait(timeout=5)
    thread.join(timeout=5)
    assert log.dropped == 4  # ring-dropped once nobody needed the entries


def test_result_log_truncated_cursor_raises():
    log = ResultLog(limit=2)
    for i in range(5):
        log.append(i)
    reader = log.attach(0)
    with pytest.raises(JobResultsTruncatedError):
        log.read(reader, timeout=0.1)


def test_result_log_append_honours_abort_and_close():
    log = ResultLog(limit=2)
    assert not log.append("x", should_abort=lambda: True)
    log.close()
    assert not log.append("y")


# --------------------------------------------------------------------------- #
# Job state machine
# --------------------------------------------------------------------------- #
def test_job_lifecycle_success_path():
    job = Job("j1", toy_request(), {"k": 2, "q": 3})
    assert job.state == JOB_PENDING and not job.terminal
    assert job.try_start()
    assert job.state == JOB_RUNNING and job.started_at is not None
    job.note_result()
    job.finish(JOB_SUCCEEDED, termination="completed", elapsed_seconds=0.1)
    assert job.terminal and job.finished_at is not None
    record = job.describe()
    assert record["state"] == JOB_SUCCEEDED
    assert record["progress"]["results"] == 1
    assert record["progress"]["first_result_seconds"] is not None
    final = job.final_record()
    assert final["done"] is True and final["count"] == 1


def test_job_invalid_transition_raises():
    job = Job("j1", toy_request(), {})
    with pytest.raises(JobStateError):
        job.finish(JOB_SUCCEEDED)


def test_job_cancel_before_start_wins():
    job = Job("j1", toy_request(), {})
    assert job.cancel()
    assert job.state == JOB_CANCELLED
    assert not job.try_start()  # the runner observes the loss and skips it
    assert not job.cancel()  # terminal: nothing left to cancel


def test_job_cancel_while_running_defers_to_runner():
    job = Job("j1", toy_request(), {})
    assert job.try_start()
    assert job.cancel()
    assert job.state == JOB_RUNNING  # the runner finalises the state
    assert job.cancel_token.cancelled
    job.finish(JOB_CANCELLED, termination="cancelled")
    assert job.state == JOB_CANCELLED


def test_job_expire_clears_results():
    job = Job("j1", toy_request(), {}, result_buffer=16)
    job.try_start()
    job.results.append({"index": 0})
    job.finish(JOB_SUCCEEDED, termination="completed")
    assert job.expire()
    assert job.state == JOB_EXPIRED and job.results.buffered == 0
    assert not job.expire()  # already expired


# --------------------------------------------------------------------------- #
# JobManager
# --------------------------------------------------------------------------- #
def test_manager_submit_wait_and_results_roundtrip():
    manager = make_manager()
    try:
        job = manager.submit("toy", k=2, q=3)
        assert job.state in (JOB_PENDING, JOB_RUNNING, JOB_SUCCEEDED)
        done = manager.wait(job.id, timeout=10)
        assert done.state == JOB_SUCCEEDED and done.termination == "completed"
        entries = [entry for _index, entry in done.iter_results()]
        assert [sorted(e["kplex"]) for e in entries] == [[0, 1, 2, 3]]
        assert entries[0]["size"] == 4
        assert done.statistics is not None and done.statistics["outputs"] == 1
        assert manager.get(job.id) is job
    finally:
        manager.close()


def test_manager_accepts_prebuilt_request_but_not_both():
    manager = make_manager()
    try:
        job = manager.submit(toy_request())
        assert manager.wait(job.id, timeout=10).state == JOB_SUCCEEDED
        with pytest.raises(ParameterError):
            manager.submit(toy_request(), k=2)
    finally:
        manager.close()


def test_manager_queue_budget_rejects_beyond_capacity():
    manager = make_manager(max_workers=1, max_queue_depth=1)
    try:
        jobs = [manager.submit("busy", k=2, q=4) for _ in range(2)]
        with pytest.raises(JobQueueFullError):
            manager.submit("busy", k=2, q=4)
        assert manager.metrics()["rejected"] == 1
        for job in jobs:
            manager.cancel(job.id)
            manager.wait(job.id, timeout=10)
    finally:
        manager.close()


def test_manager_cancel_running_job_stops_solver_progress():
    manager = make_manager(max_workers=1)
    try:
        job = manager.submit("busy", k=2, q=4)
        deadline = time.monotonic() + 5
        while job.result_count == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert job.result_count > 0, "job never produced a result"
        assert manager.cancel(job.id)
        done = manager.wait(job.id, timeout=10)
        assert done.state == JOB_CANCELLED and done.termination == "cancelled"
        frozen = done.result_count
        time.sleep(0.1)
        assert done.result_count == frozen  # solver work actually stopped
        final = done.final_record()
        assert final["state"] == JOB_CANCELLED and final["done"] is True
    finally:
        manager.close()


def test_manager_counts_only_results_delivered_before_cancel():
    # A reader that never reads pins the full buffer, so the producer blocks
    # in append; cancelling it there must not count the undelivered result.
    limit = 4
    manager = make_manager(max_workers=1)
    try:
        blocker = manager.submit("busy", k=2, q=4)
        job = manager.submit("busy", k=2, q=4, result_buffer=limit)
        assert job.state == JOB_PENDING
        job.results.attach(0)
        delivered = []
        producer_at_full_buffer = threading.Event()
        append = job.results.append

        def tracked_append(item, *args, **kwargs):
            if job.results.buffered == limit:
                producer_at_full_buffer.set()
            appended = append(item, *args, **kwargs)
            if appended:
                delivered.append(item)
            return appended

        job.results.append = tracked_append
        manager.cancel(blocker.id)
        assert producer_at_full_buffer.wait(timeout=10)
        assert manager.cancel(job.id)
        done = manager.wait(job.id, timeout=10)
        assert done.state == JOB_CANCELLED
        assert len(delivered) == limit
        assert done.result_count == limit
        assert done.final_record()["count"] == limit
    finally:
        manager.close()


def test_manager_failed_job_captures_error():
    manager = make_manager()
    try:
        # q=2 violates the q >= 2k - 1 bound, failing inside the runner.
        job = manager.submit("toy", k=2, q=2)
        done = manager.wait(job.id, timeout=10)
        assert done.state == JOB_FAILED
        assert "ParameterError" in done.error
        assert manager.metrics()["failed"] == 1
    finally:
        manager.close()


def test_manager_unknown_job_raises():
    manager = make_manager()
    try:
        with pytest.raises(JobNotFoundError):
            manager.get("nope")
        with pytest.raises(JobNotFoundError):
            manager.cancel("nope")
    finally:
        manager.close()


def test_manager_list_filters_by_state_and_validates():
    manager = make_manager()
    try:
        job = manager.submit("toy", k=2, q=3)
        manager.wait(job.id, timeout=10)
        assert [j.id for j in manager.jobs(states=[JOB_SUCCEEDED])] == [job.id]
        assert manager.jobs(states=[JOB_FAILED]) == []
        with pytest.raises(ParameterError):
            manager.jobs(states=["bogus"])
    finally:
        manager.close()


def test_manager_ttl_expires_terminal_jobs():
    clock = [0.0]
    service = KPlexService(config=ServiceConfig(max_workers=2))
    service.catalog.register("toy", EDGES)
    manager = JobManager(
        service,
        JobManagerConfig(ttl_seconds=10.0),
        clock=lambda: clock[0],
    )
    try:
        job = manager.submit("toy", k=2, q=3)
        manager.wait(job.id, timeout=10)
        assert job.state == JOB_SUCCEEDED
        clock[0] += 5.0
        assert manager.gc() == 0 and job.state == JOB_SUCCEEDED
        clock[0] += 6.0
        assert manager.gc() == 1
        assert job.state == JOB_EXPIRED and job.results.buffered == 0
        # The record itself is still pollable after expiry.
        assert manager.get(job.id).describe()["state"] == JOB_EXPIRED
    finally:
        manager.close()


def test_manager_retention_cap_evicts_oldest_terminal_jobs():
    manager = make_manager(max_workers=2, max_queue_depth=2, max_jobs=4)
    try:
        ids = []
        for _ in range(6):
            job = manager.submit("toy", k=2, q=3)
            manager.wait(job.id, timeout=10)
            ids.append(job.id)
        assert len(manager.jobs()) <= 4
        assert manager.metrics()["evicted"] >= 2
        with pytest.raises(JobNotFoundError):
            manager.get(ids[0])  # the oldest record was evicted
        manager.get(ids[-1])  # the newest survives
    finally:
        manager.close()


def test_manager_metrics_shape_and_ttfr_percentiles():
    manager = make_manager()
    try:
        for _ in range(3):
            job = manager.submit("toy", k=2, q=3)
            manager.wait(job.id, timeout=10)
        metrics = manager.metrics()
        assert metrics["submitted"] == 3 and metrics["succeeded"] == 3
        assert metrics["by_state"][JOB_SUCCEEDED] == 3
        assert metrics["queue_depth"] == 0 and metrics["running"] == 0
        assert metrics["ttfr_samples"] == 3
        assert metrics["time_to_first_result_p50_seconds"] > 0
        assert (
            metrics["time_to_first_result_p95_seconds"]
            >= metrics["time_to_first_result_p50_seconds"]
        )
    finally:
        manager.close()


def test_manager_close_wait_lets_jobs_finish():
    manager = make_manager(max_workers=1)
    job = manager.submit("busy", k=2, q=4)
    manager.close(policy="wait")
    assert job.state == JOB_SUCCEEDED
    with pytest.raises(ServiceClosedError):
        manager.submit("toy", k=2, q=3)


def test_manager_close_cancel_stops_jobs():
    manager = make_manager(max_workers=1, max_queue_depth=4)
    jobs = [manager.submit("busy", k=2, q=4) for _ in range(3)]
    manager.close(policy="cancel")
    assert all(job.terminal for job in jobs)
    assert any(job.state == JOB_CANCELLED for job in jobs)
    with pytest.raises(ParameterError):
        manager.close(policy="bogus")


def test_manager_close_racing_submitters_settles_every_job():
    """Regression: ``close()`` used to set ``_closed`` without a lock.

    ``submit`` checks the flag under the table lock before it adds a job,
    and ``close`` sets it under the same lock, so every job that can still
    run is in the table ``close`` settles.  Closing while submitters race
    must end with every submission either completed or rejected.
    """
    import threading

    manager = make_manager(max_workers=2, max_queue_depth=8)
    outcomes = []
    outcomes_lock = threading.Lock()
    start = threading.Barrier(4)

    def submitter():
        start.wait()
        try:
            job = manager.submit("toy", k=2, q=3)
            with outcomes_lock:
                outcomes.append(("submitted", job))
        except ServiceClosedError:
            with outcomes_lock:
                outcomes.append(("rejected", None))

    def closer():
        start.wait()
        manager.close(policy="wait")

    threads = [threading.Thread(target=submitter) for _ in range(3)]
    threads.append(threading.Thread(target=closer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert manager.closed
    assert len(outcomes) == 3
    for kind, job in outcomes:
        if kind == "submitted":
            manager.wait(job.id, timeout=30)
            assert job.terminal


def test_manager_results_identical_to_sync_service_run():
    manager = make_manager()
    try:
        job = manager.submit("busy", k=2, q=4, result_buffer=10_000)
        done = manager.wait(job.id, timeout=30)
        assert done.state == JOB_SUCCEEDED
        streamed = sorted(
            tuple(sorted(entry["kplex"])) for _i, entry in done.iter_results()
        )
        response = manager.service.solve("busy", k=2, q=4)
        direct = sorted(tuple(sorted(p.labels)) for p in response.kplexes)
        assert streamed == direct
    finally:
        manager.close()


# --------------------------------------------------------------------------- #
# Jobs and the service's result cache
# --------------------------------------------------------------------------- #
def cached_service():
    """A service with one small graph whose answer brute force can check."""
    service = KPlexService(config=ServiceConfig(max_workers=1))
    graph = generators.erdos_renyi(12, 0.5, seed=0)
    service.catalog.register("g", graph)
    return service, brute_force_vertex_sets(graph, 2, 4)


def test_job_on_a_cached_spec_streams_without_a_second_search():
    service, expected = cached_service()
    response = service.solve("g", k=2, q=4)
    assert {frozenset(p.vertices) for p in response} == expected
    hits = service.metrics()["cache_hits"]
    with mock.patch.object(
        KPlexEngine, "stream_run", autospec=True, side_effect=KPlexEngine.stream_run
    ) as spy:
        with JobManager(service) as manager:
            job = manager.submit("g", k=2, q=4)
            records = [entry for _index, entry in job.iter_results()]
            done = manager.wait(job.id, timeout=10)
    assert spy.call_count == 0
    assert service.metrics()["cache_hits"] == hits + 1
    assert done.state == JOB_SUCCEEDED and done.result_count == len(records)
    assert {frozenset(entry["kplex"]) for entry in records} == expected
    assert done.statistics == response.statistics.as_dict()
    service.close()


def test_completed_job_fills_the_cache_for_the_next_solve():
    service, expected = cached_service()
    with JobManager(service) as manager:
        job = manager.submit("g", k=2, q=4)
        assert manager.wait(job.id, timeout=10).state == JOB_SUCCEEDED
    misses = service.metrics()["cache_misses"]
    response = service.solve("g", k=2, q=4)
    metrics = service.metrics()
    assert (metrics["cache_misses"], metrics["cache_hits"]) == (misses, 1)
    assert {frozenset(p.vertices) for p in response.kplexes} == expected
    service.close()


def _assert_next_solve_misses(service, expected):
    misses = service.metrics()["cache_misses"]
    response = service.solve("g", k=2, q=4)
    assert service.metrics()["cache_misses"] == misses + 1
    assert response.termination == "completed"
    assert {frozenset(p.vertices) for p in response.kplexes} == expected


def test_stream_closed_before_exhaustion_stores_nothing():
    service, expected = cached_service()
    iterator, _outcome = service.stream_run(service.request("g", k=2, q=4))
    next(iterator)
    iterator.close()
    _assert_next_solve_misses(service, expected)
    service.close()


def test_cancelled_stream_read_to_its_end_stores_nothing():
    # Exhausted, but the termination it ends with is "cancelled".
    service, expected = cached_service()
    token = CancellationToken()
    iterator, outcome = service.stream_run(
        service.request("g", k=2, q=4), cancel=token
    )
    next(iterator)
    token.cancel()
    assert list(iterator) == [] and outcome.termination == "cancelled"
    _assert_next_solve_misses(service, expected)
    service.close()


def test_cancelled_or_timed_out_job_stores_nothing():
    service, expected = cached_service()
    with JobManager(service) as manager:
        timed_out = manager.submit("g", k=2, q=4, timeout_seconds=0.0)
        assert manager.wait(timed_out.id, timeout=10).termination == "timeout"
        cancelled = manager.submit("g", k=2, q=4, result_buffer=1)
        pin = cancelled.results.attach(0)  # holds the job at its second result
        deadline = time.monotonic() + 10
        while cancelled.result_count == 0 and time.monotonic() < deadline:
            time.sleep(0.002)
        manager.cancel(cancelled.id)
        cancelled.results.detach(pin)
        assert manager.wait(cancelled.id, timeout=10).state == JOB_CANCELLED
    _assert_next_solve_misses(service, expected)
    service.close()


def test_job_larger_than_the_cache_budget_keeps_no_list_and_stores_nothing():
    graph = generators.erdos_renyi(12, 0.5, seed=0)
    expected = brute_force_vertex_sets(graph, 2, 4)
    service = KPlexService(config=ServiceConfig(max_workers=1, result_cache_bytes=2048))
    service.catalog.register("g", graph)
    with mock.patch(
        "repro.service.service.estimate_kplex_bytes", side_effect=estimate_kplex_bytes
    ) as sized, mock.patch.object(
        StreamOutcome, "to_response", autospec=True, side_effect=StreamOutcome.to_response
    ) as built:
        with JobManager(service) as manager:
            job = manager.submit("g", k=2, q=4)
            records = [entry for _index, entry in job.iter_results()]
            assert manager.wait(job.id, timeout=10).state == JOB_SUCCEEDED
    assert {frozenset(entry["kplex"]) for entry in records} == expected
    # The stream stopped collecting once the budget was passed: no k-plex
    # after that was sized, and no response was built for the cache.
    assert 0 < sized.call_count < len(expected)
    assert built.call_count == 0
    assert len(service.result_cache) == 0
    _assert_next_solve_misses(service, expected)
    service.close()


def test_job_runs_add_no_latency_sample_but_count_their_timeouts():
    service, _expected = cached_service()
    with JobManager(service) as manager:
        for timeout in (0.0, None):
            job = manager.submit("g", k=2, q=4, timeout_seconds=timeout)
            manager.wait(job.id, timeout=10)
            job.future.result(timeout=10)
    metrics = service.metrics()
    assert (metrics["completed"], metrics["timeouts"]) == (2, 1)
    assert metrics["latency_samples"] == 0
    service.solve("g", k=2, q=4)
    assert service.metrics()["latency_samples"] == 1
    service.close()


def test_failed_job_counts_no_cache_miss():
    # As a failing solve counts none: a miss counts once its stream ends.
    service, _expected = cached_service()
    with JobManager(service) as manager:
        job = manager.submit("g", k=3, q=2)  # below the diameter bound 2k - 1
        assert manager.wait(job.id, timeout=10).state == JOB_FAILED
    assert service.metrics()["cache_misses"] == 0
    service.close()


@contextmanager
def busy_worker(manager):
    """Hold the service's only worker with a job whose one reader never reads."""
    blocker = manager.submit("busy", k=2, q=4, result_buffer=1)
    pin = blocker.results.attach(0)
    try:
        yield blocker
    finally:
        manager.cancel(blocker.id)
        blocker.results.detach(pin)


def test_job_future_cancelled_before_it_runs_ends_cancelled():
    manager = make_manager(max_workers=1)
    closer = threading.Thread(target=manager.service.close, kwargs={"drain": False})
    with busy_worker(manager):
        queued = manager.submit("toy", k=2, q=3)
        closer.start()
        deadline = time.monotonic() + 10
        while not queued.terminal and time.monotonic() < deadline:
            time.sleep(0.002)
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert queued.state == JOB_CANCELLED
    assert manager.metrics()["cancelled"] == 2
    manager.close()


def test_cancelled_pending_job_frees_its_service_slot():
    manager = make_manager(max_workers=1, max_queue_depth=1)
    with busy_worker(manager):
        queued = manager.submit("toy", k=2, q=3)
        with pytest.raises(JobQueueFullError):
            manager.submit("toy", k=2, q=3)
        assert manager.cancel(queued.id) and queued.state == JOB_CANCELLED
        solve = manager.service.submit("toy", k=2, q=3)  # admitted in its place
    assert solve.result(timeout=10).count == 1
    assert manager.metrics()["cancelled"] == 2
    manager.close()
    manager.service.close()


def test_job_cancelled_while_queued_frees_the_breaker_probe():
    manager = make_manager(
        max_workers=1, breaker_failure_threshold=1, breaker_cooldown_seconds=0.05
    )
    with busy_worker(manager):
        manager.service.breaker.record_failure()  # open; half-open after the cooldown
        time.sleep(0.1)
        probe = manager.submit("toy", k=2, q=3)  # takes the one probe slot, queued
        manager.cancel(probe.id)
        manager.cancel(manager.submit("toy", k=2, q=3).id)  # a new probe may pass
    manager.close()
    manager.service.close()


def test_cancelled_probe_job_leaves_the_breaker_half_open():
    manager = make_manager(
        max_workers=1, breaker_failure_threshold=1, breaker_cooldown_seconds=0.05
    )
    breaker = manager.service.breaker
    breaker.record_failure()  # open; half-open after the cooldown
    time.sleep(0.1)
    probe = manager.submit("busy", k=2, q=4, result_buffer=1)  # the probe
    pin = probe.results.attach(0)  # holds the probe mid-stream
    deadline = time.monotonic() + 10
    while probe.result_count == 0 and time.monotonic() < deadline:
        time.sleep(0.002)
    assert probe.state == JOB_RUNNING
    manager.cancel(probe.id)
    probe.results.detach(pin)
    assert manager.wait(probe.id, timeout=10).state == JOB_CANCELLED
    probe.future.result(timeout=10)  # the dispatch has settled the breaker
    assert breaker.state == STATE_HALF_OPEN
    assert breaker.allow()  # the probe slot is free for the next caller
    manager.close()
    manager.service.close()


def test_manager_config_validation():
    with pytest.raises(ParameterError):
        JobManagerConfig(result_buffer=0)
    with pytest.raises(ParameterError):
        JobManagerConfig(ttl_seconds=-1)
    with pytest.raises(ParameterError):
        JobManagerConfig(max_jobs=0)
