"""Unit tests for the fault-tolerance layer (:mod:`repro.resilience`).

Covers the building blocks in isolation — retry policy arithmetic,
fault-spec parsing and driver-side budgets, the pool supervisor's
recover/poison/degrade logic against scripted executors — plus the
parallel executor's integration with them under injected worker faults.
End-to-end chaos over HTTP lives in ``test_chaos.py``.
"""

from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.core import enumerate_maximal_kplexes
from repro.errors import FaultInjectedError, PoisonTaskError
from repro.graph import invalidate
from repro.graph.generators import relaxed_caveman
from repro.parallel import ParallelConfig, parallel_enumerate_maximal_kplexes
from repro.resilience import (
    FaultInjector,
    PoolSupervisor,
    RetryPolicy,
    fault_injector,
    resilience_stats,
)


@pytest.fixture(autouse=True)
def _clean_globals():
    fault_injector().clear()
    resilience_stats().reset()
    yield
    fault_injector().clear()
    resilience_stats().reset()


# --------------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------------- #
def test_retry_policy_attempt_budget():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(1) and policy.should_retry(2)
    assert not policy.should_retry(3)
    assert not RetryPolicy(max_attempts=1).should_retry(1)


def test_retry_policy_backoff_is_exponential_and_clamped():
    policy = RetryPolicy(
        backoff_seconds=0.1, backoff_multiplier=2.0,
        max_backoff_seconds=0.3, jitter=0.0,
    )
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.3)  # clamped, not 0.4
    assert policy.backoff(9) == pytest.approx(0.3)
    assert policy.backoff(0) == 0.0


def test_retry_policy_jitter_is_deterministic_under_stub_rng():
    policy = RetryPolicy(backoff_seconds=1.0, max_backoff_seconds=1.0, jitter=0.5)
    assert policy.backoff(1, rng=lambda: 0.0) == pytest.approx(1.0)
    assert policy.backoff(1, rng=lambda: 1.0) == pytest.approx(0.5)
    # Jittered sleeps stay within [delay * (1 - jitter), delay].
    for _ in range(20):
        assert 0.5 <= policy.backoff(1) <= 1.0


def test_retry_policy_sleep_honours_longer_server_hint():
    policy = RetryPolicy(backoff_seconds=0.1, max_backoff_seconds=0.1, jitter=0.0)
    slept = []
    policy.sleep(1, retry_after=3.0, sleep=slept.append)
    assert slept == [3.0]
    # A shorter hint never shortens the local backoff.
    policy.sleep(1, retry_after=0.01, sleep=slept.append)
    assert slept[1] == pytest.approx(0.1)
    # A hostile header cannot hang the client past 60s.
    policy.sleep(1, retry_after=1e6, sleep=slept.append)
    assert slept[2] == 60.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)


# --------------------------------------------------------------------------- #
# FaultInjector
# --------------------------------------------------------------------------- #
def test_fault_spec_parsing_and_budgets():
    injector = FaultInjector("worker_kill:2,seed_delay:0.05")
    assert injector.enabled
    assert injector.fire("worker_kill") and injector.fire("worker_kill")
    assert not injector.fire("worker_kill")  # budget exhausted
    assert injector.param("seed_delay") == pytest.approx(0.05)
    assert injector.fire("seed_delay") and injector.fire("seed_delay")  # unlimited
    assert not injector.fire("pool_build")  # unarmed point never fires


def test_fault_budget_defaults_to_one_and_after_skips():
    injector = FaultInjector("worker_kill@2")
    assert not injector.fire("worker_kill")  # skip 1
    assert not injector.fire("worker_kill")  # skip 2
    assert injector.fire("worker_kill")      # default budget of 1
    assert not injector.fire("worker_kill")


def test_fault_spec_rejects_unknown_and_missing_args():
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultInjector("reactor_meltdown:1")
    with pytest.raises(ValueError, match="needs an argument"):
        FaultInjector("seed_crash")


def test_fault_injector_configure_clear_and_snapshot():
    injector = FaultInjector()
    assert not injector.enabled and not injector.fire("worker_kill")
    injector.configure("snapshot_torn:1")
    assert injector.enabled
    assert injector.fire("snapshot_torn")
    snap = injector.snapshot()
    assert snap == [
        {"point": "snapshot_torn", "param": None, "budget_remaining": 0, "fired": 1}
    ]
    injector.clear()
    assert not injector.enabled


def test_global_injector_arms_from_environment(monkeypatch):
    import repro.resilience.faults as faults

    monkeypatch.setattr(faults, "_GLOBAL", None)
    monkeypatch.setenv(faults.ENV_VAR, "pool_build:1")
    assert faults.fault_injector().fire("pool_build")
    monkeypatch.setattr(faults, "_GLOBAL", None)


# --------------------------------------------------------------------------- #
# PoolSupervisor against scripted executors
# --------------------------------------------------------------------------- #
class DummyPool:
    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _ok(value):
    future = Future()
    future.set_result(value)
    return future


def _broken():
    future = Future()
    future.set_exception(BrokenExecutor("worker died"))
    return future


def _fast_retry(attempts=3):
    return RetryPolicy(max_attempts=attempts, backoff_seconds=0.0, jitter=0.0)


def test_supervisor_retries_lost_tasks_after_rebuild():
    pools = []

    def pool_factory():
        pools.append(DummyPool())
        return pools[-1]

    crashes = {"remaining": 1}

    def submit(_pool, item):
        if item == "b" and crashes["remaining"] > 0:
            crashes["remaining"] -= 1
            return _broken()
        return _ok(item.upper())

    supervisor = PoolSupervisor(
        pool_factory, submit, str.upper,
        retry=_fast_retry(), stage_size=2, sleep=lambda _s: None,
    )
    results, report = supervisor.run(["a", "b", "c"])
    assert results == ["A", "B", "C"]  # item order, despite the retry
    assert report.pool_failures == 1 and report.pool_recoveries == 1
    assert not report.degraded_serial
    assert len(pools) == 2  # original + one rebuild
    assert resilience_stats().get("pool_recoveries") == 1
    assert not resilience_stats().pool_degraded


def test_supervisor_identifies_deterministic_crasher_as_poison():
    def submit(_pool, item):
        return _broken() if item == "b" else _ok(item)

    supervisor = PoolSupervisor(
        lambda: DummyPool(), submit, lambda item: item,
        retry=_fast_retry(), stage_size=3, sleep=lambda _s: None,
    )
    with pytest.raises(PoisonTaskError) as excinfo:
        supervisor.run(["a", "b", "c"])
    assert excinfo.value.item == "b"
    assert excinfo.value.mode == "crash"
    assert excinfo.value.attempts >= 2  # isolated re-run confirmed it
    assert resilience_stats().get("poison_tasks") == 1


def test_supervisor_retries_task_exceptions_then_raises_poison():
    attempts = {"n": 0}

    def submit(_pool, _item):
        attempts["n"] += 1
        future = Future()
        future.set_exception(RuntimeError("flaky"))
        return future

    supervisor = PoolSupervisor(
        lambda: DummyPool(), submit, lambda item: item,
        retry=_fast_retry(attempts=3), sleep=lambda _s: None,
    )
    with pytest.raises(PoisonTaskError) as excinfo:
        supervisor.run(["x"])
    assert attempts["n"] == 3  # the full retry budget was spent
    assert excinfo.value.mode == "error"
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert resilience_stats().get("task_retries") == 2


def test_supervisor_degrades_to_serial_when_pool_cannot_build():
    def pool_factory():
        raise RuntimeError("no processes for you")

    supervisor = PoolSupervisor(
        pool_factory, lambda _pool, _item: _ok(None), str.upper,
        retry=_fast_retry(), sleep=lambda _s: None,
    )
    results, report = supervisor.run(["a", "b"])
    assert results == ["A", "B"]
    assert report.degraded_serial
    assert resilience_stats().get("serial_fallbacks") == 1
    assert resilience_stats().pool_degraded


def test_supervisor_degrades_after_unattributable_crashes():
    # Each round loses a two-task batch, so no single task is ever isolated
    # as the culprit; after max_pool_failures the supervisor stops cycling
    # pools and finishes serially.
    def submit(_pool, _item):
        return _broken()

    supervisor = PoolSupervisor(
        lambda: DummyPool(), submit, str.upper,
        retry=_fast_retry(attempts=99), stage_size=2,
        max_pool_failures=1, sleep=lambda _s: None,
    )
    results, report = supervisor.run(["a", "b"])
    assert sorted(results) == ["A", "B"]
    assert report.degraded_serial and report.pool_failures == 1
    assert set(report.crash_suspects) == {"a", "b"}


def test_supervisor_submit_time_breakage_does_not_blame_the_task():
    # A BrokenExecutor raised at submit() means the pool died before the
    # task ever ran: it must be retried without earning crash suspicion.
    state = {"broken_submits": 1}
    pools = []

    def pool_factory():
        pools.append(DummyPool())
        return pools[-1]

    def submit(_pool, item):
        if state["broken_submits"] > 0:
            state["broken_submits"] -= 1
            raise BrokenExecutor("pool already dead")
        return _ok(item)

    supervisor = PoolSupervisor(
        pool_factory, submit, lambda item: item,
        retry=_fast_retry(), sleep=lambda _s: None,
    )
    results, report = supervisor.run(["a"])
    assert results == ["a"]
    assert report.pool_failures == 1 and report.pool_recoveries == 1
    with pytest.raises(PoisonTaskError, match="crashed its worker"):
        # Contrast: a task that is *lost in flight* twice in a row, the
        # second time alone, is poison.
        PoolSupervisor(
            lambda: DummyPool(), lambda _p, _i: _broken(), lambda item: item,
            retry=_fast_retry(), sleep=lambda _s: None,
        ).run(["a"])


# --------------------------------------------------------------------------- #
# Executor integration under injected faults
# --------------------------------------------------------------------------- #
def _graph(seed=13):
    graph = relaxed_caveman(5, 5, 0.3, seed=seed)
    invalidate(graph)
    return graph


def _process_config(**kwargs):
    return ParallelConfig(num_workers=2, use_processes=True, **kwargs)


def test_worker_kill_recovery_is_bit_identical():
    graph = _graph()
    expected = {p.as_set() for p in enumerate_maximal_kplexes(graph, 2, 4)}
    fault_injector().configure("worker_kill:1")
    result = parallel_enumerate_maximal_kplexes(graph, 2, 4, _process_config())
    assert {p.as_set() for p in result.kplexes} == expected
    assert result.statistics.pool_recoveries >= 1
    assert result.statistics.serial_fallbacks == 0


def test_deterministic_seed_crash_fails_with_poison_diagnostics():
    graph = _graph()
    fault_injector().configure("seed_crash:0")
    with pytest.raises(PoisonTaskError) as excinfo:
        parallel_enumerate_maximal_kplexes(graph, 2, 4, _process_config())
    assert excinfo.value.mode == "crash"
    assert excinfo.value.item == 0
    assert "refusing to retry" in str(excinfo.value)


def test_seed_exception_is_retried_then_fails_structured():
    graph = _graph()
    fault_injector().configure("seed_exception:0")
    with pytest.raises(PoisonTaskError) as excinfo:
        parallel_enumerate_maximal_kplexes(
            graph, 2, 4,
            _process_config(retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0)),
        )
    assert excinfo.value.mode == "error"
    assert isinstance(excinfo.value.__cause__, FaultInjectedError)


def test_thread_mode_seed_delay_fires_with_identical_results():
    # Latency faults apply in both pool modes; thread mode enacts the sleep
    # in the mining thread (GIL released), never the crash faults.
    graph = _graph()
    expected = {p.as_set() for p in enumerate_maximal_kplexes(graph, 2, 4)}
    fault_injector().configure("seed_delay:0.001")
    result = parallel_enumerate_maximal_kplexes(
        graph, 2, 4, ParallelConfig(num_workers=2, use_processes=False)
    )
    assert {p.as_set() for p in result.kplexes} == expected
    snapshot = {entry["point"]: entry for entry in fault_injector().snapshot()}
    assert snapshot["seed_delay"]["fired"] >= 1


def test_thread_mode_seed_exception_raises_structured():
    graph = _graph()
    fault_injector().configure("seed_exception:0")
    with pytest.raises(FaultInjectedError):
        parallel_enumerate_maximal_kplexes(
            graph, 2, 4, ParallelConfig(num_workers=2, use_processes=False)
        )


def test_pool_build_fault_degrades_to_serial_with_full_results():
    graph = _graph()
    expected = {p.as_set() for p in enumerate_maximal_kplexes(graph, 2, 4)}
    fault_injector().configure("pool_build:99")
    result = parallel_enumerate_maximal_kplexes(graph, 2, 4, _process_config())
    assert {p.as_set() for p in result.kplexes} == expected
    assert result.statistics.serial_fallbacks == 1
