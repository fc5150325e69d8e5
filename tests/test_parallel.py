"""Tests for the parallel executor and the deterministic scheduler model."""

import pytest

from repro.api import EnumerationRequest, KPlexEngine
from repro.core import enumerate_maximal_kplexes
from repro.graph import generators
from repro.parallel import (
    ParallelConfig,
    StageScheduler,
    collect_task_costs,
    parallel_enumerate_maximal_kplexes,
)

from _helpers import vertex_sets


# --------------------------------------------------------------------------- #
# Real executor
# --------------------------------------------------------------------------- #
def test_thread_executor_matches_sequential():
    graph = generators.relaxed_caveman(4, 7, 0.25, seed=50)
    k, q = 2, 5
    sequential = vertex_sets(enumerate_maximal_kplexes(graph, k, q))
    parallel = parallel_enumerate_maximal_kplexes(
        graph, k, q, ParallelConfig(num_workers=3, use_processes=False)
    )
    assert vertex_sets(parallel.kplexes) == sequential
    assert parallel.statistics.outputs == len(parallel.kplexes)


def test_process_executor_matches_sequential():
    graph = generators.relaxed_caveman(3, 7, 0.25, seed=51)
    k, q = 2, 5
    sequential = vertex_sets(enumerate_maximal_kplexes(graph, k, q))
    parallel = parallel_enumerate_maximal_kplexes(
        graph, k, q, ParallelConfig(num_workers=2, use_processes=True)
    )
    assert vertex_sets(parallel.kplexes) == sequential


@pytest.mark.parametrize("use_processes", [False, True])
def test_parallel_reports_the_heavy_seed_table(use_processes):
    graph = generators.relaxed_caveman(6, 9, 0.2, seed=1)
    engine = KPlexEngine()
    ours = engine.solve(EnumerationRequest(graph=graph, k=2, q=5)).statistics
    stats = engine.solve(
        EnumerationRequest(
            graph=graph,
            k=2,
            q=5,
            solver="parallel",
            options={"num_workers": 2, "use_processes": use_processes},
        )
    ).statistics
    assert len(ours.top_seed_branch_calls()) == 21
    assert stats.top_seed_branch_calls().keys() == ours.top_seed_branch_calls().keys()
    assert sum(stats.per_seed_branch_calls.values()) == stats.branch_calls


def test_executor_without_timeout_matches_sequential():
    graph = generators.relaxed_caveman(3, 6, 0.3, seed=52)
    k, q = 2, 5
    sequential = vertex_sets(enumerate_maximal_kplexes(graph, k, q))
    parallel = parallel_enumerate_maximal_kplexes(
        graph,
        k,
        q,
        ParallelConfig(num_workers=2, use_processes=False, timeout_seconds=None),
    )
    assert vertex_sets(parallel.kplexes) == sequential


def test_executor_on_empty_result_graph():
    graph = generators.path_graph(10)
    parallel = parallel_enumerate_maximal_kplexes(
        graph, 2, 6, ParallelConfig(num_workers=2, use_processes=False)
    )
    assert parallel.kplexes == []


def test_executor_validates_parameters():
    graph = generators.path_graph(5)
    with pytest.raises(Exception):
        parallel_enumerate_maximal_kplexes(graph, 2, 1, ParallelConfig(num_workers=1))


# --------------------------------------------------------------------------- #
# Deterministic scheduler
# --------------------------------------------------------------------------- #
def test_scheduler_single_worker_is_serial_sum():
    scheduler = StageScheduler(num_workers=1)
    report = scheduler.run([[3.0, 2.0], [5.0]])
    assert report.makespan == pytest.approx(10.0)
    assert report.speedup == pytest.approx(1.0)
    assert report.tasks_executed == 3


def test_scheduler_balances_equal_tasks():
    scheduler = StageScheduler(num_workers=4)
    report = scheduler.run([[1.0] * 4, [1.0] * 4, [1.0] * 4, [1.0] * 4])
    assert report.makespan == pytest.approx(4.0)
    assert report.speedup == pytest.approx(4.0)
    assert report.utilisation == pytest.approx(1.0)


def test_scheduler_straggler_without_timeout_limits_speedup():
    # One giant task dominates the stage when it cannot be split.
    groups = [[16.0], [1.0], [1.0], [1.0]]
    no_timeout = StageScheduler(num_workers=4).run(groups)
    assert no_timeout.makespan == pytest.approx(16.0)
    with_timeout = StageScheduler(num_workers=4, timeout=1.0).run(groups)
    assert with_timeout.makespan < no_timeout.makespan


def test_scheduler_timeout_overhead_visible():
    groups = [[4.0] * 4]
    cheap = StageScheduler(num_workers=2, timeout=None).run(groups)
    expensive = StageScheduler(num_workers=2, timeout=0.5, split_overhead=0.5).run(groups)
    assert expensive.makespan > cheap.makespan


def test_scheduler_work_is_conserved():
    groups = [[2.0, 3.0, 1.0], [4.0], [2.5, 2.5]]
    report = StageScheduler(num_workers=3).run(groups)
    assert sum(report.busy_time) == pytest.approx(report.total_work)


def test_scheduler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        StageScheduler(num_workers=0)
    with pytest.raises(ValueError):
        StageScheduler(num_workers=2, timeout=0.0)


def test_scheduler_stage_structure():
    # Two stages of two groups each on two workers.
    groups = [[1.0], [1.0], [1.0], [1.0]]
    report = StageScheduler(num_workers=2).run(groups)
    assert report.stages == 2
    assert report.makespan == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# Cost collection and curves
# --------------------------------------------------------------------------- #
def test_collect_task_costs_counts_all_branches():
    graph = generators.relaxed_caveman(3, 7, 0.25, seed=53)
    costs = collect_task_costs(graph, 2, 5)
    assert costs
    assert all(cost > 0 for group in costs for cost in group)


def test_collect_task_costs_empty_when_core_too_small():
    graph = generators.path_graph(6)
    assert collect_task_costs(graph, 2, 6) == []


def test_speedup_curve_monotone():
    graph = generators.relaxed_caveman(4, 7, 0.25, seed=54)
    costs = collect_task_costs(graph, 2, 5)
    speedups = [
        StageScheduler(workers, timeout=4.0).run(costs).speedup
        for workers in (1, 2, 4, 8)
    ]
    assert speedups[0] == pytest.approx(1.0)
    assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))


def test_timeout_curve_contains_all_requested_values():
    graph = generators.relaxed_caveman(3, 7, 0.25, seed=55)
    costs = collect_task_costs(graph, 2, 5)
    reports = {
        timeout: StageScheduler(4, timeout=timeout).run(costs)
        for timeout in (1.0, 8.0, None)
    }
    assert all(report.makespan > 0 for report in reports.values())
    # A smaller timeout splits at least as many tasks; no timeout splits none.
    assert reports[1.0].tasks_split >= reports[8.0].tasks_split
    assert reports[1.0].tasks_split > reports[None].tasks_split == 0
