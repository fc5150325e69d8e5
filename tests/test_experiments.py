"""Tests for the experiment harness (workloads, runner, tables, figures).

The drivers are exercised on purpose-built tiny workloads so the whole module
stays fast; the full-scale reproductions live in ``benchmarks/``.
"""

import pytest

from repro.baselines.fp import FPLike
from repro.datasets import dataset_names
from repro.experiments import (
    ALGORITHM_FP,
    ALGORITHM_LISTPLEX,
    ALGORITHM_OURS,
    PRUNING_ABLATION,
    SEQUENTIAL_ALGORITHMS,
    UPPER_BOUND_ABLATION,
    Workload,
    ablation_workloads,
    algorithm_names,
    best_timeout,
    cross_check,
    figure7_vary_q,
    figure8_speedup,
    figure9_basic_vs_ours,
    figure13_timeout,
    measure_parallel_workload,
    memory_workloads,
    parallel_workloads,
    run_algorithm,
    sequential_workloads,
    speedup_worker_counts,
    table2_datasets,
    table3_sequential,
    table4_parallel,
    table5_upper_bound_ablation,
    table6_pruning_ablation,
    table7_memory,
    timeout_values,
    vary_q_workloads,
)
from repro.graph import generators

TINY = [Workload(dataset="jazz", k=2, q=8, paper_q=20)]
TINY_PARALLEL = [Workload(dataset="jazz", k=2, q=7, paper_q=40)]
TINY_SWEEP = {"jazz": [Workload(dataset="jazz", k=2, q=q, paper_q=q + 10) for q in (7, 8)]}


# --------------------------------------------------------------------------- #
# Workload definitions
# --------------------------------------------------------------------------- #
def test_workload_definitions_reference_known_datasets():
    known = set(dataset_names())
    for workload in (
        sequential_workloads("quick")
        + sequential_workloads("full")
        + parallel_workloads("quick")
        + parallel_workloads("full")
        + ablation_workloads("quick")
        + memory_workloads("quick")
    ):
        assert workload.dataset in known
        assert workload.q >= 2 * workload.k - 1
        assert workload.paper_q >= workload.q  # scaled down, never up
    for sweep in vary_q_workloads("full").values():
        assert len(sweep) >= 3
    assert speedup_worker_counts() == [1, 2, 4, 8, 16]
    assert len(timeout_values("full")) > len(timeout_values("quick"))


def test_workload_describe_and_load():
    workload = TINY[0]
    description = workload.describe()
    assert description["dataset"] == "jazz"
    assert description["paper_q"] == 20
    assert workload.load().num_vertices > 0


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
def test_run_algorithm_produces_consistent_counts():
    workload = TINY[0]
    graph = workload.load()
    records = [
        run_algorithm(name, graph, workload.dataset, workload.k, workload.q)
        for name in SEQUENTIAL_ALGORITHMS
    ]
    assert cross_check(records)
    assert all(record.seconds >= 0 for record in records)
    row = records[0].as_row()
    assert row["algorithm"] == records[0].algorithm
    assert set(algorithm_names()) >= set(SEQUENTIAL_ALGORITHMS)
    assert set(algorithm_names()) >= set(UPPER_BOUND_ABLATION) | set(PRUNING_ABLATION)


def test_run_algorithm_memory_measurement():
    workload = TINY[0]
    record = run_algorithm(
        ALGORITHM_OURS, workload.load(), workload.dataset, workload.k, workload.q,
        measure_memory=True,
    )
    assert record.peak_memory_bytes > 0
    assert "peak_memory_mib" in record.as_row()


def test_run_algorithm_unknown_name():
    with pytest.raises(ValueError):
        run_algorithm("nope", TINY[0].load(), "jazz", 2, 8)


def test_cross_check_detects_disagreement():
    record_a = run_algorithm(ALGORITHM_OURS, TINY[0].load(), "jazz", 2, 8)
    record_b = run_algorithm(ALGORITHM_OURS, TINY[0].load(), "jazz", 2, 9)
    record_b.q = 8  # fake a disagreement on the same workload key
    assert not cross_check([record_a, record_b])


# --------------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------------- #
def test_table2_lists_every_dataset():
    rows = table2_datasets()
    assert {row["network"] for row in rows} == set(dataset_names())
    assert all(row["surrogate_n"] <= row["paper_n"] for row in rows)


def test_table3_on_tiny_workload():
    rows = table3_sequential(workloads=TINY)
    assert len(rows) == 1
    row = rows[0]
    assert row["all_algorithms_agree"]
    for algorithm in SEQUENTIAL_ALGORITHMS:
        assert f"{algorithm}_seconds" in row


def test_table5_and_table6_on_tiny_workload():
    rows5 = table5_upper_bound_ablation(workloads=TINY)
    assert rows5[0]["Ours_branches"] <= rows5[0]["Ours\\ub_branches"]
    rows6 = table6_pruning_ablation(workloads=TINY)
    assert rows6[0]["Ours_branches"] <= rows6[0]["Basic_branches"]


def test_table7_on_tiny_workload():
    rows = table7_memory(workloads=TINY)
    assert rows[0]["Ours_peak_mib"] > 0


def test_table4_on_tiny_workload():
    rows = table4_parallel(workloads=TINY_PARALLEL, num_workers=4)
    row = rows[0]
    assert row["Ours_seconds"] > 0
    assert row["Ours_best_timeout_seconds"] <= row["Ours_seconds"] * 1.001
    assert row["FP_seconds"] > 0 and row["ListPlex_seconds"] > 0


# --------------------------------------------------------------------------- #
# Figures
# --------------------------------------------------------------------------- #
def test_figure7_and_figure9_on_tiny_sweep():
    series7 = figure7_vary_q(sweeps=TINY_SWEEP)
    assert len(series7) == 1
    curves = next(iter(series7.values()))
    assert set(curves) == {ALGORITHM_FP, ALGORITHM_LISTPLEX, ALGORITHM_OURS}
    assert all(set(points) == {7, 8} for points in curves.values())

    series9 = figure9_basic_vs_ours(sweeps=TINY_SWEEP)
    curves9 = next(iter(series9.values()))
    assert set(curves9) == {"Basic", ALGORITHM_OURS}


def test_figure8_speedup_on_tiny_workload():
    series = figure8_speedup(workloads=TINY_PARALLEL, worker_counts=[1, 2, 4])
    curve = next(iter(series.values()))
    assert curve[1] == 1.0
    assert curve[4] >= curve[2] >= 1.0


def test_figure13_timeout_on_tiny_workload():
    series = figure13_timeout(workloads=TINY_PARALLEL, timeouts=[2.0, 16.0], num_workers=4)
    curve = next(iter(series.values()))
    assert set(curve) == {2.0, 16.0, "inf"}


# --------------------------------------------------------------------------- #
# Parallel cost model
# --------------------------------------------------------------------------- #
def test_measure_parallel_workload_all_algorithms():
    workload = TINY_PARALLEL[0]
    graph = workload.load()
    counts = set()
    for algorithm in (ALGORITHM_FP, ALGORITHM_LISTPLEX, ALGORITHM_OURS):
        measurement = measure_parallel_workload(algorithm, graph, workload.k, workload.q)
        counts.add(measurement.num_kplexes)
        assert measurement.sequential_seconds > 0
        assert measurement.task_groups
        assert measurement.total_cost > 0
        assert measurement.makespan_seconds(4) <= measurement.makespan_seconds(1) * 1.001
    assert len(counts) == 1  # all algorithms agree on the result count


def test_fp_parallel_measurement_keeps_every_seed():
    # More than 256 FP seeds: the heavy-seed table keeps only the heaviest
    # 64, so the task groups must come from the mined seeds themselves.
    graph = generators.ring_of_cliques(num_cliques=150, clique_size=5)
    runner = FPLike(graph, 2, 4)
    runner.run()
    measurement = measure_parallel_workload(ALGORITHM_FP, graph, 2, 4)
    assert len(measurement.task_groups) == runner.statistics.seeds == 301
    assert measurement.total_cost == runner.statistics.branch_calls == 451


def test_measure_parallel_workload_rejects_unknown():
    with pytest.raises(ValueError):
        measure_parallel_workload("nope", TINY_PARALLEL[0].load(), 2, 7)


def test_best_timeout_returns_minimum():
    workload = TINY_PARALLEL[0]
    measurement = measure_parallel_workload(ALGORITHM_OURS, workload.load(), workload.k, workload.q)
    tuned = best_timeout(measurement, 4, [1.0, 8.0, 64.0])
    assert tuned["timeout"] in (1.0, 8.0, 64.0)
    everything = [
        measurement.makespan_seconds(4, timeout_cost=t, split_overhead=0.5)
        for t in (1.0, 8.0, 64.0)
    ]
    assert tuned["seconds"] == pytest.approx(min(everything))
