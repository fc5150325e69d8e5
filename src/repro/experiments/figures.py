"""Reproduction drivers for the paper's figures.

Figures are reproduced as data series (``x value -> y value`` per curve);
the benchmark harness prints them with
:func:`repro.analysis.reporting.render_series`, giving the same data points a
plotting script would consume.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .parallel_model import measure_parallel_workload
from .runner import (
    ALGORITHM_BASIC,
    ALGORITHM_FP,
    ALGORITHM_LISTPLEX,
    ALGORITHM_OURS,
    run_algorithm,
)
from .workloads import (
    SCALE_QUICK,
    Workload,
    parallel_workloads,
    speedup_worker_counts,
    timeout_values,
    vary_q_workloads,
)

Series = Dict[str, Dict[object, float]]

#: A time-vs-q point is the best of this many solves, interleaved across the
#: algorithms so that a slow spell of the host does not fall on one curve.
VARY_Q_REPEATS = 3


# --------------------------------------------------------------------------- #
# Figures 7 and 14: running time as q varies (FP / ListPlex / Ours)
# --------------------------------------------------------------------------- #
def figure7_vary_q(
    scale: str = SCALE_QUICK,
    sweeps: Optional[Dict[str, List[Workload]]] = None,
    algorithms: Sequence[str] = (ALGORITHM_FP, ALGORITHM_LISTPLEX, ALGORITHM_OURS),
) -> Dict[str, Series]:
    """Figure 7 (Figure 14 with ``scale="full"``): per-dataset time-vs-q curves.

    Each point is the best of :data:`VARY_Q_REPEATS` solves.
    """
    sweeps = sweeps if sweeps is not None else vary_q_workloads(scale)
    figures: Dict[str, Series] = {}
    for dataset, workloads in sweeps.items():
        series: Series = {algorithm: {} for algorithm in algorithms}
        graph = workloads[0].load() if workloads else None
        for workload in workloads:
            for _ in range(VARY_Q_REPEATS):
                for algorithm in algorithms:
                    record = run_algorithm(algorithm, graph, dataset, workload.k, workload.q)
                    points = series[algorithm]
                    seconds = round(record.seconds, 4)
                    points[workload.q] = min(points.get(workload.q, math.inf), seconds)
        figures[f"{dataset} (k={workloads[0].k})" if workloads else dataset] = series
    return figures


# --------------------------------------------------------------------------- #
# Figure 8: speedup of the parallel algorithm
# --------------------------------------------------------------------------- #
def figure8_speedup(
    scale: str = SCALE_QUICK,
    worker_counts: Optional[Sequence[int]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    timeout_cost: float = 16.0,
) -> Series:
    """Figure 8: speedup ratio of Ours with 2/4/8/16 workers per large dataset."""
    worker_counts = list(worker_counts or speedup_worker_counts(scale))
    series: Series = {}
    for workload in workloads if workloads is not None else parallel_workloads(scale):
        measurement = measure_parallel_workload(ALGORITHM_OURS, workload.load(), workload.k, workload.q)
        baseline = measurement.makespan_seconds(1, timeout_cost=timeout_cost, split_overhead=0.5)
        curve: Dict[object, float] = {}
        for workers in worker_counts:
            seconds = measurement.makespan_seconds(
                workers, timeout_cost=timeout_cost, split_overhead=0.5
            )
            curve[workers] = round(baseline / seconds, 3) if seconds > 0 else float(workers)
        series[f"{workload.dataset} (k={workload.k}, q={workload.q})"] = curve
    return series


# --------------------------------------------------------------------------- #
# Figure 9 and 15: Basic vs Ours as q varies
# --------------------------------------------------------------------------- #
def figure9_basic_vs_ours(
    scale: str = SCALE_QUICK,
    sweeps: Optional[Dict[str, List[Workload]]] = None,
) -> Dict[str, Series]:
    """Figure 9 (Figure 15 with ``scale="full"``): Basic vs Ours time-vs-q curves."""
    return figure7_vary_q(
        scale, sweeps=sweeps, algorithms=(ALGORITHM_BASIC, ALGORITHM_OURS)
    )


# --------------------------------------------------------------------------- #
# Figure 13: sensitivity to the straggler timeout
# --------------------------------------------------------------------------- #
def figure13_timeout(
    scale: str = SCALE_QUICK,
    num_workers: int = 16,
    timeouts: Optional[Sequence[float]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    split_overhead: float = 0.5,
) -> Series:
    """Figure 13: predicted parallel runtime of Ours as ``τ_time`` varies.

    Small timeouts pay the task-materialisation overhead on every split;
    very large timeouts degrade load balancing because straggler sub-tasks
    are never broken up — the same U-shape the paper reports.
    """
    timeouts = list(timeouts or timeout_values(scale))
    series: Series = {}
    for workload in workloads if workloads is not None else parallel_workloads(scale):
        measurement = measure_parallel_workload(ALGORITHM_OURS, workload.load(), workload.k, workload.q)
        curve: Dict[object, float] = {}
        for timeout in timeouts:
            curve[timeout] = round(
                measurement.makespan_seconds(
                    num_workers, timeout_cost=timeout, split_overhead=split_overhead
                ),
                5,
            )
        # "No timeout" corresponds to the ListPlex behaviour the paper
        # contrasts against (τ = ∞).
        curve["inf"] = round(measurement.makespan_seconds(num_workers, timeout_cost=None), 5)
        series[f"{workload.dataset} (k={workload.k}, q={workload.q})"] = curve
    return series
