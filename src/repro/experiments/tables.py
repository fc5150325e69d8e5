"""Reproduction drivers for the paper's tables.

Each ``table*`` function returns a list of row dictionaries that mirror the
columns of the corresponding table in the paper (plus, where relevant, the
paper's original parameter so the scaling substitution is visible).  The
benchmark harness renders them with
:func:`repro.analysis.reporting.render_table`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..datasets import all_datasets
from ..graph.properties import summarize
from .parallel_model import best_timeout, measure_parallel_workload
from .runner import (
    ALGORITHM_FP,
    ALGORITHM_LISTPLEX,
    ALGORITHM_OURS,
    PRUNING_ABLATION,
    SEQUENTIAL_ALGORITHMS,
    UPPER_BOUND_ABLATION,
    run_algorithm,
)
from .workloads import (
    SCALE_QUICK,
    Workload,
    ablation_workloads,
    memory_workloads,
    parallel_workloads,
    sequential_workloads,
    timeout_values,
)


# --------------------------------------------------------------------------- #
# Table 2: dataset statistics
# --------------------------------------------------------------------------- #
def table2_datasets(scale: str = SCALE_QUICK) -> List[Dict[str, object]]:
    """Table 2: ``n``, ``m``, max degree and degeneracy of every dataset.

    Each row shows the paper's statistics for the original SNAP/LAW graph next
    to the statistics of the deterministic surrogate actually mined here.
    """
    rows: List[Dict[str, object]] = []
    for spec in all_datasets():
        summary = summarize(spec.load(), name=spec.name)
        rows.append(
            {
                "network": spec.name,
                "category": spec.category,
                "paper_n": spec.paper_n,
                "paper_m": spec.paper_m,
                "paper_max_degree": spec.paper_max_degree,
                "paper_D": spec.paper_degeneracy,
                "surrogate_n": summary.num_vertices,
                "surrogate_m": summary.num_edges,
                "surrogate_max_degree": summary.max_degree,
                "surrogate_D": summary.degeneracy,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Table 3: sequential comparison
# --------------------------------------------------------------------------- #
def table3_sequential(
    scale: str = SCALE_QUICK,
    workloads: Optional[Sequence[Workload]] = None,
    algorithms: Sequence[str] = SEQUENTIAL_ALGORITHMS,
) -> List[Dict[str, object]]:
    """Table 3: running time of FP, ListPlex, Ours_P and Ours plus result counts."""
    rows: List[Dict[str, object]] = []
    for workload in workloads if workloads is not None else sequential_workloads(scale):
        graph = workload.load()
        row: Dict[str, object] = dict(workload.describe())
        counts = set()
        for algorithm in algorithms:
            record = run_algorithm(algorithm, graph, workload.dataset, workload.k, workload.q)
            row[f"{algorithm}_seconds"] = round(record.seconds, 4)
            counts.add(record.num_kplexes)
            row["kplexes"] = record.num_kplexes
        row["all_algorithms_agree"] = len(counts) == 1
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 4: parallel comparison (16 workers)
# --------------------------------------------------------------------------- #
def table4_parallel(
    scale: str = SCALE_QUICK,
    num_workers: int = 16,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Dict[str, object]]:
    """Table 4: predicted 16-worker running time of FP, ListPlex, Ours, Ours(τ_best).

    Each algorithm's sequential run is measured for real; the parallel
    makespan is predicted by the deterministic stage scheduler fed with that
    run's per-task costs (see DESIGN.md §5, substitution 2).
    """
    default_timeout = 16.0  # cost units (branch calls); stands in for τ = 0.1 ms
    rows: List[Dict[str, object]] = []
    for workload in workloads if workloads is not None else parallel_workloads(scale):
        graph = workload.load()
        row: Dict[str, object] = dict(workload.describe())
        for algorithm in (ALGORITHM_FP, ALGORITHM_LISTPLEX, ALGORITHM_OURS):
            measurement = measure_parallel_workload(algorithm, graph, workload.k, workload.q)
            row["kplexes"] = measurement.num_kplexes
            if algorithm == ALGORITHM_OURS:
                row["Ours_seconds"] = round(
                    measurement.makespan_seconds(
                        num_workers, timeout_cost=default_timeout, split_overhead=0.5
                    ),
                    4,
                )
                tuned = best_timeout(
                    measurement,
                    num_workers,
                    [default_timeout, *timeout_values(scale)],
                    split_overhead=0.5,
                )
                row["Ours_best_timeout_seconds"] = round(tuned["seconds"], 4)
                row["best_timeout_cost_units"] = tuned["timeout"]
                row["Ours_sequential_seconds"] = round(measurement.sequential_seconds, 4)
            else:
                row[f"{algorithm}_seconds"] = round(
                    measurement.makespan_seconds(num_workers, timeout_cost=None), 4
                )
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 5: upper-bound ablation
# --------------------------------------------------------------------------- #
def table5_upper_bound_ablation(
    scale: str = SCALE_QUICK,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Dict[str, object]]:
    """Table 5: Ours without upper bound, with FP's bound, and the full Ours."""
    rows: List[Dict[str, object]] = []
    for workload in workloads if workloads is not None else ablation_workloads(scale):
        graph = workload.load()
        row: Dict[str, object] = dict(workload.describe())
        for algorithm in UPPER_BOUND_ABLATION:
            record = run_algorithm(algorithm, graph, workload.dataset, workload.k, workload.q)
            row[f"{algorithm}_seconds"] = round(record.seconds, 4)
            row[f"{algorithm}_branches"] = record.branch_calls
            row["kplexes"] = record.num_kplexes
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 6: pruning-rule ablation
# --------------------------------------------------------------------------- #
def table6_pruning_ablation(
    scale: str = SCALE_QUICK,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Dict[str, object]]:
    """Table 6: Basic, Basic+R1, Basic+R2 and Ours."""
    rows: List[Dict[str, object]] = []
    for workload in workloads if workloads is not None else ablation_workloads(scale):
        graph = workload.load()
        row: Dict[str, object] = dict(workload.describe())
        for algorithm in PRUNING_ABLATION:
            record = run_algorithm(algorithm, graph, workload.dataset, workload.k, workload.q)
            row[f"{algorithm}_seconds"] = round(record.seconds, 4)
            row[f"{algorithm}_branches"] = record.branch_calls
            row["kplexes"] = record.num_kplexes
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 7 (appendix B.2): peak memory
# --------------------------------------------------------------------------- #
def table7_memory(
    scale: str = SCALE_QUICK,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[Dict[str, object]]:
    """Table 7: peak memory consumption of FP, ListPlex and Ours."""
    rows: List[Dict[str, object]] = []
    for workload in workloads if workloads is not None else memory_workloads(scale):
        graph = workload.load()
        row: Dict[str, object] = dict(workload.describe())
        for algorithm in (ALGORITHM_FP, ALGORITHM_LISTPLEX, ALGORITHM_OURS):
            record = run_algorithm(
                algorithm, graph, workload.dataset, workload.k, workload.q, measure_memory=True
            )
            row[f"{algorithm}_peak_mib"] = round(record.peak_memory_bytes / (1024 * 1024), 3)
            row["kplexes"] = record.num_kplexes
        rows.append(row)
    return rows
