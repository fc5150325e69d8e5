"""Deterministic simulated multi-core scheduler.

The scalability experiments of the paper (Figure 8: speedup with 2–16
threads; Figure 13: sensitivity to the straggler timeout ``τ_time``) measure
scheduling behaviour — load balancing across per-worker queues, work
stealing, and the decomposition of straggler tasks.  A CPython process pool
reproduces the qualitative behaviour but its wall-clock numbers are noisy and
hardware dependent, so this module additionally provides a *deterministic*
event-driven model of the paper's scheduler:

* seeds are processed in stages of ``num_workers`` task groups; worker ``i``
  owns the queue of sub-tasks of the ``i``-th group of the stage;
* an idle worker steals from the non-empty queue with the most remaining
  work (the paper's load-balancing rule);
* a sub-task whose processing exceeds ``timeout`` is split: the worker runs
  it for ``timeout`` time units and re-enqueues the remainder as a new task
  (modelling the re-materialised branch states), which then becomes stealable;
* a configurable per-split overhead models the cost of materialising the new
  task's status variables.

Sub-task costs are supplied by the caller; :func:`collect_task_costs` measures
them from a real sequential run (branch calls per sub-task), so the simulated
speedups inherit the true skew of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.config import EnumerationConfig
from ..core.enumerator import mine_seed
from ..core.seeds import iter_seed_contexts, iter_subtasks
from ..core.stats import SearchStatistics
from ..graph import Graph
from ..graph.prepared import prepare


@dataclass
class SimulationReport:
    """Outcome of one simulated schedule."""

    num_workers: int
    makespan: float
    total_work: float
    busy_time: List[float]
    tasks_executed: int
    tasks_split: int
    stages: int

    @property
    def speedup(self) -> float:
        """Speedup over a single worker processing the same work serially."""
        if self.makespan <= 0:
            return float(self.num_workers)
        return self.total_work / self.makespan

    @property
    def utilisation(self) -> float:
        """Mean fraction of the makespan each worker spent busy."""
        if self.makespan <= 0 or not self.busy_time:
            return 1.0
        return sum(self.busy_time) / (self.makespan * len(self.busy_time))


class StageScheduler:
    """Simulate the stage-based scheduler with stealing and timeout splitting."""

    def __init__(
        self,
        num_workers: int,
        timeout: Optional[float] = None,
        split_overhead: float = 0.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None to disable splitting)")
        self.num_workers = num_workers
        self.timeout = timeout
        self.split_overhead = split_overhead

    def run(self, task_groups: Sequence[Sequence[float]]) -> SimulationReport:
        """Schedule ``task_groups`` (one list of sub-task costs per seed).

        Returns the report with the resulting makespan.  Stages are formed by
        consecutive blocks of ``num_workers`` task groups, mirroring how the
        executor walks the degeneracy ordering.
        """
        makespan = 0.0
        busy = [0.0] * self.num_workers
        executed = 0
        split = 0
        total_work = float(sum(sum(group) for group in task_groups))
        stages = 0

        for start in range(0, len(task_groups), self.num_workers):
            block = task_groups[start : start + self.num_workers]
            stages += 1
            queues: List[List[float]] = [[] for _ in range(self.num_workers)]
            for index, group in enumerate(block):
                queues[index] = list(group)
            clock = [0.0] * self.num_workers

            # Event loop: repeatedly give work to the least-loaded worker.
            while True:
                pending_total = sum(len(queue) for queue in queues)
                if pending_total == 0:
                    break
                worker = min(range(self.num_workers), key=lambda w: clock[w])
                if queues[worker]:
                    source = worker
                else:
                    # Work stealing: take from the queue with the most
                    # outstanding work.
                    candidates = [w for w in range(self.num_workers) if queues[w]]
                    source = max(candidates, key=lambda w: sum(queues[w]))
                cost = queues[source].pop(0)
                executed += 1
                if self.timeout is not None and cost > self.timeout:
                    # Run for one timeout slice, re-enqueue the remainder as a
                    # fresh (stealable) task on the executing worker's queue.
                    clock[worker] += self.timeout + self.split_overhead
                    busy[worker] += self.timeout + self.split_overhead
                    queues[worker].append(cost - self.timeout)
                    split += 1
                else:
                    clock[worker] += cost
                    busy[worker] += cost
            stage_end = max(clock) if any(clock) else 0.0
            makespan += stage_end

        return SimulationReport(
            num_workers=self.num_workers,
            makespan=makespan,
            total_work=total_work,
            busy_time=busy,
            tasks_executed=executed,
            tasks_split=split,
            stages=stages,
        )


def collect_task_costs(
    graph: Graph,
    k: int,
    q: int,
    config: Optional[EnumerationConfig] = None,
    stats: Optional[SearchStatistics] = None,
) -> List[List[float]]:
    """Measure per-sub-task costs (branch calls) with a real sequential run.

    Returns one list per seed task group containing the number of
    branch-and-bound invocations of each of its sub-tasks.  These counts are
    the cost model fed to :class:`StageScheduler` by the speedup and timeout
    experiments, so the simulated schedules inherit the genuine skew of the
    workload (including straggler sub-tasks).  The run's counters go to
    ``stats`` when one is given.
    """
    config = config or EnumerationConfig.ours()
    stats = stats if stats is not None else SearchStatistics()
    prepared_core, _ = prepare(graph).prepared_core(q - k)
    costs: List[List[float]] = []
    if prepared_core.graph.num_vertices < q:
        return costs
    for _seed, context in iter_seed_contexts(
        prepared_core.graph, k, q, config, stats, prepared=prepared_core
    ):
        if context is None:
            continue
        group = mine_seed(
            context,
            iter_subtasks(context, k, q, config, stats),
            k,
            q,
            config,
            stats,
            on_result=lambda mask: None,
        )
        if group:
            costs.append([float(calls) for calls in group])
    return costs
