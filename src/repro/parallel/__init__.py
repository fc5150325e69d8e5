"""Task-based parallel enumeration and the deterministic scheduler model."""

from .executor import (
    DEFAULT_TIMEOUT_SECONDS,
    ParallelConfig,
    parallel_enumerate_maximal_kplexes,
)
from .scheduler import (
    SimulationReport,
    StageScheduler,
    collect_task_costs,
)

__all__ = [
    "ParallelConfig",
    "parallel_enumerate_maximal_kplexes",
    "DEFAULT_TIMEOUT_SECONDS",
    "StageScheduler",
    "SimulationReport",
    "collect_task_costs",
]
