"""Fault-tolerance layer: retry policies, supervised pools, fault
injection and process-wide resilience counters.

See the README's "Failure semantics" section for how these pieces compose
across the stack (executor → service → HTTP → client).
"""

from .faults import ENV_VAR as FAULT_ENV_VAR
from .faults import FaultInjector, fault_injector
from .retry import RetryPolicy
from .stats import ResilienceStats, resilience_stats
from .supervisor import PoolSupervisor, SupervisionReport

__all__ = [
    "FaultInjector",
    "FAULT_ENV_VAR",
    "PoolSupervisor",
    "ResilienceStats",
    "RetryPolicy",
    "SupervisionReport",
    "fault_injector",
    "resilience_stats",
]
