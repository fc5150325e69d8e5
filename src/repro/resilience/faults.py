"""Fault injection: deterministic failures on demand, for chaos tests.

A :class:`FaultInjector` holds a set of armed *fault points*, configured
from a compact spec string (env var ``REPRO_FAULT``, the ``serve-http
--fault`` flag, or programmatically from tests)::

    REPRO_FAULT="worker_kill:1"             # kill 1 worker process mid-run
    REPRO_FAULT="worker_kill:1@40"          # ... after 40 task submissions
    REPRO_FAULT="seed_crash:7"              # seed 7 always kills its worker
    REPRO_FAULT="seed_exception:7"          # seed 7 always raises
    REPRO_FAULT="seed_delay:0.05"           # every seed sleeps 50ms first
    REPRO_FAULT="pool_build:1"              # next pool construction fails
    REPRO_FAULT="snapshot_torn:1"           # next snapshot save writes torn JSON
    REPRO_FAULT="http_drop:1@5"             # cut a result stream after 5 records
    REPRO_FAULT="worker_kill:1,seed_delay:0.01"   # combine points

Grammar: ``name[:arg][@after]``, comma-separated.  For *budgeted* points
(``worker_kill``, ``pool_build``, ``snapshot_torn``, ``http_drop``) the
arg is how many times the fault fires — the budget lives
on the **driver side**, so a respawned worker does not inherit a live
fault and kill itself forever.  For *parametrized* points (``seed_crash``,
``seed_exception``, ``seed_delay``) the arg is the parameter (seed vertex
or seconds) and the fault is deterministic.  ``@after`` skips that many
eligible occurrences before firing.

Production code never imports fault *behaviour* from here — it only asks
"does fault point X fire now?" at a handful of marked sites; with no spec
configured every call is a cheap no-op.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

#: Points whose arg is a firing budget (default 1).
BUDGETED_POINTS = frozenset({"worker_kill", "pool_build", "snapshot_torn", "http_drop"})
#: Points whose arg is a parameter and which fire deterministically.
PARAMETRIZED_POINTS = frozenset({"seed_crash", "seed_exception", "seed_delay"})

KNOWN_POINTS = BUDGETED_POINTS | PARAMETRIZED_POINTS

ENV_VAR = "REPRO_FAULT"


class _FaultPoint:
    __slots__ = ("name", "param", "budget", "after", "fired")

    def __init__(self, name: str, param: Optional[float], budget: Optional[int], after: int):
        self.name = name
        self.param = param
        self.budget = budget  # None = unlimited (parametrized points)
        self.after = after
        self.fired = 0


def _parse_spec(spec: str) -> Dict[str, _FaultPoint]:
    points: Dict[str, _FaultPoint] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        after = 0
        if "@" in chunk:
            chunk, after_text = chunk.rsplit("@", 1)
            after = int(after_text)
        name, _, arg_text = chunk.partition(":")
        name = name.strip()
        if name not in KNOWN_POINTS:
            raise ValueError(
                f"unknown fault point {name!r}; known: {sorted(KNOWN_POINTS)}"
            )
        if name in BUDGETED_POINTS:
            budget = int(arg_text) if arg_text else 1
            points[name] = _FaultPoint(name, None, budget, after)
        else:
            if not arg_text:
                raise ValueError(f"fault point {name!r} needs an argument, e.g. {name}:3")
            points[name] = _FaultPoint(name, float(arg_text), None, after)
    return points


class FaultInjector:
    """Armed fault points with driver-side budgets.  Thread-safe."""

    def __init__(self, spec: str = "") -> None:
        self._lock = threading.Lock()
        self._points = _parse_spec(spec)

    def configure(self, spec: str) -> None:
        """Replace the armed fault set (and reset all budgets/counters)."""
        points = _parse_spec(spec)
        with self._lock:
            self._points = points

    def clear(self) -> None:
        with self._lock:
            self._points = {}

    @property
    def enabled(self) -> bool:
        with self._lock:
            return bool(self._points)

    def fire(self, point: str) -> bool:
        """Check-and-consume: does ``point`` fire at this occurrence?

        Budgeted points decrement their budget on firing; parametrized
        points fire every time (the caller applies the parameter).  The
        ``@after`` skip count is consumed before the first firing.
        """
        with self._lock:
            entry = self._points.get(point)
            if entry is None:
                return False
            if entry.after > 0:
                entry.after -= 1
                return False
            if entry.budget is not None:
                if entry.budget <= 0:
                    return False
                entry.budget -= 1
            entry.fired += 1
            return True

    def param(self, point: str) -> Optional[float]:
        """The parameter of an armed parametrized point, without consuming."""
        with self._lock:
            entry = self._points.get(point)
            return None if entry is None else entry.param

    def snapshot(self) -> List[Dict[str, object]]:
        with self._lock:
            return [
                {
                    "point": entry.name,
                    "param": entry.param,
                    "budget_remaining": entry.budget,
                    "fired": entry.fired,
                }
                for entry in self._points.values()
            ]


_GLOBAL: Optional[FaultInjector] = None
_GLOBAL_LOCK = threading.Lock()


def fault_injector() -> FaultInjector:
    """The process-wide injector, armed from ``$REPRO_FAULT`` on first use."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = FaultInjector(os.environ.get(ENV_VAR, ""))
    return _GLOBAL
