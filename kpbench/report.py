"""Run bookkeeping shared by the workloads: verdicts, memory, teardown."""

from __future__ import annotations

import os
import resource
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Tuple


@dataclass
class RunResult:
    """What one run measured: operation verdicts and named metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; ``ok`` says its answer was verified."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"kpbench: FAILED {what}", file=sys.stderr)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0

    def as_line(self, correct: bool) -> dict:
        return {
            "correct": bool(correct) and self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


_CPUS = sorted(os.sched_getaffinity(0))
#: Probe-loop times, one per timed operation of this run (see below).
_PROBES: List[float] = []
#: The reported times are scaled to the host speed at which the probe loop
#: takes this long.
REFERENCE_PROBE_S = 0.002


def _probe_seconds() -> float:
    """Time a fixed mix of integer, set and dict work (about 2 ms)."""
    started = time.perf_counter()
    mixed, seen, slots = 0, set(), {}
    for index in range(6_000):
        value = (index * 2654435761) & 0xFFFFF
        mixed ^= value & (value >> 3)
        if value & 1:
            seen.add(value)
        slots[index & 255] = mixed
    return time.perf_counter() - started


def pin_to_quietest_cpu() -> float:
    """Pin every thread of this process to the CPU that runs the probe fastest.

    On small shared hosts the vCPUs take turns being slowed by their
    neighbours, for a second or so at a time; timing on the currently quicker
    one keeps most of that out of the figures.  Returns the quicker CPU's
    probe time, which is also kept as a host speed sample.  Threads and
    processes started later inherit the pinning from the thread that starts
    them, so call :func:`unpin` before anything that starts a worker pool.
    """

    def probe_on(cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})  # this thread only
        return _probe_seconds()

    if len(_CPUS) < 2:
        return sample_host_speed()
    try:
        seconds = {cpu: probe_on(cpu) for cpu in _CPUS}
    except OSError:  # pinning not permitted here: measure unpinned
        return sample_host_speed()
    quietest = min(seconds, key=seconds.get)
    _PROBES.append(seconds[quietest])
    _set_affinity({quietest})
    return seconds[quietest]


def sample_host_speed() -> float:
    """Time the probe where this thread runs now, without pinning; keep it."""
    _PROBES.append(_probe_seconds())
    return _PROBES[-1]


def reset_host_speed() -> None:
    _PROBES.clear()


def host_probe_seconds() -> float:
    """Median probe time of this run so far (``REFERENCE_PROBE_S`` at reference speed)."""
    return median(_PROBES)


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured around a probe time of ``probe_s``, scaled to the
    reference host speed.

    The host's speed drifts by half and more over minutes, on both CPUs at
    once, far longer than one run, so no statistic of a run's own timings
    repeats from one run to the next.  The probe loop, timed just before and
    after an operation, slows with it: the operation's time divided by the
    mean of those probe times repeats several times more closely.
    """
    return seconds * REFERENCE_PROBE_S / probe_s


def unpin() -> None:
    """Let every thread run on every CPU again, as processes it starts will."""
    try:
        _set_affinity(set(_CPUS))
    except OSError:
        return


def _set_affinity(cpus) -> None:
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except OSError:  # the thread ended meanwhile
            continue


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids() -> List[int]:
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    return pids


def stop_children() -> List[int]:
    """End every child process still running; return the pids that were left.

    The multiprocessing resource tracker that shared memory starts is stopped
    the way the standard library stops it; it is not reported as a leak.
    Anything else still alive is terminated and reaped, and reported.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    leaked = [child.pid for child in multiprocessing.active_children()]
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
    for pid in child_pids():
        leaked.append(pid)
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            continue
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            done, _status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return sorted(set(leaked))


def live_foreign_threads() -> List[str]:
    """Names of non-daemon threads other than the main thread."""
    main = threading.main_thread()
    return [
        thread.name
        for thread in threading.enumerate()
        if thread is not main and not thread.daemon and thread.is_alive()
    ]
