"""Replica process management: spawn, readiness, supervised restart.

A **replica** is one ``kplex-enum serve-http`` subprocess bound to an
ephemeral loopback port.  :class:`ReplicaSet` owns N of them:

* :meth:`ReplicaSet.start` boots every replica and blocks until each one
  printed its boot line (``serving on http://...`` — the CLI's documented
  machine-readable boot signal) and answers ``/healthz`` with ``ok``;
* a supervisor thread polls the processes (the same poll-restart shape as
  :class:`repro.resilience.PoolSupervisor`, lifted from threads to
  processes): a dead replica is respawned after
  :meth:`~repro.resilience.RetryPolicy.backoff` and an ``on_restart``
  callback lets the router replay graph registrations into the fresh
  process before it is marked up again;
* :meth:`ReplicaSet.stop` SIGTERMs every replica — each drains and exits 0
  under the serve-http shutdown contract — escalating to SIGKILL only for
  stragglers.

Replica stdout carries exactly the one boot line (everything else the CLI
prints goes to stderr), so the pipe never fills and needs no drain thread.
"""

from __future__ import annotations

import logging
import os
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ClusterError
from ..obs import log_event
from ..resilience import RetryPolicy
from ..server import ServiceClient

__all__ = [
    "REPLICA_STARTING",
    "REPLICA_UP",
    "REPLICA_DOWN",
    "REPLICA_FAILED",
    "REPLICA_STOPPED",
    "Replica",
    "ReplicaSet",
]

REPLICA_STARTING = "starting"
REPLICA_UP = "up"
REPLICA_DOWN = "down"      # died; supervisor is restarting it
REPLICA_FAILED = "failed"  # restart budget exhausted; left down
REPLICA_STOPPED = "stopped"

#: Default backoff between restart attempts of one dead replica.
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=6, backoff_seconds=0.05, max_backoff_seconds=2.0
)


class Replica:
    """Mutable record of one replica process (id is stable, the rest churns)."""

    def __init__(self, replica_id: str) -> None:
        self.id = replica_id
        self.url: Optional[str] = None
        self.process: Optional[subprocess.Popen] = None
        self.state = REPLICA_STARTING
        self.restarts = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def describe(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "url": self.url,
            "state": self.state,
            "restarts": self.restarts,
            "pid": self.pid,
        }


def _read_boot_line(process: subprocess.Popen, timeout: float) -> Optional[str]:
    """First stdout line within ``timeout``, or ``None`` (reader is daemonic)."""
    box: Dict[str, str] = {}

    def _reader() -> None:
        assert process.stdout is not None
        box["line"] = process.stdout.readline()

    thread = threading.Thread(target=_reader, daemon=True)
    thread.start()
    thread.join(timeout)
    return box.get("line")


class ReplicaSet:
    """N supervised serve-http subprocesses behind stable replica ids."""

    def __init__(
        self,
        replica_ids: Sequence[str],
        argv_factory: Callable[[str], List[str]],
        boot_timeout: float = 30.0,
        poll_interval: float = 0.15,
        restart_policy: RetryPolicy = DEFAULT_RESTART_POLICY,
        max_restarts: Optional[int] = None,
        on_restart: Optional[Callable[[Replica], None]] = None,
        quiet: bool = False,
    ) -> None:
        if not replica_ids:
            raise ClusterError("a cluster needs at least one replica")
        if len(set(replica_ids)) != len(replica_ids):
            raise ClusterError(f"duplicate replica ids in {list(replica_ids)}")
        self.ids = list(replica_ids)
        self.argv_factory = argv_factory
        self.boot_timeout = boot_timeout
        self.poll_interval = poll_interval
        self.restart_policy = restart_policy
        #: Total successful restarts allowed per replica (``None`` = unbounded);
        #: distinct from ``restart_policy.max_attempts``, which bounds the
        #: consecutive *failed* respawn attempts of one death.
        self.max_restarts = max_restarts
        #: Called with the freshly restarted replica (after readiness, before
        #: it is marked up) — the router replays graph registrations here.
        self.on_restart = on_restart
        self.replicas: Dict[str, Replica] = {rid: Replica(rid) for rid in self.ids}
        self._stderr = subprocess.DEVNULL if quiet else None
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def get(self, replica_id: str) -> Replica:
        return self.replicas[replica_id]

    def live(self) -> List[Replica]:
        """Replicas currently able to serve (state ``up``)."""
        return [r for r in self.replicas.values() if r.state == REPLICA_UP]

    @property
    def restarts_total(self) -> int:
        return sum(r.restarts for r in self.replicas.values())

    def describe(self) -> List[Dict[str, object]]:
        return [self.replicas[rid].describe() for rid in self.ids]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Boot every replica to readiness, then start the supervisor."""
        try:
            for replica in self.replicas.values():
                self._spawn(replica)
                replica.state = REPLICA_UP
        except BaseException:
            self.stop(timeout=5.0)
            raise
        self._supervisor = threading.Thread(
            target=self._supervise, name="kplex-replica-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn(self, replica: Replica) -> None:
        """Start one subprocess and block until it serves; raises on failure."""
        argv = self.argv_factory(replica.id)
        env = dict(os.environ)
        # Make `python -m repro.cli` importable regardless of the caller's
        # cwd: prepend the directory that contains the repro package.
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing
            else package_root + os.pathsep + existing
        )
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
            env=env,
        )
        line = _read_boot_line(process, self.boot_timeout)
        if not line or not line.strip().startswith("serving on "):
            self._reap(process)
            raise ClusterError(
                f"replica {replica.id} did not print its boot line within "
                f"{self.boot_timeout}s (got {line!r})"
            )
        url = line.strip().rsplit(" ", 1)[-1]
        client = ServiceClient(url, timeout=self.boot_timeout)
        try:
            client.wait_ready(timeout=self.boot_timeout)
        except Exception as exc:
            self._reap(process)
            raise ClusterError(f"replica {replica.id} never became ready: {exc}")
        replica.process = process
        replica.url = url

    @staticmethod
    def _reap(process: subprocess.Popen) -> None:
        """Kill and fully collect a half-booted or doomed process."""
        try:
            process.kill()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            pass
        if process.stdout is not None:
            process.stdout.close()

    # ------------------------------------------------------------------ #
    # Supervision
    # ------------------------------------------------------------------ #
    def _supervise(self) -> None:
        while not self._stop.wait(self.poll_interval):
            for replica in self.replicas.values():
                if replica.state != REPLICA_UP or replica.process is None:
                    continue
                code = replica.process.poll()
                if code is None or self._stop.is_set():
                    continue
                replica.state = REPLICA_DOWN
                log_event(
                    "replica_died",
                    level=logging.WARNING,
                    replica=replica.id,
                    exit_code=code,
                    restarts=replica.restarts,
                )
                self._restart(replica)

    def _restart(self, replica: Replica) -> None:
        if self.max_restarts is not None and replica.restarts >= self.max_restarts:
            replica.state = REPLICA_FAILED
            log_event(
                "replica_failed",
                level=logging.ERROR,
                replica=replica.id,
                restarts=replica.restarts,
            )
            return
        if replica.process is not None and replica.process.stdout is not None:
            replica.process.stdout.close()
        attempt = 0
        while not self._stop.is_set():
            attempt += 1
            if not self.restart_policy.should_retry(attempt):
                replica.state = REPLICA_FAILED
                log_event(
                    "replica_failed",
                    level=logging.ERROR,
                    replica=replica.id,
                    restarts=replica.restarts,
                )
                return
            if self._stop.wait(self.restart_policy.backoff(attempt)):
                return
            try:
                self._spawn(replica)
            except Exception as exc:
                log_event(
                    "replica_respawn_failed",
                    level=logging.WARNING,
                    replica=replica.id,
                    attempt=attempt,
                    error=str(exc),
                )
                continue
            with self._lock:
                replica.restarts += 1
            if self.on_restart is not None:
                try:
                    self.on_restart(replica)
                except Exception as exc:  # pragma: no cover - defensive
                    log_event(
                        "replica_restart_hook_error",
                        level=logging.WARNING,
                        replica=replica.id,
                        error=type(exc).__name__,
                    )
            replica.state = REPLICA_UP
            log_event(
                "replica_restarted",
                level=logging.WARNING,
                replica=replica.id,
                url=replica.url,
                restarts=replica.restarts,
            )
            return

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def stop(self, timeout: float = 30.0) -> Dict[str, Optional[int]]:
        """SIGTERM every replica and wait; returns exit codes by replica id.

        SIGTERM triggers serve-http's drain (finish in-flight work, final
        snapshot, exit 0); a replica that outlives ``timeout`` is SIGKILLed
        (reported as its actual negative exit code).
        """
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=max(5.0, self.poll_interval * 4))
        for replica in self.replicas.values():
            if replica.process is not None and replica.process.poll() is None:
                try:
                    replica.process.terminate()
                except OSError:  # pragma: no cover - already gone
                    pass
        deadline = time.monotonic() + timeout
        exit_codes: Dict[str, Optional[int]] = {}
        for replica in self.replicas.values():
            process = replica.process
            if process is None:
                exit_codes[replica.id] = None
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                exit_codes[replica.id] = process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:  # pragma: no cover - drain hang
                process.kill()
                exit_codes[replica.id] = process.wait(timeout=5.0)
            if process.stdout is not None:
                process.stdout.close()
            replica.state = REPLICA_STOPPED
        return exit_codes
