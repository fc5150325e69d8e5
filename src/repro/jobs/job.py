"""Job records: the explicit, table-backed state machine of one async run.

A :class:`Job` is the unit the serving layer can place, poll, stream,
cancel, retry and shed.  Its lifecycle is a small, explicitly validated
state machine

    PENDING ──> RUNNING ──> {SUCCEEDED, FAILED, CANCELLED}
       │                             │
       └───────> CANCELLED           └──(TTL)──> EXPIRED

rather than a future hidden inside an executor: every transition is
timestamped under the job's lock, invalid transitions raise
:class:`~repro.errors.JobStateError`, and the whole table is serialisable
for status endpoints and drain-time snapshots.

Results flow through a :class:`ResultLog` — a bounded, append-only buffer
bridging the producing solver thread and any number of streaming readers:

* the log retains at most ``limit`` entries; with no reader attached the
  oldest entries are discarded (``dropped`` counts them) so an unconsumed
  job can never buffer unboundedly or wedge its worker;
* a reader that still needs the oldest retained entry **pauses the
  producer** instead (backpressure): slow consumers throttle the search,
  they do not grow the buffer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..api.engine import CancellationToken
from ..api.response import TERMINATION_CANCELLED
from ..api.request import EnumerationRequest
from ..errors import JobResultsTruncatedError, JobStateError

#: Lifecycle states.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_SUCCEEDED = "succeeded"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_EXPIRED = "expired"

JOB_STATES = (
    JOB_PENDING,
    JOB_RUNNING,
    JOB_SUCCEEDED,
    JOB_FAILED,
    JOB_CANCELLED,
    JOB_EXPIRED,
)

#: States in which a job will never run again.
TERMINAL_STATES = frozenset(
    {JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED, JOB_EXPIRED}
)

_TRANSITIONS: Dict[str, frozenset] = {
    JOB_PENDING: frozenset({JOB_RUNNING, JOB_CANCELLED}),
    JOB_RUNNING: frozenset({JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED}),
    JOB_SUCCEEDED: frozenset({JOB_EXPIRED}),
    JOB_FAILED: frozenset({JOB_EXPIRED}),
    JOB_CANCELLED: frozenset({JOB_EXPIRED}),
    JOB_EXPIRED: frozenset(),
}

#: ``read()`` outcome kinds.
READ_ITEM = "item"
READ_END = "end"
READ_TIMEOUT = "timeout"


class ResultLog:
    """Bounded producer/consumer bridge between a solver and its readers.

    One producer appends; readers attach with a cursor and read
    independently.  The buffer retains at most ``limit`` entries:

    * no attached reader needs the oldest entry → it is discarded
      (counted in :attr:`dropped`) and the producer continues;
    * an attached reader still needs it → the producer **blocks** until
      that reader advances, detaches, or the append is aborted — the
      backpressure contract of streaming jobs.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"result buffer limit must be >= 1, got {limit}")
        self._lock = threading.Lock()
        self._data = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._entries: "deque[object]" = deque()
        self._base = 0  # index of _entries[0]
        self._next = 0  # index the next append receives
        self._limit = limit
        self._readers: Dict[int, int] = {}  # reader id -> cursor
        self._next_reader = 0
        self._closed = False
        self.dropped = 0

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def append(
        self,
        item: object,
        should_abort: Optional[Callable[[], bool]] = None,
        poll_seconds: float = 0.05,
    ) -> bool:
        """Append one entry; returns ``False`` if closed or aborted.

        While the buffer is full *and* an attached reader still needs the
        oldest entry, the call blocks (checking ``should_abort`` every
        ``poll_seconds`` so a cancellation is honoured promptly).
        """
        with self._lock:
            while not self._closed:
                if should_abort is not None and should_abort():
                    return False
                if self._limit is None or (self._next - self._base) < self._limit:
                    self._entries.append(item)
                    self._next += 1
                    self._data.notify_all()
                    return True
                if any(cursor <= self._base for cursor in self._readers.values()):
                    # A reader would lose the oldest entry: pause the
                    # producer until it catches up or detaches.
                    self._space.wait(poll_seconds)
                    continue
                self._entries.popleft()
                self._base += 1
                if not self._readers:
                    # With readers attached, eviction only happens once all
                    # of them consumed the entry — normal trimming, not
                    # data loss; unobserved evictions are real drops.
                    self.dropped += 1
            return False

    def close(self) -> None:
        """No more entries will arrive; wake every blocked reader/producer."""
        with self._lock:
            self._closed = True
            self._data.notify_all()
            self._space.notify_all()

    def clear(self) -> int:
        """Drop every retained entry (TTL expiry); returns the count dropped."""
        with self._lock:
            cleared = len(self._entries)
            self.dropped += cleared
            self._base = self._next
            self._entries.clear()
            self._closed = True
            self._data.notify_all()
            self._space.notify_all()
            return cleared

    # ------------------------------------------------------------------ #
    # Reader side
    # ------------------------------------------------------------------ #
    def attach(self, start: int = 0) -> int:
        """Register a reader cursor at ``start``; returns the reader id."""
        with self._lock:
            reader_id = self._next_reader
            self._next_reader += 1
            self._readers[reader_id] = max(0, start)
            return reader_id

    def detach(self, reader_id: int) -> None:
        """Unregister a reader; a producer it was throttling resumes."""
        with self._lock:
            self._readers.pop(reader_id, None)
            self._space.notify_all()

    def read(
        self, reader_id: int, timeout: Optional[float] = None
    ) -> Tuple[str, Optional[int], Optional[object]]:
        """Read the reader's next entry, blocking until one is available.

        Returns ``(kind, index, item)`` where ``kind`` is ``"item"`` (a
        result), ``"end"`` (closed and fully consumed) or ``"timeout"``
        (nothing arrived within ``timeout`` — the stream handler uses this
        to emit heartbeats).  Raises
        :class:`~repro.errors.JobResultsTruncatedError` when the cursor
        points below the retained window.
        """
        with self._lock:
            while True:
                cursor = self._readers[reader_id]
                if cursor < self._base:
                    raise JobResultsTruncatedError(
                        f"results [{cursor}, {self._base}) were dropped from the "
                        f"bounded buffer (limit {self._limit}, {self.dropped} "
                        f"dropped in total); re-read from index {self._base}"
                    )
                if cursor < self._next:
                    item = self._entries[cursor - self._base]
                    self._readers[reader_id] = cursor + 1
                    self._space.notify_all()
                    return READ_ITEM, cursor, item
                if self._closed:
                    return READ_END, None, None
                if not self._data.wait(timeout):
                    return READ_TIMEOUT, None, None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self, start: int = 0) -> Tuple[int, List[object], bool]:
        """Return ``(first_index, entries from max(start, base), closed)``."""
        with self._lock:
            first = max(start, self._base)
            offset = first - self._base
            return first, list(self._entries)[offset:] if offset < len(self._entries) else [], self._closed

    @property
    def buffered(self) -> int:
        """Entries currently retained in memory."""
        with self._lock:
            return len(self._entries)

    @property
    def readers(self) -> int:
        """Number of attached readers."""
        with self._lock:
            return len(self._readers)


class Job:
    """One asynchronous enumeration: spec, state machine, progress, results.

    All mutation goes through the transition helpers, which validate
    against the state machine and timestamp the change; reads of the
    composite record go through :meth:`describe`.
    """

    def __init__(
        self,
        job_id: str,
        request: EnumerationRequest,
        spec: Dict[str, object],
        result_buffer: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        request_id: Optional[str] = None,
    ) -> None:
        self.id = job_id
        self.request = request
        # The trace id of the job's own run; submitting over HTTP links it
        # to the submit request via the trace's parent_request_id attribute.
        self.request_id = request_id or job_id
        self.spec = dict(spec)
        self.ttl_seconds = ttl_seconds
        self.results = ResultLog(limit=result_buffer)
        self.cancel_token = CancellationToken()
        # The service pool's handle on this job's run, set once admitted.
        self.future: Optional[Future] = None
        self._clock = clock
        self._lock = threading.Lock()
        self.state = JOB_PENDING
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._created_mono = clock()
        self._finished_mono: Optional[float] = None
        self.termination: Optional[str] = None
        self.error: Optional[str] = None
        self.result_count = 0
        self.first_result_seconds: Optional[float] = None
        self.elapsed_seconds: Optional[float] = None
        self.statistics: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    # State machine
    # ------------------------------------------------------------------ #
    def _transition_locked(self, new_state: str) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.id}: invalid transition {self.state} -> {new_state}"
            )
        self.state = new_state

    def try_start(self) -> bool:
        """PENDING → RUNNING; ``False`` when cancelled before it could run."""
        with self._lock:
            if self.state != JOB_PENDING or self.cancel_token.cancelled:
                return False
            self._transition_locked(JOB_RUNNING)
            self.started_at = time.time()
            return True

    def finish(
        self,
        state: str,
        termination: Optional[str] = None,
        error: Optional[str] = None,
        elapsed_seconds: Optional[float] = None,
        statistics: Optional[Dict[str, object]] = None,
    ) -> None:
        """RUNNING → one of the terminal states (idempotence not allowed)."""
        with self._lock:
            self._transition_locked(state)
            self.termination = termination
            self.error = error
            self.elapsed_seconds = elapsed_seconds
            self.statistics = statistics
            self.finished_at = time.time()
            self._finished_mono = self._clock()
        self.results.close()

    def cancel(self) -> bool:
        """Request cancellation; ``True`` if the job was still cancellable.

        A PENDING job transitions immediately; a RUNNING one has its
        cooperative token set — the engine's streaming loop observes it
        between results (stopping the solver's work, not just the record)
        and the runner finalises the state.
        """
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            self.cancel_token.cancel()
            if self.state == JOB_PENDING:
                self._transition_locked(JOB_CANCELLED)
                self.termination = TERMINATION_CANCELLED
                self.finished_at = time.time()
                self._finished_mono = self._clock()
            else:
                return True
        self.results.close()
        return True

    def expire(self) -> bool:
        """Terminal → EXPIRED; drops the buffered results.  ``False`` if not terminal."""
        with self._lock:
            if self.state not in (JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED):
                return False
            self._transition_locked(JOB_EXPIRED)
        self.results.clear()
        return True

    # ------------------------------------------------------------------ #
    # Progress
    # ------------------------------------------------------------------ #
    def note_result(self) -> None:
        """Record one result appended to the log in the progress counters."""
        with self._lock:
            self.result_count += 1
            if self.first_result_seconds is None:
                self.first_result_seconds = self._clock() - self._created_mono

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def age_since_finish(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the job reached a terminal state (``None`` if live)."""
        if self._finished_mono is None:
            return None
        return (now if now is not None else self._clock()) - self._finished_mono

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """JSON-ready job record for status endpoints and snapshots."""
        with self._lock:
            record: Dict[str, object] = {
                "id": self.id,
                "state": self.state,
                "request_id": self.request_id,
                "spec": dict(self.spec),
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "termination": self.termination,
                "error": self.error,
                "elapsed_seconds": self.elapsed_seconds,
                "ttl_seconds": self.ttl_seconds,
                "progress": {
                    "results": self.result_count,
                    "first_result_seconds": self.first_result_seconds,
                    "buffered": self.results.buffered,
                    "dropped": self.results.dropped,
                },
            }
            if self.statistics is not None:
                record["statistics"] = self.statistics
            return record

    def final_record(self) -> Dict[str, object]:
        """The terminating NDJSON record of a result stream."""
        with self._lock:
            record: Dict[str, object] = {
                "done": True,
                "job": self.id,
                "state": self.state,
                "termination": self.termination,
                "count": self.result_count,
                "dropped": self.results.dropped,
            }
            if self.elapsed_seconds is not None:
                record["elapsed_seconds"] = self.elapsed_seconds
            if self.error is not None:
                record["error"] = {"type": "JobError", "message": self.error}
            return record

    def iter_results(self, start: int = 0) -> Iterator[Tuple[int, object]]:
        """Yield ``(index, entry)`` pairs, blocking until the job finishes.

        The embedding-side equivalent of the NDJSON stream: attaches a
        reader (participating in backpressure) and detaches it even when
        the consumer abandons the generator early.
        """
        reader = self.results.attach(start)
        try:
            while True:
                kind, index, item = self.results.read(reader)
                if kind == READ_END:
                    return
                if kind == READ_ITEM:
                    yield index, item
        finally:
            self.results.detach(reader)
