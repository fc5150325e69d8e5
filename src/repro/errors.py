"""Exception types shared across the :mod:`repro` package."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation refers to unknown vertices."""


class ParameterError(ReproError):
    """Raised when enumeration parameters (``k``, ``q``, thresholds) are invalid."""


class DatasetError(ReproError):
    """Raised when a named dataset cannot be found or constructed."""


class FormatError(ReproError):
    """Raised when a graph file cannot be parsed in the requested format."""


class ResilienceError(ReproError):
    """Base class for errors raised by the fault-tolerance layer (:mod:`repro.resilience`)."""


class WorkerCrashError(ResilienceError):
    """Raised when worker processes keep dying and the run cannot be recovered."""


class PoisonTaskError(ResilienceError):
    """Raised when one task deterministically crashes or fails past the retry budget.

    Carries enough diagnostics to identify the task instead of looping: the
    offending item, the number of attempts made, and the failure mode
    (``"crash"`` for a worker death attributed to the task, ``"error"`` for a
    repeatedly-raised exception, preserved as ``__cause__``).
    """

    def __init__(self, message: str, item=None, attempts: int = 0, mode: str = "error"):
        super().__init__(message)
        self.item = item
        self.attempts = attempts
        self.mode = mode


class FaultInjectedError(ResilienceError):
    """Raised by an injected ``seed_exception`` fault point (testing only)."""


class ServiceError(ReproError):
    """Base class for errors raised by the serving layer (:mod:`repro.service`)."""


class CatalogError(ServiceError):
    """Raised for graph-catalog lifecycle problems (unknown/duplicate names, bad sources)."""


class ServiceOverloadError(ServiceError):
    """Raised when admission control rejects a request (worker pool and queue full)."""


class ServiceClosedError(ServiceError):
    """Raised when a request reaches a service that is draining or closed."""


class CircuitOpenError(ServiceError):
    """Raised when the circuit breaker is open and the service sheds load.

    ``retry_after`` is the breaker's remaining cooldown in seconds, surfaced
    over HTTP as a 503 with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SnapshotError(ServiceError):
    """Raised when a service snapshot cannot be written, read or validated."""


class JobError(ServiceError):
    """Base class for errors raised by the async job subsystem (:mod:`repro.jobs`)."""


class JobNotFoundError(JobError):
    """Raised when a job id names no live job record (unknown or already evicted)."""


class JobStateError(JobError):
    """Raised when an operation is invalid in the job's current state."""


class JobQueueFullError(JobError, ServiceOverloadError):
    """Raised when the job manager's concurrency + queue budget is exhausted.

    Inherits :class:`ServiceOverloadError` so existing overload handling
    (HTTP 429 + Retry-After, client-side backoff) applies unchanged.
    """


class JobResultsTruncatedError(JobError):
    """Raised when a reader asks for job results the bounded buffer has dropped."""


class ClusterError(ServiceError):
    """Base class for errors raised by the multi-replica layer (:mod:`repro.cluster`)."""


class ReplicaUnavailableError(ClusterError):
    """Raised when no live replica can serve a routed request.

    Carries a ``retry_after`` hint (seconds) so the router can answer with
    HTTP 503 + ``Retry-After`` while supervision restarts the replica.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RemoteServiceError(ServiceError):
    """An HTTP server answered with an error the client cannot map locally.

    Attributes
    ----------
    status:
        The HTTP status code of the response.
    kind:
        The ``error.type`` label from the structured error body (or the
        raw reason phrase when the body was not structured).
    """

    def __init__(self, message: str, status: int = 0, kind: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
