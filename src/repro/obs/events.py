"""Structured JSON event pipeline on the ``repro.obs`` logger.

Every interesting lifecycle transition in the serving stack — request
served, job state change, pool recovery, snapshot
quarantine — is emitted as exactly one JSON object per line through
:func:`log_event`.  Events automatically pick up the ``request_id`` of the
active trace so log lines correlate with ``/v1/trace/<id>`` output.

Nothing is written anywhere until :func:`configure_event_logging` attaches
a handler (the server does this at boot); library users pay only an
``isEnabledFor`` check per call.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import Any, IO, Optional

from .trace import current_trace

__all__ = ["EVENT_LOGGER_NAME", "JsonLineFormatter", "configure_event_logging", "log_event"]

EVENT_LOGGER_NAME = "repro.obs"

_LOGGER = logging.getLogger(EVENT_LOGGER_NAME)
# Without explicit configuration events must go nowhere (and never hit the
# logging lastResort handler), but records still propagate for capture in
# tests.
_LOGGER.addHandler(logging.NullHandler())


class JsonLineFormatter(logging.Formatter):
    """Render each record as a single JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "event": record.getMessage(),
        }
        fields = getattr(record, "fields", None)
        if fields:
            for key, value in fields.items():
                payload.setdefault(key, value)
        return json.dumps(payload, default=str, separators=(",", ":"))


def log_event(event: str, *, level: int = logging.INFO, **fields: Any) -> None:
    """Emit one structured event, tagged with the active request_id."""

    if not _LOGGER.isEnabledFor(level):
        return
    trace = current_trace()
    if trace is not None:
        fields.setdefault("request_id", trace.request_id)
    fields = {key: value for key, value in fields.items() if value is not None}
    _LOGGER.log(level, event, extra={"fields": fields})


def configure_event_logging(
    stream: Optional[IO[str]] = None,
    level: int = logging.INFO,
    propagate: bool = False,
) -> logging.Handler:
    """Attach a JSON-lines handler to the ``repro.obs`` logger.

    Returns the handler so callers (the HTTP server, tests) can detach it
    again with ``remove_event_handler``.
    """

    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLineFormatter())
    handler.setLevel(level)
    _LOGGER.addHandler(handler)
    if _LOGGER.level == logging.NOTSET or _LOGGER.level > level:
        _LOGGER.setLevel(level)
    _LOGGER.propagate = propagate
    return handler


def remove_event_handler(handler: logging.Handler) -> None:
    """Detach a handler previously returned by :func:`configure_event_logging`."""

    _LOGGER.removeHandler(handler)
