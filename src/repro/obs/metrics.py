"""Bounded metrics primitives with Prometheus text rendering.

Replaces the unbounded sample deques previously used for p50/p95: a
:class:`Histogram` keeps a fixed set of cumulative bucket counters (O(1)
memory regardless of traffic) and estimates quantiles from bucket upper
bounds, the same trade-off Prometheus itself makes.  A
:class:`MetricsRegistry` keys counters/gauges/histograms by name plus a
frozen label set and renders the whole family as exposition-format 0.0.4
text, including proper ``_bucket``/``_sum``/``_count`` series and escaped
label values.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "format_labels",
]

#: Latency-style boundaries (seconds): 1ms .. 60s, roughly log-spaced.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Size-style boundaries (counts): 1 .. 100k, roughly log-spaced.
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 10000.0, 50000.0, 100000.0,
)


def escape_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus text format.

    Backslash, double quote, and newline are the three characters the
    format requires escaping; hostile graph names carrying any of them
    must round-trip into a single well-formed exposition line.
    """

    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: Optional[Mapping[str, Any]]) -> str:
    """Render a ``{key="value",...}`` block (empty string for no labels)."""

    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonic counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Free-moving instantaneous value."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with cumulative-bucket quantile estimates.

    Memory is O(len(buckets)) forever.  Quantiles are estimated as the
    upper bound of the bucket containing the nearest-rank sample, clamped
    to the observed max so a single small sample does not report a whole
    bucket width.
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_min", "_max", "_lock")

    def __init__(self, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket boundaries must be strictly increasing")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self._bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, fraction: float) -> Optional[float]:
        """Estimated value at ``fraction`` (0..1); None when empty."""

        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return None
            target = max(1, math.ceil(fraction * total))
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= target:
                    if index < len(self._bounds):
                        estimate = self._bounds[index]
                    else:  # overflow bucket: best info we have is the max
                        estimate = self._max if self._max is not None else math.inf
                    if self._max is not None:
                        estimate = min(estimate, self._max)
                    if self._min is not None:
                        estimate = max(estimate, self._min)
                    return estimate
            return self._max  # pragma: no cover - cumulative always reaches

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""

        if other._bounds != self._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        with other._lock:
            counts = list(other._counts)
            other_sum, other_count = other._sum, other._count
            other_min, other_max = other._min, other._max
        with self._lock:
            for index, bucket_count in enumerate(counts):
                self._counts[index] += bucket_count
            self._sum += other_sum
            self._count += other_count
            if other_min is not None and (self._min is None or other_min < self._min):
                self._min = other_min
            if other_max is not None and (self._max is None or other_max > self._max):
                self._max = other_max

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from a :meth:`snapshot` document.

        The inverse of :meth:`snapshot`: bucket counts arrive cumulative and
        are de-accumulated back into per-bucket increments, so the result can
        be folded into a live histogram via :meth:`merge`.  This is how the
        cluster router aggregates replica telemetry it only sees over HTTP.
        """

        buckets = payload.get("buckets")
        if not isinstance(buckets, (list, tuple)) or not buckets:
            raise ValueError("histogram snapshot needs a non-empty 'buckets' list")
        bounds = [
            float(bucket["le"]) for bucket in buckets if bucket.get("le") != "+Inf"
        ]
        if not bounds:
            raise ValueError("histogram snapshot has no finite bucket bounds")
        histogram = cls(bounds)
        counts: List[int] = []
        previous = 0
        for bucket in buckets:
            cumulative = int(bucket["count"])
            if cumulative < previous:
                raise ValueError("histogram bucket counts must be cumulative")
            counts.append(cumulative - previous)
            previous = cumulative
        if len(counts) == len(bounds):
            # Snapshot without an explicit +Inf bucket: nothing overflowed.
            counts.append(0)
        histogram._counts = counts
        histogram._count = int(payload.get("count", previous))
        histogram._sum = float(payload.get("sum", 0.0))
        if payload.get("min") is not None:
            histogram._min = float(payload["min"])
            histogram._max = float(payload.get("max", payload["min"]))
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state: cumulative bucket counts plus summary stats."""

        with self._lock:
            cumulative = 0
            buckets: List[Dict[str, Any]] = []
            for bound, bucket_count in zip(self._bounds, self._counts):
                cumulative += bucket_count
                buckets.append({"le": bound, "count": cumulative})
            buckets.append({"le": "+Inf", "count": self._count})
            payload: Dict[str, Any] = {
                "count": self._count,
                "sum": round(self._sum, 9),
                "buckets": buckets,
            }
            if self._min is not None:
                payload["min"] = self._min
                payload["max"] = self._max
        return payload


class MetricsRegistry:
    """Named metric families, each a set of label-keyed children.

    ``counter``/``gauge``/``histogram`` are get-or-create and thread-safe;
    re-registering a name as a different kind raises, as Prometheus would
    reject the scrape.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._children: Dict[str, Dict[Tuple[Tuple[str, str], ...], Any]] = {}

    @staticmethod
    def _label_key(labels: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, str], ...]:
        if not labels:
            return ()
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _get_or_create(
        self,
        kind: str,
        name: str,
        labels: Optional[Mapping[str, Any]],
        help_text: Optional[str],
        factory,
    ):
        key = self._label_key(labels)
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is None:
                self._kinds[name] = kind
                self._children[name] = {}
            elif existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}"
                )
            if help_text:
                self._help.setdefault(name, help_text)
            family = self._children[name]
            child = family.get(key)
            if child is None:
                child = factory()
                family[key] = child
            return child

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        help_text: Optional[str] = None,
    ) -> Counter:
        return self._get_or_create("counter", name, labels, help_text, Counter)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        help_text: Optional[str] = None,
    ) -> Gauge:
        return self._get_or_create("gauge", name, labels, help_text, Gauge)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        buckets: Optional[Sequence[float]] = None,
        help_text: Optional[str] = None,
    ) -> Histogram:
        chosen = tuple(float(b) for b in (buckets or DEFAULT_TIME_BUCKETS))
        with self._lock:
            registered = self._buckets.setdefault(name, chosen)
        if buckets is not None and registered != chosen:
            raise ValueError(f"metric {name!r} already registered with other buckets")
        return self._get_or_create(
            "histogram", name, labels, help_text, lambda: Histogram(registered)
        )

    def merge_snapshot(self, payload: Mapping[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` document into this one.

        Counters and gauges are summed (a cluster-level gauge such as
        ``in_flight`` is the sum over replicas); histograms are rebuilt via
        :meth:`Histogram.from_snapshot` and merged bucket-by-bucket.  Unknown
        family kinds are skipped so future replica versions stay mergeable.
        """

        for name, family in payload.items():
            if not isinstance(family, Mapping):
                continue
            kind = family.get("type")
            for entry in family.get("series", ()):
                labels = entry.get("labels") or None
                if kind == "counter":
                    self.counter(name, labels).inc(float(entry.get("value", 0.0)))
                elif kind == "gauge":
                    self.gauge(name, labels).inc(float(entry.get("value", 0.0)))
                elif kind == "histogram":
                    other = Histogram.from_snapshot(entry)
                    self.histogram(name, labels, buckets=other.bounds).merge(other)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dump of every family and child."""

        with self._lock:
            families = {
                name: (self._kinds[name], dict(children))
                for name, children in self._children.items()
            }
        payload: Dict[str, Any] = {}
        for name in sorted(families):
            kind, children = families[name]
            series = []
            for key in sorted(children):
                child = children[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if kind == "histogram":
                    entry.update(child.snapshot())
                else:
                    entry["value"] = child.value
                series.append(entry)
            payload[name] = {"type": kind, "series": series}
        return payload

    def render_prometheus(self, prefix: str = "kplex") -> str:
        """Exposition-format text for every family in the registry."""

        with self._lock:
            families = {
                name: (self._kinds[name], self._help.get(name), dict(children))
                for name, children in self._children.items()
            }
        lines: List[str] = []
        for name in sorted(families):
            kind, help_text, children = families[name]
            full = f"{prefix}_{name}" if prefix else name
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {kind}")
            for key in sorted(children):
                child = children[key]
                labels = dict(key)
                if kind == "histogram":
                    state = child.snapshot()
                    for bucket in state["buckets"]:
                        bucket_labels = dict(labels)
                        le = bucket["le"]
                        bucket_labels["le"] = (
                            le if isinstance(le, str) else _format_value(le)
                        )
                        lines.append(
                            f"{full}_bucket{format_labels(bucket_labels)}"
                            f" {bucket['count']}"
                        )
                    lines.append(
                        f"{full}_sum{format_labels(labels)}"
                        f" {_format_value(state['sum'])}"
                    )
                    lines.append(
                        f"{full}_count{format_labels(labels)} {state['count']}"
                    )
                else:
                    lines.append(
                        f"{full}{format_labels(labels)}"
                        f" {_format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
