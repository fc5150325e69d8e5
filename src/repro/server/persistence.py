"""Durable warm state for the serving layer (snapshot + warm-start replay).

The in-memory caches of :class:`~repro.service.service.KPlexService` die
with the process; this module makes their *hot set* survive a restart
without ever persisting a result payload:

* :func:`snapshot_service` captures the catalog registrations (with inline
  edges for graphs that cannot be re-materialised from a file or dataset)
  and the :class:`~repro.service.cache.ResultCache`'s hottest **request
  specs** into one versioned JSON document;
* :func:`save_snapshot` writes it atomically (tmp file + ``os.replace``);
* :func:`warm_start` re-registers the graphs and re-executes the persisted
  specs through the normal service path, so a restarted server answers the
  replayed workload from a warm cache.

Staleness is impossible by construction on two levels.  First, replay
*recomputes* — nothing cached is ever injected, so a warmed entry is as
fresh as a client-triggered one.  Second, every spec carries the
``Graph.epoch`` observed at snapshot time and :func:`warm_start` skips any
spec whose epoch no longer matches the live graph: a snapshot taken before
``bump_epoch()`` (or taken after mutations, loaded against a freshly
re-materialised graph) warms nothing for that graph instead of warming
questionable state.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.config import EnumerationConfig
from ..errors import ReproError, SnapshotError
from ..obs import log_event
from ..graph import Graph
from ..graph.prepared import prepare
from ..resilience import fault_injector, resilience_stats
from ..service import KPlexService
from ..service.catalog import DATASET_PREFIX

SNAPSHOT_FORMAT = "kplex-service-snapshot"
SNAPSHOT_VERSION = 1

#: Half-life of a cached spec's score under the compaction policy: an entry
#: last touched one half-life ago counts half its hits, two half-lives a
#: quarter, and so on.  Five minutes matches the service's default snapshot
#: cadence — specs that survived a whole snapshot interval untouched are
#: already cooling.
DEFAULT_SPEC_HALF_LIFE_SECONDS = 300.0

#: JSON-safe scalar types accepted for vertex labels and option values.
_JSON_SCALARS = (str, int, float, bool)


# --------------------------------------------------------------------------- #
# Capture
# --------------------------------------------------------------------------- #
def _json_safe(value: object) -> bool:
    if value is None or isinstance(value, _JSON_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_safe(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _json_safe(item) for key, item in value.items()
        )
    return False


def _graph_spec(name: str, entry) -> Optional[Dict[str, object]]:
    """One catalog registration as a restorable JSON object.

    File and dataset sources are recorded by reference; graphs registered
    from objects or raw edge iterables are inlined as labelled edge lists
    (when their labels are JSON-safe — otherwise the graph cannot be
    restored and the whole entry is dropped from the snapshot).
    """
    graph: Graph = entry.graph
    spec: Dict[str, object] = {
        "name": name,
        "epoch": graph.epoch,
        "prewarm_levels": list(entry.prewarmed_levels),
    }
    source: str = entry.source
    if source.startswith(DATASET_PREFIX):
        spec["dataset"] = source[len(DATASET_PREFIX) :]
        return spec
    if source.startswith("file:"):
        spec["path"] = source[len("file:") :]
        spec["fmt"] = entry.fmt
        return spec
    labels = graph.labels()
    if not all(isinstance(label, (str, int)) for label in labels):
        return None
    spec["vertices"] = labels
    spec["edges"] = [
        [graph.label(u), graph.label(v)] for u, v in graph.edges()
    ]
    return spec


def _config_dict(config: EnumerationConfig) -> Dict[str, object]:
    return dataclasses.asdict(config)


def _request_spec(request, name: str, epoch: int) -> Optional[Dict[str, object]]:
    """One cached request as a replayable JSON object (no graph payload)."""
    spec: Dict[str, object] = {
        "graph": name,
        "epoch": epoch,
        "k": request.k,
        "q": request.q,
        "solver": request.solver,
        "sort_results": request.sort_results,
    }
    if request.variant is not None:
        spec["variant"] = request.variant
    elif request.config is not None:
        spec["config"] = _config_dict(request.config)
    if request.query_vertices is not None:
        labels = [request.graph.label(v) for v in request.query_vertices]
        if not all(isinstance(label, (str, int)) for label in labels):
            return None
        spec["query"] = labels
    if request.max_results is not None:
        spec["max_results"] = request.max_results
    if request.options:
        if not _json_safe(request.options):
            return None
        spec["options"] = dict(request.options)
    return spec


def _spec_score(hits: int, age_seconds: float, half_life_seconds: float) -> float:
    """Compaction score: hit count decayed by time since last access.

    ``(1 + hits)`` so a never-hit entry still competes (it was stored, i.e.
    computed once); the exponential halves the score every half-life, so a
    burst of historical hits cannot pin a spec that traffic has moved past.
    """
    return (1.0 + hits) * (0.5 ** (max(0.0, age_seconds) / half_life_seconds))


def snapshot_service(
    service: KPlexService,
    max_requests: Optional[int] = None,
    half_life_seconds: float = DEFAULT_SPEC_HALF_LIFE_SECONDS,
) -> Dict[str, object]:
    """Capture the service's warm state as one versioned JSON document.

    ``max_requests`` bounds the number of persisted hot request specs via
    the top-N-by-hit-count-with-age-decay policy (see :func:`_spec_score`):
    every live cache entry is scored and only the ``max_requests`` best
    survive, with the cut recorded under the document's
    ``"spec_compaction"`` key so operators can see what a bounded snapshot
    dropped.
    """
    catalog = service.catalog
    graphs: List[Dict[str, object]] = []
    restorable: Dict[int, str] = {}
    for name in catalog.names():
        entry = catalog.entry(name)
        spec = _graph_spec(name, entry)
        if spec is None:
            continue
        graphs.append(spec)
        restorable[id(entry.graph)] = name

    now = time.monotonic()
    scored: List[Tuple[float, int, Dict[str, object]]] = []
    seen: Dict[str, int] = {}
    if service.result_cache is not None:
        for request, hits, last_access in service.result_cache.export_requests_scored():
            name = restorable.get(id(request.graph))
            if name is None:
                continue
            spec = _request_spec(request, name, request.graph.epoch)
            if spec is None:
                continue
            score = _spec_score(hits, now - last_access, half_life_seconds)
            marker = json.dumps(spec, sort_keys=True, default=str)
            index = seen.get(marker)
            if index is not None:
                # Duplicate spec (e.g. alias solver names): keep one entry
                # with the combined best score.
                previous = scored[index]
                scored[index] = (max(previous[0], score), previous[1], previous[2])
                continue
            seen[marker] = len(scored)
            scored.append((score, hits, spec))

    # Stable sort on descending score; the export is MRU-first, so ties keep
    # the most recently used spec ahead.
    ranked = sorted(enumerate(scored), key=lambda item: (-item[1][0], item[0]))
    cut = len(ranked) if max_requests is None else min(max_requests, len(ranked))
    hot_requests = [entry[2] for _index, entry in ranked[:cut]]
    dropped = ranked[cut:]
    compaction: Dict[str, object] = {
        "policy": "top-hits-age-decay",
        "half_life_seconds": half_life_seconds,
        "max_specs": max_requests,
        "candidates": len(ranked),
        "kept": len(hot_requests),
        "dropped": len(dropped),
        # A bounded sample of what the cut removed, for operator forensics.
        "dropped_specs": [
            {
                "graph": entry[2].get("graph"),
                "k": entry[2].get("k"),
                "q": entry[2].get("q"),
                "hits": entry[1],
                "score": round(entry[0], 6),
            }
            for _index, entry in dropped[:32]
        ],
    }

    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "created_at": time.time(),
        "graphs": graphs,
        "hot_requests": hot_requests,
        # Not validated by load_snapshot (older readers ignore it), so the
        # format version stays 1.
        "spec_compaction": compaction,
    }


def save_snapshot(
    service: KPlexService,
    path: Union[str, os.PathLike],
    max_requests: Optional[int] = None,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Snapshot ``service`` and write it to ``path`` atomically.

    The document is staged in a uniquely named temp file in the target
    directory and published with ``os.replace``: concurrent writers (the
    periodic thread, a drain, ``POST /v1/snapshot``) each stage their own
    file, so the published snapshot is always one writer's complete output.

    ``extra`` keys are merged into the document (the server uses this to
    record its job-table summary at drain time); they may not shadow the
    snapshot's own keys and are ignored by :func:`load_snapshot`, which
    only validates the core fields.
    """
    snapshot = snapshot_service(service, max_requests=max_requests)
    if extra:
        collisions = set(extra) & set(snapshot)
        if collisions:
            raise SnapshotError(
                f"extra snapshot keys shadow core fields: {sorted(collisions)}"
            )
        snapshot.update(extra)
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if fault_injector().fire("snapshot_torn"):
        # Fault injection: simulate a crash mid-write by publishing a
        # truncated document directly (bypassing the tmp+rename protocol
        # that normally makes this impossible).
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload[: max(1, len(payload) // 2)])
        return snapshot
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".tmp."
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except OSError as exc:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise SnapshotError(f"cannot write snapshot to {path!r}: {exc}") from exc
    return snapshot


# --------------------------------------------------------------------------- #
# Restore
# --------------------------------------------------------------------------- #
def quarantine_snapshot(path: Union[str, os.PathLike]) -> Optional[str]:
    """Move a corrupt snapshot aside as ``<path>.corrupt`` and return the new path.

    The rename keeps the torn document for post-mortem inspection while
    guaranteeing the next boot (and the next periodic snapshot write) sees
    a clean slate.  An existing quarantine file is never overwritten — a
    numeric suffix is appended instead.  Returns ``None`` when the file
    vanished or cannot be moved (in which case the caller should still
    boot cold; the quarantine is best-effort).
    """
    path = os.fspath(path)
    target = path + ".corrupt"
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = f"{path}.corrupt.{suffix}"
    try:
        os.replace(path, target)
    except OSError:
        return None
    resilience_stats().increment("snapshots_quarantined")
    log_event(
        "snapshot_quarantined",
        level=logging.WARNING,
        snapshot_path=path,
        quarantine_path=target,
    )
    return target


def load_snapshot(path: Union[str, os.PathLike]) -> Dict[str, object]:
    """Read and validate a snapshot document written by :func:`save_snapshot`."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(snapshot, dict) or snapshot.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path!r} is not a {SNAPSHOT_FORMAT} document")
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has version {version!r}; this build reads "
            f"version {SNAPSHOT_VERSION}"
        )
    # Older snapshots also carry a "seed_specs" list (specs of a removed
    # seed-subgraph cache); it is ignored and their hot requests replay.
    for key in ("graphs", "hot_requests"):
        if not isinstance(snapshot.get(key), list):
            raise SnapshotError(f"snapshot {path!r} is missing the {key!r} list")
    return snapshot


@dataclass
class WarmStartReport:
    """Outcome of one :func:`warm_start` run (all counters, no payloads)."""

    graphs_registered: int = 0
    graphs_matched: int = 0
    graphs_stale: int = 0
    replayed: int = 0
    skipped_stale: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Path the corrupt snapshot was moved to, when a torn/invalid document
    #: was quarantined instead of aborting the boot.
    quarantined: Optional[str] = None

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary (logged by the CLI after boot)."""
        return dataclasses.asdict(self)

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.quarantined is not None:
            return (
                f"warm start: corrupt snapshot quarantined to "
                f"{self.quarantined!r}; booting cold"
            )
        return (
            f"warm start: {self.replayed} specs replayed over "
            f"{self.graphs_registered + self.graphs_matched} graphs "
            f"({self.graphs_stale} stale graphs, {self.skipped_stale} stale "
            f"specs, {self.failed} failures)"
        )


def _restore_graph(service: KPlexService, spec: Dict[str, object]) -> Tuple[bool, bool]:
    """Ensure the spec's graph is registered; return (available, registered_now)."""
    name = spec["name"]
    if name in service.catalog:
        return True, False
    if "dataset" in spec:
        source: object = f"{DATASET_PREFIX}{spec['dataset']}"
    elif "path" in spec:
        source = spec["path"]
    else:
        source = Graph.from_edges(spec.get("edges", []), vertices=spec.get("vertices"))
    service.catalog.register(name, source, fmt=spec.get("fmt", "auto"))
    return True, True


def _replay_request(service: KPlexService, spec: Dict[str, object]):
    kwargs: Dict[str, object] = {
        "solver": spec.get("solver", "ours"),
        "sort_results": spec.get("sort_results", True),
    }
    if spec.get("variant") is not None:
        kwargs["variant"] = spec["variant"]
    elif spec.get("config") is not None:
        # Snapshots of older builds store a since-removed ``sort_results``
        # field; request-level sorting is the top-level "sort_results" key.
        config = {key: value for key, value in spec["config"].items() if key != "sort_results"}
        kwargs["config"] = EnumerationConfig(**config)
    if spec.get("max_results") is not None:
        kwargs["max_results"] = spec["max_results"]
    if spec.get("options"):
        kwargs["options"] = dict(spec["options"])
    if spec.get("query") is not None:
        graph = service.catalog.get(spec["graph"])
        kwargs["query_vertices"] = tuple(
            graph.index_of(label) for label in spec["query"]
        )
    request = service.request(spec["graph"], spec["k"], spec["q"], **kwargs)
    return service.solve(request)


def warm_start(
    service: KPlexService,
    snapshot: Union[str, os.PathLike, Dict[str, object]],
    register_missing: bool = True,
    quarantine_corrupt: bool = False,
) -> WarmStartReport:
    """Replay a snapshot's hot specs through ``service``'s normal path.

    Graphs named by the snapshot are re-registered when absent (from their
    dataset / file source or the inlined edges) unless ``register_missing``
    is false.  A spec is replayed only when its recorded epoch equals the
    live graph's current epoch; anything else is counted as stale and
    skipped — see the module docstring for why this can never warm state
    from before a mutation.  Individual replay failures are collected in
    the report instead of aborting the boot.

    With ``quarantine_corrupt`` a torn or invalid snapshot *file* (crash
    mid-write, truncation, version drift) no longer raises: the document
    is moved aside via :func:`quarantine_snapshot` and an empty report
    with :attr:`WarmStartReport.quarantined` set is returned, so the
    server boots cold instead of crash-looping on the same bad file.  A
    *missing* file still raises — that is a configuration error, not
    corruption.
    """
    if not isinstance(snapshot, dict):
        snapshot_path = os.fspath(snapshot)
        try:
            snapshot = load_snapshot(snapshot_path)
        except SnapshotError as exc:
            if not quarantine_corrupt or not os.path.exists(snapshot_path):
                raise
            report = WarmStartReport()
            report.quarantined = quarantine_snapshot(snapshot_path)
            report.errors.append(f"snapshot {snapshot_path!r}: {exc}")
            return report
    report = WarmStartReport()
    fresh: Dict[str, int] = {}
    for spec in snapshot["graphs"]:
        name = spec["name"]
        try:
            if name in service.catalog:
                available, registered = True, False
            elif register_missing:
                available, registered = _restore_graph(service, spec)
            else:
                available, registered = False, False
        except ReproError as exc:
            report.errors.append(f"graph {name!r}: {exc}")
            report.failed += 1
            continue
        if not available:
            report.graphs_stale += 1
            continue
        current_epoch = service.catalog.get(name).epoch
        if registered:
            report.graphs_registered += 1
        else:
            report.graphs_matched += 1
        if current_epoch != spec.get("epoch"):
            # The graph changed since the snapshot (or the snapshot itself
            # post-dates mutations a re-materialised graph knows nothing
            # about): none of its specs may warm state.
            report.graphs_stale += 1
            continue
        fresh[name] = current_epoch
        for level in spec.get("prewarm_levels", ()):
            try:
                prepare(service.catalog.get(name)).prepared_core(int(level))
            except ReproError:  # pragma: no cover - defensive
                pass

    for spec in snapshot["hot_requests"]:
        name = spec.get("graph")
        if name not in fresh or spec.get("epoch") != fresh[name]:
            report.skipped_stale += 1
            continue
        try:
            _replay_request(service, spec)
            report.replayed += 1
        except ReproError as exc:
            report.failed += 1
            report.errors.append(f"request spec {name!r} k={spec.get('k')}: {exc}")
    return report
