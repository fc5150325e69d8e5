"""Command-line interface.

``kplex-enum`` exposes the main capabilities of the library without writing
any Python; every mining command is routed through the
:class:`repro.api.KPlexEngine` facade:

* ``kplex-enum enumerate GRAPH -k 2 -q 10`` — enumerate maximal k-plexes of
  an edge-list / DIMACS / METIS file and print (or save) the results;
* ``kplex-enum query GRAPH V... -k 2 -q 10`` — community search anchored at
  the given query vertices;
* ``kplex-enum solvers`` — list the registered solver backends;
* ``kplex-enum datasets`` — list the bundled surrogate datasets (Table 2);
* ``kplex-enum experiment table3`` — run one of the paper's experiments and
  print the reproduced table or figure series;
* ``kplex-enum serve WORKLOAD.jsonl`` — replay a JSONL request workload
  through the caching :class:`repro.service.KPlexService` (graph catalog,
  worker pool, cross-request result cache) and emit JSONL responses plus a
  metrics snapshot;
* ``kplex-enum serve-http`` — run the HTTP/JSON front-end
  (:mod:`repro.server`): ``POST /v1/solve``, the async ``/v1/jobs``
  lifecycle, graph registration, metrics (JSON or Prometheus), warm-state
  snapshots and graceful SIGTERM drain;
* ``kplex-enum serve-cluster`` — run N supervised ``serve-http`` replicas
  behind a consistent-hash router (:mod:`repro.cluster`): sharded solves
  with ring-order failover, fanned-out graph registration, merged cluster
  metrics, and cross-replica cache warming;
* ``kplex-enum jobs submit|status|list|cancel|stream`` — drive the async
  job API of a running server from the shell (``stream`` prints the
  chunked NDJSON result stream line by line as the enumeration runs).

Batch and HTTP modes share one warm-state snapshot format
(:mod:`repro.server.persistence`): a snapshot written by either can warm
the other via ``--snapshot`` / ``--warm-start``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Optional, Sequence

from .analysis.export import write_results
from .analysis.reporting import render_series, render_table
from .api import EnumerationRequest, KPlexEngine, solver_names, solver_table
from .core.config import NAMED_VARIANTS
from .datasets import all_datasets, load_dataset
from .errors import GraphError, ReproError
from .experiments import figures as figure_drivers
from .experiments import tables as table_drivers
from .graph.io import load_graph

_EXPERIMENTS = {
    "table2": lambda scale: render_table(table_drivers.table2_datasets(scale), title="Table 2"),
    "table3": lambda scale: render_table(table_drivers.table3_sequential(scale), title="Table 3"),
    "table4": lambda scale: render_table(table_drivers.table4_parallel(scale), title="Table 4"),
    "table5": lambda scale: render_table(
        table_drivers.table5_upper_bound_ablation(scale), title="Table 5"
    ),
    "table6": lambda scale: render_table(
        table_drivers.table6_pruning_ablation(scale), title="Table 6"
    ),
    "table7": lambda scale: render_table(table_drivers.table7_memory(scale), title="Table 7"),
    "figure7": lambda scale: "\n\n".join(
        render_series(series, x_label="q", title=f"Figure 7 — {name}")
        for name, series in figure_drivers.figure7_vary_q(scale).items()
    ),
    "figure8": lambda scale: render_series(
        figure_drivers.figure8_speedup(scale), x_label="workers", title="Figure 8"
    ),
    "figure9": lambda scale: "\n\n".join(
        render_series(series, x_label="q", title=f"Figure 9 — {name}")
        for name, series in figure_drivers.figure9_basic_vs_ours(scale).items()
    ),
    "figure13": lambda scale: render_series(
        figure_drivers.figure13_timeout(scale), x_label="timeout", title="Figure 13"
    ),
}


def _add_mining_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by every command that dispatches an EnumerationRequest."""
    parser.add_argument("-k", type=int, required=True, help="k-plex parameter")
    parser.add_argument("-q", type=int, required=True, help="minimum k-plex size")
    parser.add_argument(
        "--solver",
        default="ours",
        choices=sorted(solver_names()),
        help="solver backend from the registry (default: ours)",
    )
    parser.add_argument(
        "--variant",
        default=None,
        choices=sorted(NAMED_VARIANTS),
        help="algorithm configuration variant for configurable solvers",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop the run after this wall-clock budget",
    )
    parser.add_argument(
        "--max-results",
        type=int,
        default=None,
        metavar="N",
        help="stop after N results",
    )
    parser.add_argument(
        "--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"]
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kplex-enum",
        description="Enumerate large maximal k-plexes (EDBT 2025 reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    enumerate_parser = subparsers.add_parser(
        "enumerate", help="enumerate maximal k-plexes of a graph file or bundled dataset"
    )
    enumerate_parser.add_argument("graph", help="path to a graph file, or dataset:<name>")
    _add_mining_arguments(enumerate_parser)
    enumerate_parser.add_argument("--json", action="store_true", help="print results as JSON")
    enumerate_parser.add_argument(
        "--limit", type=int, default=20, help="maximum number of k-plexes to print (0 = all)"
    )
    enumerate_parser.add_argument("--stats", action="store_true", help="print search statistics")
    enumerate_parser.add_argument(
        "--output",
        default=None,
        help="write the results to a file (.txt, .csv or .jsonl chosen by extension)",
    )

    query_parser = subparsers.add_parser(
        "query", help="enumerate maximal k-plexes containing the given query vertices"
    )
    query_parser.add_argument("graph", help="path to a graph file, or dataset:<name>")
    query_parser.add_argument("vertices", nargs="+", help="query vertex labels")
    _add_mining_arguments(query_parser)

    subparsers.add_parser("solvers", help="list the registered solver backends")
    subparsers.add_parser("datasets", help="list the bundled surrogate datasets")

    experiment_parser = subparsers.add_parser(
        "experiment", help="reproduce one of the paper's tables or figures"
    )
    experiment_parser.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment_parser.add_argument(
        "--scale", default="quick", choices=["quick", "full"], help="workload scale"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="replay a JSONL workload through the caching enumeration service",
        description=(
            "Each input line is one request: "
            '{"graph": NAME, "k": K, "q": Q[, "solver": S, "variant": V, '
            '"timeout": SEC, "max_results": N, "query": [labels...]]}. '
            "Graphs are resolved against the service catalog: use --register "
            "to name files or datasets up front; 'dataset:<name>' specs are "
            "auto-registered on first use. Responses are emitted as JSONL in "
            "request order, followed by a service-metrics snapshot."
        ),
    )
    serve_parser.add_argument(
        "workload", help="JSONL request file ('-' reads standard input)"
    )
    serve_parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="register a catalog graph (SPEC: file path or dataset:<name>); repeatable",
    )
    serve_parser.add_argument(
        "--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"],
        help="file format for --register file specs",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4, help="service worker threads (default: 4)"
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=32,
        help="admitted requests allowed to wait beyond the workers (default: 32)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-request wall-clock budget",
    )
    serve_parser.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache entry budget (0 disables the cache)",
    )
    serve_parser.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        help="result-cache byte budget (default: 64 MiB)",
    )
    serve_parser.add_argument(
        "--core-budget", type=int, default=None, metavar="LEVELS",
        help="per-graph cap on retained prepared core(level) subgraphs",
    )
    serve_parser.add_argument(
        "--no-results", action="store_true",
        help="omit the k-plex vertex lists from the response lines",
    )
    serve_parser.add_argument(
        "--output", default=None, help="write response lines to a file instead of stdout"
    )
    serve_parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="also write the final metrics snapshot to FILE as JSON",
    )
    serve_parser.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="write a warm-state snapshot to FILE after the workload",
    )
    serve_parser.add_argument(
        "--snapshot-max-specs", type=int, default=256, metavar="N",
        help="hot request specs kept in the snapshot, best-N by hit count "
             "with age decay (0 keeps all; default: 256)",
    )
    serve_parser.add_argument(
        "--warm-start", action="store_true",
        help="replay the --snapshot file (if present) before the workload",
    )

    http_parser = subparsers.add_parser(
        "serve-http",
        help="run the HTTP/JSON enumeration server",
        description=(
            "Serve POST /v1/solve, POST/GET /v1/graphs, GET /v1/metrics "
            "(add ?format=prometheus) and GET /healthz over a caching "
            "KPlexService until SIGTERM/SIGINT, then drain gracefully. "
            "--snapshot enables warm-state persistence (periodic with "
            "--snapshot-interval, always at drain and via POST /v1/snapshot); "
            "--warm-start replays the snapshot on boot so the restarted "
            "server does not begin cold."
        ),
    )
    http_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    http_parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port; 0 picks an ephemeral port (default: 8080)",
    )
    http_parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="register a catalog graph at boot (SPEC: file path or dataset:<name>)",
    )
    http_parser.add_argument(
        "--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"],
        help="file format for --register file specs",
    )
    http_parser.add_argument(
        "--workers", type=int, default=4,
        help="service worker threads, shared by solves and jobs (default: 4)",
    )
    http_parser.add_argument(
        "--queue-depth", type=int, default=32,
        help="admitted solves and jobs allowed to wait beyond the workers "
             "(default: 32)",
    )
    http_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-request wall-clock budget",
    )
    http_parser.add_argument(
        "--request-deadline", type=float, default=None, metavar="SECONDS",
        help="server-side hard deadline per request (answers 504 beyond it)",
    )
    http_parser.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache entry budget (0 disables the cache)",
    )
    http_parser.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        help="result-cache byte budget (default: 64 MiB)",
    )
    http_parser.add_argument(
        "--core-budget", type=int, default=None, metavar="LEVELS",
        help="per-graph cap on retained prepared core(level) subgraphs",
    )
    http_parser.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="warm-state snapshot file (written at drain and on POST /v1/snapshot)",
    )
    http_parser.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS",
        help="also write the snapshot periodically every SECONDS",
    )
    http_parser.add_argument(
        "--snapshot-max-specs", type=int, default=256, metavar="N",
        help="hot request specs kept per snapshot, best-N by hit count "
             "with age decay (0 keeps all; default: 256)",
    )
    http_parser.add_argument(
        "--replica-id", default=None, metavar="ID",
        help="stamp every response with X-KPlex-Replica: ID (set by "
             "serve-cluster so clients can see which replica answered)",
    )
    http_parser.add_argument(
        "--warm-start", action="store_true",
        help="replay the --snapshot file (if present) before accepting requests",
    )
    http_parser.add_argument(
        "--access-log", action="store_true",
        help="print one access-log line per request to stderr",
    )
    http_parser.add_argument(
        "--access-log-format", default="plain", choices=["plain", "json"],
        help="access-log line shape: classic plain text or one JSON object "
             "per request (default: plain)",
    )
    http_parser.add_argument(
        "--slow-request-threshold", type=float, default=None, metavar="SECONDS",
        help="emit a slow_request WARNING event carrying the request's full "
             "span tree when it runs longer than SECONDS",
    )
    http_parser.add_argument(
        "--trace-capacity", type=int, default=256, metavar="N",
        help="completed request traces kept for GET /v1/trace (default: 256)",
    )
    http_parser.add_argument(
        "--job-buffer", type=int, default=4096,
        help="per-job result-buffer bound; slow stream consumers pause the "
             "producer, unconsumed jobs drop oldest-first (default: 4096)",
    )
    http_parser.add_argument(
        "--job-ttl", type=float, default=300.0,
        help="seconds a finished job's results stay fetchable (default: 300)",
    )
    http_parser.add_argument(
        "--drain-jobs", default="wait", choices=["wait", "cancel"],
        help="on SIGTERM, let live jobs finish ('wait', default) or stop "
             "them cooperatively ('cancel')",
    )
    http_parser.add_argument(
        "--breaker-threshold", type=int, default=5, metavar="N",
        help="consecutive backend failures that open the circuit breaker "
             "(0 disables the breaker; default: 5)",
    )
    http_parser.add_argument(
        "--breaker-cooldown", type=float, default=5.0, metavar="SECONDS",
        help="seconds the open breaker sheds load before probing again "
             "(default: 5)",
    )
    http_parser.add_argument(
        "--fault", default=None, metavar="SPEC",
        help="arm the fault-injection harness (testing only), e.g. "
             "'worker_kill:1' or 'seed_delay:0.1,snapshot_torn:1'; "
             "equivalent to setting REPRO_FAULT",
    )

    cluster_parser = subparsers.add_parser(
        "serve-cluster",
        help="run a sharded multi-replica cluster behind one router",
        description=(
            "Spawn N supervised serve-http replicas on ephemeral loopback "
            "ports and front them with a consistent-hash router: solves are "
            "routed to the replica owning the request's graph (failing over "
            "in ring order), graph registration fans out to every replica, "
            "GET /v1/metrics merges every replica's counters and histograms, "
            "and a dead replica is restarted with its graph catalog replayed. "
            "SIGTERM drains the router, then every replica, and exits 0."
        ),
    )
    cluster_parser.add_argument(
        "--host", default="127.0.0.1", help="router bind address (default: 127.0.0.1)"
    )
    cluster_parser.add_argument(
        "--port", type=int, default=8080,
        help="router TCP port; 0 picks an ephemeral port (default: 8080)",
    )
    cluster_parser.add_argument(
        "--replicas", type=int, default=2, metavar="N",
        help="serve-http replica subprocesses to run (default: 2)",
    )
    cluster_parser.add_argument(
        "--virtual-nodes", type=int, default=64, metavar="N",
        help="virtual nodes per replica on the hash ring (default: 64)",
    )
    cluster_parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="register a catalog graph on every replica at boot "
             "(SPEC: file path or dataset:<name>); repeatable",
    )
    cluster_parser.add_argument(
        "--format", default="auto", choices=["auto", "edgelist", "dimacs", "metis"],
        help="file format for --register file specs",
    )
    cluster_parser.add_argument(
        "--workers", type=int, default=4,
        help="service worker threads per replica (default: 4)",
    )
    cluster_parser.add_argument(
        "--queue-depth", type=int, default=32,
        help="per-replica admitted requests allowed to wait beyond the "
             "workers (default: 32)",
    )
    cluster_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-request wall-clock budget on each replica",
    )
    cluster_parser.add_argument(
        "--request-deadline", type=float, default=None, metavar="SECONDS",
        help="per-replica hard deadline per request (answers 504 beyond it)",
    )
    cluster_parser.add_argument(
        "--cache-entries", type=int, default=256,
        help="per-replica result-cache entry budget (0 disables the cache)",
    )
    cluster_parser.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        help="per-replica result-cache byte budget (default: 64 MiB)",
    )
    cluster_parser.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="per-replica warm-state snapshots (DIR/<replica>.json, written "
             "at drain, replayed on restart so a respawned replica boots warm)",
    )
    cluster_parser.add_argument(
        "--snapshot-interval", type=float, default=None, metavar="SECONDS",
        help="also write replica snapshots periodically every SECONDS",
    )
    cluster_parser.add_argument(
        "--snapshot-max-specs", type=int, default=256, metavar="N",
        help="hot request specs kept per replica snapshot, best-N by hit "
             "count with age decay (0 keeps all; default: 256)",
    )
    cluster_parser.add_argument(
        "--no-peer-warm", action="store_true",
        help="disable cross-replica cache warming (by default a cache miss "
             "served by one replica is pre-executed on its ring backup)",
    )
    cluster_parser.add_argument(
        "--max-restarts", type=int, default=None, metavar="N",
        help="total supervised restarts allowed per replica "
             "(default: unbounded)",
    )
    cluster_parser.add_argument(
        "--boot-timeout", type=float, default=30.0, metavar="SECONDS",
        help="seconds to wait for each replica's boot line and readiness "
             "(default: 30)",
    )
    cluster_parser.add_argument(
        "--proxy-timeout", type=float, default=60.0, metavar="SECONDS",
        help="router-to-replica socket timeout per proxied call (default: 60)",
    )
    cluster_parser.add_argument(
        "--access-log", action="store_true",
        help="print one router access-log line per request to stderr",
    )

    jobs_parser = subparsers.add_parser(
        "jobs",
        help="drive the async job API of a running kplex-enum serve-http server",
    )
    jobs_sub = jobs_parser.add_subparsers(dest="jobs_command", required=True)

    def _add_url(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url", default="http://127.0.0.1:8080",
            help="server base URL (default: http://127.0.0.1:8080)",
        )
        sub.add_argument(
            "--retries", type=int, default=0, metavar="N",
            help="retry overloaded (429/503) responses and dropped "
                 "connections up to N times with backoff, honouring the "
                 "server's Retry-After; streams resume from the last "
                 "received index (default: 0 = fail fast)",
        )

    submit_parser = jobs_sub.add_parser(
        "submit", help="POST /v1/jobs — submit an async enumeration"
    )
    _add_url(submit_parser)
    submit_parser.add_argument("graph", help="catalog graph name on the server")
    submit_parser.add_argument("-k", type=int, required=True, help="k-plex parameter")
    submit_parser.add_argument("-q", type=int, required=True, help="minimum k-plex size")
    submit_parser.add_argument("--solver", default=None, help="solver backend name")
    submit_parser.add_argument("--variant", default=None, help="algorithm variant")
    submit_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="solver wall-clock budget (enforced server-side)",
    )
    submit_parser.add_argument(
        "--max-results", type=int, default=None, metavar="N", help="stop after N results"
    )
    submit_parser.add_argument(
        "--result-buffer", type=int, default=None, metavar="N",
        help="override the server's per-job result-buffer bound",
    )
    submit_parser.add_argument(
        "--ttl", type=float, default=None, metavar="SECONDS",
        help="override the server's retention of this job's results",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print the final record",
    )

    status_parser = jobs_sub.add_parser(
        "status", help="GET /v1/jobs/<id> — print one job record as JSON"
    )
    _add_url(status_parser)
    status_parser.add_argument("job_id", help="job id returned by submit")

    list_parser = jobs_sub.add_parser(
        "list", help="GET /v1/jobs — list job records"
    )
    _add_url(list_parser)
    list_parser.add_argument(
        "--state", action="append", default=[],
        choices=["pending", "running", "succeeded", "failed", "cancelled", "expired"],
        help="only list jobs in this state; repeatable",
    )
    list_parser.add_argument(
        "--json", action="store_true", help="print full records as JSON"
    )

    cancel_parser = jobs_sub.add_parser(
        "cancel", help="DELETE /v1/jobs/<id> — cancel a job cooperatively"
    )
    _add_url(cancel_parser)
    cancel_parser.add_argument("job_id", help="job id returned by submit")

    stream_parser = jobs_sub.add_parser(
        "stream",
        help="GET /v1/jobs/<id>/results?stream=1 — print NDJSON results live",
    )
    _add_url(stream_parser)
    stream_parser.add_argument("job_id", help="job id returned by submit")
    stream_parser.add_argument(
        "--start", type=int, default=0, help="first result index to read (default: 0)"
    )
    stream_parser.add_argument(
        "--heartbeats", action="store_true",
        help="also print the server's keep-alive heartbeat lines",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="fetch request traces from a running kplex-enum serve-http server",
        description=(
            "Without a request id, list the traces the server still holds "
            "(GET /v1/trace). With one, pretty-print that request's span "
            "tree (GET /v1/trace/<id>) — pass the X-Request-Id you sent, "
            "or the one the server echoed back."
        ),
    )
    trace_parser.add_argument(
        "request_id", nargs="?", default=None,
        help="request id to fetch; omit to list recent traces",
    )
    trace_parser.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="server base URL (default: http://127.0.0.1:8080)",
    )
    trace_parser.add_argument(
        "--min-ms", type=float, default=None, metavar="MS",
        help="when listing, only traces at least MS milliseconds long",
    )
    trace_parser.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="when listing, show at most N traces (default: 20)",
    )
    trace_parser.add_argument(
        "--json", action="store_true",
        help="print the raw JSON payload instead of the rendered tree",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the project's static-analysis checks",
        description=(
            "Run the repository's own AST checks (lock discipline, "
            "epoch-keyed cache keys, resource cleanup, solver determinism, "
            "exception hygiene) over the given paths. Exit 0 when clean "
            "modulo the committed baseline, 1 on new findings, 2 on usage "
            "errors."
        ),
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    return parser


def _load_input_graph(spec: str, fmt: str):
    if spec.startswith("dataset:"):
        return load_dataset(spec.split(":", 1)[1])
    return load_graph(spec, fmt=fmt)


def _request_from_args(args: argparse.Namespace, graph, **extra) -> EnumerationRequest:
    """Single construction point: all parameter validation happens here."""
    return EnumerationRequest(
        graph=graph,
        k=args.k,
        q=args.q,
        solver=args.solver,
        variant=args.variant,
        timeout_seconds=args.timeout,
        max_results=getattr(args, "max_results", None),
        **extra,
    )


def _command_enumerate(args: argparse.Namespace) -> int:
    graph = _load_input_graph(args.graph, args.format)
    engine = KPlexEngine()
    response = engine.solve(_request_from_args(args, graph))
    if args.json:
        print(json.dumps(response.as_dict(), indent=2, default=str))
    else:
        print(
            f"{response.count} maximal {args.k}-plexes with at least {args.q} vertices "
            f"(solver: {response.solver}, {response.termination})"
        )
        limit = args.limit if args.limit > 0 else response.count
        for plex in response.kplexes[:limit]:
            print(f"  size={plex.size}: {list(plex.labels)}")
        if response.count > limit:
            print(f"  ... ({response.count - limit} more, use --limit 0 to print all)")
    if args.stats:
        stats = response.statistics
        print(
            f"time: elapsed={response.elapsed_seconds:.4f}s "
            f"preprocess={stats.preprocess_seconds:.4f}s "
            f"search={stats.search_seconds:.4f}s"
        )
        print(stats)
    if args.output:
        fmt = write_results(response.kplexes, args.output)
        print(f"wrote {response.count} k-plexes to {args.output} ({fmt})")
    return 0


def _parse_query_labels(graph, labels):
    parsed = []
    for label in labels:
        try:
            parsed.append(graph.index_of(label))
        except GraphError:
            # CLI args arrive as strings; retry numeric labels as ints.
            try:
                parsed.append(graph.index_of(int(label)))
            except (ValueError, GraphError):
                raise GraphError(
                    f"unknown vertex label {label!r}"
                ) from None
    return parsed


def _command_query(args: argparse.Namespace) -> int:
    graph = _load_input_graph(args.graph, args.format)
    query = tuple(_parse_query_labels(graph, args.vertices))
    engine = KPlexEngine()
    response = engine.solve(_request_from_args(args, graph, query_vertices=query))
    print(
        f"{response.count} maximal {args.k}-plexes with at least {args.q} vertices "
        f"containing {args.vertices}"
    )
    for plex in response.kplexes:
        print(f"  size={plex.size}: {list(plex.labels)}")
    return 0


def _command_solvers(_args: argparse.Namespace) -> int:
    print(render_table(solver_table(), title="Registered solvers (repro.api)"))
    return 0


def _command_datasets(_args: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "category": spec.category,
            "paper_n": spec.paper_n,
            "paper_m": spec.paper_m,
            "description": spec.description,
        }
        for spec in all_datasets()
    ]
    print(render_table(rows, title="Bundled surrogate datasets (see DESIGN.md §5)"))
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    print(_EXPERIMENTS[args.name](args.scale))
    return 0


def _iter_workload_lines(path: str):
    if path == "-":
        yield from enumerate(sys.stdin, start=1)
        return
    with open(path, "r", encoding="utf-8") as handle:
        yield from enumerate(handle, start=1)


def _serve_request(service, spec: dict, fmt: str):
    """Build one EnumerationRequest from a workload JSON object."""
    from .errors import CatalogError

    if not isinstance(spec, dict):
        raise ReproError(f"workload lines must be JSON objects, got {type(spec).__name__}")
    unknown = set(spec) - {
        "graph", "k", "q", "solver", "variant", "timeout", "max_results", "query"
    }
    if unknown:
        raise ReproError(f"unknown workload keys {sorted(unknown)}")
    for required in ("graph", "k", "q"):
        if required not in spec:
            raise ReproError(f"workload line is missing the {required!r} key")
    name = spec["graph"]
    try:
        graph = service.catalog.get(name)
    except CatalogError:
        # dataset:<x> specs are self-describing; register lazily so simple
        # workloads need no --register flags at all.
        if isinstance(name, str) and name.startswith("dataset:"):
            service.catalog.register(name, name, fmt=fmt)
            graph = service.catalog.get(name)
        else:
            raise
    kwargs = {}
    if spec.get("solver") is not None:
        kwargs["solver"] = spec["solver"]
    if spec.get("variant") is not None:
        kwargs["variant"] = spec["variant"]
    if spec.get("timeout") is not None:
        kwargs["timeout_seconds"] = spec["timeout"]
    if spec.get("max_results") is not None:
        kwargs["max_results"] = spec["max_results"]
    if spec.get("query") is not None:
        kwargs["query_vertices"] = tuple(
            _parse_query_labels(graph, spec["query"])
        )
    return EnumerationRequest(graph=graph, k=spec["k"], q=spec["q"], **kwargs)


def _service_from_args(args: argparse.Namespace):
    """Build the KPlexService shared by the serve and serve-http commands."""
    from .service import KPlexService, ServiceConfig

    threshold = getattr(args, "breaker_threshold", 5)
    config = ServiceConfig(
        max_workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_timeout_seconds=args.timeout,
        result_cache_entries=args.cache_entries,
        result_cache_bytes=args.cache_bytes,
        prepared_core_budget=args.core_budget,
        breaker_failure_threshold=threshold if threshold > 0 else None,
        breaker_cooldown_seconds=getattr(args, "breaker_cooldown", 5.0),
    )
    service = KPlexService(config=config)
    for registration in args.register:
        name, separator, spec = registration.partition("=")
        if not separator or not name or not spec:
            service.close()
            raise ReproError(f"--register expects NAME=SPEC, got {registration!r}")
        service.catalog.register(name, spec, fmt=args.format)
    return service


def _maybe_warm_start(service, args: argparse.Namespace) -> None:
    """Replay the snapshot file when --warm-start asked for it and it exists."""
    import os

    if not getattr(args, "warm_start", False):
        return
    if not args.snapshot:
        raise ReproError("--warm-start requires --snapshot FILE")
    if not os.path.exists(args.snapshot):
        print(
            f"warm start: no snapshot at {args.snapshot} yet, starting cold",
            file=sys.stderr,
        )
        return
    from .server import warm_start

    # A torn snapshot (crash mid-write) must not crash-loop the boot: it is
    # quarantined as <file>.corrupt and the server starts cold.
    report = warm_start(service, args.snapshot, quarantine_corrupt=True)
    print(report.summary(), file=sys.stderr)
    for error in report.errors:
        print(f"warm start: {error}", file=sys.stderr)


def _command_serve(args: argparse.Namespace) -> int:
    with _service_from_args(args) as service:
        _maybe_warm_start(service, args)

        requests = []
        for line_number, raw in _iter_workload_lines(args.workload):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                spec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReproError(f"workload line {line_number}: invalid JSON ({exc})")
            requests.append((line_number, spec))

        out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        try:
            responses = service.solve_many(
                [_serve_request(service, spec, args.format) for _line, spec in requests]
            )
            for (line_number, spec), response in zip(requests, responses):
                payload = {"id": line_number, "graph": spec["graph"]}
                payload.update(response.as_dict(include_results=not args.no_results))
                out.write(json.dumps(payload, default=str) + "\n")
        finally:
            if out is not sys.stdout:
                out.close()

        if args.snapshot:
            from .server import save_snapshot

            snapshot = save_snapshot(
                service, args.snapshot,
                max_requests=args.snapshot_max_specs or None,
            )
            print(
                f"snapshot: {len(snapshot['hot_requests'])} hot requests over "
                f"{len(snapshot['graphs'])} graphs -> {args.snapshot}",
                file=sys.stderr,
            )
        metrics = service.metrics()
    summary = (
        f"served {len(requests)} requests: "
        f"{metrics['cache_hits']} hits, {metrics['cache_misses']} misses, "
        f"{metrics['coalesced']} coalesced, hit rate {metrics['hit_rate']:.2f}"
    )
    print(summary, file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
    return 0


def _command_serve_http(args: argparse.Namespace) -> int:
    from .server import serve_http

    if args.fault:
        from .resilience import fault_injector

        fault_injector().configure(args.fault)
        print(f"fault injection armed: {args.fault}", file=sys.stderr)
    service = _service_from_args(args)
    try:
        _maybe_warm_start(service, args)
    except ReproError:
        service.close()
        raise

    def ready(server) -> None:
        # The URL line is the machine-readable boot signal (supervisors and
        # the CI smoke test parse it to learn the ephemeral port).
        print(f"serving on {server.url}", flush=True)
        print(
            f"graphs={len(service.catalog)} workers={args.workers} "
            f"snapshot={args.snapshot or '-'}",
            file=sys.stderr,
        )

    # Operational WARNING events (breaker trips, pool recoveries, snapshot
    # quarantines, slow requests) always reach stderr as JSON lines; the
    # per-request access log below stays opt-in via --access-log.
    from .obs import configure_event_logging

    configure_event_logging(stream=sys.stderr, level=logging.WARNING)
    logger = (lambda line: print(line, file=sys.stderr)) if args.access_log else None
    from .jobs import JobManagerConfig

    serve_http(
        service,
        host=args.host,
        port=args.port,
        snapshot_path=args.snapshot,
        snapshot_interval=args.snapshot_interval,
        request_deadline=args.request_deadline,
        logger=logger,
        ready=ready,
        job_config=JobManagerConfig(
            result_buffer=args.job_buffer,
            ttl_seconds=args.job_ttl,
        ),
        drain_jobs=args.drain_jobs,
        trace_capacity=args.trace_capacity,
        access_log_format=args.access_log_format,
        slow_request_threshold=args.slow_request_threshold,
        replica_id=args.replica_id,
        snapshot_max_specs=args.snapshot_max_specs or None,
    )
    metrics = service.metrics()
    print(
        f"drained cleanly: {metrics['completed']} requests completed, "
        f"hit rate {metrics['hit_rate']:.2f}",
        file=sys.stderr,
    )
    return 0


def _command_serve_cluster(args: argparse.Namespace) -> int:
    import os

    from .cluster import replica_argv, serve_cluster
    from .obs import configure_event_logging

    configure_event_logging(stream=sys.stderr, level=logging.WARNING)

    base_args = []
    for spec in args.register:
        base_args += ["--register", spec]
    if args.format != "auto":
        base_args += ["--format", args.format]
    base_args += [
        "--workers", str(args.workers),
        "--queue-depth", str(args.queue_depth),
        "--cache-entries", str(args.cache_entries),
        "--cache-bytes", str(args.cache_bytes),
        "--snapshot-max-specs", str(args.snapshot_max_specs),
    ]
    if args.timeout is not None:
        base_args += ["--timeout", str(args.timeout)]
    if args.request_deadline is not None:
        base_args += ["--request-deadline", str(args.request_deadline)]
    if args.snapshot_dir:
        os.makedirs(args.snapshot_dir, exist_ok=True)

    def argv_factory(replica_id: str):
        extra = list(base_args)
        if args.snapshot_dir:
            extra += [
                "--snapshot", os.path.join(args.snapshot_dir, f"{replica_id}.json"),
                "--warm-start",
            ]
            if args.snapshot_interval is not None:
                extra += ["--snapshot-interval", str(args.snapshot_interval)]
        return replica_argv(replica_id, extra)

    logger = (lambda line: print(line, file=sys.stderr)) if args.access_log else None

    def ready(router) -> None:
        # Same machine-readable boot contract as serve-http: the URL line
        # on stdout is what supervisors and the CI smoke test parse.
        print(f"serving on {router.url}", flush=True)
        print(
            f"replicas={args.replicas} vnodes={args.virtual_nodes} "
            f"peer-warm={'off' if args.no_peer_warm else 'on'} "
            f"snapshot-dir={args.snapshot_dir or '-'}",
            file=sys.stderr,
        )
        for entry in router.replica_set.describe():
            print(
                f"replica {entry['id']}: {entry['url']} pid={entry['pid']}",
                file=sys.stderr,
            )

    router = serve_cluster(
        replicas=args.replicas,
        host=args.host,
        port=args.port,
        argv_factory=argv_factory,
        vnodes=args.virtual_nodes,
        peer_warm=not args.no_peer_warm,
        proxy_timeout=args.proxy_timeout,
        boot_timeout=args.boot_timeout,
        max_restarts=args.max_restarts,
        logger=logger,
        ready=ready,
    )
    print(
        f"cluster drained cleanly: {router.replica_set.restarts_total} "
        f"replica restarts over the run",
        file=sys.stderr,
    )
    return 0


def _command_jobs(args: argparse.Namespace) -> int:
    from .resilience import RetryPolicy
    from .server import ServiceClient

    retry = RetryPolicy(max_attempts=args.retries + 1) if args.retries > 0 else None
    client = ServiceClient(args.url, retry=retry)
    if args.jobs_command == "submit":
        record = client.submit_job(
            args.graph,
            k=args.k,
            q=args.q,
            solver=args.solver,
            variant=args.variant,
            timeout=args.timeout,
            max_results=args.max_results,
            result_buffer=args.result_buffer,
            ttl=args.ttl,
        )
        if args.wait:
            record = client.wait_job(record["id"])
        print(json.dumps(record, indent=2, default=str))
    elif args.jobs_command == "status":
        print(json.dumps(client.job(args.job_id), indent=2, default=str))
    elif args.jobs_command == "list":
        records = client.jobs(states=args.state or None)
        if args.json:
            print(json.dumps(records, indent=2, default=str))
        else:
            rows = [
                {
                    "id": record["id"],
                    "state": record["state"],
                    "k": record["spec"].get("k"),
                    "q": record["spec"].get("q"),
                    "results": record["progress"]["results"],
                    "elapsed": record.get("elapsed_seconds"),
                }
                for record in records
            ]
            print(render_table(rows, title=f"Jobs on {args.url}"))
    elif args.jobs_command == "cancel":
        print(json.dumps(client.cancel_job(args.job_id), indent=2, default=str))
    else:  # stream
        for record in client.iter_job_results(
            args.job_id, start=args.start, include_heartbeats=args.heartbeats
        ):
            print(json.dumps(record, default=str), flush=True)
    return 0


def _render_span_tree(nodes, depth: int = 0) -> None:
    for node in nodes:
        duration = node.get("duration_ms")
        timing = f"{duration:.3f}ms" if duration is not None else "open"
        attrs = node.get("attributes") or {}
        detail = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        status = node.get("status", "ok")
        line = f"{'  ' * depth}{node['name']}  {timing}"
        if status != "ok":
            line += f"  [{status}]"
        if detail:
            line += f"  {detail}"
        print(line)
        _render_span_tree(node.get("children") or [], depth + 1)


def _command_trace(args: argparse.Namespace) -> int:
    from .server import ServiceClient

    client = ServiceClient(args.url)
    if args.request_id is None:
        payload = client.traces(min_ms=args.min_ms, limit=args.limit)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True, default=str))
            return 0
        rows = payload.get("traces") or []
        if not rows:
            print("no traces recorded")
            return 0
        for row in rows:
            duration = row.get("duration_ms")
            timing = f"{duration:10.3f}ms" if duration is not None else "         -  "
            print(
                f"{row['request_id']}  {timing}  "
                f"spans={row.get('spans', 0)} root={row.get('root') or '-'}"
            )
        return 0
    payload = client.trace(args.request_id)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    header = f"trace {payload['request_id']}"
    if payload.get("duration_ms") is not None:
        header += f"  {payload['duration_ms']}ms"
    if payload.get("dropped_spans"):
        header += f"  (+{payload['dropped_spans']} spans dropped)"
    print(header)
    _render_span_tree(payload.get("tree") or [])
    return 0


def _command_lint(args) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "enumerate": _command_enumerate,
    "query": _command_query,
    "solvers": _command_solvers,
    "datasets": _command_datasets,
    "experiment": _command_experiment,
    "serve": _command_serve,
    "serve-http": _command_serve_http,
    "serve-cluster": _command_serve_cluster,
    "jobs": _command_jobs,
    "trace": _command_trace,
    "lint": _command_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``kplex-enum`` console script."""
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
