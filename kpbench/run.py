"""Repository benchmark: ``python3 kpbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root.  The program is imported from ``src/`` next to
this directory; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md beside this file).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A run that has not finished by then stops, tears down and reports nothing.
HARD_LIMIT_S = 160

WORKLOADS = (
    "mine-enwiki-k2q8",
    "serve-mixed",
)


class RunTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise RunTimeout(f"run exceeded {HARD_LIMIT_S}s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink every input to a toy size (the benchmark's own tests)",
    )
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool):
    """Run one workload in this process and return its :class:`RunResult`."""
    from inputs import ENWIKI
    from mine import run_mining
    from report import reset_host_speed
    from serve import run_serving

    reset_host_speed()
    if name == "serve-mixed":
        return run_serving(seed, seconds, traced, tiny)
    return run_mining(ENWIKI, seed, seconds, traced, tiny)


def print_layer_table(result) -> None:
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<{width}}  {value:>14.6f} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"kpbench: the program's source is missing ({source})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from report import (
        REFERENCE_PROBE_S,
        host_probe_seconds,
        live_foreign_threads,
        stop_children,
    )

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)
    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
    except RunTimeout as exc:
        print(f"kpbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        leaked = stop_children()
    threads = live_foreign_threads()
    if leaked:
        print(f"kpbench: child processes left running: {leaked}", file=sys.stderr)
    if threads:
        print(f"kpbench: threads left running: {threads}", file=sys.stderr)
    print(
        f"kpbench: host probe median {1000 * host_probe_seconds():.3f} ms "
        f"(reference {1000 * REFERENCE_PROBE_S:.3f} ms)",
        file=sys.stderr,
    )
    if args.trace:
        print(f"per-layer metrics, {args.workload}, seed {args.seed}:")
        print_layer_table(result)
    line = result.as_line(correct=not leaked and not threads)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
