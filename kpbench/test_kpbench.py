"""The benchmark's own tests: ``python -m pytest kpbench -q`` from the repository root.

Every workload runs here at a toy size (``--tiny``) through the same command
line the contract names, and the output is checked against BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _session_processes(session: int):
    """Pids of live processes whose session id is ``session``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            found.append(int(entry))
    return found


def _bench(*args, cwd=ROOT):
    """Run the benchmark command; return the process and its last output line."""
    process = subprocess.run(
        BENCHMARK["command"] + list(args), cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )
    lines = process.stdout.strip().splitlines()
    return process, (lines[-1] if lines else "")


@pytest.fixture(scope="module")
def outputs():
    """Last output line of every workload at toy size, traced and not."""
    found = {}
    for workload in BENCHMARK["workloads"]:
        for trace in (0, 1):
            command = BENCHMARK["command"] + [
                "--workload", workload["name"], "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny",
            ]
            process = subprocess.Popen(
                command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, start_new_session=True,
            )
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, stderr
            assert _session_processes(process.pid) == [], "a process outlived the run"
            found[workload["name"], trace] = json.loads(stdout.strip().splitlines()[-1])
    return found


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["kpbench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    workloads = BENCHMARK["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    names = [w["name"] for w in workloads]
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        names.append(metric["name"])
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == setup[0]["bound"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_declared_metric(outputs, trace):
    declared = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if trace else "end_to_end"]
    }
    for workload in BENCHMARK["workloads"]:
        line = outputs[workload["name"], trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        assert line["failed"] == 0
        assert set(line["metrics"]) == set(declared), workload["name"]
        for name, metric in line["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == declared[name], name
            assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
            if not trace:
                assert metric["value"] > 0, (workload["name"], name)
        if not trace:
            assert line["metrics"]["ok_ratio"]["value"] == 1.0


def test_traced_search_layers_reconcile_with_traced_enum_time(outputs):
    for workload in run.WORKLOADS:
        metrics = {k: v["value"] for k, v in outputs[workload, 1]["metrics"].items()}
        layers = ("seeds.build_s", "subtasks.gen_s", "branch.self_s", "materialize.s")
        assert all(metrics[name] >= 0 for name in layers)
        assert metrics["engine.self_s"] >= 0
        total = sum(metrics[name] for name in layers) + metrics["engine.self_s"]
        assert total == pytest.approx(metrics["trace.enum_s"], rel=1e-9)


def test_serving_sample_counts_do_not_depend_on_the_seed(outputs):
    _process, last = _bench(
        "--workload", "serve-mixed", "--seed", "6", "--seconds", "1", "--trace", "1",
        "--tiny",
    )
    counts = []
    for line in (outputs["serve-mixed", 1], json.loads(last)):
        metrics = line["metrics"]
        counts.append((metrics["http.hit_samples"], metrics["http.miss_samples"]))
    assert counts[0] == counts[1]


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "kpbench", ignore=shutil.ignore_patterns("__pycache__"))
    process, _last = _bench(
        "--workload", "mine-enwiki-k2q8", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert process.returncode != 0
    assert '"correct"' not in process.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_no_process_or_thread_survives_a_run_in_process(workload):
    # Traced runs start the most: worker pools, servers and client threads.
    result = run.run_workload(workload, seed=7, seconds=0.1, traced=True, tiny=True)
    assert result.failed == 0
    assert multiprocessing.active_children() == []
    assert report.live_foreign_threads() == []
    # Only the shared-memory resource tracker may remain; stopping it leaves
    # nothing behind.
    assert report.stop_children() == []
    assert report.child_pids() == []


def test_default_seed_reproduces_the_registry_graph():
    from repro.datasets import load_dataset

    family = inputs.ENWIKI
    first = family.generator_seeds()[0]
    built = family.instance(first, inputs.DEFAULT_SEED).graph
    registry = load_dataset("enwiki-2021")
    assert sorted(built.edges()) == sorted(registry.edges())
    assert built.num_vertices == registry.num_vertices


def test_recorded_reference_matches_the_fp_baseline_and_verifies():
    from repro import EnumerationRequest, KPlexEngine
    from repro.analysis.verification import verify_results

    family = inputs.ENWIKI
    graph_seed = family.generator_seeds()[0]
    graph = family.build(graph_seed)
    engine = KPlexEngine()
    answer = engine.solve(EnumerationRequest(graph=graph, k=family.k, q=family.q, solver="fp"))
    digest = inputs.result_digest(inputs.plex_labels(answer.kplexes))
    assert digest == inputs.recorded_reference(family, graph_seed)
    assert verify_results(graph, answer.kplexes, family.k, family.q).ok
    recorded = inputs.load_references()
    for seed in family.generator_seeds():
        assert inputs.reference_key(family, seed) in recorded


def test_a_relabelled_answer_maps_back_to_the_generated_graphs_answer():
    from repro import EnumerationRequest, KPlexEngine

    family = inputs.family_for(inputs.ENWIKI, tiny=True)
    graph_seed = family.generator_seeds()[0]
    engine = KPlexEngine()

    def answer(graph):
        request = EnumerationRequest(graph=graph, k=family.k, q=family.q)
        return inputs.plex_labels(engine.solve(request).kplexes)

    generated = family.build(graph_seed)
    relabelled = family.instance(graph_seed, 3)
    assert sorted(relabelled.graph.edges()) != sorted(generated.edges())
    rows = [relabelled.original_labels(labels) for labels in answer(relabelled.graph)]
    assert rows
    assert inputs.result_digest(rows) == inputs.result_digest(answer(generated))
