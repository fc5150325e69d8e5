"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph import generators
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(generators.ring_of_cliques(2, 6), path)
    return path


def test_enumerate_from_file(graph_file, capsys):
    exit_code = main(["enumerate", str(graph_file), "-k", "2", "-q", "5"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "maximal 2-plexes" in captured.out
    assert "size=" in captured.out


def test_enumerate_json_output(graph_file, capsys):
    exit_code = main(["enumerate", str(graph_file), "-k", "1", "-q", "6", "--json"])
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.out)
    assert payload["count"] == 2
    assert payload["k"] == 1
    assert all(len(plex) == 6 for plex in payload["kplexes"])


def test_enumerate_with_variant_stats_and_limit(graph_file, capsys):
    exit_code = main(
        [
            "enumerate",
            str(graph_file),
            "-k",
            "2",
            "-q",
            "5",
            "--variant",
            "basic",
            "--stats",
            "--limit",
            "1",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "SearchStatistics" in captured.out


def test_enumerate_bundled_dataset(capsys):
    exit_code = main(["enumerate", "dataset:jazz", "-k", "2", "-q", "9", "--limit", "2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "maximal 2-plexes" in captured.out


def test_datasets_listing(capsys):
    exit_code = main(["datasets"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "jazz" in captured.out
    assert "webbase-2001" in captured.out


def test_experiment_table2(capsys):
    exit_code = main(["experiment", "table2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "Table 2" in captured.out
    assert "surrogate_n" in captured.out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["experiment", "table99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_variant_rejected(graph_file):
    with pytest.raises(SystemExit):
        main(["enumerate", str(graph_file), "-k", "2", "-q", "5", "--variant", "bogus"])


def test_enumerate_writes_output_file(graph_file, tmp_path, capsys):
    output = tmp_path / "results.csv"
    exit_code = main(
        ["enumerate", str(graph_file), "-k", "2", "-q", "5", "--output", str(output)]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert output.exists()
    assert "wrote" in captured.out


def test_query_command(graph_file, capsys):
    exit_code = main(["query", str(graph_file), "0", "-k", "2", "-q", "5"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "containing" in captured.out
    assert "size=" in captured.out


def test_query_unknown_label_is_clean_error(graph_file, capsys):
    """An unknown vertex label exits 1 with a message, not a traceback.

    Regression: the int-fallback in ``_parse_query_labels`` used to let a
    raw ``ValueError`` escape ``main`` for non-numeric unknown labels.
    """
    exit_code = main(["query", str(graph_file), "nope", "-k", "2", "-q", "5"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "error:" in captured.err
    assert "nope" in captured.err


def test_query_numeric_string_label_falls_back_to_int(graph_file, capsys):
    exit_code = main(["query", str(graph_file), "0", "-k", "1", "-q", "6"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "containing" in captured.out


def test_lint_subcommand_runs_clean_against_baseline(capsys):
    exit_code = main(["lint", "src", "tests"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "0 new findings" in captured.out


def test_solvers_listing(capsys):
    exit_code = main(["solvers"])
    captured = capsys.readouterr()
    assert exit_code == 0
    for solver in ("ours", "fp", "listplex", "bron-kerbosch", "brute-force", "parallel"):
        assert solver in captured.out


def test_enumerate_with_solver_flag(graph_file, capsys):
    exit_code = main(
        ["enumerate", str(graph_file), "-k", "2", "-q", "5", "--solver", "bron-kerbosch"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "solver: bron-kerbosch" in captured.out


def test_enumerate_json_reports_termination(graph_file, capsys):
    exit_code = main(
        ["enumerate", str(graph_file), "-k", "2", "-q", "5", "--json", "--max-results", "1"]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payload = json.loads(captured.out)
    assert payload["count"] == 1
    assert payload["termination"] == "result-limit"
    assert payload["solver"] == "ours"


def test_parameter_errors_are_reported_not_raised(graph_file, capsys):
    # q < 2k - 1 for the decomposed solver: a clean error message, exit code 1.
    exit_code = main(["enumerate", str(graph_file), "-k", "3", "-q", "2"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "error:" in captured.err


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "workload.jsonl"
    lines = [
        {"graph": "ring", "k": 2, "q": 5},
        {"graph": "ring", "k": 2, "q": 5},
        {"graph": "ring", "k": 2, "q": 5, "max_results": 1},
        {"graph": "dataset:jazz", "k": 2, "q": 9},
    ]
    path.write_text(
        "# comment lines and blanks are skipped\n\n"
        + "".join(json.dumps(line) + "\n" for line in lines)
    )
    return path


def test_serve_replays_workload(graph_file, workload_file, tmp_path, capsys):
    metrics_file = tmp_path / "metrics.json"
    exit_code = main(
        [
            "serve",
            str(workload_file),
            "--register",
            f"ring={graph_file}",
            "--no-results",
            "--metrics",
            str(metrics_file),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    payloads = [json.loads(line) for line in captured.out.splitlines()]
    assert [p["id"] for p in payloads] == [3, 4, 5, 6]  # workload line numbers
    assert payloads[0]["count"] == payloads[1]["count"]
    assert payloads[0]["graph"] == "ring"
    assert payloads[2]["termination"] == "result-limit"
    assert payloads[2]["count"] == 1
    assert payloads[3]["graph"] == "dataset:jazz"  # auto-registered
    assert "kplexes" not in payloads[0]
    assert "served 4 requests" in captured.err
    metrics = json.loads(metrics_file.read_text())
    assert metrics["completed"] == 4
    # The identical requests 1 and 2 were served once: hit or coalesced.
    assert metrics["cache_hits"] + metrics["coalesced"] >= 1


def test_serve_results_included_by_default(graph_file, workload_file, capsys):
    exit_code = main(["serve", str(workload_file), "--register", f"ring={graph_file}"])
    captured = capsys.readouterr()
    assert exit_code == 0
    first = json.loads(captured.out.splitlines()[0])
    assert first["kplexes"] and all(len(p) >= 5 for p in first["kplexes"])


def test_serve_writes_output_file(graph_file, workload_file, tmp_path, capsys):
    out = tmp_path / "responses.jsonl"
    exit_code = main(
        [
            "serve",
            str(workload_file),
            "--register",
            f"ring={graph_file}",
            "--output",
            str(out),
            "--no-results",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert captured.out == ""
    assert len(out.read_text().splitlines()) == 4


def test_serve_reports_unknown_graph(workload_file, capsys):
    exit_code = main(["serve", str(workload_file)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "error:" in captured.err
    assert "ring" in captured.err


def test_serve_rejects_malformed_lines(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"graph": "dataset:jazz", "k": 2}\n')
    exit_code = main(["serve", str(bad)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "missing the 'q' key" in captured.err

    bad.write_text("not-json\n")
    exit_code = main(["serve", str(bad)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "invalid JSON" in captured.err

    bad.write_text('{"graph": "dataset:jazz", "k": 2, "q": 6, "bogus": 1}\n')
    exit_code = main(["serve", str(bad)])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "unknown workload keys" in captured.err


def test_serve_rejects_bad_register_spec(workload_file, capsys):
    exit_code = main(["serve", str(workload_file), "--register", "just-a-name"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "NAME=SPEC" in captured.err


def test_serve_snapshot_and_warm_start_share_format(graph_file, workload_file, tmp_path, capsys):
    snapshot_file = tmp_path / "snap.json"
    exit_code = main(
        [
            "serve", str(workload_file),
            "--register", f"ring={graph_file}",
            "--no-results", "--snapshot", str(snapshot_file),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert snapshot_file.exists()
    assert "snapshot:" in captured.err

    # a second batch run warm-starts from the same file: every workload
    # request is now answered from the replayed cache
    metrics_file = tmp_path / "metrics.json"
    exit_code = main(
        [
            "serve", str(workload_file),
            "--register", f"ring={graph_file}",
            "--no-results", "--snapshot", str(snapshot_file),
            "--warm-start", "--metrics", str(metrics_file),
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "warm start:" in captured.err
    metrics = json.loads(metrics_file.read_text())
    assert metrics["cache_hits"] >= 4  # all four workload lines were warm


def test_serve_warm_start_requires_snapshot_path(workload_file, capsys):
    exit_code = main(["serve", str(workload_file), "--warm-start"])
    captured = capsys.readouterr()
    assert exit_code == 1
    assert "--warm-start requires --snapshot" in captured.err


def test_serve_warm_start_tolerates_missing_snapshot(graph_file, workload_file, tmp_path, capsys):
    snapshot_file = tmp_path / "never-written.json"
    exit_code = main(
        [
            "serve", str(workload_file),
            "--register", f"ring={graph_file}",
            "--no-results", "--snapshot", str(snapshot_file),
            "--warm-start",
        ]
    )
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "starting cold" in captured.err
