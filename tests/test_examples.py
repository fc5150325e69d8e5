"""Smoke tests: the example applications run end to end and tell the story they claim."""

import runpy
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name, capsys, argv=None):
    path = EXAMPLES_DIR / name
    assert path.exists(), f"missing example {name}"
    old_argv = sys.argv
    sys.argv = [str(path)] + list(argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart_example(capsys):
    output = _run_example("quickstart.py", capsys)
    assert "Maximal 2-plexes" in output
    assert "alice" in output
    assert "all maximal k-plexes" in output  # verification passed


def test_community_detection_example(capsys):
    output = _run_example("community_detection.py", capsys)
    assert "k=1" in output and "k=2" in output and "k=3" in output
    assert "communities recovered" in output


def test_protein_complexes_example(capsys):
    output = _run_example("protein_complexes.py", capsys)
    assert "Candidate complexes" in output
    assert "Planted complexes fully contained in some candidate: 4/4" in output


def test_compare_algorithms_example(capsys):
    output = _run_example("compare_algorithms.py", capsys, argv=["jazz", "2", "8"])
    assert "All algorithms report the same number of k-plexes: True" in output
    assert "Ours" in output and "ListPlex" in output and "FP" in output


def test_http_demo_example(capsys):
    # Boots two real serve-http subprocesses, drives them over the wire and
    # asserts SIGTERM drains cleanly — the deployment story end to end.
    output = _run_example("http_demo.py", capsys)
    assert "SIGTERM -> drained, exit code 0" in output
    assert "warm restart: same 6 results" in output
    assert "demo complete: restart was warm, shutdown was clean" in output


def test_examples_directory_contains_required_scripts():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert {"quickstart.py", "community_detection.py", "protein_complexes.py",
            "compare_algorithms.py", "parallel_scaling.py",
            "service_demo.py", "http_demo.py"} <= names
