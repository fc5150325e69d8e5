"""Tests for the static-analysis framework (``repro.lint``).

Each built-in checker gets fixture snippets proving a true positive, a
true negative, an inline suppression and a baseline match; on top sit
registry/reporter/CLI tests and a self-check that the analyzer runs
clean over the real ``src``/``tests`` trees modulo the committed
baseline.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    BASELINE_NAME,
    Baseline,
    Check,
    Finding,
    build_project_from_sources,
    check_names,
    find_repo_root,
    get_check,
    load_baseline,
    register_check,
    render_json,
    render_text,
    run_checks,
    summary_line,
    unregister_check,
    write_baseline,
)
from repro.lint.analyzer import analyze


def run_on(sources, select=None):
    """Lint in-memory sources and return the findings list."""
    if isinstance(sources, str):
        sources = {"src/repro/fixture.py": sources}
    dedented = {path: textwrap.dedent(text) for path, text in sources.items()}
    project = build_project_from_sources(dedented)
    return run_checks(project, select=select).findings


def checks_of(findings):
    return sorted({f.check for f in findings if f.active})


# --------------------------------------------------------------------------- #
# unlocked-shared-write
# --------------------------------------------------------------------------- #
UNLOCKED_WRITE_POSITIVE = """
    import threading

    class Manager:
        def __init__(self):
            self._lock = threading.Lock()
            self._closed = False

        def close(self):
            self._closed = True

        def submit(self):
            with self._lock:
                if self._closed:
                    raise RuntimeError("closed")
"""


class TestUnlockedSharedWrite:
    def test_positive_unguarded_write(self):
        findings = [
            f for f in run_on(UNLOCKED_WRITE_POSITIVE)
            if f.check == "unlocked-shared-write"
        ]
        assert len(findings) == 1
        assert findings[0].subject == "_closed"
        assert findings[0].symbol == "Manager.close"

    def test_negative_write_under_lock(self):
        findings = run_on(
            """
            import threading

            class Manager:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._closed = False

                def close(self):
                    with self._lock:
                        self._closed = True

                def submit(self):
                    with self._lock:
                        if self._closed:
                            raise RuntimeError("closed")
            """
        )
        assert "unlocked-shared-write" not in checks_of(findings)

    def test_negative_locked_suffix_helper(self):
        """``*_locked`` methods are assumed to run with the lock held."""
        findings = run_on(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._size = 0

                def _evict_locked(self):
                    self._size = 0

                def put(self):
                    with self._lock:
                        self._size += 1
                        self._evict_locked()
            """
        )
        assert "unlocked-shared-write" not in checks_of(findings)

    def test_negative_setstate_is_construction(self):
        findings = run_on(
            """
            import threading

            class Prepared:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._csr = None

                def __setstate__(self, state):
                    self._lock = threading.Lock()
                    self._csr = state["csr"]

                def backend(self):
                    with self._lock:
                        return self._csr
            """
        )
        assert "unlocked-shared-write" not in checks_of(findings)

    def test_suppressed_inline(self):
        suppressed_src = UNLOCKED_WRITE_POSITIVE.replace(
            "self._closed = True",
            "self._closed = True  # repro-lint: disable=unlocked-shared-write",
        )
        findings = [
            f for f in run_on(suppressed_src) if f.check == "unlocked-shared-write"
        ]
        assert len(findings) == 1
        assert findings[0].suppressed and not findings[0].active

    def test_baseline_matched(self):
        first = [
            f for f in run_on(UNLOCKED_WRITE_POSITIVE)
            if f.check == "unlocked-shared-write"
        ]
        baseline = Baseline.from_findings(first)
        # Shift the code down a line: the fingerprint must still match.
        shifted = "\n" + textwrap.dedent(UNLOCKED_WRITE_POSITIVE)
        project = build_project_from_sources({"src/repro/fixture.py": shifted})
        result = run_checks(
            project, select=["unlocked-shared-write"], baseline=baseline
        )
        assert len(result.findings) == 1
        assert result.findings[0].baselined
        assert not result.new_findings


# --------------------------------------------------------------------------- #
# lock-order
# --------------------------------------------------------------------------- #
class TestLockOrder:
    def test_positive_inverted_order(self):
        findings = run_on(
            """
            import threading

            class Router:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def drain(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        cycle = [f for f in findings if f.check == "lock-order" and f.active]
        assert cycle
        assert "_a" in cycle[0].subject and "_b" in cycle[0].subject

    def test_negative_consistent_order(self):
        findings = run_on(
            """
            import threading

            class Router:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def drain(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )
        assert "lock-order" not in checks_of(findings)

    def test_positive_self_nested_plain_lock(self):
        findings = run_on(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert "lock-order" in checks_of(findings)

    def test_negative_self_nested_rlock(self):
        findings = run_on(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.RLock()

                def poke(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert "lock-order" not in checks_of(findings)


# --------------------------------------------------------------------------- #
# blocking-under-lock
# --------------------------------------------------------------------------- #
class TestBlockingUnderLock:
    def test_positive_sleep_under_lock(self):
        findings = run_on(
            """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self):
                    with self._lock:
                        time.sleep(0.5)
            """
        )
        hits = [f for f in findings if f.check == "blocking-under-lock"]
        assert len(hits) == 1
        assert hits[0].subject == "time.sleep"

    def test_positive_future_result_under_lock(self):
        findings = run_on(
            """
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._pool = None

                def run(self, fn):
                    with self._lock:
                        future = self._pool.submit(fn)
                        return future.result()
            """
        )
        assert "blocking-under-lock" in checks_of(findings)

    def test_negative_sleep_outside_lock(self):
        findings = run_on(
            """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self):
                    with self._lock:
                        deadline = 5
                    time.sleep(deadline)
            """
        )
        assert "blocking-under-lock" not in checks_of(findings)

    def test_suppressed_inline(self):
        findings = run_on(
            """
            import threading
            import time

            class Poller:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self):
                    with self._lock:
                        # repro-lint: disable=blocking-under-lock
                        time.sleep(0.5)
            """
        )
        hits = [f for f in findings if f.check == "blocking-under-lock"]
        assert len(hits) == 1 and hits[0].suppressed


# --------------------------------------------------------------------------- #
# epoch-key-contract
# --------------------------------------------------------------------------- #
class TestEpochKeyContract:
    def test_positive_key_without_epoch(self):
        findings = run_on(
            """
            from repro.service.cache import ByteBudgetLRU

            def result_cache_key(request):
                return (request.k, request.q)
            """
        )
        hits = [f for f in findings if f.check == "epoch-key-contract"]
        assert len(hits) == 1
        assert "result_cache_key" in hits[0].subject

    def test_negative_key_with_epoch(self):
        findings = run_on(
            """
            from repro.service.cache import ByteBudgetLRU

            def result_cache_key(graph, request):
                return (graph.epoch, request.k, request.q)
            """
        )
        assert "epoch-key-contract" not in checks_of(findings)

    def test_negative_delegating_key(self):
        findings = run_on(
            """
            from repro.service.cache import ByteBudgetLRU, result_cache_key

            def scoped_cache_key(graph, request):
                return ("scope",) + result_cache_key(graph, request)
            """
        )
        assert "epoch-key-contract" not in checks_of(findings)

    def test_negative_module_without_cache_markers(self):
        """Key builders in cache-free modules are out of scope."""
        findings = run_on(
            """
            def partition_key(row):
                return (row.shard, row.bucket)
            """
        )
        assert "epoch-key-contract" not in checks_of(findings)

    def test_negative_cache_named_only_in_a_comment(self):
        """Prose that names a cache does not put a module in scope."""
        findings = run_on(
            '''
            # Rows here are keyed like the ResultCache and ByteBudgetLRU
            # entries, via result_cache_key.
            def partition_key(row):
                """Unlike ResultCache keys, this one needs no epoch."""
                return (row.shard, row.bucket)
            '''
        )
        assert "epoch-key-contract" not in checks_of(findings)

    def test_positive_aliased_cache_import(self):
        findings = run_on(
            """
            from repro.service.cache import ResultCache as RC

            def scoped_key(request):
                return (request.k, request.q)

            CACHE = RC(max_entries=4)
            """
        )
        hits = [f for f in findings if f.check == "epoch-key-contract"]
        assert len(hits) == 1
        assert "scoped_key" in hits[0].subject

    def test_positive_inline_literal_key(self):
        findings = run_on(
            """
            class Service:
                def __init__(self, lru):
                    self._result_cache = lru  # a ByteBudgetLRU

                def lookup(self, request):
                    return self._result_cache.get((request.k, request.q))
            """
        )
        assert "epoch-key-contract" in checks_of(findings)


# --------------------------------------------------------------------------- #
# resource-cleanup
# --------------------------------------------------------------------------- #
class TestResourceCleanup:
    def test_positive_never_cleaned(self):
        findings = run_on(
            """
            from multiprocessing import shared_memory

            def scratch(n):
                shm = shared_memory.SharedMemory(create=True, size=n)
                return n
            """
        )
        hits = [f for f in findings if f.check == "resource-cleanup"]
        assert len(hits) == 1
        assert "never" in hits[0].message

    def test_positive_cleanup_not_exception_safe(self):
        findings = run_on(
            """
            from multiprocessing import shared_memory

            def fill(n, data):
                shm = shared_memory.SharedMemory(create=True, size=n)
                data.validate()
                shm.close()
                shm.unlink()
            """
        )
        hits = [f for f in findings if f.check == "resource-cleanup"]
        assert len(hits) == 1
        assert "finally" in hits[0].message

    def test_negative_try_finally(self):
        findings = run_on(
            """
            from multiprocessing import shared_memory

            def fill(n, data):
                shm = shared_memory.SharedMemory(create=True, size=n)
                try:
                    data.validate()
                finally:
                    shm.close()
                    shm.unlink()
            """
        )
        assert "resource-cleanup" not in checks_of(findings)

    def test_negative_escaping_handle(self):
        """Returned/stored handles move cleanup responsibility elsewhere."""
        findings = run_on(
            """
            from multiprocessing import shared_memory

            def attach(n):
                shm = shared_memory.SharedMemory(create=True, size=n)
                return shm
            """
        )
        assert "resource-cleanup" not in checks_of(findings)

    def test_positive_popen(self):
        findings = run_on(
            """
            import subprocess

            def spawn(cmd):
                proc = subprocess.Popen(cmd)
                proc.poll()
            """
        )
        assert "resource-cleanup" in checks_of(findings)


# --------------------------------------------------------------------------- #
# nondeterminism-in-solver
# --------------------------------------------------------------------------- #
class TestNondeterminismInSolver:
    def test_positive_random_in_core(self):
        findings = run_on(
            {
                "src/repro/core/order.py": textwrap.dedent(
                    """
                    import random

                    def pick_pivot(candidates):
                        return random.choice(sorted(candidates))
                    """
                )
            }
        )
        hits = [f for f in findings if f.check == "nondeterminism-in-solver"]
        assert len(hits) == 1
        assert hits[0].subject == "random.choice"

    def test_negative_same_code_outside_solver_surface(self):
        findings = run_on(
            {
                "src/repro/server/ids.py": textwrap.dedent(
                    """
                    import random

                    def request_id():
                        return random.random()
                    """
                )
            }
        )
        assert "nondeterminism-in-solver" not in checks_of(findings)

    def test_negative_sanctioned_stats_capture(self):
        findings = run_on(
            {
                "src/repro/parallel/executor.py": textwrap.dedent(
                    """
                    import time

                    def run(tracer, work):
                        started_wall = time.time()
                        out = work()
                        tracer.span_record("parallel", wall=time.time())
                        return out, started_wall
                    """
                )
            }
        )
        assert "nondeterminism-in-solver" not in checks_of(findings)

    def test_negative_monotonic_allowed(self):
        findings = run_on(
            {
                "src/repro/core/budget.py": textwrap.dedent(
                    """
                    import time

                    def expired(deadline):
                        return time.monotonic() > deadline
                    """
                )
            }
        )
        assert "nondeterminism-in-solver" not in checks_of(findings)


# --------------------------------------------------------------------------- #
# swallowed-exception
# --------------------------------------------------------------------------- #
class TestSwallowedException:
    def test_positive_silent_fallback(self):
        findings = run_on(
            """
            def parse(graph, label):
                try:
                    return graph.index_of(label)
                except Exception:
                    return graph.index_of(int(label))
            """
        )
        hits = [f for f in findings if f.check == "swallowed-exception"]
        assert len(hits) == 1

    def test_positive_pass_only_even_with_binding(self):
        findings = run_on(
            """
            def drop(work):
                try:
                    work()
                except Exception as exc:
                    pass
            """
        )
        assert "swallowed-exception" in checks_of(findings)

    def test_negative_narrow_type(self):
        findings = run_on(
            """
            def parse(graph, label):
                try:
                    return graph.index_of(label)
                except KeyError:
                    return graph.index_of(int(label))
            """
        )
        assert "swallowed-exception" not in checks_of(findings)

    def test_negative_reported(self):
        findings = run_on(
            """
            import logging

            def attempt(work):
                try:
                    work()
                except Exception:
                    logging.warning("work failed")
            """
        )
        assert "swallowed-exception" not in checks_of(findings)

    def test_negative_reraise(self):
        findings = run_on(
            """
            def attempt(work, cleanup):
                try:
                    work()
                except Exception:
                    cleanup()
                    raise
            """
        )
        assert "swallowed-exception" not in checks_of(findings)


# --------------------------------------------------------------------------- #
# Registry / framework plumbing
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        names = check_names()
        for expected in (
            "unlocked-shared-write",
            "lock-order",
            "blocking-under-lock",
            "epoch-key-contract",
            "resource-cleanup",
            "nondeterminism-in-solver",
            "swallowed-exception",
        ):
            assert expected in names

    def test_register_and_run_custom_check(self):
        @register_check("fixture-todo")
        class TodoCheck(Check):
            description = "flag TODO markers"

            def run(self, project):
                for module in project.modules:
                    for lineno, line in enumerate(module.lines, start=1):
                        if "TODO" in line:
                            yield Finding(
                                file=module.relpath,
                                line=lineno,
                                col=0,
                                check=self.name,
                                message="TODO left in source",
                                subject="todo",
                            )

        try:
            findings = run_on("x = 1  # TODO later\n", select=["fixture-todo"])
            assert [f.check for f in findings] == ["fixture-todo"]
        finally:
            unregister_check("fixture-todo")
        with pytest.raises(ValueError):
            get_check("fixture-todo")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_check("lock-order")
            class Clash(Check):  # noqa: F811 - intentionally clashing
                def run(self, project):
                    return iter(())

    def test_unknown_check_lists_known_names(self):
        with pytest.raises(ValueError, match="lock-order"):
            get_check("no-such-check")


class TestBaselineSemantics:
    def test_counts_are_budgets(self):
        source = """
            import threading

            class Pair:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    self._n = 1

                def reset(self):
                    self._n = 0

                def read(self):
                    with self._lock:
                        return self._n
            """
        findings = [
            f for f in run_on(source) if f.check == "unlocked-shared-write"
        ]
        assert len(findings) == 2
        fingerprints = {f.fingerprint for f in findings}
        assert len(fingerprints) == 2  # distinct enclosing symbols
        # Baseline only one of the two: the other must stay active.
        baseline = Baseline.from_findings(findings[:1])
        project = build_project_from_sources(
            {"src/repro/fixture.py": textwrap.dedent(source)}
        )
        result = run_checks(
            project, select=["unlocked-shared-write"], baseline=baseline
        )
        assert len(result.baselined_findings) == 1
        assert len(result.new_findings) == 1

    def test_write_and_load_round_trip(self, tmp_path):
        findings = [
            f for f in run_on(UNLOCKED_WRITE_POSITIVE)
            if f.check == "unlocked-shared-write"
        ]
        path = tmp_path / BASELINE_NAME
        assert write_baseline(path, findings) == 1
        loaded = load_baseline(path)
        loaded.apply(findings)
        assert all(f.baselined for f in findings)

    def test_missing_file_is_empty_baseline(self, tmp_path):
        baseline = load_baseline(tmp_path / "absent.json")
        assert baseline.counts == {}


class TestReporters:
    def _result(self):
        project = build_project_from_sources(
            {"src/repro/fixture.py": textwrap.dedent(UNLOCKED_WRITE_POSITIVE)}
        )
        return run_checks(project, select=["unlocked-shared-write"])

    def test_json_schema_stable(self):
        stream = io.StringIO()
        render_json(self._result(), stream)
        document = json.loads(stream.getvalue())
        assert document["version"] == 1
        assert set(document) >= {
            "version", "files_analyzed", "checks_run", "findings",
            "summary", "syntax_errors",
        }
        finding = document["findings"][0]
        assert set(finding) >= {
            "file", "line", "col", "check", "message", "symbol",
            "subject", "suppressed", "baselined", "fingerprint",
        }
        summary = document["summary"]
        assert summary["new"] == 1
        assert summary["by_check"] == {"unlocked-shared-write": 1}

    def test_text_report_and_summary(self):
        result = self._result()
        stream = io.StringIO()
        render_text(result, stream)
        text = stream.getvalue()
        assert "src/repro/fixture.py" in text
        assert "[unlocked-shared-write]" in text
        assert summary_line(result) in text
        assert "1 new finding" in summary_line(result)

    def test_syntax_error_reported(self):
        project = build_project_from_sources({"src/repro/bad.py": "def broken(:\n"})
        result = run_checks(project)
        assert result.syntax_errors
        assert "src/repro/bad.py" in result.syntax_errors[0]


class TestCli:
    def _run(self, argv, cwd=None):
        from repro.lint.cli import build_parser, run_lint

        out, err = io.StringIO(), io.StringIO()
        args = build_parser().parse_args(argv)
        code = run_lint(args, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    def test_list_checks(self):
        code, out, _ = self._run(["--list-checks"])
        assert code == 0
        assert "unlocked-shared-write" in out

    def test_unknown_select_is_usage_error(self):
        code, _, err = self._run(["--select", "bogus", "src"])
        assert code == 2
        assert "bogus" in err

    def test_missing_path_is_usage_error(self):
        code, _, err = self._run(["definitely/not/here"])
        assert code == 2
        assert "no such path" in err

    def test_exit_zero_reports_without_failing(self, tmp_path):
        bad = tmp_path / "racy.py"
        bad.write_text(textwrap.dedent(UNLOCKED_WRITE_POSITIVE), encoding="utf-8")
        code, out, _ = self._run(
            [str(bad), "--no-baseline", "--select", "unlocked-shared-write",
             "--exit-zero"]
        )
        assert code == 0
        assert "unlocked-shared-write" in out
        code, _, _ = self._run(
            [str(bad), "--no-baseline", "--select", "unlocked-shared-write"]
        )
        assert code == 1

    def test_kplex_enum_subcommand_wired(self):
        from repro.cli import main as kplex_main

        assert kplex_main(["lint", "--list-checks"]) == 0


# --------------------------------------------------------------------------- #
# Self-check: the real tree is clean modulo the committed baseline
# --------------------------------------------------------------------------- #
class TestSelfCheck:
    def test_src_and_tests_clean_modulo_baseline(self):
        root = find_repo_root(Path(__file__).resolve().parent)
        baseline = load_baseline(root / BASELINE_NAME)
        result = analyze(["src", "tests"], root=root, baseline=baseline)
        assert result.files_analyzed > 100
        assert not result.syntax_errors
        new = result.new_findings
        assert new == [], "\n".join(f.render() for f in new)

    def test_known_fixed_sites_stay_fixed(self):
        """Regression guard for findings fixed in this PR (not baselined)."""
        root = find_repo_root(Path(__file__).resolve().parent)
        result = analyze(["src/repro/jobs", "src/repro/service"], root=root)
        unlocked = [
            f.render() for f in result.findings
            if f.check == "unlocked-shared-write" and f.subject == "_closed"
        ]
        assert unlocked == []
