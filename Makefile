# Development entry points. PYTHONPATH is handled for you: pytest picks up
# src/ via the `pythonpath` setting in pyproject.toml, and the non-pytest
# targets export it explicitly.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-quick bench-full lint lint-baseline examples soak

# Tier-1: the full unit/integration suite (collection is configured in
# pyproject.toml, so plain `python -m pytest` works too).
test:
	$(PYTHON) -m pytest -x -q

# Reproduce the paper's tables/figures at the quick scale.
bench-quick:
	$(PYTHON) -m pytest benchmarks/ -q

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest benchmarks/ -q

# Byte-compile every source tree, smoke-import the public API surface (which
# must not pull in numpy: the package is stdlib-only), then run the project's
# own static analysis (repro.lint) — fails on any finding not covered by
# lint-baseline.json or an inline suppression.
lint:
	$(PYTHON) -m compileall -q src tests examples benchmarks
	$(PYTHON) -c "import sys, repro, repro.api, repro.cli, repro.experiments, repro.analysis, repro.service, repro.server; assert 'numpy' not in sys.modules, 'repro imported numpy'"
	$(PYTHON) -m repro.lint src tests

# Rewrite lint-baseline.json from the current findings (after intentionally
# accepting one); review the diff before committing.
lint-baseline:
	$(PYTHON) -m repro.lint src tests --baseline-update

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f >/dev/null || exit 1; done; echo "all examples OK"

# Run the concurrency-sensitive tests 20 times, stopping at the first failure
# (a flake hunt; not part of CI).
SOAK_TESTS = tests/test_jobs.py tests/test_server_jobs.py tests/test_service.py tests/test_chaos.py
soak:
	@for i in $$(seq 1 20); do echo "== soak round $$i"; $(PYTHON) -m pytest -x -q $(SOAK_TESTS) || exit 1; done; echo "soak: 20 rounds passed"
