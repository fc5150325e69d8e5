# Development entry points. PYTHONPATH is handled for you: pytest picks up
# src/ via the `pythonpath` setting in pyproject.toml, and the non-pytest
# targets export it explicitly.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-quick bench-full lint lint-baseline examples

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
