PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify smoke test suite bench lint lints typecheck coverage reach

verify:            ## tier-1, suite/campaign/sanitizer/telemetry smokes, examples, lints, perfbench check
	./scripts/verify.sh

smoke:             ## fast regression net only (collection/registry/runner/CLI)
	$(PYTHON) -m pytest -q -m smoke

test:              ## full tier-1 test suite
	$(PYTHON) -m pytest -x -q

lint:              ## ruff + the custom invariant lints (the CI lint gate)
	ruff check .
	$(MAKE) lints

lints:             ## project-specific AST lints only (no dependencies)
	$(PYTHON) -m tools.repro_lints

reach:             ## run every product entry point; fail on src/ functions and knobs only tests reach
	$(PYTHON) tools/reach.py

typecheck:         ## mypy over src/repro (strictness table in pyproject.toml)
	$(PYTHON) -m mypy

coverage:          ## tier-1 suite under coverage; needs `pip install pytest-cov`
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-report=xml

suite:             ## all registered artifacts, parallel + cached
	$(PYTHON) -m repro.cli suite --out results

bench:             ## the benchmark (BENCHMARK.json): all three perfbench workloads
	python3 perfbench/run.py --workload all
