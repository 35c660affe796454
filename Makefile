PYTHON ?= python
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-service lint perf-test bench bench-baseline bench-check \
	bench-check-relative service-demo serve

test:            ## tier-1 suite (perf microbenchmarks + slow stress excluded)
	$(PYTHON) -m pytest -x -q

test-service:    ## service/durability suites incl. the slow multi-process stress tests, stateless under a tmpdir (removed on exit)
	@tmp=$$(mktemp -d repro-service-tests-XXXXXX -p $${TMPDIR:-/tmp}); \
	trap 'rm -rf "$$tmp"' EXIT INT TERM; \
	cd "$$tmp" && \
	$(PYTHON) -m pytest -p no:cacheprovider -q -m "not perf" \
		$(CURDIR)/tests/test_service.py \
		$(CURDIR)/tests/test_service_faults.py \
		$(CURDIR)/tests/test_service_concurrency.py \
		$(CURDIR)/tests/test_fleet.py \
		$(CURDIR)/tests/test_failover.py \
		$(CURDIR)/tests/test_golden_trajectories.py

lint:            ## ruff gate (rule set in pyproject.toml); stdlib fallback when ruff is absent
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; running tools/lint_fallback.py (same rule set)"; \
		$(PYTHON) tools/lint_fallback.py; \
	fi

service-demo:    ## tuning-as-a-service demo (tenants stepped together, crash/resume, warm start)
	$(PYTHON) examples/service_demo.py

perf-test:       ## perf-marked microbenchmark smoke tests only
	$(PYTHON) -m pytest -m perf -q

bench:           ## refresh BENCH_perf.json ('current' key + speedup)
	$(PYTHON) -m benchmarks.bench_perf

bench-baseline:  ## record the current tree as the perf baseline
	$(PYTHON) -m benchmarks.bench_perf --as-baseline

bench-check:     ## perf-regression gate: fail if history-500 suggest+observe regresses >20% vs BENCH_perf.json
	$(PYTHON) -m pytest -m perf -q benchmarks/test_perf_gate.py

bench-check-relative:  ## CI-safe perf gate: measure a baseline ref on THIS machine, gate on relative regression
	$(PYTHON) -m benchmarks.bench_relative $(BENCH_RELATIVE_ARGS)

serve:           ## run one wire frontend (repro-service serve); HOST/PORT/STORE_ROOT overridable
	$(PYTHON) -m repro.service.cli serve --host $(or $(HOST),127.0.0.1) \
		--port $(or $(PORT),7411) \
		$(if $(STORE_ROOT),--store-root $(STORE_ROOT))
