# Development workflows for the PAWS reproduction.
#
#   make test        unit/integration suite
#   make bench       paper-artifact benchmarks (writes benchmarks/results/)
#   make bench-fit   training-engine throughput benchmark only
#   make bench-serve full 1.6k->1M serving scalability sweep (regenerates its results/ artifact)
#   make bench-daemon park-service load generator (latency percentiles + QPS)
#   make test-zoo    solver zoo only (pinned patrol formulations and optima)
#   make test-chaos  fault-injection suite (fixed seed matrix; failures
#                    print their seed for exact replay)
#   make smoke       CLI entry points all exit 0
#   make serve-smoke end-to-end daemon smoke: subprocess `repro serve`,
#                    all endpoints answer, SIGTERM drains with exit 0
#   make lint        byte-compile every source tree AND run the invariant
#                    analyzer (zero-violations gate: all rules over src/,
#                    determinism + hygiene rules over benchmarks/,
#                    examples/ and scripts/)
#   make lint-flow   flow-sensitive rules only (RP007-RP011: lock order,
#                    atomicity, deadline propagation, exception contracts,
#                    resource discipline) over src/repro
#   make lint-json   machine-readable analyzer report (the CI artifact)
#   make check       lint + smoke + test
#   make perf W=<workload> SEED=<n>
#                    one 20 s perfbench run of a BENCHMARK.json workload
#                    (riskmap-hot, riskmap-cold, plan or fit); alternate
#                    it between two checkouts for A/B pairs

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-zoo test-chaos bench bench-fit bench-serve bench-daemon smoke serve-smoke lint lint-flow lint-json check perf

test:
	$(PYTHON) -m pytest tests -x -q

test-zoo:
	$(PYTHON) -m pytest tests/solver_zoo -q

test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -q

bench:
	$(PYTHON) -m pytest benchmarks -q

bench-fit:
	$(PYTHON) -m pytest benchmarks/test_fit_throughput.py -q

bench-serve:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/test_serve_scalability.py -q

bench-daemon:
	$(PYTHON) -m pytest benchmarks/test_daemon_load.py -q

smoke:
	$(PYTHON) -m repro --help > /dev/null
	for cmd in stats maps evaluate fieldtest plan predict serve lint; do \
		$(PYTHON) -m repro $$cmd --help > /dev/null || exit 1; \
	done
	@echo "smoke: all CLI entry points exit 0"

serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples scripts
	$(PYTHON) -m repro.analysis src/repro
	$(PYTHON) -m repro.analysis --select RP001,RP006 benchmarks examples scripts
	@echo "lint: sources byte-compile and invariants hold"

lint-flow:
	$(PYTHON) -m repro.analysis src/repro --rule RP007,RP008,RP009,RP010,RP011

lint-json:
	$(PYTHON) -m repro.analysis src/repro --format json

check: lint smoke test

perf:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 20
