# Convenience targets for the reproduction.

PY ?= python3
BENCH_N ?= 400
WORKLOAD ?= plane_zipf
SEED ?= 11
SECONDS ?= 30

.PHONY: install test test-fast test-slow fuzz chaos bench snapshot serve-smoke control-smoke smoke ci perfbench examples verify all clean reports

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# The PR-sized suite: everything except the slow differential sweeps.
test-fast:
	$(PY) -m pytest tests/ -m "not slow"

# The nightly sweeps only (10k-value printf differential, etc.).
test-slow:
	$(PY) -m pytest tests/ -m slow

# Every repro.verify battery, each with a fresh random seed (printed for
# reproduction): the default per-value battery, then one run per flag.
# Each flag is a table of rows over one corpus and the exact oracle; the
# flag → rows table is in docs/testing.md.
fuzz:
	$(PY) -m repro.verify --n 300 --seed fresh
	$(PY) -m repro.verify --roundtrip --n 300 --seed fresh
	$(PY) -m repro.verify --bulk --n 300 --seed fresh
	$(PY) -m repro.verify --buffer --n 300 --seed fresh
	$(PY) -m repro.verify --chaos --n 2000 --seed fresh --formats binary64
	$(PY) -m repro.verify --serve --n 2000 --seed fresh --formats binary64
	$(PY) -m repro.verify --control --n 2000 --seed fresh --formats binary64
	$(PY) -m repro.verify --warm --n 2000 --seed fresh --formats binary64
	$(PY) -m repro.verify --contenders --n 50000 --seed fresh

# The chaos battery: the bulk byte-identity checks replayed under
# deterministic injected faults (worker crashes, shard stalls, payload
# corruption, fast-tier raises).  Fixed seed; see docs/robustness.md.
chaos:
	$(PY) -m repro.verify --chaos --n 10000 --formats binary64

bench:
	REPRO_BENCH_N=$(BENCH_N) $(PY) -m pytest benchmarks/ --benchmark-only

# Build a warm-start snapshot (binary16/32/64 tables + donor memo +
# top-512 zipf-head hot dictionary) into warm.snap; consume it with
# Engine(snapshot=...), BulkPool(snapshot=...) or --snapshot on the
# CLI/daemon.
snapshot:
	$(PY) tools/warm_snapshot.py -o warm.snap

# PR-lane serving smoke: wire conformance + lifecycle + chaos tests,
# then the fixed-seed serve battery (wire round trips, and pipelined
# bursts under the standing chaos plan with fault accounting).
serve-smoke:
	$(PY) -m pytest tests/serve/test_protocol.py tests/serve/test_daemon.py tests/serve/test_daemon_faults.py -q
	$(PY) -m repro.verify --serve --n 2000 --seed 0 --formats binary64

# PR-lane control-plane smoke: breaker/admission/hedge/observer unit and
# wire tests, then the fixed-seed control battery (chaos plans through
# a controlled daemon, with a 20 % shed bound under the standing chaos
# plan).  See docs/robustness.md#the-control-plane.
control-smoke:
	$(PY) -m pytest tests/serve/test_control.py -q
	$(PY) -m repro.verify --control --n 2000 --seed 0 --formats binary64

# Quick correctness smoke of the engine: the per-value battery (every
# tier, counted and paper fixed format) and the default write route.
smoke:
	$(PY) -m repro.verify --n 300 --seed 7
	$(PY) -m repro.verify --contenders --n 2000 --seed 7

# The suite, the engine smoke and the benchmark's own tests.
ci: test smoke
	$(PY) -m pytest perfbench/tests -q

# One benchmark run of one workload (perfbench/METHODOLOGY.md); the
# last output line is the JSON of every metric.  Override WORKLOAD,
# SEED, SECONDS, e.g. `make perfbench WORKLOAD=serve_open SEED=13`.
perfbench:
	$(PY) perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS)

reports:
	REPRO_BENCH_N=$(BENCH_N) $(PY) -m pytest benchmarks/ -s
	$(PY) tools/regenerate_reports.py 1000

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		$(PY) $$ex > /dev/null || exit 1; \
	done; echo "all examples ran clean"

verify:
	$(PY) examples/self_check.py 200

all: test bench

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
