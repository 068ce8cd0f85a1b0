# Convenience targets for the reproduction.

PY ?= python3
BENCH_N ?= 400
WORKLOAD ?= plane_zipf
SEED ?= 11
SECONDS ?= 30

.PHONY: install test test-fast test-slow fuzz chaos bench bench-engine bench-reader bench-bulk bench-buffer bench-serve bench-warm bench-contenders snapshot serve-smoke control-smoke smoke ci perfbench examples verify all clean reports

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

# The differential verification battery with a fresh random seed — what
# the nightly CI fuzz job runs; the seed is printed for reproduction.
# The second invocation runs the decimal→binary round-trip battery, the
# third the bulk serving-layer byte-identity battery.
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

# Regenerate BENCH_engine.json (exits non-zero on any engine/exact
# output mismatch or a fast-resolved rate below 0.99).
bench-engine:
	$(PY) tools/bench_engine.py

# Read-side (decimal→binary) bench only: tiered reader vs the exact
# round_rational fallback, printed to stdout; gates on mismatches,
# fast-resolved >= 0.95 and read_many speedup >= 2x.
bench-reader:
	$(PY) tools/bench_engine.py --reader

# Bulk serving-layer bench only: dedup-interning columnar pipeline vs
# the scalar batch APIs on duplicate-bearing corpora, printed to
# stdout; gates on byte identity always, and (full runs) >= 2x on the
# flat corpus with a larger zipfian win.  QUICK=--quick for the CI
# smoke lane.
bench-bulk:
	$(PY) tools/bench_engine.py --bulk $(QUICK)

# Byte-plane pipeline bench only: parse_buffer/format_buffer MB/s vs
# the row-at-a-time path, printed to stdout; gates on byte/bit identity
# always, and (full runs) >= 1.3x on the parse leg and the combined
# pipeline.  QUICK=--quick for the CI smoke lane.
bench-buffer:
	$(PY) tools/bench_engine.py --buffer $(QUICK)

# Warm-start bench only: engine construction time and first-10k-request
# latency, warm (snapshot) vs cold, printed to stdout; gates on byte
# identity and a clean restore always, warm-below-cold first-10k on
# full runs.  QUICK=--quick for the CI smoke lane.  See
# docs/warmstart.md.
bench-warm:
	$(PY) tools/bench_engine.py --warm $(QUICK)

# Default-route bench only: tier 0 -> Schubfach against the exact tier
# on the flat, zipf and specials corpora, printed to stdout; gates on
# byte identity and a zero write bail rate — both correctness gates,
# binding even with QUICK=--quick.  See docs/contenders.md.
bench-contenders:
	$(PY) tools/bench_engine.py --contenders $(QUICK)

# Build a warm-start snapshot (binary16/32/64 tables + donor memo +
# top-512 zipf-head hot dictionary) into warm.snap; consume it with
# Engine(snapshot=...), BulkPool(snapshot=...) or --snapshot on the
# CLI/daemon.
snapshot:
	$(PY) tools/warm_snapshot.py -o warm.snap

# Serving-daemon bench: open-loop Poisson load against a loopback
# daemon, p50/p95/p99 + throughput, plus a chaos leg that kills shards
# mid-traffic; regenerates BENCH_serve.json.  Gates on byte identity
# and fault accounting always, latency SLOs and the chaos p99
# degradation bound on full runs.  QUICK=--quick for the CI smoke lane.
bench-serve:
	$(PY) tools/bench_serve.py $(QUICK) -o BENCH_serve.json

# PR-lane serving smoke: wire conformance + lifecycle + chaos tests,
# then the load-gen bench's identity gates on a short fixed-seed run.
serve-smoke:
	$(PY) -m pytest tests/serve/test_protocol.py tests/serve/test_daemon.py tests/serve/test_daemon_faults.py -q
	$(PY) tools/bench_serve.py --quick -o /dev/null
	$(PY) -m repro.verify --serve --n 2000 --seed 0 --formats binary64

# PR-lane control-plane smoke: breaker/admission/hedge/observer unit and
# wire tests, the quick bench gates (which include the controlled leg's
# identity and accounting gates), then the fixed-seed control battery.
# See docs/robustness.md#the-control-plane.
control-smoke:
	$(PY) -m pytest tests/serve/test_control.py -q
	$(PY) tools/bench_serve.py --quick -o /dev/null
	$(PY) -m repro.verify --control --n 2000 --seed 0 --formats binary64

# Quick correctness smoke of the engine (what CI runs).
smoke:
	$(PY) tools/bench_engine.py --quick -o /dev/null

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
