"""Smoke tests for the report generator and the bench JSON schema."""

import json
import os
import subprocess
import sys


def _load_bench_tool(name="bench_engine"):
    """Import a tools/*.py bench module (not on the path)."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), "..", "tools",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"{name}_tool", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchSchema:
    """Satellite: BENCH_engine.json's shape is a tested contract."""

    def test_generated_output_conforms(self):
        tool = _load_bench_tool()
        from repro.engine.bench import run_engine_bench

        result = run_engine_bench(n=200, repeats=1)
        assert tool.validate_bench_schema(result) == []
        assert result["fixed"]["mismatches"] == 0
        assert result["mismatches"] == 0
        assert result["reader"]["mismatches"] == 0
        assert result["reader"]["fast_resolved"] >= 0.95
        assert result["bulk"]["mismatches"] == 0
        assert result["buffer"]["mismatches"] == 0
        assert result["binary32"]["mismatches"] == 0
        assert result["binary32"]["fast_resolved"] >= 0.98
        assert result["warm"]["mismatches"] == 0
        assert result["warm"]["stats"].get("snapshot_faults", 0) == 0
        cont = result["contenders"]
        assert cont["mismatches"] == 0
        for mix in ("flat", "zipf", "specials"):
            assert cont["bail_rate"][mix] == 0.0
        # Every section records the corpus composition.
        for section in (result, result["fixed"], result["reader"],
                        result["bulk"], result["buffer"],
                        result["binary32"], result["warm"],
                        result["contenders"]):
            assert "mix" in section["corpus"]

    def test_committed_json_conforms(self):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_engine.json")
        if not os.path.exists(path):
            import pytest

            pytest.skip("BENCH_engine.json not generated yet")
        with open(path) as fh:
            stored = json.load(fh)
        tool = _load_bench_tool()
        assert tool.validate_bench_schema(stored) == []

    def test_validator_reports_missing_keys(self):
        tool = _load_bench_tool()
        problems = tool.validate_bench_schema({"corpus": {}})
        assert any(p.startswith("missing key: corpus.") for p in problems)
        assert "missing key: fixed" in problems
        assert "missing key: reader" in problems
        assert "missing key: bulk" in problems
        assert "missing key: buffer" in problems
        assert "missing key: binary32" in problems
        assert "missing key: warm" in problems
        assert "missing key: contenders" in problems

    def test_reader_gates(self):
        tool = _load_bench_tool()
        good = {"mismatches": 0, "fast_resolved": 0.99,
                "speedup": {"read_many": 2.5}}
        assert tool._check_reader_gates(good, quick=False) == 0
        assert tool._check_reader_gates(
            dict(good, mismatches=1), quick=False) == 1
        assert tool._check_reader_gates(
            dict(good, fast_resolved=0.5), quick=True) == 1
        # The timing gate is correctness-only on --quick runs.
        slow = dict(good, speedup={"read_many": 1.1})
        assert tool._check_reader_gates(slow, quick=True) == 0
        assert tool._check_reader_gates(slow, quick=False) == 1

    def test_bulk_gates(self):
        tool = _load_bench_tool()
        good = {"mismatches": 0,
                "speedup": {"uniform": 2.3, "zipf": 2.6}}
        assert tool._check_bulk_gates(good, quick=False) == 0
        assert tool._check_bulk_gates(
            dict(good, mismatches=2), quick=True) == 1
        # Timing gates only bind on full runs.
        slow = dict(good, speedup={"uniform": 1.4, "zipf": 1.6})
        assert tool._check_bulk_gates(slow, quick=True) == 0
        assert tool._check_bulk_gates(slow, quick=False) == 1
        inverted = dict(good, speedup={"uniform": 2.4, "zipf": 2.1})
        assert tool._check_bulk_gates(inverted, quick=False) == 1

    def test_buffer_gates(self):
        tool = _load_bench_tool()
        good = {"mismatches": 0,
                "speedup": {"parse_flat": 6.0, "pipeline_flat": 4.0,
                            "pipeline_zipf": 4.5}}
        assert tool._check_buffer_gates(good, quick=False) == 0
        assert tool._check_buffer_gates(
            dict(good, mismatches=1), quick=True) == 1
        # Timing gates only bind on full runs.
        slow = dict(good, speedup={"parse_flat": 1.1, "pipeline_flat": 1.0,
                                   "pipeline_zipf": 1.0})
        assert tool._check_buffer_gates(slow, quick=True) == 0
        assert tool._check_buffer_gates(slow, quick=False) == 1

    def test_binary32_gates(self):
        tool = _load_bench_tool()
        good = {"mismatches": 0, "fast_resolved": 0.99,
                "speedup": {"format": 1.8}}
        assert tool._check_binary32_gates(good, quick=False) == 0
        assert tool._check_binary32_gates(
            dict(good, mismatches=1), quick=True) == 1
        assert tool._check_binary32_gates(
            dict(good, fast_resolved=0.9), quick=True) == 1
        slow = dict(good, speedup={"format": 1.1})
        assert tool._check_binary32_gates(slow, quick=True) == 0
        assert tool._check_binary32_gates(slow, quick=False) == 1

    def test_contenders_gates(self):
        tool = _load_bench_tool()
        good = {
            "mismatches": 0,
            "bail_rate": {mix: 0.0 for mix in ("flat", "zipf", "specials")},
        }
        assert tool._check_contenders_gates(good, quick=False) == 0
        # Both gates are correctness gates: they bind on --quick runs
        # too.
        assert tool._check_contenders_gates(
            dict(good, mismatches=1), quick=True) == 1
        bailed = dict(good, bail_rate=dict(good["bail_rate"], zipf=0.002))
        assert tool._check_contenders_gates(bailed, quick=True) == 1
        assert tool._check_contenders_gates(good, quick=True) == 0

    def test_warm_gates(self):
        tool = _load_bench_tool()
        good = {"mismatches": 0, "stats": {"snapshot_faults": 0},
                "speedup": {"startup": 1.3, "first_10k": 1.25}}
        assert tool._check_warm_gates(good, quick=False) == 0
        # Identity and clean-restore gates bind on every run.
        assert tool._check_warm_gates(
            dict(good, mismatches=1), quick=True) == 1
        assert tool._check_warm_gates(
            dict(good, stats={"snapshot_faults": 1}), quick=True) == 1
        # The timing gate only binds on full runs.
        slow = dict(good, speedup={"startup": 1.0, "first_10k": 0.97})
        assert tool._check_warm_gates(slow, quick=True) == 0
        assert tool._check_warm_gates(slow, quick=False) == 1


class TestServeBenchSchema:
    """Satellite: BENCH_serve.json's shape is a tested contract too."""

    GOOD_LEG = {
        "requests": 100, "responses": 100, "errors": 0, "mismatches": 0,
        "latency_ms": {"p50": 5.0, "p95": 20.0, "p99": 40.0,
                       "mean": 8.0, "max": 60.0},
        "throughput": {"requests_per_s": 400.0, "mb_per_s": 1.0},
        "stats": {}, "pool_stats": {},
    }

    def test_committed_json_conforms(self):
        path = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_serve.json")
        if not os.path.exists(path):
            import pytest

            pytest.skip("BENCH_serve.json not generated yet")
        with open(path) as fh:
            stored = json.load(fh)
        tool = _load_bench_tool("bench_serve")
        assert tool.validate_bench_schema(stored) == []
        assert stored["baseline"]["mismatches"] == 0
        assert stored["chaos"]["mismatches"] == 0
        assert stored["chaos"]["faults_fired"] >= 1
        assert stored["chaos"]["recovered"] \
            >= stored["chaos"]["faults_fired"]
        # The controlled leg: byte-identical under the same plan, and
        # the committed full run must show the control plane beating
        # the uncontrolled chaos tail.
        ctl = stored["controlled"]
        assert ctl["mismatches"] == 0
        assert ctl["p99_vs_chaos"] <= stored["gates"]["controlled_p99_bound"]
        assert ctl["errors"] <= ctl["requests"] \
            * stored["gates"]["controlled_shed_bound"]

    def test_validator_reports_missing_keys(self):
        tool = _load_bench_tool("bench_serve")
        problems = tool.validate_bench_schema({"baseline": {}})
        assert "missing key: config" in problems
        assert "missing key: chaos" in problems
        assert "missing key: controlled" in problems
        assert any(p.startswith("missing key: baseline.")
                   for p in problems)

    def test_validator_reports_missing_control_counters(self):
        tool = _load_bench_tool("bench_serve")
        bad = {"controlled": dict(self.GOOD_LEG, faults_fired=1,
                                  p99_vs_chaos=0.9, control={})}
        problems = tool.validate_bench_schema(bad)
        assert any(p.startswith("missing key: controlled.control.")
                   for p in problems)

    def test_baseline_gates(self):
        tool = _load_bench_tool("bench_serve")
        good = dict(self.GOOD_LEG)
        assert tool._check_baseline_gates(good, quick=False) == 0
        assert tool._check_baseline_gates(
            dict(good, mismatches=1), quick=True) == 1
        assert tool._check_baseline_gates(
            dict(good, errors=1, responses=99), quick=True) == 1
        # The latency gate is timing-only: skipped on --quick.
        slow = dict(good, latency_ms=dict(good["latency_ms"], p99=900.0))
        assert tool._check_baseline_gates(slow, quick=True) == 0
        assert tool._check_baseline_gates(slow, quick=False) == 1

    def test_chaos_gates(self):
        tool = _load_bench_tool("bench_serve")
        base = dict(self.GOOD_LEG)
        good = dict(self.GOOD_LEG, faults_fired=3, recovered=4,
                    p99_ratio=2.0)
        assert tool._check_chaos_gates(good, base, quick=False) == 0
        assert tool._check_chaos_gates(
            dict(good, mismatches=1), base, quick=True) == 1
        assert tool._check_chaos_gates(
            dict(good, faults_fired=0), base, quick=True) == 1
        assert tool._check_chaos_gates(
            dict(good, recovered=1), base, quick=True) == 1
        # Degradation bound: timing-only, full runs, vs the documented
        # max(ratio x baseline p99, absolute floor).
        bound = max(tool.P99_RATIO_BOUND * base["latency_ms"]["p99"],
                    tool.P99_ABS_FLOOR_MS)
        degraded = dict(good, latency_ms=dict(good["latency_ms"],
                                              p99=bound + 1.0))
        assert tool._check_chaos_gates(degraded, base, quick=True) == 0
        assert tool._check_chaos_gates(degraded, base, quick=False) == 1

    def test_controlled_gates(self):
        tool = _load_bench_tool("bench_serve")
        chaos = dict(self.GOOD_LEG, faults_fired=3, recovered=4,
                     p99_ratio=2.0)
        good = dict(self.GOOD_LEG, faults_fired=3, p99_vs_chaos=0.9,
                    latency_ms=dict(self.GOOD_LEG["latency_ms"],
                                    p99=36.0),
                    control={"breaker_trips": 0, "breaker_sheds": 0,
                             "admission_sheds": 0,
                             "admission_increases": 1,
                             "admission_decreases": 0,
                             "hedges": 1, "hedge_wins": 1})
        assert tool._check_controlled_gates(good, chaos,
                                            quick=False) == 0
        # Identity and accounting bind on every run.
        assert tool._check_controlled_gates(
            dict(good, mismatches=1), chaos, quick=True) == 1
        # Bounded shedding is fine; losing track of a response is not.
        assert tool._check_controlled_gates(
            dict(good, errors=1, responses=99), chaos, quick=True) == 0
        assert tool._check_controlled_gates(
            dict(good, responses=98), chaos, quick=True) == 1
        # Unbounded shedding is a failure even when p99 looks great.
        shedding = dict(good, errors=50, responses=50)
        assert tool._check_controlled_gates(shedding, chaos,
                                            quick=True) == 1
        # The improvement gate is timing-only: skipped on --quick,
        # binding on full runs — controlled p99 must beat chaos p99.
        worse = dict(good, latency_ms=dict(good["latency_ms"],
                                           p99=41.0))
        assert tool._check_controlled_gates(worse, chaos,
                                            quick=True) == 0
        assert tool._check_controlled_gates(worse, chaos,
                                            quick=False) == 1

    def test_percentile_nearest_rank(self):
        tool = _load_bench_tool("bench_serve")
        xs = sorted(float(i) for i in range(1, 101))
        assert tool.percentile(xs, 50) == 50.0
        assert tool.percentile(xs, 99) == 99.0
        assert tool.percentile([], 99) == 0.0


def test_regenerate_reports_runs():
    out = subprocess.run(
        [sys.executable, "tools/regenerate_reports.py", "120"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    text = out.stdout
    assert "Table 2" in text
    assert "Table 3" in text
    assert "free / fixed-17" in text
    assert "grisu3 hit rate" in text
    # The modern/exact rows must report zero incorrect.
    assert "(113-bit chain):     0/120" in text
