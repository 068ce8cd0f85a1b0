"""The self-verification battery."""

import contextlib
import re
import subprocess
import sys

import pytest

from repro.floats.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    X87_80,
)
from repro.verify import (
    VerificationReport,
    counted_digits_rational,
    main,
    roundtrip_values,
    sample_values,
    verify_format,
    verify_roundtrip,
)


class TestSampleValues:
    def test_deterministic(self):
        assert sample_values(BINARY64, 50, 7) == sample_values(BINARY64, 50, 7)

    def test_size(self):
        assert len(sample_values(BINARY64, 50)) == 50

    def test_includes_boundary_values(self):
        vals = sample_values(BINARY64, 50)
        fs = {(v.f, v.e) for v in vals}
        assert (1, BINARY64.min_e) in fs  # smallest denormal
        assert BINARY64.largest_finite in fs

    def test_all_positive_finite(self):
        for v in sample_values(BINARY32, 40):
            assert v.is_finite and not v.sign and not v.is_zero


@pytest.mark.parametrize("fmt,n", [
    (BINARY64, 60), (BINARY32, 40), (BINARY16, 40),
    (BINARY128, 15), (X87_80, 15),
])
def test_all_engines_agree(fmt, n):
    report = verify_format(fmt, n)
    assert report.checked >= n - 1
    assert report.ok, report.mismatches[:5]


def test_reports_per_tier_counts():
    report = verify_format(BINARY64, 30)
    # Every tier of both free and fixed format must have been exercised.
    for tier in ("free/exact", "free/engine", "free/tier1", "free/host",
                 "free/engine-host", "fixed/exact", "fixed/engine-counted",
                 "fixed/counted-rational", "fixed/engine-paper",
                 "fixed/printf-host", "reader/roundtrip",
                 "surface/roundtrip"):
        assert report.tier_checks.get(tier, 0) > 0, tier
    assert not report.tier_mismatches
    text = report.tier_summary()
    assert "fixed/engine-counted" in text
    assert "ok" in text


def test_counted_rational_oracle_matches_integer_oracle():
    from repro.baselines.naive_fixed import exact_fixed_digits

    for v in sample_values(BINARY64, 40, seed=5):
        for nd in (1, 4, 9, 17):
            want = exact_fixed_digits(v, ndigits=nd)
            assert counted_digits_rational(v, ndigits=nd) == (
                want.k, want.digits), (v, nd)
        for pos in (-7, -1, 0, 3):
            want = exact_fixed_digits(v, position=pos)
            assert counted_digits_rational(v, position=pos) == (
                want.k, want.digits), (v, pos)


class TestRoundtripValues:
    def test_deterministic(self):
        assert roundtrip_values(BINARY64, 60, 3) == \
            roundtrip_values(BINARY64, 60, 3)

    def test_signed_and_includes_both_zeros(self):
        vals = roundtrip_values(BINARY32, 80)
        assert any(v.is_zero and v.sign for v in vals)
        assert any(v.is_zero and not v.sign for v in vals)
        assert any(v.sign and not v.is_zero for v in vals)

    def test_includes_denormals_and_extreme_powers(self):
        vals = roundtrip_values(BINARY64, 80)
        keyed = {(v.sign, v.f, v.e) for v in vals}
        assert (0, 1, BINARY64.min_e) in keyed  # smallest denormal
        assert (1, BINARY64.hidden_limit, BINARY64.max_e) in keyed


class TestRoundtripBattery:
    @pytest.mark.parametrize("fmt", [BINARY16, BINARY32, BINARY64],
                             ids=lambda f: f.name)
    def test_both_legs_agree(self, fmt):
        report = verify_roundtrip(fmt, n=120, seed=9)
        assert report.ok, report.mismatches[:5]
        assert report.checked >= 240  # both legs counted
        legs = set(report.tier_checks)
        assert any(t.startswith("print-parse/") for t in legs)
        assert any(t.startswith("parse-print-parse/") for t in legs)
        assert "print-parse-print" in legs
        assert {"midpoint/read_many", "midpoint/exact"} <= legs

    def test_host_oracle_only_on_binary64(self):
        with_host = verify_roundtrip(BINARY64, n=40, seed=2)
        without = verify_roundtrip(BINARY32, n=40, seed=2)
        assert with_host.tier_checks.get("host-float", 0) > 0
        assert "host-float" not in without.tier_checks

    def test_reader_tiers_all_exercised(self):
        report = verify_roundtrip(BINARY64, n=400, seed=0)
        for tier in ("tier0", "tier1"):
            assert any(t.endswith("/" + tier) for t in report.tier_checks
                       if report.tier_checks[t]), tier

    def test_cli_roundtrip_flag(self, capsys):
        rc = main(["--roundtrip", "--n", "60", "--seed", "4",
                   "--formats", "binary16", "binary64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "round-trip" in out
        assert "binary16" in out and "binary64" in out


class TestCli:
    def test_main_ok(self, capsys):
        rc = main(["--n", "8", "--seed", "1",
                   "--formats", "binary16", "binary64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "binary16" in out and "binary64" in out
        assert "all tiers agree" in out

    def test_main_fresh_seed_prints_seed(self, capsys):
        rc = main(["--n", "4", "--seed", "fresh", "--formats", "binary16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "seed=" in out


class TestReport:
    def test_summary_ok(self):
        r = VerificationReport("binary64", checked=10)
        assert "OK" in r.summary()

    def test_summary_mismatch(self):
        from repro.floats.model import Flonum

        r = VerificationReport("binary64", checked=10)
        r.check("kind")
        r.record("kind", Flonum.from_float(1.0), "boom")
        assert not r.ok
        assert "1 MISMATCHES" in r.summary()
        assert "kind" in r.mismatches[0]
        assert r.tier_mismatches == {"kind": 1}
        assert "1 MISMATCHES" in r.tier_summary()


import repro.verify as verify  # noqa: E402 - bulk battery internals


class TestBulkBattery:
    @pytest.mark.parametrize("fmt", [BINARY16, BINARY64],
                             ids=lambda f: f.name)
    def test_bulk_layer_is_byte_identical(self, fmt):
        report = verify.verify_bulk(fmt, n=300, seed=1)
        assert report.ok, report.mismatches[:5]
        for tag in ("bulk/column-dedup", "bulk/column-packed",
                    "bulk/writer", "bulk/pool-format", "bulk/pool-read",
                    "bulk/read", "bulk/read-roundtrip"):
            assert report.tier_checks.get(tag) == 1, tag

    def test_detects_divergence(self):
        # A corrupted oracle row must surface as a recorded mismatch.
        report = verify.VerificationReport(format_name="probe")
        verify._compare_rows(report, "bulk/column-dedup",
                             ["1.5", "bad"], ["1.5", "2.5"],
                             verify.roundtrip_values(BINARY64, 2, 0))
        assert not report.ok
        assert report.tier_mismatches["bulk/column-dedup"] == 1

    def test_cli_bulk_flag(self, capsys):
        status = verify.main(["--bulk", "--n", "120",
                              "--formats", "binary32"])
        out = capsys.readouterr().out
        assert status == 0
        assert "bulk battery" in out and "binary32 bulk" in out

    def test_cli_rejects_combined_batteries(self, capsys):
        with pytest.raises(SystemExit):
            verify.main(["--bulk", "--roundtrip"])


class TestChaosBattery:
    def test_chaos_battery_green(self):
        report = verify.verify_chaos(BINARY64, n=600, seed=2)
        assert report.ok, report.mismatches[:5]
        for tag in ("chaos/crash", "chaos/stall", "chaos/corrupt",
                    "chaos/tier-raise", "chaos/mixed",
                    "chaos/typed-shard-error", "chaos/typed-deadline",
                    "chaos/strict"):
            assert report.tier_checks.get(tag, 0) >= 1, tag

    def test_chaos_leaves_no_plan_armed(self):
        from repro import faults

        verify.verify_chaos(BINARY64, n=200, seed=3)
        assert faults.active() is None

    def test_cli_chaos_flag(self, capsys):
        status = verify.main(["--chaos", "--n", "200",
                              "--formats", "binary64"])
        out = capsys.readouterr().out
        assert status == 0
        assert "chaos battery" in out and "binary64 chaos" in out

    def test_cli_rejects_chaos_with_other_batteries(self, capsys):
        for combo in (["--chaos", "--bulk"], ["--chaos", "--roundtrip"]):
            with pytest.raises(SystemExit):
                verify.main(combo)


class TestEveryFlag:
    @pytest.mark.parametrize("flag", [name for name in verify._BATTERIES
                                      if name != "format"])
    def test_flag_passes_and_checks_every_row(self, flag, capsys):
        status = verify.main([f"--{flag}", "--n", "200",
                              "--formats", "binary64"])
        out = capsys.readouterr().out
        assert status == 0, out
        battery = verify._BATTERIES[flag]
        for row in battery.rows:
            assert re.search(rf"^  {re.escape(row.tag)} +\d+ checks  ok$",
                             out, re.M), row.tag
        for audit in ("serve/chaos-accounting",
                      "control/chaos-wire-accounting"):
            if audit.startswith(flag):
                assert re.search(rf"^  {re.escape(audit)} +1 checks  ok$",
                                 out, re.M), audit
        # Each sampled value counts once, however many rows repeat it
        # (the round-trip battery adds as many literals).
        sampled = len(battery.sample(BINARY64, 200, 0))
        if flag == "roundtrip":
            sampled *= 2
        assert f"{sampled} values checked" in out


class TestHarness:
    def _harness(self, tmp_path):
        corpus = verify.Corpus(BINARY64, 200, seed=0, min_rows=0)
        return verify.Harness(corpus, seed=0, jobs=1, tmp=str(tmp_path))

    def test_flipped_byte_is_one_mismatch_tagged_by_row_and_lane(
            self, tmp_path):
        from repro.engine import Engine
        from repro.serve import format_buffer

        h = self._harness(tmp_path)
        lanes = h.corpus.lanes
        k = next(i for i, lane in enumerate(lanes) if lane != lanes[0])
        offset = sum(len(t) + 1 for t in h.corpus.lines[:k])

        def flipped(c, _):
            out = bytearray(format_buffer(c.packed, c.fmt, engine=Engine()))
            out[offset] ^= 0x01  # first byte of row k, never a delimiter
            return verify._rows(bytes(out))

        report = verify.VerificationReport("probe")
        verify.run_rows(report, h, [verify.Row("probe/flip", flipped)])
        assert report.tier_mismatches == {f"probe/flip/{lanes[k]}": 1}
        assert len(report.mismatches) == 1
        assert f"row {k}:" in report.mismatches[0]

    def test_dropped_last_row_is_caught(self, tmp_path):
        h = self._harness(tmp_path)
        report = verify.VerificationReport("probe")
        verify.run_rows(report, h, [verify.Row(
            "probe/drop", lambda c, _: c.want_bits[:-1], verify._bits)])
        assert not report.ok
        assert "row count" in report.mismatches[0]

    def test_rig_opens_once_and_arms_its_plan_around_its_rows(
            self, tmp_path):
        from repro import faults

        h = self._harness(tmp_path)
        plan = faults.FaultPlan([faults.FaultSpec("engine.tier0",
                                                  at=(10**9,))])
        opened, seen = [], []

        def open_(_):
            opened.append(1)
            return contextlib.nullcontext("rig")

        def surface(c, obj):
            seen.append((obj, faults.active()))
            return c.lines

        rig = verify.Rig(open_, plan=lambda seed: plan, audit=lambda r, h_,
                         obj, p: r.expect("probe/audit", p is plan, None,
                                          "wrong plan"))
        report = verify.VerificationReport("probe")
        verify.run_rows(report, h, [verify.Row("probe/a", surface, rig=rig),
                                    verify.Row("probe/b", surface, rig=rig)])
        assert report.ok, report.mismatches
        assert opened == [1]
        assert seen == [("rig", plan)] * 2
        assert report.tier_checks["probe/audit"] == 1
        assert faults.active() is None


class TestLazyExports:
    def test_module_run_raises_no_runtime_warning(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.verify", "--n", "5", "--formats", "binary16"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_package_exports_resolve(self):
        import repro
        from repro import verify_format as lazily

        assert lazily is verify.verify_format
        assert repro.VerificationReport is verify.VerificationReport
        with pytest.raises(AttributeError):
            repro.no_such_name
