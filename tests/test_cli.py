"""The repro-print command-line interface."""

import io

import pytest

from repro.cli import build_parser, run
from repro.serve.pool import INLINE_ROWS


def _run(*argv):
    out = io.StringIO()
    status = run(list(argv), out=out)
    return status, out.getvalue().splitlines()


class TestFreeFormat:
    def test_shortest_default(self):
        status, lines = _run("0.3")
        assert status == 0 and lines == ["0.3"]

    def test_multiple_values(self):
        status, lines = _run("0.1", "0.2", "0.3")
        assert lines == ["0.1", "0.2", "0.3"]

    def test_reader_mode_changes_1e23(self):
        _, aware = _run("1e23")
        _, unaware = _run("1e23", "--reader-mode", "nearest-unknown")
        assert aware == ["1e23"]
        assert unaware == ["9.999999999999999e22"]

    def test_python_repr_surface(self):
        _, lines = _run("1e23", "--python-repr")
        assert lines == ["1e+23"]

    def test_scaler_choice_same_answer(self):
        for scaler in ("estimate", "float-log", "iterative"):
            _, lines = _run("123.456", "--scaler", scaler)
            assert lines == ["123.456"]

    def test_base_conversion(self):
        _, lines = _run("0.5", "--base", "2", "--style", "positional")
        assert lines == ["0.1"]

    def test_negative_numbers(self):
        _, lines = _run("-0.3")
        assert lines == ["-0.3"]

    def test_specials(self):
        _, lines = _run("nan", "inf")
        assert lines == ["nan", "inf"]

    def test_negative_infinity_after_separator(self):
        # argparse needs "--" before non-numeric dash arguments.
        _, lines = _run("--", "-inf")
        assert lines == ["-inf"]


class TestFixedFormat:
    def test_decimals(self):
        _, lines = _run("100", "--decimals", "20")
        assert lines == ["100.000000000000000#####"]

    def test_digits(self):
        _, lines = _run("0.333333333333333333", "--digits", "10")
        assert lines == ["0.3333333333"]

    def test_position(self):
        _, lines = _run("12345", "--position", "2")
        assert lines == ["12300"]

    def test_format_choice(self):
        # Reading into binary32 first loses digits: 1/3's float32 prints
        # fewer significant digits.
        _, lines64 = _run("0.3333333333333333", "--format", "binary64")
        _, lines32 = _run("0.3333333333333333", "--format", "binary32")
        assert len(lines32[0]) < len(lines64[0])


class TestErrors:
    def test_bad_literal_reports_and_continues(self):
        status, lines = _run("abc", "1.5")
        assert status == 1
        assert lines[0].startswith("error:")
        assert lines[1] == "1.5"

    def test_parser_rejects_conflicting_modes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["1.0", "--digits", "3",
                                       "--decimals", "2"])

    def test_parser_rejects_unknown_scaler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["1.0", "--scaler", "magic"])


class TestHexAndFast:
    def test_hex_output(self):
        _, lines = _run("1.5", "--hex")
        assert lines == ["0x1.8p+0"]

    def test_hex_input(self):
        _, lines = _run("0x1.8p+0")
        assert lines == ["1.5"]

    def test_hex_roundtrip_both_ways(self):
        _, lines = _run("0x1.999999999999ap-4", "--hex")
        assert lines == ["0x1.999999999999ap-4"]
        _, lines = _run("0x1.999999999999ap-4")
        assert lines == ["0.1"]

    def test_fast_shortest_matches_exact(self):
        _, fast = _run("123.456", "--fast")
        _, exact = _run("123.456")
        assert fast == exact

    def test_fast_counted(self):
        _, lines = _run("0.123456", "--fast", "--digits", "3")
        assert lines == ["0.123"]

    def test_fast_specials(self):
        _, lines = _run("inf", "nan", "0", "--fast")
        assert lines == ["inf", "nan", "0"]

    def test_negative_hex_input(self):
        # dash-leading non-numeric args need the -- separator.
        _, lines = _run("--", "-0x1p-1")
        assert lines == ["-0.5"]


class TestRead:
    # The CLI reads through the process-wide default engine; a literal
    # another test already read resolves as tier=memo, so assertions
    # pin the components and accept the memo tier where it can occur.

    def test_reports_components_and_tier(self):
        _, lines = _run("1.5", "--read")
        head, tier = lines[0].rsplit(" tier=", 1)
        assert head == "sign=0 f=6755399441055744 e=-52"
        assert tier in ("tier1", "memo")

    def test_interval_tier_literal(self):
        _, lines = _run("2.2250738585072014e-308", "--read")
        head, tier = lines[0].rsplit(" tier=", 1)
        assert head == "sign=0 f=4503599627370496 e=-1074"
        assert tier in ("tier1", "memo")

    def test_specials_and_signed_zero(self):
        _, lines = _run("nan", "--read")
        assert lines[0].startswith("nan tier=")
        _, lines = _run("--read", "--", "-0")
        assert lines[0].startswith("sign=1 zero tier=")
        _, lines = _run("1e999", "--read")
        assert lines[0].startswith("sign=0 inf tier=")

    def test_no_engine_uses_exact_reader(self):
        _, engine = _run("1.5", "--read")
        _, exact = _run("1.5", "--read", "--no-engine")
        assert exact == ["sign=0 f=6755399441055744 e=-52 tier=exact"]
        assert engine[0].rsplit(" ", 1)[0] == exact[0].rsplit(" ", 1)[0]

    def test_format_choice(self):
        _, lines = _run("1.5", "--read", "--format", "binary16")
        assert lines[0].startswith("sign=0 f=1536 e=-10 tier=")

    def test_bad_literal_reports_and_continues(self):
        status, lines = _run("abc", "1.5", "--read")
        assert status == 1
        assert lines[0].startswith("error:")
        assert lines[1].startswith("sign=0 f=6755399441055744 e=-52")


class TestStyles:
    def test_engineering(self):
        _, lines = _run("6.02214076e23", "--style", "engineering")
        assert lines == ["602.214076e21"]

    def test_grouping(self):
        _, lines = _run("1234567.89", "--style", "positional",
                        "--group", ",")
        assert lines == ["1,234,567.89"]


class TestStdin:
    def test_reads_stdin_when_no_values(self, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0.1\n\n1e23\n"))
        status, lines = _run()
        assert status == 0
        assert lines == ["0.1", "1e23"]


class TestBulk:
    def test_matches_scalar_path(self):
        vals = ["0.1", "1e300", "-0.0", "nan", "inf", "5e-324", "0.1"]
        status, lines = _run("--bulk", *vals)
        assert status == 0
        assert lines == _run(*vals)[1]

    def test_jobs_sharding_same_output(self):
        vals = [f"{i}.{i}e{i % 40}" for i in range(1, 60)]
        status, lines = _run("--bulk", "--jobs", "2", *vals)
        assert status == 0
        assert lines == _run("--bulk", *vals)[1]

    def test_narrow_format(self):
        status, lines = _run("--bulk", "--format", "binary32", "0.1", "2.5")
        assert status == 0
        assert lines == _run("--format", "binary32", "0.1", "2.5")[1]

    def test_reader_mode_flows_through(self):
        status, lines = _run("--bulk", "--reader-mode", "toward-zero",
                             "1e23")
        assert lines == _run("--reader-mode", "toward-zero", "1e23")[1]

    @pytest.mark.parametrize("flag", [("--hex",), ("--read",),
                                      ("--digits", "3"), ("--fast",),
                                      ("--no-engine",), ("--base", "16"),
                                      ("--python-repr",)])
    def test_incompatible_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            run(["--bulk", *flag, "1.0"], out=io.StringIO())

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            run(["--bulk", "--jobs", "0", "1.0"], out=io.StringIO())

    def test_bad_literal_fails_whole_column(self):
        status, lines = _run("--bulk", "0.1", "zzz")
        assert status == 1
        assert lines and lines[0].startswith("error:")

    def test_bad_literal_error_is_typed_one_liner(self):
        status, lines = _run("--bulk", "0.1", "zzz")
        assert status == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: ParseError:")

    def test_chaos_seed_output_byte_identical(self):
        # At least INLINE_ROWS literals, so the pool shards and the
        # smoke plan's pool specs reach the workers.
        vals = [f"{i}.{i}e{i % 40}" for i in range(1, INLINE_ROWS + 1)]
        status, lines = _run("--bulk", "--jobs", "2", "--chaos-seed", "5",
                             *vals)
        assert status == 0
        assert lines == _run("--bulk", *vals)[1]

    def test_chaos_seed_disarms_after_run(self):
        from repro import faults

        status, _ = _run("--bulk", "--chaos-seed", "1", "1.5")
        assert status == 0
        assert faults.active() is None

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_engine_stats_count_the_pool_conversions(self, jobs, capsys):
        # --engine-stats reports the pool that did the work, whether
        # its parent engine or (at INLINE_ROWS rows) its workers did.
        for vals in (["0", "0.37", "0.74"],
                     [f"{i}.{i}e{i % 40}" for i in range(1, INLINE_ROWS + 1)]):
            status, lines = _run("--bulk", "--jobs", jobs, "--engine-stats",
                                 *vals)
            assert status == 0 and len(lines) == len(vals)
            stats = dict(line.split(": ") for line in
                         capsys.readouterr().err.splitlines())
            assert int(stats["conversions"]) > 0
            assert int(stats["read_conversions"]) == len(vals)

    def test_buffer_flag_is_gone(self):
        with pytest.raises(SystemExit):
            run(["--buffer", "1.0"], out=io.StringIO())

    def test_chaos_seed_requires_bulk(self):
        with pytest.raises(SystemExit):
            run(["--chaos-seed", "3", "1.0"], out=io.StringIO())
