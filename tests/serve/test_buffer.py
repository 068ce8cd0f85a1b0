"""The byte-plane pipeline: split/parse/format over whole
delimited buffers, byte- and bit-compared against the row-at-a-time
path."""

import math

import pytest

from repro.engine import Engine, ReadEngine
from repro.engine.buffer import (
    _row_count,
    format_buffer,
    parse_buffer,
    split_plane,
    split_rows,
)
from repro.core.api import format_shortest
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.bulk import format_column, ingest_bits, pack_bits
from repro.errors import DecodeError, ParseError, RangeError
from repro.floats.formats import BINARY16, BINARY32, BINARY64, BINARY128
from repro.floats.model import Flonum
from repro.reader.exact import read_decimal
from repro.serve import BulkPool, DelimitedWriter
from repro.workloads.corpus import duplicated_random, uniform_random

CORPUS = [v.to_float() for v in duplicated_random(800, 60, seed=11)] + [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.2250738585072014e-308,
]


def row_payload(xs, fmt=BINARY64):
    texts = format_column(ingest_bits(xs, fmt), fmt, engine=Engine())
    return DelimitedWriter().extend(texts).getvalue(), texts


class TestSplitPlane:
    def test_offsets_and_lengths_reconstruct_rows(self):
        plane, starts, lengths = split_plane(b"1.5\n-2e3\nnan\n")
        assert plane == b"1.5\n-2e3\nnan\n"
        rows = [plane[s:s + n] for s, n in zip(starts, lengths)]
        assert rows == [b"1.5", b"-2e3", b"nan"]

    def test_trailing_delimiter_no_phantom_row(self):
        _, starts, _ = split_plane(b"1\n2\n")
        assert len(starts) == 2

    def test_unterminated_tail_is_a_row(self):
        plane, starts, lengths = split_plane(b"1\n2")
        assert [plane[s:s + n] for s, n in zip(starts, lengths)] \
            == [b"1", b"2"]

    def test_crlf_and_multibyte_delimiters(self):
        for delim in (b"\r\n", b"||", "::"):
            d = delim.encode() if isinstance(delim, str) else delim
            data = d.join([b"1", b"2", b"3"]) + d
            plane, starts, lengths = split_plane(data, delim)
            assert [plane[s:s + n] for s, n in zip(starts, lengths)] \
                == [b"1", b"2", b"3"]

    def test_agrees_with_bytes_split_oracle(self):
        # Plane sizes straddle 64 bytes (15-17 rows of "1234"), where
        # the splitter once changed legs; rows include empty ones.
        for delim in (b"\n", b",", b"\r\n", b"--"):
            for n in (0, 1, 5, 15, 16, 17, 40, 300):
                rows = [b"" if i % 7 == 3 else str(1000 + i).encode()
                        for i in range(n)]
                body = delim.join(rows)
                for plane in (body + delim if rows else b"", body):
                    want = plane.split(delim)
                    if want and not want[-1]:
                        want.pop()  # one trailing terminator: no phantom
                    got, starts, lengths = split_plane(plane, delim)
                    assert got == plane
                    assert [plane[a:a + m]
                            for a, m in zip(starts, lengths)] == want
                    assert _row_count(plane, delim) == len(starts)

    def test_terminated_and_unterminated_planes_split_alike(self):
        # Both splitters, bytes and str, every delimiter width.
        head = ["1.5", "-2e3", "nan"]
        for delim in ("\n", "\r\n", "||"):
            body = delim.join(head)
            for text in (body + delim, body):
                plane, starts, lengths = split_plane(text.encode("ascii"),
                                                     delim)
                assert [plane[s:s + n].decode("ascii")
                        for s, n in zip(starts, lengths)] == head
                assert split_rows(text, delim) == head
        assert split_rows("", "\n") == []

    def test_empty_and_only_delimiter_planes(self):
        assert split_plane(b"")[1:] == (split_plane(b"")[1],
                                        split_plane(b"")[2])
        _, starts, _ = split_plane(b"")
        assert len(starts) == 0
        plane, starts, lengths = split_plane(b"\n\n\n")
        assert [plane[s:s + n] for s, n in zip(starts, lengths)] \
            == [b"", b"", b""]

    def test_split_rows_decodes_ascii(self):
        assert split_rows(b"1.5\n2.5\n") == ["1.5", "2.5"]
        assert split_rows(memoryview(b"1\n2")) == ["1", "2"]

    def test_non_bytes_input_raises_decode_error_not_type_error(self):
        with pytest.raises(DecodeError):
            split_rows(object())
        with pytest.raises(DecodeError):
            parse_buffer(12.5)

    def test_empty_delimiter_rejected(self):
        with pytest.raises(RangeError):
            split_plane(b"1\n2\n", b"")


class TestParseBuffer:
    def test_bits_match_row_path(self):
        payload, texts = row_payload(CORPUS)
        oracle = ReadEngine(cache_size=0)
        want = [oracle.read_result(t, BINARY64).value.to_bits()
                for t in texts]
        assert parse_buffer(payload) == want

    def test_empty_buffer(self):
        assert parse_buffer(b"") == []
        assert parse_buffer(b"", out="flonums") == []

    def test_only_delimiters_is_a_parse_error(self):
        # Empty rows are malformed literals on the row path too.
        with pytest.raises(ParseError):
            parse_buffer(b"\n\n")

    def test_truncated_trailing_token(self):
        # An unterminated final row parses like a terminated one.
        assert parse_buffer(b"1.5\n2.5") == parse_buffer(b"1.5\n2.5\n")

    def test_specials_and_denormals(self):
        bits = parse_buffer(b"nan\ninf\n-inf\n-0.0\n0\n5e-324\n")
        assert bits[0] == 0x7FF8000000000000
        assert bits[1] == 0x7FF0000000000000
        assert bits[2] == 0xFFF0000000000000
        assert bits[3] == 0x8000000000000000
        assert bits[4] == 0
        assert bits[5] == 1  # smallest subnormal
        # Other spellings read like the exact reader reads them.
        rows = ["-nan", "infinity", "+Infinity", "-Infinity",
                "-4.9406564584124654e-324"]
        plane = "".join(t + "\n" for t in rows).encode()
        assert parse_buffer(plane) == [read_decimal(t).to_bits()
                                       for t in rows]

    def test_flonums_out(self):
        flos = parse_buffer(b"1.5\n-2.25\n", out="flonums")
        assert [v.to_float() for v in flos] == [1.5, -2.25]

    def test_dedup_off_matches_dedup_on(self):
        payload, _ = row_payload(CORPUS)
        assert parse_buffer(payload, dedup=False) == parse_buffer(payload)

    def test_crlf_delimiter(self):
        assert parse_buffer(b"1.5\r\n2.5\r\n", delimiter=b"\r\n") \
            == parse_buffer(b"1.5\n2.5\n")

    def test_whitespace_padding_matches_scalar_strip(self):
        assert parse_buffer(b" 1.5 \n\t2.5\n") == parse_buffer(b"1.5\n2.5\n")

    @pytest.mark.parametrize("fmt", [BINARY16, BINARY32, BINARY64,
                                     BINARY128])
    def test_formats_round_trip(self, fmt):
        flos = uniform_random(120, fmt, seed=5, signed=True)
        bits = [v.to_bits() for v in flos]
        payload, _ = row_payload(bits, fmt)
        assert parse_buffer(payload, fmt) == bits

    def test_non_ascii_token_is_a_parse_error(self):
        with pytest.raises(ParseError, match="non-ASCII"):
            parse_buffer(b"1.5\n2.5\n\xc3\xa9\n")

    def test_token_holding_a_newline_stays_one_token(self):
        # With another delimiter a newline is token content, not a
        # row break: "2\n5" is one malformed literal.
        assert parse_buffer(b"1.5|2.5|", delimiter=b"|") \
            == parse_buffer(b"1.5\n2.5\n")
        with pytest.raises(ParseError):
            parse_buffer(b"1.5|2\n5|", delimiter=b"|")

    def test_stats_flushed_to_reader(self):
        reader = ReadEngine()
        parse_buffer(b"1.5\nnan\n1e300\n", engine=reader)
        stats = reader.stats()
        assert stats["read_specials"] == 1
        assert stats["read_conversions"] == 3  # specials count too


class TestFormatBuffer:
    @pytest.mark.parametrize("fmt", [BINARY16, BINARY32, BINARY64,
                                     BINARY128])
    def test_payload_matches_row_path(self, fmt):
        flos = uniform_random(150, fmt, seed=9, signed=True)
        bits = [v.to_bits() for v in flos]
        want, _ = row_payload(bits, fmt)
        assert format_buffer(bits, fmt) == want
        # The packed-bytes ingestion leg.
        assert format_buffer(pack_bits(bits, fmt), fmt) == want

    @pytest.mark.parametrize("fmt", [BINARY16, BINARY32, BINARY64],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("dedup", [True, False])
    def test_ragged_packed_column_raises_decode_error(self, fmt, dedup):
        import repro

        ragged = b"\x00" * (3 * (fmt.total_bits // 8) + 1)
        with pytest.raises(DecodeError, match="trailing partial"):
            format_buffer(ragged, fmt, dedup=dedup)
        with pytest.raises(DecodeError, match="trailing partial"):
            repro.format_bulk(ragged, fmt, dedup=dedup)

    def test_dedup_off_and_writer_reuse(self):
        bits = ingest_bits(CORPUS)
        want, _ = row_payload(CORPUS)
        assert format_buffer(bits, dedup=False) == want
        w = DelimitedWriter(b"\n")
        w.write("0")
        assert format_buffer(bits, writer=w) == b"0\n" + want

    def test_custom_delimiter(self):
        bits = ingest_bits([1.5, -2.5])
        assert format_buffer(bits, delimiter=b"\r\n") == b"1.5\r\n-2.5\r\n"

    def test_empty_column(self):
        assert format_buffer([]) == b""

    def test_round_trip_through_both_directions(self):
        bits = ingest_bits(CORPUS)
        assert parse_buffer(format_buffer(bits)) == [
            b if not math.isnan(f) else parse_buffer(b"nan\n")[0]
            for b, f in zip(bits, CORPUS)]


class TestWriterExtendFastPath:
    def test_extend_matches_per_item_write(self):
        texts = [str(i / 7) for i in range(500)]
        w1 = DelimitedWriter(b"\n")
        for t in texts:
            w1.write(t)
        assert DelimitedWriter(b"\n").extend(texts).getvalue() \
            == w1.getvalue()
        assert DelimitedWriter(b"\n").extend([]).getvalue() == b""


class TestPoolBytePlanes:
    def test_pool_read_slices_plane_on_token_boundaries(self):
        payload, texts = row_payload(CORPUS)
        want = parse_buffer(payload)
        for jobs in (1, 2):
            with BulkPool(jobs=jobs, shards_per_job=2) as pool:
                assert pool.read_bulk(payload) == want

    def test_pool_format_byte_identical(self):
        want, _ = row_payload(CORPUS)
        with BulkPool(jobs=2, shards_per_job=2) as pool:
            assert pool.format_bulk(CORPUS) == want


class TestBinary16Total:
    """Every binary16 bit pattern, through the bit layer and the byte
    plane, against the exact oracle."""

    QUIET_NAN = 0x7E00

    @pytest.fixture(scope="class")
    def column(self):
        values = [Flonum.from_bits(b, BINARY16) for b in range(1 << 16)]
        return [(b, v) for b, v in enumerate(values) if not v.is_nan], \
            [v for v in values if v.is_nan]

    def test_bit_layer_round_trips_every_pattern(self, column):
        finite_and_inf, nans = column
        assert all(v.to_bits() == b for b, v in finite_and_inf)
        assert len(nans) == 2 * (2 ** 10 - 1)
        assert {v.to_bits() for v in nans} == {self.QUIET_NAN}

    def test_plane_round_trips_and_matches_exact_oracle(self, column):
        finite_and_inf, _ = column
        bits = [b for b, _ in finite_and_inf]
        plane = format_buffer(pack_bits(bits, BINARY16), BINARY16,
                              engine=Engine())
        # A memo that holds the whole plane: the second pass is all hits.
        reader = Engine(cache_size=1 << 17)
        assert parse_buffer(plane, BINARY16, engine=reader) == bits
        reader.reset_stats()
        assert parse_buffer(plane, BINARY16, engine=reader) == bits
        assert reader.stats()["read_cache_hits"] == len(bits)
        oracle = "".join(format_shortest(v, engine=None) + "\n"
                         for _, v in finite_and_inf)
        assert plane == oracle.encode("ascii")

    @pytest.mark.parametrize("mode", [ReaderMode.NEAREST_EVEN,
                                      ReaderMode.NEAREST_UNKNOWN])
    @pytest.mark.parametrize("tie", [TieBreak.UP, TieBreak.DOWN])
    def test_default_write_route_matches_exact_every_pattern(
            self, column, mode, tie):
        # Every finite non-zero pattern through the default route
        # (tier 0, then Schubfach): byte-identical to the exact tier and
        # never reaching it.  A nearest mode mirrors to itself, so the
        # oracle of -v is "-" + the oracle of v.
        finite = [v for _, v in column[0] if v.is_finite and not v.is_zero]
        assert len(finite) == 2 * (31 * 1024 - 1)
        want = self._exact_positive(finite, mode, tie)
        eng = Engine(cache_size=0)  # memo off: every pattern is routed
        for v in finite:
            got = eng.format(v, mode=mode, tie=tie, fmt=BINARY16)
            expect = want[v.f, v.e]
            assert got == ("-" + expect if v.sign else expect), v
        s = eng.stats()
        assert s["tier2_calls"] == 0
        assert s["tier0_hits"] + s["schubfach_hits"] == len(finite)

    _exact_cache: dict = {}

    @classmethod
    def _exact_positive(cls, finite, mode, tie):
        """The exact tier's text for every positive finite pattern,
        keyed by ``(f, e)`` (built once per mode and tie)."""
        want = cls._exact_cache.get((mode, tie))
        if want is None:
            exact = Engine(tier_order=(), cache_size=0)
            want = cls._exact_cache[mode, tie] = {
                (v.f, v.e): exact.format(v, mode=mode, tie=tie,
                                         fmt=BINARY16)
                for v in finite if not v.sign}
        return want

    @pytest.mark.parametrize("mode", [ReaderMode.NEAREST_EVEN,
                                      ReaderMode.NEAREST_UNKNOWN])
    @pytest.mark.parametrize("tie", [TieBreak.UP, TieBreak.DOWN])
    def test_format_many_matches_exact_every_pattern(self, column, mode,
                                                     tie):
        # Every pattern (NaNs, infinities and zeros too) as one
        # format_many batch, memo off and on: the batch loop must equal
        # the exact tier and never reach it.
        values = [Flonum.from_bits(b, BINARY16) for b in range(1 << 16)]
        finite = [v for v in values if v.is_finite and not v.is_zero]
        positive = self._exact_positive(finite, mode, tie)
        exact = Engine(tier_order=(), cache_size=0)
        want = []
        for v in values:
            if v.is_finite and not v.is_zero:
                text = positive[v.f, v.e]
                want.append("-" + text if v.sign else text)
            else:
                want.append(exact.format(v, mode=mode, tie=tie,
                                         fmt=BINARY16))
        for cache_size in (0, 8192):
            eng = Engine(cache_size=cache_size)
            assert eng.format_many(values, mode=mode, tie=tie,
                                   fmt=BINARY16) == want
            s = eng.stats()
            assert s["tier2_calls"] == 0
            assert s["tier0_hits"] + s["schubfach_hits"] \
                + s["cache_hits"] == len(finite)
