"""Whole columns through the column API: ``format_buffer`` and
``parse_buffer`` (and ``BulkPool.read_bulk`` for literal sequences),
compared with the scalar engine, with the engine memo as the only
dedup."""

import pytest

from repro.engine import Engine
from repro.engine.buffer import (
    format_buffer,
    ingest_bits,
    pack_bits,
    parse_buffer,
)
from repro.errors import RangeError
from repro.floats.formats import BINARY16, BINARY32, BINARY64
from repro.floats.model import Flonum
from repro.serve import BulkPool
from repro.workloads.corpus import uniform_random, zipf_random

SPECIALS = [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
            5e-324, 1e308, 0.1, 2.0 ** -1022]


def scalar_texts(eng, xs, fmt=BINARY64):
    return [eng.format(Flonum.from_bits(b, fmt), fmt=fmt)
            for b in ingest_bits(xs, fmt)]


def rows(payload, delimiter=b"\n"):
    """A terminated payload's rows as strings."""
    assert payload.endswith(delimiter)
    return payload[:-len(delimiter)].decode("ascii").split(
        delimiter.decode("ascii"))


class TestFormatColumn:
    def test_matches_scalar_engine_with_and_without_dedup(self):
        # The memo is the dedup: on or off, the bytes are the scalar
        # engine's.
        xs = SPECIALS + [v.to_float() for v in uniform_random(200, seed=9)] \
            + SPECIALS
        want = scalar_texts(Engine(), xs)
        assert rows(format_buffer(xs, engine=Engine())) == want
        assert rows(format_buffer(xs, engine=Engine(cache_size=0))) == want

    def test_duplicates_hit_the_kernel_once(self):
        eng = Engine()
        xs = [0.1] * 50 + [0.2] * 50
        assert format_buffer(xs, engine=eng) == b"0.1\n" * 50 + b"0.2\n" * 50
        s = eng.stats()
        assert s["cache_misses"] == 2
        assert s["tier0_hits"] + s["schubfach_hits"] + s["tier2_calls"] == 2
        assert s["cache_hits"] == 98

    def test_dedup_keys_on_bits_not_float_equality(self):
        # The memo keys on signed bit patterns: 0.0 == -0.0 and
        # nan != nan would make float keys wrong.  Two NaN payloads
        # print alike.
        eng = Engine()
        qnan, payload_nan = 0x7FF8000000000000, 0x7FF8000000000001
        out = rows(format_buffer([0, 1 << 63, qnan, payload_nan, qnan],
                                 engine=eng))
        assert out == ["0", "-0", "nan", "nan", "nan"]
        out = rows(format_buffer([1.5, -1.5, 1.5, -1.5], engine=eng))
        assert out == ["1.5", "-1.5", "1.5", "-1.5"]
        assert eng.stats()["cache_misses"] == 2

    @pytest.mark.parametrize("fmt", [BINARY16, BINARY32],
                             ids=lambda f: f.name)
    def test_narrow_formats_go_through_the_generic_path(self, fmt):
        eng = Engine()
        bits = ingest_bits(pack_bits(list(range(40)), fmt), fmt)
        assert rows(format_buffer(bits, fmt, engine=eng)) \
               == scalar_texts(eng, bits, fmt)

    def test_empty_column(self):
        assert format_buffer([], engine=Engine()) == b""


class TestFormatBulk:
    def test_payload_is_newline_terminated_rows(self):
        payload = format_buffer([1.5, 2.5, 0.1], engine=Engine())
        assert payload == b"1.5\n2.5\n0.1\n"

    def test_empty_column_empty_payload(self):
        assert format_buffer([], engine=Engine()) == b""
        with BulkPool(jobs=1) as pool:
            assert pool.format_bulk([]) == b""


class TestReadBulk:
    def test_round_trips_the_payload_bit_exactly(self):
        eng = Engine()
        xs = SPECIALS + [v.to_float()
                         for v in uniform_random(100, seed=4, signed=True)]
        bits = ingest_bits(xs, BINARY64)
        payload = format_buffer(xs, engine=eng)
        assert parse_buffer(payload, engine=eng) == bits
        flonums = parse_buffer(payload, engine=eng, out="flonums")
        assert [v.to_bits() for v in flonums] == bits

    def test_accepts_literal_sequences_too(self):
        texts = ["0.1", "-0", "1e300", "0.1"]
        with BulkPool(jobs=1) as pool:
            vals = pool.read_bulk(texts, out="flonums")
            assert [v.to_bits() for v in vals] == pool.read_bulk(texts)
        assert [v.to_bits() for v in vals] == parse_buffer(
            "".join(t + "\n" for t in texts), engine=Engine())
        assert vals[0] == vals[3]

    def test_dedup_reads_each_distinct_literal_once(self):
        eng = Engine()
        parse_buffer(b"0.25\n" * 30, engine=eng)
        s = eng.stats()
        assert s["read_cache_misses"] == 1
        assert s["read_cache_hits"] == 29
        assert s["read_conversions"] == 30

    def test_bad_out_kind_raises(self):
        with pytest.raises(RangeError):
            parse_buffer(b"1\n", out="strings")
        with BulkPool(jobs=1) as pool:
            with pytest.raises(RangeError):
                pool.read_bulk(b"1\n", out="strings")

    def test_empty_payload(self):
        assert parse_buffer(b"", engine=Engine()) == []


class TestZipfianThroughputShape:
    def test_interning_shrinks_kernel_work_on_skewed_corpora(self):
        # The memo absorbs a skewed column's repeats: the kernel runs
        # once per distinct pattern (the memo is sized past the column).
        eng = Engine()
        xs = zipf_random(2000, 150, s=1.3, seed=8)
        format_buffer(xs, engine=eng)
        distinct = len(set(ingest_bits(xs, BINARY64)))
        s = eng.stats()
        assert s["cache_misses"] == distinct
        assert s["cache_hits"] == len(xs) - distinct
        assert s["tier0_hits"] + s["schubfach_hits"] + s["tier2_calls"] \
            == distinct


class TestDelimitedWriter:
    def test_terminates_every_row(self):
        payload = format_buffer([1.0, 2.5, -0.0, 1.0], delimiter=",",
                                engine=Engine())
        assert payload == b"1,2.5,-0,1,"
        assert parse_buffer(payload, delimiter=b",") \
            == ingest_bits([1.0, 2.5, -0.0, 1.0])

    def test_empty_delimiter_rejected(self):
        with pytest.raises(RangeError):
            format_buffer([1.0], delimiter="", engine=Engine())
        with pytest.raises(RangeError):
            parse_buffer(b"1\n", delimiter=b"")
