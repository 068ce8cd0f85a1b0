"""Columnar ingestion: every buffer shape, every payload edge case.

Satellite coverage for the zero-copy decoder: NaN payloads, signed
zeros, denormals and infinities must survive the packed round trip for
every byte-encoded format, and malformed buffers must fail cleanly
(``DecodeError``), never reinterpret.
"""

import struct
import sys
from array import array

import pytest

from repro.engine.buffer import bits_from_buffer, ingest_bits, pack_bits
from repro.errors import DecodeError
from repro.floats.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    STANDARD_FORMATS,
)
from repro.floats.model import Flonum

FORMATS = [BINARY16, BINARY32, BINARY64]

#: Interesting bit patterns per format: ±0, smallest/largest denormal,
#: smallest normal, 1.0-ish, max finite, ±inf, quiet/signaling-shaped
#: NaNs with payloads, all-ones NaN.
def edge_bits(fmt):
    w = fmt.total_bits
    sig = w - 1 - (fmt.total_bits - fmt.precision)  # stored mantissa bits
    exp_bits = w - 1 - sig
    exp_mask = ((1 << exp_bits) - 1) << sig
    sign_bit = 1 << (w - 1)
    return [
        0,                              # +0
        sign_bit,                       # -0
        1,                              # smallest denormal
        (1 << sig) - 1,                 # largest denormal
        1 << sig,                       # smallest normal
        exp_mask >> 1,                  # mid-range normal
        exp_mask - (1 << sig),          # top-exponent normal
        exp_mask,                       # +inf
        sign_bit | exp_mask,            # -inf
        exp_mask | (1 << (sig - 1)),    # quiet NaN, empty payload
        exp_mask | 1,                   # NaN, low-bit payload
        exp_mask | ((1 << sig) - 1),    # NaN, saturated payload
        sign_bit | exp_mask | 0b1011,   # signed NaN with payload
    ]


class TestPackedRoundTrip:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_bytes_round_trip_preserves_every_bit(self, fmt):
        bits = edge_bits(fmt)
        packed = pack_bits(bits, fmt)
        assert len(packed) == len(bits) * fmt.total_bits // 8
        assert bits_from_buffer(packed, fmt) == bits
        assert ingest_bits(bytearray(packed), fmt) == bits
        assert ingest_bits(memoryview(packed), fmt) == bits

    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_nan_payloads_and_signed_zero_survive_decode(self, fmt):
        bits = edge_bits(fmt)
        decoded = [Flonum.from_bits(b, fmt) for b in bits]
        assert decoded[0].is_zero and decoded[0].sign == 0
        assert decoded[1].is_zero and decoded[1].sign == 1
        assert decoded[2].is_finite and decoded[2].e == fmt.min_e
        assert decoded[7].is_infinite and decoded[7].sign == 0
        assert decoded[8].is_infinite and decoded[8].sign == 1
        assert all(v.is_nan for v in decoded[9:])
        # Packing the decoded flonums loses at most the NaN payload —
        # the non-NaN population must be exactly reversible.
        again = ingest_bits(decoded, fmt)
        assert again[:9] == bits[:9]

    def test_float_list_ingestion_is_bit_exact(self):
        xs = [0.0, -0.0, 5e-324, float("inf"), float("-inf"),
              float("nan"), 0.1, 1e308]
        bits = ingest_bits(xs, BINARY64)
        want = [struct.unpack("<Q", struct.pack("<d", x))[0] for x in xs]
        if sys.byteorder == "big":  # pragma: no cover
            want = [struct.unpack(">Q", struct.pack(">d", x))[0] for x in xs]
        assert bits == want
        floats = memoryview(pack_bits(bits, BINARY64)).cast("d").tolist()
        assert [str(x) for x in floats] == [str(x) for x in xs]


class TestBufferShapes:
    def test_array_d_is_a_float_view(self):
        xs = [1.5, -2.25, 0.1]
        assert ingest_bits(array("d", xs), BINARY64) == ingest_bits(
            xs, BINARY64)

    def test_typed_float_view_width_mismatch_raises(self):
        with pytest.raises(DecodeError):
            bits_from_buffer(array("f", [1.0, 2.0]), BINARY64)
        with pytest.raises(DecodeError):
            bits_from_buffer(array("d", [1.0]), BINARY32)

    def test_uint_view_is_taken_as_bit_patterns(self):
        bits = edge_bits(BINARY16)
        a = array("H", bits)
        assert a.itemsize == 2
        assert bits_from_buffer(a, BINARY16) == bits

    def test_noncontiguous_memoryview_is_copied_not_rejected(self):
        packed = pack_bits([1, 2, 3, 4], BINARY64)
        doubled = pack_bits([1, 99, 2, 99, 3, 99, 4, 99], BINARY64)
        mv = memoryview(doubled).cast("Q")[::2]
        assert not mv.c_contiguous
        assert bits_from_buffer(mv, BINARY64) \
               == bits_from_buffer(packed, BINARY64)

    def test_unsupported_item_format_raises(self):
        with pytest.raises(DecodeError):
            bits_from_buffer(array("i", [1, 2]), BINARY32)

    def test_non_buffer_object_raises(self):
        with pytest.raises(DecodeError):
            bits_from_buffer(object(), BINARY64)

    def test_numpy_buffers_if_available(self):
        np = pytest.importorskip("numpy")
        xs = np.array([0.5, -0.0, float("nan")], dtype=np.float64)
        assert ingest_bits(xs, BINARY64) == ingest_bits(list(map(
            float, xs)), BINARY64)
        half = np.array([1.0, -2.0], dtype=np.float16)
        assert ingest_bits(half, BINARY16) == [0x3C00, 0xC000]
        u64 = np.array([0x3FF0000000000000], dtype=np.uint64)
        assert ingest_bits(u64, BINARY64) == [0x3FF0000000000000]


class TestMalformedPayloads:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    def test_trailing_partial_value_raises(self, fmt):
        itemsize = fmt.total_bits // 8
        good = pack_bits([0] * 3, fmt)
        with pytest.raises(DecodeError, match="trailing partial"):
            bits_from_buffer(good + b"\x00" * (itemsize - 1), fmt)
        if itemsize > 1:
            with pytest.raises(DecodeError, match="trailing partial"):
                bits_from_buffer(good[:-1], fmt)

    def test_unencodable_format_raises(self):
        toy = STANDARD_FORMATS.get("decimal64")
        for fmt in filter(None, [toy]):
            if not fmt.has_encoding or fmt.total_bits % 8:
                with pytest.raises(DecodeError):
                    ingest_bits(b"\x00" * 8, fmt)

    def test_out_of_range_int_patterns_raise(self):
        with pytest.raises(DecodeError):
            ingest_bits([0, 1 << 16], BINARY16)
        with pytest.raises(DecodeError):
            ingest_bits([-1], BINARY64)
        with pytest.raises(DecodeError):
            pack_bits([1 << 64], BINARY64)

    def test_narrow_floats_cannot_come_from_python_lists(self):
        with pytest.raises(DecodeError):
            ingest_bits([1.0, 2.0], BINARY32)

    def test_mixed_bools_are_not_bit_patterns(self):
        with pytest.raises(DecodeError):
            ingest_bits([True, False], BINARY64)


class TestWideFormats:
    def test_binary128_packed_round_trip(self):
        # 16-byte items have no array typecode: the int.from_bytes
        # fallback must still round-trip exactly.
        bits = [0, 1, (1 << 127) | (1 << 64) | 7, (1 << 128) - 1 >> 1]
        packed = pack_bits(bits, BINARY128)
        assert len(packed) == 16 * len(bits)
        assert bits_from_buffer(packed, BINARY128) == bits
