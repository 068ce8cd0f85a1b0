"""Flonum: construction, ordering, exact values, immutability."""

from fractions import Fraction

import pytest
from hypothesis import given

from helpers import TOY_P5, finite_doubles
from repro.errors import (
    DecodeError,
    FormatError,
    NotRepresentableError,
    RangeError,
)
from repro.floats.decompose import FloatClass, decode_fields, split_bits
from repro.engine.buffer import parse_buffer
from repro.floats.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    STANDARD_FORMATS,
    X87_80,
)
from repro.floats.model import Flonum, FlonumKind


class TestConstruction:
    @given(finite_doubles())
    def test_from_float_exact(self, x):
        v = Flonum.from_float(x)
        assert v.to_float() == x
        if x != 0:
            assert v.to_fraction() == Fraction(x)

    def test_from_float_specials(self):
        assert Flonum.from_float(float("nan")).is_nan
        assert Flonum.from_float(float("inf")).is_infinite
        neg = Flonum.from_float(float("-inf"))
        assert neg.is_infinite and neg.is_negative

    def test_signed_zero(self):
        plus = Flonum.from_float(0.0)
        minus = Flonum.from_float(-0.0)
        assert plus.is_zero and minus.is_zero
        assert minus.is_negative and not plus.is_negative
        assert plus == minus  # IEEE ordering identifies them

    def test_from_bits_binary16(self):
        one = Flonum.from_bits(0x3C00, BINARY16)
        assert one.to_fraction() == 1

    def test_to_bits_roundtrip_curated(self):
        for x in (1.0, -1.0, 0.1, 5e-324, 1.7976931348623157e308, 0.0):
            v = Flonum.from_float(x)
            assert Flonum.from_bits(v.to_bits(), BINARY64) == v

    def test_nan_to_bits_is_quiet(self):
        bits = Flonum.nan(BINARY64).to_bits()
        # Exponent all ones, top mantissa bit set.
        assert bits >> 52 == 0x7FF
        assert bits & (1 << 51)

    def test_from_int(self):
        assert Flonum.from_int(10).to_fraction() == 10
        assert Flonum.from_int(-3).to_fraction() == -3
        assert Flonum.from_int(0).is_zero
        # 2**53 + 1 is not a double.
        with pytest.raises(RangeError):
            Flonum.from_int((1 << 53) + 1)

    def test_finite_rejects_noncanonical(self):
        with pytest.raises(DecodeError):
            Flonum.finite(0, 1, 0, BINARY64)
        with pytest.raises(DecodeError):
            Flonum.finite(2, 1 << 52, 0, BINARY64)

    def test_immutable(self):
        v = Flonum.from_float(1.0)
        with pytest.raises(AttributeError):
            v.f = 3


def _fields(v: Flonum) -> tuple:
    return (v.kind, v.sign, v.f, v.e, v.fmt)


def _decoded_by_finite(bits: int, fmt) -> Flonum:
    """``from_bits`` the validating way: classify, then ``finite``."""
    fcls, sign, f, e = decode_fields(*split_bits(bits, fmt), fmt)
    if fcls is FloatClass.NAN:
        return Flonum.nan(fmt)
    if fcls is FloatClass.INFINITE:
        return Flonum.infinity(fmt, sign)
    return Flonum.finite(sign, f, e, fmt)


class TestFromBits:
    """``from_bits`` builds finite values without re-validating: the
    decoded fields must be exactly what ``Flonum.finite`` accepts."""

    def test_every_binary16_pattern(self):
        for bits in range(1 << 16):
            assert _fields(Flonum.from_bits(bits, BINARY16)) == \
                _fields(_decoded_by_finite(bits, BINARY16)), hex(bits)

    @pytest.mark.parametrize("fmt", [BINARY32, BINARY64])
    def test_binade_edges(self, fmt):
        width = fmt.mantissa_field_width
        top = fmt.max_biased_exponent
        mants = {0, 1, 2, 1 << (width - 1), (1 << width) - 2,
                 (1 << width) - 1}
        for sign in (0, 1):
            for biased in (0, 1, 2, top // 2, top - 2, top - 1, top):
                for m in mants:
                    bits = (sign << (fmt.total_bits - 1)) \
                        | (biased << width) | m
                    got = Flonum.from_bits(bits, fmt)
                    assert _fields(got) == \
                        _fields(_decoded_by_finite(bits, fmt)), hex(bits)
                    if not got.is_nan:
                        assert got.to_bits() == bits

    def test_rejections_kept(self):
        with pytest.raises(DecodeError):
            Flonum.from_bits(1 << 64, BINARY64)
        with pytest.raises(DecodeError):
            Flonum.from_bits(-1, BINARY16)
        # An x87 unnormal: normal exponent, integer bit clear.
        with pytest.raises(DecodeError):
            Flonum.from_bits((0x3FFF << 64) | 1, X87_80)


ENCODED_FORMATS = [f for f in STANDARD_FORMATS.values() if f.has_encoding]


class TestNanEncoding:
    """The canonical NaN pattern sets the top *fraction* bit: on x87,
    whose leading bit is stored, that is one below the integer bit."""

    @pytest.mark.parametrize("fmt", ENCODED_FORMATS, ids=lambda f: f.name)
    def test_nan_pattern_decodes_to_nan_not_infinity(self, fmt):
        nan = Flonum.nan(fmt).to_bits()
        assert nan != Flonum.infinity(fmt).to_bits()
        assert Flonum.from_bits(nan, fmt).is_nan

    @pytest.mark.parametrize("fmt", ENCODED_FORMATS, ids=lambda f: f.name)
    def test_parse_buffer_yields_nan(self, fmt):
        [bits] = parse_buffer(b"nan\n", fmt)
        assert bits == Flonum.nan(fmt).to_bits()
        assert Flonum.from_bits(bits, fmt).is_nan

    def test_x87_quiet_nan_pattern(self):
        assert Flonum.nan(X87_80).to_bits() == 0x7FFFC000000000000000


class TestFromRaw:
    def test_normalizes_up(self):
        # 3 * 2**0 == 0b11 -> shifts left into the mantissa window.
        v = Flonum.from_raw(0, 3, 0, BINARY64)
        assert v.to_fraction() == 3
        assert v.f >= BINARY64.hidden_limit

    def test_normalizes_down_exact(self):
        v = Flonum.from_raw(0, 1 << 54, 0, BINARY64)
        assert v.to_fraction() == 1 << 54

    def test_rejects_inexact_shrink(self):
        with pytest.raises(RangeError):
            Flonum.from_raw(0, (1 << 54) + 1, 0, BINARY64)

    def test_rejects_overflow(self):
        with pytest.raises(RangeError):
            Flonum.from_raw(0, 1, 5000, BINARY64)

    def test_denormal_exact(self):
        v = Flonum.from_raw(0, 4, BINARY64.min_e - 2, BINARY64)
        assert v.e == BINARY64.min_e and v.f == 1

    def test_rejects_inexact_underflow(self):
        with pytest.raises(RangeError):
            Flonum.from_raw(0, 3, BINARY64.min_e - 1, BINARY64)

    def test_zero(self):
        assert Flonum.from_raw(1, 0, 17, BINARY64).is_zero


class TestOrdering:
    @given(finite_doubles(), finite_doubles())
    def test_matches_float_ordering(self, x, y):
        vx, vy = Flonum.from_float(x), Flonum.from_float(y)
        assert (vx < vy) == (x < y)
        assert (vx == vy) == (x == y)
        assert (vx <= vy) == (x <= y)

    def test_infinities_bracket_everything(self):
        lo = Flonum.infinity(BINARY64, sign=1)
        hi = Flonum.infinity(BINARY64, sign=0)
        mid = Flonum.from_float(1e308)
        assert lo < mid < hi
        assert lo < Flonum.from_float(-1e308) < hi

    def test_nan_unordered(self):
        with pytest.raises(NotRepresentableError):
            _ = Flonum.nan() < Flonum.from_float(1.0)

    def test_nan_equals_nan_structurally(self):
        # Flonums are value objects, not IEEE scalars.
        assert Flonum.nan() == Flonum.nan()

    @given(finite_doubles())
    def test_hash_consistent_with_eq(self, x):
        assert hash(Flonum.from_float(x)) == hash(Flonum.from_float(x))

    def test_bool(self):
        assert not Flonum.zero()
        assert Flonum.from_float(1.0)


class TestTransforms:
    def test_abs_negate(self):
        v = Flonum.from_float(-2.5)
        assert v.abs().to_fraction() == Fraction(5, 2)
        assert v.negate().to_fraction() == Fraction(5, 2)
        assert v.negate().negate() == v

    def test_negate_nan_identity(self):
        assert Flonum.nan().negate().is_nan

    def test_with_format_exact(self):
        v = Flonum.from_float(1.5)
        half = v.with_format(BINARY16)
        assert half.to_fraction() == Fraction(3, 2)

    def test_with_format_inexact_raises(self):
        v = Flonum.from_float(0.1)
        with pytest.raises(RangeError):
            v.with_format(BINARY16)

    def test_with_format_cross_radix_raises(self):
        toy10 = TOY_P5
        from repro.floats.formats import FloatFormat

        dec = FloatFormat.toy(precision=4, emin=-5, emax=5, radix=10)
        with pytest.raises(FormatError):
            Flonum.from_float(3.0).with_format(dec)

    def test_components(self):
        sign, f, e = Flonum.from_float(1.0).components()
        assert (sign, f, e) == (0, 1 << 52, -52)
        with pytest.raises(NotRepresentableError):
            Flonum.nan().components()

    def test_to_float_out_of_range(self):
        from repro.floats.formats import BINARY128

        big = Flonum.finite(0, BINARY128.hidden_limit, 2000, BINARY128)
        with pytest.raises(NotRepresentableError):
            big.to_float()


class TestEnumeration:
    def test_enumerate_toy_count(self):
        fmt = TOY_P5
        values = list(Flonum.enumerate_positive(fmt))
        # denormals: hidden_limit - 1; normals: (emax - emin + 1) * b**(p-1)
        expected = (fmt.hidden_limit - 1) + (
            (fmt.max_e - fmt.min_e + 1) * fmt.hidden_limit)
        assert len(values) == expected

    def test_enumerate_strictly_increasing(self):
        values = list(Flonum.enumerate_positive(TOY_P5))
        for a, b in zip(values, values[1:]):
            assert a < b

    def test_enumerate_without_denormals(self):
        values = list(Flonum.enumerate_positive(TOY_P5, False))
        assert all(v.is_normal for v in values)
