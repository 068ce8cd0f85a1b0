"""FloatFormat: derived quantities and validation."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import FormatError
from repro.floats.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    STANDARD_FORMATS,
    X87_80,
    FloatFormat,
)

DERIVED = ("min_e", "max_e", "mantissa_limit", "hidden_limit",
           "has_encoding")
ENCODING_ONLY = ("bias", "mantissa_field_width", "total_bits",
                 "max_biased_exponent")


def _derived(fmt):
    names = DERIVED + (ENCODING_ONLY if fmt.has_encoding else ())
    return {name: getattr(fmt, name) for name in names}


class TestStandardFormats:
    def test_binary64_exponent_range(self):
        assert BINARY64.emin == -1022
        assert BINARY64.emax == 1023
        # The paper's decoding: value = (2**52 + m) * 2**(be - 1075), so
        # the integer-mantissa exponent bottoms out at -1074.
        assert BINARY64.min_e == -1074
        assert BINARY64.max_e == 971

    def test_binary64_bias_and_widths(self):
        assert BINARY64.bias == 1023
        assert BINARY64.total_bits == 64
        assert BINARY64.mantissa_field_width == 52
        assert BINARY64.max_biased_exponent == 2047

    def test_binary32_parameters(self):
        assert BINARY32.precision == 24
        assert BINARY32.bias == 127
        assert BINARY32.min_e == -149
        assert BINARY32.total_bits == 32

    def test_binary16_parameters(self):
        assert BINARY16.precision == 11
        assert BINARY16.min_e == -24
        assert BINARY16.total_bits == 16

    def test_binary128_parameters(self):
        assert BINARY128.precision == 113
        assert BINARY128.total_bits == 128
        assert BINARY128.min_e == -16494

    def test_x87_explicit_bit_widths(self):
        assert X87_80.explicit_leading_bit
        assert X87_80.mantissa_field_width == 64
        assert X87_80.total_bits == 80

    def test_registry_names(self):
        assert set(STANDARD_FORMATS) == {
            "binary16", "binary32", "binary64", "binary128", "x87_80",
            "decimal32", "decimal64", "decimal128",
        }
        for name, fmt in STANDARD_FORMATS.items():
            assert fmt.name == name

    def test_mantissa_limits(self):
        assert BINARY64.mantissa_limit == 1 << 53
        assert BINARY64.hidden_limit == 1 << 52

    def test_extreme_values(self):
        f, e = BINARY64.largest_finite
        assert f == (1 << 53) - 1 and e == 971
        assert BINARY64.smallest_positive == (1, -1074)
        assert BINARY64.smallest_normal == (1 << 52, -1074)

    @pytest.mark.parametrize("fmt,digits", [
        (BINARY16, 5), (BINARY32, 9), (BINARY64, 17), (BINARY128, 36),
        (X87_80, 21),
    ])
    def test_decimal_digits_to_distinguish(self, fmt, digits):
        # The classic round-trip digit counts; 17 for binary64 is the
        # count Table 3's fixed-format baseline prints.
        assert fmt.decimal_digits_to_distinguish() == digits


class TestValidation:
    def test_rejects_bad_radix(self):
        with pytest.raises(FormatError):
            FloatFormat("bad", radix=1, precision=4, exponent_width=0,
                        emin=0, emax=1)

    def test_rejects_bad_precision(self):
        with pytest.raises(FormatError):
            FloatFormat("bad", radix=2, precision=0, exponent_width=0,
                        emin=0, emax=1)

    def test_rejects_inverted_exponents(self):
        with pytest.raises(FormatError):
            FloatFormat("bad", radix=2, precision=4, exponent_width=0,
                        emin=5, emax=1)

    def test_rejects_encoding_for_nonbinary(self):
        with pytest.raises(FormatError):
            FloatFormat("bad", radix=10, precision=4, exponent_width=8,
                        emin=-10, emax=10)

    def test_toy_formats_have_no_encoding(self):
        toy = FloatFormat.toy(precision=5, emin=-4, emax=4)
        assert not toy.has_encoding
        # Every access raises, not just the first: a failed derivation
        # caches nothing.
        for name in ENCODING_ONLY * 2:
            with pytest.raises(FormatError, match="no bit-level encoding"):
                getattr(toy, name)
        assert not set(ENCODING_ONLY) & set(vars(toy))


class TestValidFinite:
    def test_zero_canonical_only_at_min_e(self):
        assert BINARY64.valid_finite(0, BINARY64.min_e)
        assert not BINARY64.valid_finite(0, 0)

    def test_denormal_only_at_min_e(self):
        assert BINARY64.valid_finite(123, BINARY64.min_e)
        assert not BINARY64.valid_finite(123, BINARY64.min_e + 1)

    def test_normal_range(self):
        assert BINARY64.valid_finite(1 << 52, 0)
        assert BINARY64.valid_finite((1 << 53) - 1, BINARY64.max_e)
        assert not BINARY64.valid_finite(1 << 53, 0)
        assert not BINARY64.valid_finite(1 << 52, BINARY64.max_e + 1)
        assert not BINARY64.valid_finite(1 << 52, BINARY64.min_e - 1)

    def test_negative_mantissa_invalid(self):
        assert not BINARY64.valid_finite(-1, 0)


class TestToyAndIeeeConstructors:
    def test_toy_radix(self):
        toy = FloatFormat.toy(precision=3, emin=-6, emax=6, radix=4)
        assert toy.mantissa_limit == 64
        assert toy.hidden_limit == 16
        assert toy.min_e == -8

    def test_ieee_constructor_matches_binary32(self):
        rebuilt = FloatFormat.ieee(8, 24)
        assert rebuilt.emin == BINARY32.emin
        assert rebuilt.emax == BINARY32.emax
        assert rebuilt.bias == BINARY32.bias

    def test_default_names(self):
        assert "p=7" in FloatFormat.ieee(5, 7).name
        assert "b=3" in FloatFormat.toy(4, -2, 2, radix=3).name


class TestDerivedCaching:
    """Derived constants are computed once per instance; these pin
    that caching changes no observable behaviour."""

    @pytest.mark.parametrize("fmt", [
        BINARY16, BINARY64, X87_80, FloatFormat.toy(3, -6, 6, radix=4),
    ], ids=lambda f: f.name)
    @pytest.mark.parametrize("clone", [
        lambda f: pickle.loads(pickle.dumps(f)),
        copy.copy,
        copy.deepcopy,
        dataclasses.replace,
    ], ids=["pickle", "copy", "deepcopy", "replace"])
    def test_round_trips_keep_equality_hash_and_constants(self, fmt, clone):
        expected = _derived(fmt)  # populate the cache before cloning
        twin = clone(fmt)
        assert twin == fmt and hash(twin) == hash(fmt)
        assert _derived(twin) == expected

    def test_replace_precision_gets_fresh_constants(self):
        assert BINARY64.mantissa_limit == 1 << 53  # cache populated
        narrow = dataclasses.replace(BINARY64, precision=24, name="p24")
        assert narrow != BINARY64
        assert narrow.mantissa_limit == 1 << 24
        assert narrow.hidden_limit == 1 << 23
        assert narrow.mantissa_field_width == 23
        assert narrow.total_bits == 1 + 11 + 23
        assert narrow.min_e == BINARY64.emin - 23
        assert BINARY64.mantissa_limit == 1 << 53

    def test_distinct_toys_never_share_cached_values(self):
        a = FloatFormat.toy(precision=3, emin=-2, emax=2)
        b = FloatFormat.toy(precision=5, emin=-7, emax=9, radix=3)
        assert (a.min_e, a.max_e, a.mantissa_limit, a.hidden_limit) == \
            (-4, 0, 8, 4)
        assert (b.min_e, b.max_e, b.mantissa_limit, b.hidden_limit) == \
            (-11, 5, 243, 81)
        # An equal but distinct instance computes its own, equal values.
        a2 = FloatFormat.toy(precision=3, emin=-2, emax=2)
        assert a2 == a and a2 is not a
        assert _derived(a2) == _derived(a)
