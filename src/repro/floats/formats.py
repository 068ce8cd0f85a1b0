"""Floating-point format descriptions.

A :class:`FloatFormat` captures everything the algorithms in this package
need to know about a floating-point representation:

* the radix ``b`` (2 for every IEEE interchange format),
* the precision ``p`` — the number of radix-``b`` digits in the mantissa,
  *including* the hidden bit when the encoding has one,
* the exponent range, expressed in the paper's convention ``v = f * b**e``
  with ``f`` an integer satisfying ``0 <= f < b**p``.

The paper (Section 2.1) works with mantissa/exponent pairs in exactly this
integer convention, so we adopt it throughout: for IEEE double precision a
normal number has ``2**52 <= f < 2**53`` and ``min_e <= e <= max_e`` with
``min_e = -1074``; denormals have ``f < 2**52`` and ``e == min_e``.

Encodings (bit layouts) only exist for radix-2 formats; the algorithm-level
code works for any radix, which lets the test suite exhaustively check tiny
custom formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import FormatError

__all__ = [
    "FloatFormat",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "BINARY128",
    "X87_80",
    "DECIMAL32",
    "DECIMAL64",
    "DECIMAL128",
    "STANDARD_FORMATS",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of a floating-point representation.

    Parameters mirror IEEE 754-2019 interchange formats but permit arbitrary
    toy formats for exhaustive testing.  Derived quantities are computed
    once per instance, on first use.

    Attributes:
        name: Human-readable identifier (e.g. ``"binary64"``).
        radix: The base ``b`` of the representation (2 for IEEE formats).
        precision: ``p``, the mantissa length in radix digits, counting the
            hidden bit if the encoding has one.
        exponent_width: Width in bits of the biased exponent field.  Only
            meaningful for radix-2 formats with a bit-level encoding; ``0``
            for pure algorithm-level formats.
        emin: Minimum *normalized* exponent in the ``v = m * b**q`` sense
            with ``1 <= m < b`` (IEEE convention).  For binary64 this is
            ``-1022``.
        emax: Maximum normalized exponent (``1023`` for binary64).
        explicit_leading_bit: True for formats (x87 80-bit) that store the
            leading mantissa bit explicitly instead of hiding it.
    """

    name: str
    radix: int
    precision: int
    exponent_width: int
    emin: int
    emax: int
    explicit_leading_bit: bool = False

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise FormatError(f"radix must be >= 2, got {self.radix}")
        if self.precision < 1:
            raise FormatError(f"precision must be >= 1, got {self.precision}")
        if self.emin > self.emax:
            raise FormatError(
                f"emin ({self.emin}) must not exceed emax ({self.emax})"
            )
        if self.exponent_width and self.radix != 2:
            raise FormatError("bit-level encodings require radix 2")

    # ------------------------------------------------------------------
    # Derived quantities, all in the paper's integer-mantissa convention.
    # ------------------------------------------------------------------

    @cached_property
    def min_e(self) -> int:
        """Minimum exponent ``e`` with ``v = f * b**e`` and integer ``f``.

        This is the exponent shared by all denormalized numbers; the paper
        calls it the minimum exponent.  ``min_e = emin - (p - 1)``.
        """
        return self.emin - (self.precision - 1)

    @cached_property
    def max_e(self) -> int:
        """Maximum exponent ``e`` in the integer-mantissa convention."""
        return self.emax - (self.precision - 1)

    @cached_property
    def mantissa_limit(self) -> int:
        """``b**p`` — exclusive upper bound on the integer mantissa."""
        return self.radix**self.precision

    @cached_property
    def hidden_limit(self) -> int:
        """``b**(p-1)`` — mantissas at or above this are normalized."""
        return self.radix ** (self.precision - 1)

    @cached_property
    def bias(self) -> int:
        """Exponent bias of the bit-level encoding."""
        self._require_encoding()
        return (1 << (self.exponent_width - 1)) - 1

    @cached_property
    def mantissa_field_width(self) -> int:
        """Width in bits of the stored mantissa field."""
        self._require_encoding()
        if self.explicit_leading_bit:
            return self.precision
        return self.precision - 1

    @cached_property
    def total_bits(self) -> int:
        """Total encoding width: sign + exponent + stored mantissa."""
        self._require_encoding()
        return 1 + self.exponent_width + self.mantissa_field_width

    @cached_property
    def max_biased_exponent(self) -> int:
        """The all-ones exponent field value, reserved for inf/NaN."""
        self._require_encoding()
        return (1 << self.exponent_width) - 1

    @cached_property
    def has_encoding(self) -> bool:
        """Whether this format defines a bit-level layout."""
        return self.exponent_width > 0 and self.radix == 2

    def _require_encoding(self) -> None:
        if not self.has_encoding:
            raise FormatError(
                f"format {self.name!r} has no bit-level encoding"
            )

    # ------------------------------------------------------------------
    # Range helpers.
    # ------------------------------------------------------------------

    @property
    def largest_finite(self) -> tuple[int, int]:
        """``(f, e)`` of the largest finite value."""
        return (self.mantissa_limit - 1, self.max_e)

    @property
    def smallest_positive(self) -> tuple[int, int]:
        """``(f, e)`` of the smallest positive (denormal) value."""
        return (1, self.min_e)

    @property
    def smallest_normal(self) -> tuple[int, int]:
        """``(f, e)`` of the smallest positive normal value."""
        return (self.hidden_limit, self.min_e)

    def valid_finite(self, f: int, e: int) -> bool:
        """Whether ``(f, e)`` is a canonically representable finite value.

        Canonical means ``0 <= f < b**p`` with either a normalized mantissa
        (``f >= b**(p-1)``) or the minimum exponent, matching the unique
        encodable form.  Zero is canonical only as ``(0, min_e)``.
        """
        if not 0 <= f < self.mantissa_limit:
            return False
        if not self.min_e <= e <= self.max_e:
            return False
        if f < self.hidden_limit and e != self.min_e:
            return False
        return True

    def decimal_digits_to_distinguish(self) -> int:
        """Digits guaranteed to distinguish any two values of this format.

        The classic bound ``ceil(p * log10(b)) + 1`` (17 for binary64),
        computed exactly with integer arithmetic: the smallest ``n`` with
        ``10**(n-1) > b**p``.
        """
        n = 1
        power = 10
        limit = self.mantissa_limit
        while power <= limit:
            power *= 10
            n += 1
        return n + 1 if self.radix != 10 else n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FloatFormat({self.name!r}, b={self.radix}, p={self.precision}, "
            f"e=[{self.emin}, {self.emax}])"
        )

    # ------------------------------------------------------------------
    # Constructors for ad-hoc formats.
    # ------------------------------------------------------------------

    @staticmethod
    def toy(precision: int, emin: int, emax: int, radix: int = 2,
            name: str = "") -> "FloatFormat":
        """Build an algorithm-level format with no bit encoding.

        Used by the exhaustive test suites: a precision-5, radix-2 format has
        few enough members to verify shortest-output over all of them.
        """
        return FloatFormat(
            name=name or f"toy(b={radix},p={precision})",
            radix=radix,
            precision=precision,
            exponent_width=0,
            emin=emin,
            emax=emax,
        )

    @staticmethod
    def ieee(exponent_width: int, precision: int,
             name: str = "", explicit_leading_bit: bool = False
             ) -> "FloatFormat":
        """Build a radix-2 IEEE-style format from its field widths."""
        bias = (1 << (exponent_width - 1)) - 1
        return FloatFormat(
            name=name or f"ieee(w={exponent_width},p={precision})",
            radix=2,
            precision=precision,
            exponent_width=exponent_width,
            emin=1 - bias,
            emax=bias,
            explicit_leading_bit=explicit_leading_bit,
        )


def _decimal_ieee(precision: int, emax: int, name: str) -> "FloatFormat":
    """IEEE 754-2008 decimal interchange parameters, algorithm-level.

    Decimal formats carry unnormalized cohorts in their encodings; the
    Flonum model canonicalizes to the normalized member, which preserves
    values (and therefore everything the printing algorithms consume)
    while ignoring cohort identity.  No bit-level layout is modeled (the
    DPD/BID encodings are out of scope).
    """
    return FloatFormat(
        name=name,
        radix=10,
        precision=precision,
        exponent_width=0,
        emin=1 - emax,
        emax=emax,
    )


BINARY16 = FloatFormat.ieee(5, 11, name="binary16")
BINARY32 = FloatFormat.ieee(8, 24, name="binary32")
BINARY64 = FloatFormat.ieee(11, 53, name="binary64")
BINARY128 = FloatFormat.ieee(15, 113, name="binary128")
X87_80 = FloatFormat.ieee(15, 64, name="x87_80", explicit_leading_bit=True)
DECIMAL32 = _decimal_ieee(7, 96, "decimal32")
DECIMAL64 = _decimal_ieee(16, 384, "decimal64")
DECIMAL128 = _decimal_ieee(34, 6144, "decimal128")

STANDARD_FORMATS = {
    fmt.name: fmt for fmt in (BINARY16, BINARY32, BINARY64, BINARY128,
                              X87_80, DECIMAL32, DECIMAL64, DECIMAL128)
}
