"""The :class:`Flonum` value type.

A ``Flonum`` is an exact, immutable model of one floating-point datum: a
(sign, mantissa, exponent) triple over Python integers tagged with its
:class:`~repro.floats.formats.FloatFormat`, or one of the special values
(±0.0, ±inf, NaN).  All algorithms in :mod:`repro.core` consume Flonums, so
they work identically for binary16 through binary128, x87 80-bit, and toy
formats — no host floating point is involved in any exact computation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterator, Tuple

from repro.errors import DecodeError, FormatError, NotRepresentableError, RangeError
from repro.floats.decompose import (
    FloatClass,
    bits_to_float,
    decode_fields,
    decompose_float,
    encode_components,
    join_bits,
    split_bits,
)
from repro.floats.formats import BINARY64, FloatFormat

__all__ = ["Flonum", "FlonumKind", "to_flonum"]


class FlonumKind(Enum):
    """Top-level kind of a Flonum."""

    FINITE = "finite"
    INFINITE = "infinite"
    NAN = "nan"


def to_flonum(x, fmt: FloatFormat = BINARY64) -> "Flonum":
    """Coerce a float/int/Flonum input to a :class:`Flonum`.

    Lives here (rather than the string API) so the conversion engine and
    :mod:`repro.core.api` share one coercion without an import cycle.
    """
    if isinstance(x, Flonum):
        return x
    if isinstance(x, bool):
        raise RangeError("booleans are not numbers here")
    if isinstance(x, int):
        # Exact or error: silently rounding 2**53 + 1 would defeat the
        # whole point of an accurate printer.
        return Flonum.from_int(x, fmt)
    if isinstance(x, float):
        return Flonum.from_float(x, fmt)
    raise RangeError(f"cannot print a {type(x).__name__}")


class Flonum:
    """One floating-point value of a given format, held exactly.

    Finite values satisfy ``v = (-1)**sign * f * b**e`` with ``f`` and ``e``
    integers in the canonical range of the format (see
    :meth:`FloatFormat.valid_finite`).
    """

    __slots__ = ("kind", "sign", "f", "e", "fmt")

    def __init__(self, kind: FlonumKind, sign: int, f: int, e: int,
                 fmt: FloatFormat):
        if sign not in (0, 1):
            raise DecodeError(f"sign must be 0 or 1, got {sign}")
        if kind is FlonumKind.FINITE and not fmt.valid_finite(f, e):
            raise DecodeError(
                f"(f={f}, e={e}) is not a canonical finite value of {fmt.name}"
            )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "f", f if kind is FlonumKind.FINITE else 0)
        object.__setattr__(self, "e", e if kind is FlonumKind.FINITE else 0)
        object.__setattr__(self, "fmt", fmt)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("Flonum instances are immutable")

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------

    @classmethod
    def finite(cls, sign: int, f: int, e: int, fmt: FloatFormat) -> "Flonum":
        """A finite value from canonical components."""
        return cls(FlonumKind.FINITE, sign, f, e, fmt)

    @classmethod
    def _finite_trusted(cls, sign: int, f: int, e: int,
                        fmt: FloatFormat) -> "Flonum":
        """A finite value from components already proven canonical.

        Validation-free twin of :meth:`finite` for the conversion
        engine's hot paths, where the rounding routines clamp ``(f, e)``
        into the canonical range by construction and the validating
        constructor would dominate the conversion cost.  Every other
        caller should use :meth:`finite`.
        """
        self = _new_flonum(cls)
        _set_kind(self, FlonumKind.FINITE)
        _set_sign(self, sign)
        _set_f(self, f)
        _set_e(self, e)
        _set_fmt(self, fmt)
        return self

    @classmethod
    def from_raw(cls, sign: int, f: int, e: int, fmt: FloatFormat) -> "Flonum":
        """A finite value from *non-canonical* components.

        Normalizes ``f * b**e``: shifts the mantissa into the canonical
        range, adjusting the exponent.  Raises :class:`RangeError` if the
        value is not representable exactly (it would need rounding) or
        overflows the exponent range.
        """
        b = fmt.radix
        if f < 0:
            raise DecodeError("mantissa must be non-negative; use sign")
        if f == 0:
            return cls.zero(fmt, sign)
        # Grow small mantissas, shrink large ones.
        while f < fmt.hidden_limit and e > fmt.min_e:
            f *= b
            e -= 1
        while f >= fmt.mantissa_limit:
            if f % b:
                raise RangeError(
                    "value requires rounding; use the reader for inexact input"
                )
            f //= b
            e += 1
        if e > fmt.max_e:
            raise RangeError(f"exponent {e} overflows {fmt.name}")
        if e < fmt.min_e:
            # Only exact if the mantissa can absorb the difference.
            shift = fmt.min_e - e
            scale = b**shift
            if f % scale:
                raise RangeError(
                    "value underflows; use the reader for inexact input"
                )
            f //= scale
            e = fmt.min_e
        return cls.finite(sign, f, e, fmt)

    @classmethod
    def zero(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "Flonum":
        return cls(FlonumKind.FINITE, sign, 0, fmt.min_e, fmt)

    @classmethod
    def infinity(cls, fmt: FloatFormat = BINARY64, sign: int = 0) -> "Flonum":
        return cls(FlonumKind.INFINITE, sign, 0, 0, fmt)

    @classmethod
    def nan(cls, fmt: FloatFormat = BINARY64) -> "Flonum":
        return cls(FlonumKind.NAN, 0, 0, 0, fmt)

    @classmethod
    def from_float(cls, x: float, fmt: FloatFormat = BINARY64) -> "Flonum":
        """Model a Python float exactly (binary64) or rounded (binary32)."""
        fcls, sign, f, e = decompose_float(x, fmt)
        if fcls is FloatClass.NAN:
            return cls.nan(fmt)
        if fcls is FloatClass.INFINITE:
            return cls.infinity(fmt, sign)
        return cls.finite(sign, f, e, fmt)

    @classmethod
    def from_bits(cls, bits: int, fmt: FloatFormat) -> "Flonum":
        """Decode a raw bit pattern of the format.

        ``split_bits`` range-checks the pattern and ``decode_fields``
        classifies it (rejecting x87 unnormals), so the finite fields
        are canonical by construction: no second validation.
        """
        fcls, sign, f, e = decode_fields(*split_bits(bits, fmt), fmt)
        if fcls is FloatClass.NAN:
            return cls.nan(fmt)
        if fcls is FloatClass.INFINITE:
            return cls.infinity(fmt, sign)
        return cls._finite_trusted(sign, f, e, fmt)

    @classmethod
    def from_int(cls, n: int, fmt: FloatFormat = BINARY64) -> "Flonum":
        """An integer, exactly; raises if rounding would be needed."""
        return cls.from_raw(1 if n < 0 else 0, abs(n), 0, fmt)

    # ------------------------------------------------------------------
    # Predicates.
    # ------------------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind is FlonumKind.FINITE

    @property
    def is_nan(self) -> bool:
        return self.kind is FlonumKind.NAN

    @property
    def is_infinite(self) -> bool:
        return self.kind is FlonumKind.INFINITE

    @property
    def is_zero(self) -> bool:
        return self.is_finite and self.f == 0

    @property
    def is_negative(self) -> bool:
        return self.sign == 1

    @property
    def is_denormal(self) -> bool:
        """Denormalized: non-zero with an un-normalizable mantissa."""
        return (self.is_finite and self.f != 0
                and self.f < self.fmt.hidden_limit)

    @property
    def is_normal(self) -> bool:
        return self.is_finite and self.f >= self.fmt.hidden_limit

    # ------------------------------------------------------------------
    # Exact value access.
    # ------------------------------------------------------------------

    def to_fraction(self) -> Fraction:
        """The exact value as a rational number (finite values only)."""
        if not self.is_finite:
            raise NotRepresentableError(f"{self} has no rational value")
        mag = Fraction(self.f) * Fraction(self.fmt.radix) ** self.e
        return -mag if self.sign else mag

    def magnitude_fraction(self) -> Fraction:
        """``|v|`` as a rational number."""
        if not self.is_finite:
            raise NotRepresentableError(f"{self} has no rational value")
        return Fraction(self.f) * Fraction(self.fmt.radix) ** self.e

    def to_float(self) -> float:
        """The value as a Python float, exactly; raises if inexact.

        binary64/32/16 values convert exactly; larger formats raise unless
        the particular value happens to fit binary64.
        """
        if self.is_nan:
            return float("nan")
        if self.is_infinite:
            return float("-inf") if self.sign else float("inf")
        try:
            mirrored = Flonum.from_raw(self.sign, self.f, self.e, BINARY64)
        except RangeError as exc:
            raise NotRepresentableError(
                f"{self} is not exactly representable as binary64"
            ) from exc
        return bits_to_float(mirrored.to_bits())

    def to_bits(self) -> int:
        """Encode to the raw bit pattern of the format."""
        fmt = self.fmt
        if self.is_nan:
            # Canonical quiet NaN: exponent all ones, top fraction bit
            # set.  The fraction's top bit sits just below the leading
            # bit, which x87 stores and the hidden-bit formats do not.
            quiet = 1 << (fmt.precision - 2)
            if fmt.explicit_leading_bit:
                quiet |= 1 << (fmt.precision - 1)
            return join_bits(0, fmt.max_biased_exponent, quiet, fmt)
        if self.is_infinite:
            mant = 0
            if fmt.explicit_leading_bit:
                mant = 1 << (fmt.precision - 1)
            return join_bits(self.sign, fmt.max_biased_exponent, mant, fmt)
        return encode_components(self.sign, self.f, self.e, fmt)

    # ------------------------------------------------------------------
    # Ordering and equality (IEEE semantics for NaN are *not* used here:
    # Flonums are value objects, so NaN == NaN and equality is structural
    # up to the usual -0.0 == +0.0 identification of magnitudes).
    # ------------------------------------------------------------------

    def _cmp_key(self):
        if self.is_nan:
            raise NotRepresentableError("NaN is unordered")
        if self.is_infinite:
            mag: object = Fraction(0)
            tier = 1
        else:
            mag = self.magnitude_fraction()
            tier = 0
        signed_tier = -tier if self.sign else tier
        return (signed_tier, -mag if self.sign else mag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flonum):
            return NotImplemented
        if self.is_nan or other.is_nan:
            return self.is_nan and other.is_nan
        if self.is_infinite or other.is_infinite:
            return (self.kind, self.sign) == (other.kind, other.sign)
        if self.is_zero and other.is_zero:
            return True  # -0.0 compares equal to +0.0, as IEEE orders them
        return (self.sign == other.sign
                and self.magnitude_fraction() == other.magnitude_fraction())

    def __lt__(self, other: "Flonum") -> bool:
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other: "Flonum") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Flonum") -> bool:
        return other < self

    def __ge__(self, other: "Flonum") -> bool:
        return self == other or other < self

    def __hash__(self) -> int:
        if self.is_finite:
            return hash(("flonum", self.sign if not self.is_zero else 0,
                          self.magnitude_fraction()))
        return hash(("flonum", self.kind, self.sign))

    def __bool__(self) -> bool:
        return not self.is_zero

    # ------------------------------------------------------------------
    # Structure helpers.
    # ------------------------------------------------------------------

    def components(self) -> Tuple[int, int, int]:
        """``(sign, f, e)`` of a finite value."""
        if not self.is_finite:
            raise NotRepresentableError(f"{self} has no finite components")
        return (self.sign, self.f, self.e)

    def abs(self) -> "Flonum":
        """The magnitude (sign cleared)."""
        return Flonum(self.kind, 0, self.f, self.e, self.fmt)

    def negate(self) -> "Flonum":
        if self.is_nan:
            return self
        return Flonum(self.kind, 1 - self.sign, self.f, self.e, self.fmt)

    def with_format(self, fmt: FloatFormat) -> "Flonum":
        """Re-tag the value in another format, exactly (raises if inexact)."""
        if self.is_nan:
            return Flonum.nan(fmt)
        if self.is_infinite:
            return Flonum.infinity(fmt, self.sign)
        if self.fmt.radix != fmt.radix and self.f != 0:
            raise FormatError("cannot exactly retarget across radices")
        return Flonum.from_raw(self.sign, self.f, self.e, fmt)

    def __repr__(self) -> str:
        if self.is_nan:
            return f"Flonum.nan({self.fmt.name})"
        if self.is_infinite:
            return f"Flonum({'-' if self.sign else '+'}inf, {self.fmt.name})"
        sign = "-" if self.sign else "+"
        return (f"Flonum({sign}{self.f} * {self.fmt.radix}**{self.e}, "
                f"{self.fmt.name})")

    # ------------------------------------------------------------------
    # Enumeration (used by exhaustive tests over toy formats).
    # ------------------------------------------------------------------

    @classmethod
    def enumerate_positive(cls, fmt: FloatFormat,
                           include_denormals: bool = True
                           ) -> Iterator["Flonum"]:
        """Yield every positive finite value of the format in increasing order."""
        if include_denormals:
            for f in range(1, fmt.hidden_limit):
                yield cls.finite(0, f, fmt.min_e, fmt)
        for e in range(fmt.min_e, fmt.max_e + 1):
            for f in range(fmt.hidden_limit, fmt.mantissa_limit):
                yield cls.finite(0, f, e, fmt)


#: Bound slot descriptors for :meth:`Flonum._finite_trusted` — writing
#: through them skips the ``object.__setattr__`` lookup machinery, which
#: is measurable at the conversion engine's per-read budget.
_new_flonum = object.__new__
_set_kind = Flonum.kind.__set__  # type: ignore[attr-defined]
_set_sign = Flonum.sign.__set__  # type: ignore[attr-defined]
_set_f = Flonum.f.__set__  # type: ignore[attr-defined]
_set_e = Flonum.e.__set__  # type: ignore[attr-defined]
_set_fmt = Flonum.fmt.__set__  # type: ignore[attr-defined]
