"""Do-it-yourself floating point: 64-bit significand, explicit exponent.

The substrate for the fast-path printers (`repro.fastpath.grisu`,
`repro.fastpath.counted`).  A :class:`DiyFp` is ``f * 2**e`` with ``f``
held in exactly 64 bits; multiplication rounds once (the single source
of error the fast paths must account for).

Cached powers of ten are computed *exactly* at first use from Python
integers — correctly rounded to 64 bits — rather than shipped as a
table, and an exactness flag records whether the power was exact
(|k| <= 27 or so), which tightens the error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import RangeError
from repro.floats.model import Flonum

__all__ = [
    "DiyFp",
    "SIGNIFICAND_SIZE",
    "normalize",
    "normalized_boundaries",
    "cached_power_for_binary_exponent",
]

SIGNIFICAND_SIZE = 64
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DiyFp:
    """``f * 2**e`` with ``0 <= f < 2**64`` (normalized: top bit set)."""

    f: int
    e: int

    def times(self, other: "DiyFp") -> "DiyFp":
        """Rounded 64x64→64 multiplication (one half-ulp error)."""
        rounded = (self.f * other.f + (1 << 63)) >> 64
        e = self.e + other.e + 64
        if rounded > _MASK64:  # pragma: no cover - cannot occur for 64-bit f
            rounded >>= 1
            e += 1
        return DiyFp(rounded, e)

    def minus(self, other: "DiyFp") -> "DiyFp":
        """Subtraction; exponents must match, result non-negative."""
        if self.e != other.e or self.f < other.f:
            raise RangeError("DiyFp.minus needs aligned, ordered operands")
        return DiyFp(self.f - other.f, self.e)

    def to_fraction(self):
        from fractions import Fraction

        return Fraction(self.f) * Fraction(2) ** self.e


def normalize(f: int, e: int) -> DiyFp:
    """Shift so the top of the 64-bit significand is set."""
    if f <= 0:
        raise RangeError("normalize requires a positive significand")
    shift = SIGNIFICAND_SIZE - f.bit_length()
    return DiyFp(f << shift, e - shift)


def normalized_boundaries(v: Flonum) -> Tuple[DiyFp, DiyFp]:
    """``(m-, m+)``: the rounding-range midpoints, at m+'s exponent.

    Mirrors the paper's Section 2.1 gap analysis: the lower gap is
    narrower by one radix step when the mantissa sits on a power
    boundary (and the exponent is not minimal).
    """
    if not v.is_finite or v.sign or v.is_zero:
        raise RangeError("boundaries need a positive finite value")
    f, e = v.f, v.e
    plus = normalize((f << 1) + 1, e - 1)
    if f == v.fmt.hidden_limit and e > v.fmt.min_e:
        minus = DiyFp((f << 2) - 1, e - 2)
    else:
        minus = DiyFp((f << 1) - 1, e - 1)
    # Align minus to plus's exponent.
    minus = DiyFp(minus.f << (minus.e - plus.e), plus.e)
    return minus, plus


# ----------------------------------------------------------------------
# Cached powers of ten.
# ----------------------------------------------------------------------

_POWER_CACHE: Dict[int, Tuple[DiyFp, bool]] = {}

_LOG10_2 = math.log10(2.0)


def _pow10_diyfp(k: int) -> Tuple[DiyFp, bool]:
    """``10**k`` correctly rounded to a normalized DiyFp, plus exactness."""
    got = _POWER_CACHE.get(k)
    if got is not None:
        return got
    if k >= 0:
        value = 10**k
        bits = value.bit_length()
        shift = bits - 64
        if shift <= 0:
            result = (DiyFp(value << -shift, shift), True)
        else:
            truncated = value >> shift
            rest = value & ((1 << shift) - 1)
            half = 1 << (shift - 1)
            f = truncated + (1 if rest > half or
                             (rest == half and truncated & 1) else 0)
            e = shift
            if f == 1 << 64:
                f >>= 1
                e += 1
            result = (DiyFp(f, e), rest == 0)
    else:
        den = 10**-k
        # Choose s so 2**s // den lands in [2**63, 2**64).
        s = 63 + den.bit_length()
        q, rest = divmod(1 << s, den)
        if q >= 1 << 64:
            s -= 1
            q, rest = divmod(1 << s, den)
        elif q < 1 << 63:  # pragma: no cover - bit-length bound prevents it
            s += 1
            q, rest = divmod(1 << s, den)
        double_rest = 2 * rest
        if double_rest > den or (double_rest == den and q & 1):
            q += 1
            if q == 1 << 64:
                q >>= 1
                s -= 1
        result = (DiyFp(q, -s), False)
    _POWER_CACHE[k] = result
    return result


def cached_power_for_binary_exponent(e: int, target_lo: int = -60,
                                     target_hi: int = -32
                                     ) -> Tuple[DiyFp, int, bool]:
    """A power ``10**-k`` whose product with a DiyFp of exponent ``e``
    lands the result exponent in ``[target_lo, target_hi]``.

    Returns ``(power, k, exact)`` with the decimal exponent ``k`` such
    that ``power ≈ 10**-k``.  The window is 28 binary ≈ 8.4 decimal
    orders wide, so the estimate needs at most one adjustment.
    """
    # Result exponent: e + e_c + 64 must land in the window, so the
    # power's own exponent e_c must lie in [target_lo-64-e, target_hi-64-e].
    # For 10**m normalized to 64 bits, e_c(m) = floor(m*log2(10)) - 63.
    m = math.ceil((target_lo - 64 - e + 63) * _LOG10_2)
    for _ in range(8):
        power, exact = _pow10_diyfp(m)
        result_e = e + power.e + 64
        if result_e < target_lo:
            m += 1
        elif result_e > target_hi:
            m -= 1
        else:
            return power, -m, exact
    raise AssertionError(  # pragma: no cover - window is wide enough
        "cached power selection failed to converge")
