"""Fixed-format tier 1: counted-digit Grisu over raw machine integers.

Semantically identical to :func:`repro.fastpath.counted.counted_fixed`
(same DigitGen / RoundWeedCounted structure, so every acceptance is a
*certified* correctly rounded digit block of the exact value
``f * 2**e``) but engineered for throughput:

* no ``DiyFp`` allocations — the scaled significand and exponent live in
  local integers;
* the cached power of ten comes from the per-format
  :class:`repro.engine.tables.FormatTables` list indexed by the
  normalized binary exponent, replacing the per-call estimate/adjust
  search;
* digits accumulate into one integer (``acc = acc * 10 + d``) so the
  caller renders the block with a single C-speed ``str(acc)``;
* absolute-position requests (``printf %f``) run through the same
  generator: the scaled integral part fixes the first digit's decimal
  position before any digit is emitted, so ``requested = k - j``.

The certification mirrors the self-validating fast-path pattern of
Mushtak & Lemire's parser work, mirrored onto the printing side: the
64-bit arithmetic either *proves* the rounded block correct (the
accumulated error ``unit`` stays provably on one side of the rounding
boundary) or reports failure, and the caller falls back to the exact
big-integer converter.  A useful consequence: an exact decimal tie
always lands precisely on the boundary in the scaled-integer domain —
the total scaling error is strictly below one ``unit`` and both the
remainder and the boundary are integers, so they must coincide — which
means genuine ties always bail.  Every acceptance is therefore valid
for *every* tie-break strategy, and results may be memoized across tie
contexts.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = ["counted_tier_digits", "MAX_COUNTED_DIGITS"]

#: 64-bit scaled arithmetic can never certify more digits than this
#: (matches :func:`repro.fastpath.counted.counted_fixed`).
MAX_COUNTED_DIGITS = 17

_POW10 = [10**i for i in range(20)]
_HALF64 = 1 << 63


def _weed(acc: int, nd: int, kres: int, rest: int, ten_kappa: int,
          unit: int) -> Optional[Tuple[int, int, int]]:
    """Certify the final rounding, or None when 64 bits cannot prove it.

    ``rest`` is the remainder below the emitted block and ``ten_kappa``
    the weight of its last digit, both in the scale where the
    accumulated error is ``unit``.
    """
    if unit >= ten_kappa:
        return None  # the error swamps the digit position entirely
    if ten_kappa - unit <= unit:
        return None
    # Provably round down (truncate): even the largest possible true
    # remainder stays below the midpoint.
    if ten_kappa - rest > rest and ten_kappa - 2 * rest >= 2 * unit:
        return acc, nd, kres
    # Provably round up: even the smallest possible true remainder is at
    # or above the midpoint (with the strict side covered by ``unit``).
    if rest > unit and ten_kappa - (rest - unit) <= rest - unit:
        acc += 1
        if acc == _POW10[nd]:  # 9…9 carried all the way: 10**nd
            acc //= 10
            kres += 1
        return acc, nd, kres
    return None


def counted_tier_digits(f: int, e: int, grisu_powers, grisu_e_min: int,
                        ndigits: Optional[int] = None,
                        position: Optional[int] = None,
                        ) -> Optional[Tuple[int, int, int]]:
    """Correctly rounded counted digits of ``f * 2**e``, or None.

    Exactly one of ``ndigits`` (significant digits to produce) and
    ``position`` (weight exponent of the last digit) must be given.
    Returns ``(acc, nd, k)``: the digit block is ``str(acc)`` (``nd``
    long, no leading zero), the first digit has weight ``10**(k-1)``.
    In absolute mode a carry past the first digit raises ``k`` by one,
    leaving the last digit at ``position + 1`` — the caller restores the
    requested position by appending a zero (the carried value is exactly
    ``10**(k-1)``, so the extra digit is exact).

    Returns None whenever the rounded block cannot be *proven* correct
    — too many digits for the 64-bit error budget, a (near-)tie at the
    rounding boundary, or a request below the first digit's position.
    """
    shift = 64 - f.bit_length()
    wf = f << shift
    we = e - shift
    cf, ce, mk = grisu_powers[we - grisu_e_min]
    w = (wf * cf + _HALF64) >> 64
    one_e = -(we + ce + 64)
    one_f = 1 << one_e
    frac_mask = one_f - 1
    integrals = w >> one_e
    fractionals = w & frac_mask

    # floor(log10(integrals)) via bit length (1233/4096 ~ log10(2)).
    exponent = (integrals.bit_length() * 1233) >> 12
    if integrals < _POW10[exponent]:
        exponent -= 1
    divisor = _POW10[exponent]
    kappa = exponent + 1
    # Every digit moves one unit from kappa to nd, so the radix point
    # k = mk + kappa + nd is fixed at entry (carry adjusts it by one).
    kres = mk + kappa

    requested = ndigits if ndigits is not None else kres - position
    if requested < 1 or requested > MAX_COUNTED_DIGITS:
        return None

    acc = 0
    nd = 0
    unit = 1
    while kappa > 0:
        digit, integrals = divmod(integrals, divisor)
        acc = acc * 10 + digit
        nd += 1
        requested -= 1
        kappa -= 1
        if requested == 0:
            rest = (integrals << one_e) + fractionals
            return _weed(acc, nd, kres, rest, divisor << one_e, unit)
        divisor //= 10

    while True:
        fractionals *= 10
        unit *= 10
        digit = fractionals >> one_e
        acc = acc * 10 + digit
        nd += 1
        fractionals &= frac_mask
        requested -= 1
        if requested == 0:
            return _weed(acc, nd, kres, fractionals, one_f, unit)
