"""Per-format precomputed conversion state (the engine's warm data).

``format_shortest`` as shipped by the seed repo re-derives everything per
call: the scaling estimator re-reads ``log_ratio``, ``B**k`` lookups for
wide formats (binary128) miss the paper's 326-entry base-10 table and fall
into a dict memo, and the Grisu fast path re-runs a ``ceil``/adjustment
search for its cached power of ten on every conversion.  A
:class:`FormatTables` instance does all of that work once per
``(FloatFormat, base)`` pair:

* ``powers`` — ``base**k`` for every ``k`` the scaler can request for this
  format, as a flat list (O(1) indexed, no hashing, never evicts);
* ``grisu_powers`` — for radix-2 formats with ``precision <= 62``, the
  correctly rounded 64-bit power of ten for *every normalized binary
  exponent* the format can produce, so the counted fixed-format lane
  is a single list index;
* ``schub_powers`` — built on first use by :meth:`ensure_schub`: the
  128-bit power of ten per binary exponent the Schubfach lane needs;
* the estimator constant ``log_ratio(radix, base)`` and the boundary
  constants (``hidden_limit``, ``min_e``, ``max_e``) as plain attributes.

Tables build lazily on first use of a format and are shared process-wide
(guarded by a lock; the tables themselves are immutable once built).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from repro.bignum.pow_cache import log_ratio
from repro.core.boundaries import ScaledValue
from repro.core.scaling import FIXUP_EPSILON, _too_high, _too_low
from repro.errors import RangeError
from repro.fastpath.diyfp import cached_power_for_binary_exponent
from repro.floats.formats import FloatFormat
from repro.floats.model import Flonum

__all__ = ["FormatTables", "tables_for", "clear_tables", "install_tables"]

#: Widest significand the 64-bit Grisu-style lanes can certify (matches
#: :func:`repro.fastpath.grisu.grisu_shortest`); also the gate of the
#: Schubfach table.
GRISU_MAX_PRECISION = 62

#: Widest significand the read engine's fast tiers serve.  The interval
#: tier rounds ~128-bit products down to ``precision + 2`` bits, so any
#: precision below the product width works; capped to match the write
#: side's Grisu limit for symmetry (binary128 and x87-80 read exactly).
READ_MAX_PRECISION = GRISU_MAX_PRECISION


def _pow10_ge(a: int, m: int, b: int) -> bool:
    """Exact ``10**a >= m * 2**b`` for positive integer ``m``."""
    lhs, rhs = 1, m
    if a >= 0:
        lhs *= 10**a
    else:
        rhs *= 10**-a
    if b >= 0:
        rhs <<= b
    else:
        lhs <<= -b
    return lhs >= rhs


def _le_pow10(a: int, b: int) -> bool:
    """Exact ``10**a <= 2**b``."""
    if a >= 0:
        return b >= 0 and 10**a <= 1 << b
    if b >= 0:
        return True  # 10**a < 1 <= 2**b
    return (1 << -b) <= 10**-a


def _cmp_pow10(a: int, m: int, b: int) -> int:
    """Exact sign of ``10**a - m * 2**b`` for positive integer ``m``."""
    lhs, rhs = 1, m
    if a >= 0:
        lhs = 10**a
    else:
        rhs = m * 10**-a
    if b >= 0:
        rhs <<= b
    else:
        lhs <<= -b
    return (lhs > rhs) - (lhs < rhs)


def _floor_log10_pow2(m: int, b: int) -> int:
    """Exact ``floor(log10(m * 2**b))`` for integer ``m >= 1``.

    Estimated from the bit length (30103/100000 approximates log10(2)
    to < 3e-7) and corrected with exact power comparisons.
    """
    est = ((m.bit_length() - 1 + b) * 30103) // 100000
    while _cmp_pow10(est, m, b) > 0:
        est -= 1
    while _cmp_pow10(est + 1, m, b) <= 0:
        est += 1
    return est


def _pow10_128(n: int) -> Tuple[int, int, bool]:
    """``(g, a, exact)``: the 128-bit ceiling significand of ``10**n``.

    ``a = floor(log2 10**n)`` and ``g = ceil(10**n * 2**(127 - a))``, so
    ``10**n = (g - d) * 2**(a - 127)`` with ``d in [0, 1)``; ``exact``
    means ``d == 0`` (only possible for ``0 <= n <= 38``, where the
    integer ``10**n`` fits 128 bits unshifted).  The Schubfach writer
    stores ``_pow10_128(-k)`` per binary exponent.
    """
    if n >= 0:
        m = 10**n
        a = m.bit_length() - 1
        sh = 127 - a
        if sh >= 0:
            return m << sh, a, True
        rem = m & ((1 << -sh) - 1)
        return (m >> -sh) + (1 if rem else 0), a, rem == 0
    m = 10**-n
    # 1/m is never dyadic (m carries the factor 5**-n), so the ceiling
    # is strict and the approximation is never exact.
    return -((-(1 << (127 + m.bit_length()))) // m), -m.bit_length(), False


class FormatTables:
    """Immutable precomputed state for one ``(FloatFormat, base)`` pair."""

    __slots__ = (
        "fmt", "base", "ratio", "hidden_limit", "min_e", "max_e",
        "mantissa_limit", "precision", "radix", "powers", "power_limit",
        "grisu_ok", "grisu_powers", "grisu_e_min",
        "read_fast_ok", "read_inf_exp10", "read_zero_exp10",
        "schub_ready", "schub_e_min", "schub_powers",
    )

    def __init__(self, fmt: FloatFormat, base: int,
                 _grisu_state: Optional[Tuple[int, List[Tuple[int, int, int]]]]
                 = None):
        if base < 2 or base > 36:
            raise RangeError(f"output base must be in 2..36, got {base}")
        self.fmt = fmt
        self.base = base
        self.radix = fmt.radix
        self.ratio = log_ratio(fmt.radix, base)
        self.hidden_limit = fmt.hidden_limit
        self.mantissa_limit = fmt.mantissa_limit
        self.precision = fmt.precision
        self.min_e = fmt.min_e
        self.max_e = fmt.max_e
        # Largest |k| the estimator can produce for this format: the
        # decimal (base-B) magnitude of the largest/smallest values, plus
        # slack for the fixup and the pre-multiplication.
        span = max(abs(fmt.min_e) + fmt.precision,
                   abs(fmt.max_e) + fmt.precision)
        self.power_limit = int(math.ceil(span * self.ratio)) + 4
        powers: List[int] = []
        acc = 1
        for _ in range(self.power_limit + 1):
            powers.append(acc)
            acc *= base
        self.powers = powers
        # Fast-lane eligibility and the counted lane's per-binary-
        # exponent power list.
        self.grisu_ok = (base == 10 and fmt.radix == 2
                         and fmt.precision <= GRISU_MAX_PRECISION)
        if self.grisu_ok:
            if _grisu_state is not None:
                self.grisu_e_min, self.grisu_powers = _grisu_state
            else:
                self.grisu_e_min, self.grisu_powers = \
                    self._build_grisu_powers()
        else:
            self.grisu_e_min, self.grisu_powers = 0, []
        # Read-engine eligibility and its decimal-magnitude clamps.
        self.read_fast_ok = (base == 10 and fmt.radix == 2
                             and fmt.precision <= READ_MAX_PRECISION)
        self.read_inf_exp10 = 0
        self.read_zero_exp10 = 0
        if self.read_fast_ok:
            self._build_read_tables()
        # The Schubfach table builds lazily on the first shortest
        # conversion routed to the lane, so read-only and fixed-format
        # users never pay for it.
        self.schub_ready = False
        self.schub_e_min = 0
        self.schub_powers: List[tuple] = []

    def _build_read_tables(self) -> None:
        """Decimal-magnitude clamps for reading.

        ``read_inf_exp10`` is the smallest ``I`` such that any value
        ``>= 10**I`` rounds to infinity under round-to-nearest (at or
        above the overflow midpoint ``(2**(p+1) - 1) * 2**(max_e - 1)``);
        ``read_zero_exp10`` the largest ``Z`` such that any value
        ``<= 10**Z`` rounds to zero (at or below half the smallest
        denormal, ``2**(min_e - 1)``).  Both are certified by exact
        integer comparison at build time, so the read engine can settle
        extreme exponents without constructing ``10**|q|``.
        """
        p, max_e, min_e = self.precision, self.max_e, self.min_e
        mid_f, mid_e = (1 << (p + 1)) - 1, max_e - 1
        i = math.ceil(math.log10(mid_f) + mid_e * math.log10(2.0))
        while _pow10_ge(i - 1, mid_f, mid_e):
            i -= 1
        while not _pow10_ge(i, mid_f, mid_e):
            i += 1
        self.read_inf_exp10 = i
        z = math.floor((min_e - 1) * math.log10(2.0))
        while not _le_pow10(z, min_e - 1):
            z -= 1
        while _le_pow10(z + 1, min_e - 1):
            z += 1
        self.read_zero_exp10 = z

    def _build_grisu_powers(self) -> Tuple[int, List[Tuple[int, int, int]]]:
        """``(cf, ce, mk)`` for every normalized binary exponent.

        A value ``f * 2**e`` normalizes to ``wf * 2**we`` with
        ``we = e + bitlen(f) - 64``, so ``we`` spans
        ``[min_e + 1 - 64, max_e + precision - 64]``.
        """
        fmt = self.fmt
        lo = fmt.min_e + 1 - 64
        hi = fmt.max_e + fmt.precision - 64
        table: List[Tuple[int, int, int]] = []
        for e in range(lo, hi + 1):
            power, mk, _exact = cached_power_for_binary_exponent(e)
            table.append((power.f, power.e, mk))
        return lo, table

    def ensure_schub(self) -> None:
        """Build (once) the Schubfach 128-bit power-of-ten table.

        One entry per binary exponent ``e`` in ``[min_e, max_e]``, as a
        flat 8-tuple ``(k, g, sh, exact, k', g', sh', exact')`` — the
        regular-spacing constants followed by the irregular-spacing ones
        (used when ``f == hidden_limit`` and ``e > min_e``, where the
        gap below the value is half the gap above).  ``k`` is
        ``floor(log10 L)`` for the rounding-interval length ``L``
        (``2**e`` regular, ``3 * 2**(e-2)`` irregular), so the interval
        scaled by ``10**-k`` has length in ``[1, 10)``; ``(g, a, exact)
        = _pow10_128(-k)`` and ``sh = 129 - a - e``, making
        ``(c * g) >> sh`` the 128-bit fixed-point image of
        ``c * 2**(e-2) * 10**-k`` that :mod:`repro.engine.schubfach`
        compares candidates against.

        Lazy and lock-guarded: the first conversion routed to the
        Schubfach lane pays the build (milliseconds for binary64).
        """
        if self.schub_ready:
            return
        if not self.grisu_ok:
            raise RangeError(
                f"schubfach tier serves base-10 radix-2 formats with "
                f"precision <= {GRISU_MAX_PRECISION}, not "
                f"{self.fmt.name} base {self.base}")
        with _TABLE_LOCK:
            if self.schub_ready:
                return
            by_k: Dict[int, Tuple[int, int, bool]] = {}

            def entry(k: int, e: int) -> tuple:
                got = by_k.get(k)
                if got is None:
                    got = by_k[k] = _pow10_128(-k)
                g, a, exact = got
                return (k, g, 129 - a - e, exact)

            table: List[tuple] = []
            for e in range(self.min_e, self.max_e + 1):
                k_reg = _floor_log10_pow2(1, e)
                k_irr = _floor_log10_pow2(3, e - 2)
                table.append(entry(k_reg, e) + entry(k_irr, e))
            self.schub_e_min = self.min_e
            self.schub_powers = table
            self.schub_ready = True

    def grisu_state(self) -> Tuple[int, List[Tuple[int, int, int]]]:
        """The expensive-to-build portion of the tables, as plain data.

        Everything else in a :class:`FormatTables` rebuilds in
        microseconds (a few hundred big-integer multiplies and a handful
        of exact power comparisons); the Grisu power list is one
        :func:`cached_power_for_binary_exponent` search per normalized
        binary exponent (~2100 for binary64) and dominates cold start.
        The returned pair is what :meth:`from_grisu_state` accepts.
        """
        return self.grisu_e_min, [tuple(t) for t in self.grisu_powers]

    @classmethod
    def from_grisu_state(cls, fmt: FloatFormat, base: int, e_min: int,
                         powers: List[Tuple[int, int, int]]
                         ) -> "FormatTables":
        """Rebuild tables from :meth:`grisu_state` output, skipping the
        per-exponent power search.

        Raises :class:`RangeError` if the state does not cover exactly
        this format's normalized exponent span (a snapshot from another
        format or a stale build) — callers translate that into their
        own staleness error.
        """
        lo = fmt.min_e + 1 - 64
        hi = fmt.max_e + fmt.precision - 64
        if e_min != lo or len(powers) != hi - lo + 1:
            raise RangeError(
                f"grisu state covers [{e_min}, {e_min + len(powers) - 1}]"
                f" but {fmt.name} needs [{lo}, {hi}]")
        state = []
        for entry in powers:
            f, e, mk = entry
            if not (1 << 63) <= f < (1 << 64):
                raise RangeError("grisu power significand not normalized")
            state.append((int(f), int(e), int(mk)))
        return cls(fmt, base, _grisu_state=(e_min, state))

    def power(self, k: int) -> int:
        """``base**k`` — table lookup for every in-range ``k``."""
        if 0 <= k <= self.power_limit:
            return self.powers[k]
        return self.base**k

    def expansion_dominates(self, j: int, e: int) -> bool:
        """``base**j / 2 >= 2**(e-1)`` — exactly (radix-2 formats).

        The fixed-format fast-tier precondition: when the requested
        precision margin ``B**j / 2`` is at least the half-gap above a
        value with exponent ``e``, Section 4's conditionally expanded
        rounding range is governed by the request on *both* sides
        (``m_minus <= m_plus`` always), so the paper's algorithm reduces
        to correct rounding of the exact value at position ``j`` with no
        ``#`` marks — which is what the counted tier certifies.  Exact
        integer comparison via the precomputed power table.
        """
        if j >= 0:
            return e <= 0 or self.power(j) >= (1 << e)
        return e < 0 and (1 << -e) >= self.power(-j)

    # ------------------------------------------------------------------
    # Table-backed scaling (Figure 3 with precomputed constants).
    # ------------------------------------------------------------------

    def scale(self, sv: ScaledValue, base: int, v: Flonum):
        """Scaler-compatible entry: estimator + fixup over the tables.

        Mirrors :func:`repro.core.scaling.scale_estimate` /
        :func:`apply_estimate` exactly (same contract, same fixup), minus
        the per-call ``log_ratio`` lookup, the dict-backed ``power`` and
        the global STATS bookkeeping.
        """
        powers = self.powers
        est = math.ceil((v.e + _digit_length(v.f, self.radix) - 1)
                        * self.ratio - FIXUP_EPSILON)
        r, s, m_plus, m_minus = sv.r, sv.s, sv.m_plus, sv.m_minus
        if est >= 0:
            s = s * powers[est]
        else:
            scale = powers[-est]
            r *= scale
            m_plus *= scale
            m_minus *= scale
        while _too_high(r, s, m_plus, base, sv.high_ok):
            r *= base
            m_plus *= base
            m_minus *= base
            est -= 1
        k = est
        bumps = 0
        while _too_low(r, s * (powers[bumps] if bumps else 1),
                       m_plus, sv.high_ok):
            bumps += 1
        k += bumps
        if bumps == 0:
            return k, r * base, s, m_plus * base, m_minus * base
        if bumps > 1:
            s *= powers[bumps - 1]
        return k, r, s, m_plus, m_minus


def _digit_length(f: int, b: int) -> int:
    if b == 2:
        return f.bit_length()
    n = 0
    while f:
        f //= b
        n += 1
    return n


_TABLE_CACHE: Dict[Tuple[int, int], FormatTables] = {}
_TABLE_LOCK = threading.Lock()


def tables_for(fmt: FloatFormat, base: int) -> FormatTables:
    """The shared, lazily built tables for ``(fmt, base)``."""
    key = (id(fmt), base)
    tables = _TABLE_CACHE.get(key)
    if tables is None:
        with _TABLE_LOCK:
            tables = _TABLE_CACHE.get(key)
            if tables is None:
                tables = FormatTables(fmt, base)
                _TABLE_CACHE[key] = tables
    return tables


def install_tables(tables: FormatTables) -> bool:
    """Publish a prebuilt :class:`FormatTables` into the shared cache.

    The warm-start path: a snapshot restore builds tables via
    :meth:`FormatTables.from_grisu_state` and installs them here so the
    first conversion finds them already hot.  A table set already built
    for the pair wins (it is by construction identical); returns whether
    the install took effect.
    """
    key = (id(tables.fmt), tables.base)
    with _TABLE_LOCK:
        if key in _TABLE_CACHE:
            return False
        _TABLE_CACHE[key] = tables
    return True


def clear_tables() -> None:
    """Drop all built tables (tests and memory-pressure ablations)."""
    with _TABLE_LOCK:
        _TABLE_CACHE.clear()
