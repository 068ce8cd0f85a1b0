"""The tiered read engine: decimal→binary mirroring :class:`Engine`.

The paper's guarantee is a round trip — the shortest output must *read
back* to the same flonum — so the reader deserves the same treatment as
the printer: route each literal to the cheapest algorithm that can
certify the correctly rounded result, and fall back to the exact
big-integer path only when certification fails.

Tiers, tried in order for finite nonzero literals:

* a bounded memo of recent conversions, shared with the write
  engine's memo when the :class:`ReadEngine` is obtained through
  :attr:`Engine.reader` (text keys cannot collide with the write side's
  integer keys) and by every read surface — the scalar readers,
  :meth:`ReadEngine.read_many` and
  :func:`repro.engine.buffer.parse_buffer` all run one batch loop,
  :meth:`ReadEngine._read_batch`;
* **Tier 1**, the window tier — a truncated/interval path in the
  Eisel–Lemire style (Mushtak & Lemire, *Fast Number Parsing Without
  Fallback*): keep the first 19 significant digits plus a sticky flag
  (:func:`repro.reader.truncated.truncate_significand`), bracket the
  value with the correctly rounded 64-bit power of ten
  (:func:`repro.fastpath.diyfp._pow10_diyfp`), and round both exact
  interval endpoints to the format.  When they agree, monotonicity of
  rounding certifies the result; otherwise the tier bails.
  Decimal-magnitude clamps (:attr:`FormatTables.read_inf_exp10` /
  :attr:`FormatTables.read_zero_exp10`) settle overflowing and
  vanishing exponents first, without constructing ``10**|q|``.
* **Tier 2** — the exact :func:`repro.reader.exact.round_rational`
  (always correct, never declines), fed the *untruncated* significand.

The fast tiers run only for base-10 literals into radix-2 formats with
``precision <= READ_MAX_PRECISION`` under the two nearest reader modes
(``NEAREST_EVEN``/``NEAREST_UNKNOWN``, which read identically); every
other request goes straight to tier 2.  Negative values are converted by
magnitude with the sign applied at the end — for nearest modes the
magnitude rounding is the mirrored rounding, exactly as on the write
side.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import add as _add
from typing import Iterable, List, Optional, Tuple

from repro.core.rounding import ReaderMode
from repro import faults as _faults
from repro.errors import ParseError, RangeError, ReproError
from repro.fastpath.diyfp import _pow10_diyfp
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum, FlonumKind
from repro.reader.exact import clamp_extreme, round_rational
from repro.reader.parse import ParsedNumber, _scan_decimal, parse_decimal
from repro.reader.truncated import truncate_significand

from repro.engine.memo import GenMemo
from repro.engine.tables import FormatTables, tables_for

__all__ = ["ReadEngine", "ReadResult", "default_read_engine", "read_many",
           "READ_STAT_KEYS", "READ_TRUNCATION_DIGITS"]

#: Significant digits the interval tier keeps: 19 is the most that
#: always fits a 64-bit word, so the endpoint products stay at two
#: machine words.
READ_TRUNCATION_DIGITS = 19

#: Longest literal worth memoizing.  Shortest binary64 output is <= 24
#: characters; anything much longer is either machine-generated noise
#: (unlikely to repeat) or adversarial, and keying the memo on it would
#: let one hostile input pin megabytes.
_MEMO_TEXT_LIMIT = 48

#: Lane codes :meth:`ReadEngine._convert` returns, indexing the batch
#: loop's counters: a zero literal (and, in the loop, nan/inf), the
#: window tier, and the exact tier plain, after a window bail and after
#: a tier fault.  :data:`MEMO`, one past them, marks a memo hit.
SPECIAL, WINDOW, EXACT, EXACT_BAILED, EXACT_FAULTED, MEMO = range(6)

#: The counter list: one slot per lane code, then memo hits (at
#: :data:`MEMO`) and memo misses.
_MISSES = MEMO + 1
_TALLY = MEMO + 2

#: The Flonum constructors the batch loop calls, bound once.
_from_bits = Flonum.from_bits
_trusted = Flonum._finite_trusted

#: :attr:`ReadResult.tier` per code.
_TIER_NAMES = ("special", "tier1", "tier2", "tier2", "tier2", "memo")

#: Sentinel returned by :func:`_round_nearest` when the rounded value
#: exceeds the format's finite range (IEEE nearest overflow → infinity).
_OVERFLOW = object()

#: 10**0 .. 10**20, for branch-free decimal digit counting.
_POW10 = tuple(10 ** k for k in range(21))

#: First integer with more than READ_TRUNCATION_DIGITS decimal digits.
_TRUNCATION_LIMIT = 10 ** READ_TRUNCATION_DIGITS

#: Flat cache of ``(2*Pf, pe - 1, exact)`` per decimal exponent — the
#: tier-1 working form of :func:`_pow10_diyfp`'s result, precomputed so
#: the hot loop skips the DiyFp attribute traffic.
_POW10_PARTS: dict = {}


def _pow10_parts(q: int) -> tuple:
    parts = _POW10_PARTS.get(q)
    if parts is None:
        power, exact = _pow10_diyfp(q)
        parts = _POW10_PARTS[q] = (power.f << 1, power.e - 1, exact)
    return parts


def _decimal_digits(d: int) -> int:
    """Number of decimal digits of ``d`` (positive, < 10**20).

    ``len(str(d))`` without the string: estimate from the bit length
    (30103/100000 over-approximates log10(2) by < 3e-7, so the estimate
    is ``floor(log10 d)`` or one more) and correct with one comparison.
    """
    est = d.bit_length() * 30103 // 100000
    return est + 1 if d >= _POW10[est] else est

#: The exact counter key set :meth:`ReadEngine.stats` returns — pinned
#: so :meth:`Engine.stats` can merge a zeroed copy before the reader is
#: ever built and schema tests can assert nothing drifts.
READ_STAT_KEYS = frozenset({
    "read_tier1_hits", "read_tier1_bailouts",
    "read_tier2_calls", "read_specials",
    "read_cache_hits", "read_cache_misses", "read_conversions",
    "read_tier_faults", "read_snapshot_faults",
})


def _bits_layout(fmt: FloatFormat) -> Optional[tuple]:
    """The batch loop's inline bits encoder for ``fmt``, or None when
    the format has no bit encoding: ``(hidden, shift, offset, sign_bit,
    inf_bits, nan_bits)``.

    A normal magnitude ``f * 2**t`` encodes as
    ``(t << shift) + f + offset``: the biased exponent field plus the
    mantissa field, whose hidden bit the offset subtracts (x87 stores
    its leading bit, so it keeps it).  A subnormal encodes as ``f``.
    Must agree with :meth:`Flonum.to_bits`.
    """
    if not fmt.has_encoding:
        return None
    hidden = fmt.hidden_limit
    shift = fmt.mantissa_field_width
    offset = ((fmt.bias + fmt.precision - 1) << shift) \
        - (0 if fmt.explicit_leading_bit else hidden)
    return (hidden, shift, offset, 1 << (fmt.total_bits - 1),
            Flonum.infinity(fmt).to_bits(), Flonum.nan(fmt).to_bits())


def _stripped(text) -> str:
    if not isinstance(text, str):
        raise ParseError(f"expected a numeric string, got "
                         f"{type(text).__name__}")
    return text.strip()


def exact_only_order(order, name: str = "tier_order") -> bool:
    """The engines' exact-only switch: ``None`` (the one route) gives
    False, ``()`` (exact tier only) gives True, and anything else raises
    :class:`RangeError` — there is no lane order to choose."""
    if order is None:
        return False
    if isinstance(order, (tuple, list)) and not order:
        return True
    raise RangeError(f"{name} must be None (the one route) or () "
                     f"(exact tier only), got {order!r}")


@dataclass(frozen=True)
class ReadResult:
    """A conversion plus which tier resolved it (for attribution)."""

    value: Flonum
    tier: str  # 'tier1'|'tier2'|'special'|'memo'


def _round_nearest(n: int, e2: int, sticky: bool, min_e: int, max_e: int,
                   prec: int, mantissa_limit: int):
    """Round the positive value ``n * 2**e2`` (+ sticky tail) to a format.

    ``sticky`` asserts the true value lies strictly inside
    ``(n, n + 1) * 2**e2``; rounding is IEEE nearest-even with denormal
    clamping.  Returns ``(f, t)`` (``f == 0`` means zero), the module
    :data:`_OVERFLOW` sentinel past the finite range, or ``None`` when a
    sticky tail cannot be absorbed (the kept bits are all significant —
    only reachable defensively; the tiers size their operands so the cut
    is at least one bit).
    """
    nb = n.bit_length()
    t = nb + e2 - prec
    if t < min_e:
        t = min_e
    shift = t - e2
    if shift <= 0:
        if sticky:
            return None
        f = n << -shift
    else:
        half = 1 << (shift - 1)
        cut = n & ((1 << shift) - 1)
        f = n >> shift
        if cut > half or (cut == half and (sticky or f & 1)):
            f += 1
            if f == mantissa_limit:
                f >>= 1
                t += 1
    if t > max_e:
        return _OVERFLOW
    return f, t


class ReadEngine:
    """A tiered correctly rounding reader with per-format tables.

    Instances are cheap; the per-format tables are shared
    process-wide through :func:`repro.engine.tables.tables_for`.  Each
    engine owns its statistics; the result memo is private by default
    but can be shared (``Engine.reader`` hands its own memo and lock in,
    so read and write conversions compete for one memo budget).

    Args:
        cache_size: Max entries in the result memo (0 disables it).
        strict: False (default): an unexpected non-:class:`ReproError`
            raised inside a fast tier falls back to the exact tier and
            counts a ``read_tier_faults``; True: re-raise (CI).
        snapshot: Optional warm-start source (path or
            :class:`repro.engine.snapshot.Snapshot`): restores the
            per-format tables and the snapshot's read-memo rows.  A
            rejected snapshot counts one ``read_snapshot_faults`` and
            the reader starts cold — never an exception, never wrong
            bits.
        tier_order: The exact-only switch: None (default) runs the one
            route (window, exact); ``()`` reads every literal
            with the exact tier.  Any other value raises
            :class:`RangeError`.
    """

    def __init__(self, cache_size: int = 8192, strict: bool = False,
                 _shared_cache: Optional[GenMemo] = None,
                 _shared_lock: Optional[threading.Lock] = None,
                 snapshot=None,
                 tier_order: Optional[Iterable[str]] = None):
        if cache_size < 0:
            raise RangeError("cache_size must be >= 0")
        #: True when every literal goes to the exact tier.
        self.exact_only = exact_only_order(tier_order)
        self.strict = strict
        self.cache_size = cache_size
        self._cache = (_shared_cache if _shared_cache is not None
                       else GenMemo(cache_size))
        self._contexts: dict = {}
        self._lock = _shared_lock if _shared_lock is not None \
            else threading.Lock()
        # Not reset_stats(): when the memo/lock are shared through
        # ``Engine.reader`` the construction happens while the caller
        # already holds the (non-reentrant) lock.
        self._reset_stats_locked()
        #: Restore counts from the snapshot, or None (no snapshot given
        #: or it was rejected — see ``stats()["read_snapshot_faults"]``).
        self.snapshot_restored: Optional[dict] = None
        if snapshot is not None:
            self._load_snapshot(snapshot)

    def _load_snapshot(self, snapshot) -> None:
        import os as _os
        from repro.errors import SnapshotError
        from repro.engine import snapshot as _snapshot_mod
        try:
            snap = (snapshot if isinstance(snapshot, _snapshot_mod.Snapshot)
                    else _snapshot_mod.load_snapshot(_os.fspath(snapshot)))
            self.snapshot_restored = _snapshot_mod.apply_read_snapshot(
                self, snap)
        except SnapshotError:
            with self._lock:
                self._snapshot_faults += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every counter (the memo itself is left intact)."""
        with self._lock:
            self._reset_stats_locked()

    def _reset_stats_locked(self) -> None:
        self._tally = [0] * _TALLY
        self._snapshot_faults = 0

    def stats(self) -> dict:
        """Counters since the last :meth:`reset_stats`.

        Keys are exactly :data:`READ_STAT_KEYS`: ``read_tier1_hits`` /
        ``read_tier1_bailouts`` (the window tier, magnitude clamps
        included),
        ``read_tier2_calls`` (exact fallback), ``read_specials``
        (nan/inf/zero literals), ``read_cache_hits`` /
        ``read_cache_misses`` (the memo) and ``read_conversions``
        (every read, however resolved).

        The snapshot is taken under the engine lock and every counter
        mutation happens under the same lock (batch reads flush local
        tallies once per batch), so concurrent readers never observe a
        torn mid-batch state.
        """
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        specials, window, exact, bailed, faulted, hits, misses = self._tally
        return {
            "read_tier1_hits": window,
            "read_tier1_bailouts": bailed,
            "read_tier2_calls": exact + bailed + faulted,
            "read_specials": specials,
            "read_tier_faults": faulted,
            "read_cache_hits": hits,
            "read_cache_misses": misses,
            "read_snapshot_faults": self._snapshot_faults,
            "read_conversions": (window + exact + bailed + faulted
                                 + specials + hits),
        }

    def clear_cache(self) -> None:
        """Drop every memoized result (including the write engine's
        entries when the memo is shared through ``Engine.reader``)."""
        with self._lock:
            self._cache.clear()

    def _context(self, fmt: FloatFormat, mode: ReaderMode) -> tuple:
        """Intern one read context: ``(ctx_id, tables, layout, mode)``.

        The small-int ``ctx_id`` (never recycled) keys the memo; the
        :class:`FormatTables` and the bits encoder's constants
        (:func:`_bits_layout`) ride along so the hot paths resolve them
        with one dict probe instead of one per conversion.  The probe
        keys on identities: hashing an enum member runs Python code.
        """
        key = (id(fmt), id(mode))
        ctx = self._contexts.get(key)
        if ctx is None:
            with self._lock:
                ctx = self._contexts.get(key)
                if ctx is None:
                    ctx = (len(self._contexts), tables_for(fmt, 10),
                           _bits_layout(fmt), mode)
                    self._contexts[key] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def _convert(self, sign: int, d: int, q: int, fmt: FloatFormat,
                 mode: ReaderMode, tables: FormatTables
                 ) -> Tuple[int, int, int]:
        """Route one finite literal ``(-1)**sign * d * 10**q`` through
        the window tier, then the exact tier: ``(f, t, code)``.

        ``f > 0`` is the canonical magnitude ``f * 2**t``, ``f == 0``
        zero and ``f == -1`` infinity; the sign is the caller's.
        ``code`` is the lane that decided (:data:`SPECIAL` for a zero
        literal, :data:`WINDOW`, :data:`EXACT`, or
        :data:`EXACT_BAILED` / :data:`EXACT_FAULTED` for the exact tier
        after a window bail or a tier fault).

        The fast-tier region is guard-railed: an unexpected exception
        (anything but a deliberate :class:`ReproError`) falls back to
        the exact tier with :data:`EXACT_FAULTED` instead of escaping,
        unless :attr:`strict`.

        Counter-free and lock-free: :meth:`_read_batch`, the only
        caller, tallies the codes and flushes them once per batch.  At
        a few microseconds per conversion, call and attribute overhead
        is the budget, so tier 1 is inlined rather than factored out.

        Tier 1 is the interval certification: ``d * 10**q`` (with at
        most ``d + 1`` when truncation left a sticky tail) is bracketed
        using the correctly rounded 64-bit power
        ``10**q = (Pf ± 1/2 ulp) * 2**pe``:

        ``value ∈ [lo, lo + w] * 2**(pe - 1)`` with
        ``lo = d*(2*Pf - u)`` and width ``w = 2*d*u`` (plus
        ``2*Pf + u`` when sticky), ``u = 0`` iff the power is exact.
        Only ``lo`` is formed as a big product — the width follows
        arithmetically.  When the cut-off bits of ``lo`` plus ``w``
        stay strictly on one side of the rounding midpoint, every value
        in the interval rounds identically (no tie is reachable) and
        the tier accepts with a single rounding; otherwise both
        endpoints are rounded exactly and the tier accepts iff they
        agree — rounding is monotone, so the true value in between
        rounds to the same float.  Everything else (the value is
        provably within one part in ~10^19 of a rounding boundary)
        bails to the exact tier.
        """
        if d == 0:
            return 0, 0, SPECIAL
        code = EXACT
        if (not self.exact_only and tables.read_fast_ok
                and (mode is ReaderMode.NEAREST_EVEN
                     or mode is ReaderMode.NEAREST_UNKNOWN)):
          try:
            if d < _TRUNCATION_LIMIT:
                d19 = d
                q19 = q
                sticky = False
                est = d.bit_length() * 30103 // 100000
                mag = q + (est + 1 if d >= _POW10[est] else est)
            else:
                d19, q19, sticky = truncate_significand(
                    d, q, READ_TRUNCATION_DIGITS)
                # Truncation keeps exactly 19 significant digits.
                mag = q19 + READ_TRUNCATION_DIGITS
            # Decimal magnitude: value ∈ [10**(mag-1), 10**mag).
            if mag - 1 >= tables.read_inf_exp10:
                return -1, 0, WINDOW
            if mag <= tables.read_zero_exp10:
                return 0, 0, WINDOW
            if _faults._PLAN is not None:
                _faults._PLAN.fire("reader.tier1")
            parts = _POW10_PARTS.get(q19)
            if parts is None:
                parts = _pow10_parts(q19)
            pf2, e2, exact = parts
            min_e = tables.min_e
            max_e = tables.max_e
            prec = tables.precision
            mantissa_limit = tables.mantissa_limit
            if exact:
                lo = d19 * pf2
                w = (pf2 if sticky else 0)
            else:
                lo = d19 * (pf2 - 1)
                w = (d19 << 1) + (pf2 + 1 if sticky else 0)
            t = lo.bit_length() + e2 - prec
            if t < min_e:
                t = min_e
            shift = t - e2
            if shift > 0:
                half = 1 << (shift - 1)
                cut = lo & ((half << 1) - 1)
                cw = cut + w
                f = lo >> shift
                if cw < half:
                    pass  # whole interval rounds down, tie-free
                elif cut > half and cw < (half << 1):
                    f += 1  # whole interval rounds up, tie-free
                    if f == mantissa_limit:
                        f >>= 1
                        t += 1
                else:
                    f = -1  # a boundary is inside: certify exactly
                if f >= 0:
                    if t > max_e:
                        return -1, 0, WINDOW
                    return f, t, WINDOW
            if shift <= 0 or f < 0:
                r = _round_nearest(lo, e2, False, min_e, max_e, prec,
                                   mantissa_limit)
                if w and r != _round_nearest(lo + w, e2, False, min_e,
                                             max_e, prec, mantissa_limit):
                    r = None
                if r is not None:
                    if r is _OVERFLOW:
                        return -1, 0, WINDOW
                    return r[0], r[1], WINDOW
                code = EXACT_BAILED
          except ReproError:
            raise
          except Exception:
            if self.strict:
                raise
            code = EXACT_FAULTED
        value = clamp_extreme(d, q, fmt, mode, bool(sign))
        if value is None:
            num, den = (d * 10**q, 1) if q >= 0 else (d, 10**-q)
            value = round_rational(num, den, fmt, mode, negative=bool(sign))
        if value.kind is FlonumKind.INFINITE:
            return -1, 0, code
        return value.f, value.e, code

    def _read_batch(self, texts, fmt: FloatFormat, mode: ReaderMode,
                    flonums: bool, memo: bool = True) -> Tuple[list, int]:
        """The read side's one batch loop: ``(values, code)``.

        ``texts`` are stripped literals (or, with ``memo=False``,
        :class:`ParsedNumber` items); ``values`` are their
        :class:`Flonum` values when ``flonums`` is set, else bit patterns
        of ``fmt``.  ``code`` is the last item's lane code, or
        :data:`MEMO` for a memo hit (the scalar readers' attribution).

        Every read probes, installs and attributes here.  The memo is
        probed and filled in place, lock-free; under sampled admission
        only every ``STRIDE``-th miss installs
        (:mod:`repro.engine.memo`).  Lane codes accumulate in a list
        indexed by code.  One final lock flushes the counters (a
        concurrent :meth:`stats` never sees a torn batch), records the
        memo's hits and misses for its admission rule and trims it.
        Memo values are ``(bits, Flonum or None)``: a Flonum-producing batch
        installs the Flonum it built, a bits batch (``parse_buffer``)
        None, decoded on a later Flonum hit.  Formats without a bit
        encoding memoize ``(None, Flonum)`` and cannot produce bits.
        """
        if not texts:
            return [], SPECIAL
        ctx_id, tables, layout, _ = self._context(fmt, mode)
        if layout is not None:
            hidden, shift, offset, sign_bit, inf_bits, nan_bits = layout
        elif not flonums:
            fmt._require_encoding()
        gen = self._cache
        cache = gen if memo and self.cache_size else None
        new, old, cap = gen.new, gen.old, gen.capacity
        gap, skip = gen.gap, gen.skip
        want = 1 if flonums else 0  # the memo value's slot to return
        convert = self._convert
        counts = [0] * _TALLY
        n_hits = n_misses = 0
        out: list = []
        append = out.append
        code = SPECIAL
        for s in texts:
            if cache is not None and len(s) <= _MEMO_TEXT_LIMIT:
                key = (s, ctx_id)
                hit = new.get(key)
                if hit is None:
                    hit = old.pop(key, None)
                    if hit is not None:
                        new[key] = hit
                if hit is not None:
                    n_hits += 1
                    v = hit[want]
                    if v is None:  # a bits-only entry, read as a Flonum
                        v = _from_bits(hit[0], fmt)
                    append(v)
                    code = MEMO
                    continue
            else:
                key = None
            scanned = _scan_decimal(s) if type(s) is str else None
            if scanned is not None:
                sign = scanned[0]
                f, t, code = convert(sign, scanned[1], scanned[2], fmt,
                                     mode, tables)
            else:
                p = parse_decimal(s) if type(s) is str else s
                sign = p.sign
                if p.special is None:
                    f, t, code = convert(sign, p.digits, p.exponent, fmt,
                                         mode, tables)
                else:
                    code = SPECIAL
                    f = -1
                    if p.special == "nan":
                        sign = 0
                        f = -2
            counts[code] += 1
            # --- encode: f > 0 finite, 0 zero, -1 infinity, -2 NaN ---
            if layout is None:
                bits = None
            else:
                if f > 0:
                    bits = (t << shift) + f + offset if f >= hidden else f
                elif f == 0:
                    bits = 0
                else:
                    bits = inf_bits if f == -1 else nan_bits
                if sign:
                    bits |= sign_bit
            if flonums:
                if f > 0:
                    v = _trusted(sign, f, t, fmt)
                elif f == 0:
                    v = Flonum.zero(fmt, sign)
                elif f == -1:
                    v = Flonum.infinity(fmt, sign)
                else:
                    v = Flonum.nan(fmt)
                append(v)
            else:
                v = None
                append(bits)
            if key is not None:
                n_misses += 1
                if skip:  # sampled admission: not this miss
                    skip -= 1
                    continue
                skip = gap
                if not old and len(new) >= cap:
                    with self._lock:
                        new, old = cache.turn(new)
                if old:
                    try:
                        old.popitem()
                    except KeyError:  # drained by a racing batch
                        pass
                new[key] = (bits, v)
        counts[MEMO], counts[_MISSES] = n_hits, n_misses
        with self._lock:
            self._tally = list(map(_add, self._tally, counts))
            gen.record(n_hits, n_misses, skip)
            gen.trim()
        return out, code

    def read_parsed(self, parsed: ParsedNumber, fmt: FloatFormat = BINARY64,
                    mode: ReaderMode = ReaderMode.NEAREST_EVEN
                    ) -> ReadResult:
        """Route one already-parsed literal through the tiers (the
        memo keys on text, so it is not consulted)."""
        out, code = self._read_batch((parsed,), fmt, mode, True, memo=False)
        return ReadResult(out[0], _TIER_NAMES[code])

    def read_result(self, text: str, fmt: FloatFormat = BINARY64,
                    mode: ReaderMode = ReaderMode.NEAREST_EVEN
                    ) -> ReadResult:
        """Correctly rounded value of a literal, with tier attribution.

        Semantics identical to :func:`repro.reader.exact.read_decimal`
        (specials, ``#`` marks, :class:`ParseError` on malformed input);
        only the evaluation strategy differs.
        """
        out, code = self._read_batch((_stripped(text),), fmt, mode, True)
        return ReadResult(out[0], _TIER_NAMES[code])

    def read(self, text: str, fmt: FloatFormat = BINARY64,
             mode: ReaderMode = ReaderMode.NEAREST_EVEN) -> Flonum:
        """Correctly rounded value of one literal — drop-in for
        :func:`repro.reader.exact.read_decimal`."""
        return self._read_batch((_stripped(text),), fmt, mode, True)[0][0]

    def read_many(self, texts: Iterable[str], fmt: FloatFormat = BINARY64,
                  mode: ReaderMode = ReaderMode.NEAREST_EVEN
                  ) -> List[Flonum]:
        """Batch reads, amortizing per-call overhead.

        Semantically ``[self.read(t, fmt, mode) for t in texts]``, but
        the whole batch runs through :meth:`_read_batch`: lock-free
        memo probes and installs, one lock acquisition for the
        counters.  An empty batch touches no shared state at all.
        """
        texts = list(texts)
        for t in texts:
            if not isinstance(t, str):
                raise ParseError(f"expected a numeric string, got "
                                 f"{type(t).__name__}")
        return self._read_batch([t.strip() for t in texts], fmt, mode,
                                True)[0]


def default_read_engine() -> ReadEngine:
    """The process-wide read engine: the default write engine's
    :attr:`~repro.engine.engine.Engine.reader` (shared memo, merged
    stats)."""
    from repro.engine.engine import default_engine

    return default_engine().reader


def read_many(texts: Iterable[str], fmt: FloatFormat = BINARY64,
              mode: ReaderMode = ReaderMode.NEAREST_EVEN) -> List[Flonum]:
    """Batch reads through the default read engine."""
    return default_read_engine().read_many(texts, fmt, mode)
