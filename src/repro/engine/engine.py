"""The tiered conversion engine: route each value to the cheapest
algorithm that can certify the correct shortest output.

One route, tried in order for positive finite values:

* a bounded memo of recent conversions (repeated values are common
  in real traffic — column data, sensor streams, test corpora);
* **Tier 0**, one inline integer test: a value ``f * 2**e`` with
  ``e < 0`` and ``2**-e`` dividing ``f`` is an integer whose rounding
  gap is below 1, so its own digits are the unique shortest output
  under every reader mode;
* **Schubfach** (:mod:`repro.engine.schubfach`): certified shortest
  digits from a 128-bit per-format power table — it decides every
  finite value, so it never bails;
* **Exact**: the Burger–Dybvig algorithm
  (:func:`repro.core.dragon.shortest_digits_scaled`) with the
  table-backed scaler — never wrong, never declines.

Every lane produces output byte-identical to the exact tier for the
same reader mode and tie strategy; the test suite enforces this over the
Schryer, random and binade-boundary corpora (and all of binary16).
Schubfach is only eligible under the two nearest-reader assumptions its
decision rule covers (``NEAREST_EVEN`` and ``NEAREST_UNKNOWN``) and for
the formats whose power table it has; every other request reaches the
exact tier.  The integer test is mode-independent and eligible
everywhere.

Two representation choices carry the throughput:

* the default write route (base 10, default options, every Schubfach
  format: binary16/32/64) trades in signed bit patterns.  One batch
  loop, :meth:`Engine._write_batch` — the mirror of the read side's
  :meth:`~repro.engine.reader.ReadEngine._read_batch` — maps each
  pattern to its final text, and its memo entries map
  ``(bits, ctx)`` to that text, so a hit is one probe and one append.
  :meth:`Engine.format`, :meth:`Engine.format_many` (an all-float
  binary64 batch becomes patterns in one ``array`` pass) and
  :func:`repro.engine.buffer.format_buffer` (its ingested patterns
  pass straight in) all run it.  A miss splits the pattern into
  ``(f, e)`` with integer operations; no :class:`Flonum` is built;
* inside a conversion the currency is ``(k, body)`` pairs where
  ``body`` is the digit *string* (no point, no sign).  Fast tiers
  accumulate digits into one integer and let ``str()`` render it at C
  speed.  Memo entries of this shape, keyed ``(f, e, ctx)`` on the
  magnitude, serve only the other routes (other options and bases,
  :meth:`Engine.shortest_digits`), as do the hot dictionary and the
  shared-memory hot plane, probed on a miss;
  :func:`repro.format.notation.render_shortest_parts` accepts the
  string form directly, so no per-digit tuple is built.
"""

from __future__ import annotations

import os
import struct
import threading
from array import array
from math import copysign, frexp
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.baselines.naive_fixed import exact_fixed_digits
from repro.core.boundaries import adjust_for_mode, initial_scaled_value
from repro.core.digits import DigitResult
from repro.core.dragon import shortest_digits_scaled
from repro.core.fixed import FixedResult
from repro.core.fixed import fixed_digits as exact_paper_fixed
from repro.core.rounding import ReaderMode, TieBreak
from repro import faults as _faults
from repro.errors import RangeError, ReproError, SnapshotError
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum, FlonumKind, to_flonum
from repro.format.notation import (
    DEFAULT_OPTIONS,
    NotationOptions,
    render_shortest_parts,
    special_text,
)

from repro.engine.counted import counted_tier_digits
from repro.engine.memo import GenMemo
from repro.engine.reader import (READ_STAT_KEYS, ReadEngine, ReadResult,
                                 _bits_layout, exact_only_order)
from repro.engine.schubfach import schubfach_digits
from repro.engine.tables import FormatTables, tables_for

__all__ = ["Engine", "default_engine", "format_many", "STAT_KEYS"]

Number = Union[float, int, Flonum]

#: Modes whose certification the Schubfach lane covers (its output is
#: byte-equal to the exact algorithm under either nearest-reader
#: assumption, for every tie strategy — enforced by the test suite).
_NEAREST_MODES = (ReaderMode.NEAREST_EVEN, ReaderMode.NEAREST_UNKNOWN)

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"

_TWO_P53 = float(1 << 53)
_INF = float("inf")

_FINITE, _NAN = FlonumKind.FINITE, FlonumKind.NAN
_FLOAT_ONLY = {float}
_PACK64 = struct.Struct("<d").pack


def _bits64(x: float) -> int:
    """The binary64 bit pattern of a float, sign included."""
    return int.from_bytes(_PACK64(x), "little")

#: The exact key set :meth:`Engine.stats` returns, before and after any
#: :meth:`Engine.reset_stats` and whether or not the read engine has
#: been built — pinned by a schema test so counter consumers never
#: ``KeyError`` on a fresh or reset engine.  Every value is a count.
STAT_KEYS = frozenset({
    "tier0_hits", "tier2_calls",
    "schubfach_hits", "fixed_tier1_hits", "fixed_tier1_bailouts",
    "fixed_tier2_calls", "fixed_conversions", "cache_hits",
    "cache_misses", "conversions", "cache_entries", "tier_faults",
    "hot_hits", "snapshot_faults",
}) | READ_STAT_KEYS


class Engine:
    """A tiered shortest-conversion engine with per-format tables.

    Instances are cheap; the heavy per-format tables are shared
    process-wide (:func:`repro.engine.tables.tables_for`).  Each engine
    owns its result memo and its statistics, so ablations can run
    side-by-side::

        fast = Engine()
        exact = Engine(tier_order=(), read_tier_order=(), cache_size=0)

    Args:
        cache_size: Max entries in the result memo (0 disables it).
        fixed_tier1: Enable the counted-digit fast path for the
            fixed-format conversions (:meth:`counted_digits`,
            :meth:`fixed_digits`).
        strict: Guard-rail policy for unexpected fast-tier exceptions.
            False (production default): any non-:class:`ReproError`
            raised inside a tier-0/Schubfach region falls back to the
            exact path and counts a ``tier_faults`` — a fast path is an
            optimization and never an excuse to crash.  True (CI):
            re-raise, so injected faults and genuine lane bugs surface
            loudly.
        snapshot: Optional warm-start source — a path to a snapshot
            file or a :class:`repro.engine.snapshot.Snapshot` — whose
            tables, memo rows and hot-values dictionary are restored at
            construction.  A rejected snapshot (corrupt, stale, foreign
            format set) counts one ``snapshot_faults`` and the engine
            starts cold; it never raises and never yields wrong bytes.
        tier_order: The exact-only switch for shortest conversions:
            None (default) runs the one route (integer test, Schubfach,
            exact); ``()`` sends every conversion to the exact tier.
            Any other value raises :class:`RangeError`.
        read_tier_order: The same switch for :attr:`reader`.
    """

    def __init__(self, cache_size: int = 8192, fixed_tier1: bool = True,
                 strict: bool = False, snapshot=None,
                 tier_order: Optional[Iterable[str]] = None,
                 read_tier_order: Optional[Iterable[str]] = None):
        if cache_size < 0:
            raise RangeError("cache_size must be >= 0")
        #: True when every shortest conversion goes to the exact tier.
        self.exact_only = exact_only_order(tier_order)
        self._read_exact_only = exact_only_order(read_tier_order,
                                                 "read_tier_order")
        self.fixed_tier1 = fixed_tier1
        self.strict = strict
        self.cache_size = cache_size
        self._cache = GenMemo(cache_size)
        # Memo keys are (f, e, ctx) with ctx a small int interning the
        # (format, base, mode, tie) combination — shorter tuples hash
        # measurably faster on the hot path than six-element ones.
        self._ctx_ids: dict = {}
        # Formats referenced by interned contexts, pinned for the
        # engine's lifetime: the intern key uses id(fmt), which CPython
        # recycles after garbage collection — without the pin a dead
        # format's context could be revived for an unrelated new format
        # and cross-serve memo entries.
        self._ctx_pins: list = []
        # The hot-values dictionary (never evicted; consulted after the
        # memo, before the lanes) and any attached shared-memory planes,
        # both keyed/selected by interned context.
        self._hot: "Dict[tuple, Tuple[int, str]]" = {}
        self._planes: dict = {}
        # :meth:`_write_batch`'s per-(format, mode, tie) state.
        self._routes: dict = {}
        self._lock = threading.Lock()
        self._reader: Optional[ReadEngine] = None
        self.reset_stats()
        #: Restore counts from the snapshot, or None (no snapshot given
        #: or it was rejected — see ``stats()["snapshot_faults"]``).
        self.snapshot_restored: Optional[dict] = None
        if snapshot is not None:
            self._load_snapshot(snapshot)

    def _load_snapshot(self, snapshot) -> None:
        """Warm from a snapshot path or object; a rejected snapshot
        (missing, corrupt, stale, foreign format set) counts one
        ``snapshot_faults`` and leaves the engine cold — warm start is
        an optimization, never a correctness dependency."""
        from repro.engine import snapshot as _snapshot_mod
        try:
            snap = (snapshot if isinstance(snapshot, _snapshot_mod.Snapshot)
                    else _snapshot_mod.load_snapshot(os.fspath(snapshot)))
            self.snapshot_restored = _snapshot_mod.apply_snapshot(self, snap)
        except SnapshotError:
            with self._lock:
                self._snapshot_faults += 1

    def attach_hot_plane(self, plane) -> None:
        """Attach a validated shared-memory hot plane
        (:class:`repro.engine.snapshot.HotPlane`) for lock-free probes.

        The plane's context (format name, mode, tie, base) selects the
        one interned context it may serve; an unknown format raises
        :class:`SnapshotError` (callers count it and stay cold).
        """
        from repro.floats.formats import STANDARD_FORMATS
        from repro.engine.snapshot import bits_encoder
        fmt = STANDARD_FORMATS.get(plane.fmt_name)
        if fmt is None or not fmt.has_encoding:
            raise SnapshotError(
                f"hot plane names unusable format {plane.fmt_name!r}")
        try:
            mode = ReaderMode(plane.mode)
            tie = TieBreak(plane.tie)
        except ValueError as exc:
            raise SnapshotError(f"hot plane context invalid: {exc}") from exc
        ctx = self._ctx_id(fmt, plane.base, mode, tie)
        self._planes[ctx] = (plane, bits_encoder(fmt))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every counter (the memo itself is left intact).

        The key set of :meth:`stats` is unaffected: read-side counters
        are zeroed alongside (when the read engine exists) and merged as
        zeros otherwise, so ``stats()`` always returns exactly
        :data:`STAT_KEYS`.
        """
        with self._lock:
            self._reset_stats_locked()

    def _reset_stats_locked(self) -> None:
        self._tier0_hits = 0
        self._tier2_calls = 0
        self._schubfach_hits = 0
        self._fixed_tier1_hits = 0
        self._fixed_tier1_bailouts = 0
        self._fixed_tier2_calls = 0
        self._tier_faults = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._hot_hits = 0
        self._snapshot_faults = 0
        reader = getattr(self, "_reader", None)
        if reader is not None:
            # The read engine shares this engine's lock, which the
            # caller already holds — zero it without re-acquiring.
            reader._reset_stats_locked()

    def stats(self) -> dict:
        """Counters since the last :meth:`reset_stats`.

        Keys: ``tier0_hits``, ``schubfach_hits``, ``tier2_calls`` (the
        shortest/free-format route: integer test, Schubfach, exact);
        ``fixed_tier1_hits``, ``fixed_tier1_bailouts``,
        ``fixed_tier2_calls`` (the counted/fixed-format tiers, shared by
        :meth:`counted_digits` and :meth:`fixed_digits`);
        ``cache_hits``/``cache_misses`` (the memo, shared by every
        conversion kind); ``hot_hits`` (the warm-start hot-values
        dictionary and any attached shared-memory plane);
        ``snapshot_faults`` (rejected snapshots and detached planes —
        each one a cold fallback, never wrong bytes); ``conversions``
        (every digit-generation request, however it was resolved);
        ``fixed_conversions`` (the fixed-format subset that missed the
        memo) and ``cache_entries`` (current memo population).

        When the read engine has been built (:attr:`reader`), its
        ``read_*`` counters are merged in; otherwise they appear as
        zeros.  The key set is always exactly :data:`STAT_KEYS`.

        The snapshot is consistent: every counter mutation happens under
        the engine lock (the batch APIs accumulate locally and flush
        once per batch), and this method reads the whole set under one
        acquisition — concurrent readers never observe a torn mid-batch
        state.
        """
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        fixed = self._fixed_tier1_hits + self._fixed_tier2_calls
        reader = self._reader
        out = (reader._stats_locked() if reader is not None
               else dict.fromkeys(READ_STAT_KEYS, 0))
        out.update({
            "tier0_hits": self._tier0_hits,
            "tier2_calls": self._tier2_calls,
            "schubfach_hits": self._schubfach_hits,
            "fixed_tier1_hits": self._fixed_tier1_hits,
            "fixed_tier1_bailouts": self._fixed_tier1_bailouts,
            "fixed_tier2_calls": self._fixed_tier2_calls,
            "fixed_conversions": fixed,
            "tier_faults": self._tier_faults,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
            "hot_hits": self._hot_hits,
            "snapshot_faults": self._snapshot_faults,
            "conversions": (self._tier0_hits + self._schubfach_hits
                            + self._tier2_calls
                            + fixed + self._cache_hits + self._hot_hits),
            "cache_entries": len(self._cache),
        })
        return out

    def clear_cache(self) -> None:
        """Drop every memoized result."""
        with self._lock:
            self._cache.clear()

    def _ctx_id(self, fmt: FloatFormat, base: int,
                mode: "Union[ReaderMode, str]", tie: TieBreak) -> int:
        """Intern one conversion context as a small int (never recycled).

        ``mode`` is a :class:`ReaderMode` for shortest conversions and a
        kind string (``"cnt-rel"``, ``"fix-abs"``, ...) for the
        fixed-format ones — distinct contexts can never collide, and the
        fixed memo keys are 4-tuples besides.  Every interned format is
        pinned for the engine's lifetime so its ``id()`` can never be
        recycled onto a different format (which would let a stale
        context cross-serve another format's memo entries).
        """
        key = (id(fmt), base, mode, tie)
        ctx = self._ctx_ids.get(key)
        if ctx is None:
            with self._lock:
                ctx = self._ctx_ids.get(key)
                if ctx is None:
                    ctx = len(self._ctx_ids)
                    self._ctx_ids[key] = ctx
                    self._ctx_pins.append(fmt)
        return ctx

    # ------------------------------------------------------------------
    # The router
    # ------------------------------------------------------------------

    def _body_fe(self, f: int, e: int, fmt: FloatFormat, base: int,
                 mode: ReaderMode, tie: TieBreak,
                 v: Optional[Flonum] = None) -> Tuple[int, str]:
        """``(k, digit-string)`` for the positive finite ``f * radix**e``.

        ``v`` is the already-built Flonum if the caller has one; when
        None it is constructed only if Tier 2 is reached.
        """
        tables = tables_for(fmt, base)
        ctx = self._ctx_id(fmt, base, mode, tie)
        if self.cache_size:
            key = (f, e, ctx)
            hit = self._cache_get(key)
            if hit is not None:
                return hit
        else:
            key = None
        if self._hot:
            hit = self._hot.get((f, e, ctx))
            if hit is not None:
                with self._lock:
                    self._hot_hits += 1
                return hit
        if self._planes:
            hit = self._plane_probe(f, e, ctx)
            if hit is not None:
                return hit
        result, tier, faulted = self._convert(f, e, fmt, base, mode, tie,
                                              tables, v)
        with self._lock:
            if faulted:
                self._tier_faults += 1
            if tier == 0:
                self._tier0_hits += 1
            elif tier == 1:
                self._schubfach_hits += 1
            else:
                self._tier2_calls += 1
            if key is not None:
                self._cache.put(key, result)
        return result

    def _convert(self, f: int, e: int, fmt: FloatFormat, base: int,
                 mode: ReaderMode, tie: TieBreak, tables: FormatTables,
                 v: Optional[Flonum] = None
                 ) -> Tuple[Tuple[int, str], int, bool]:
        """One uncached conversion: the integer test, then Schubfach,
        then exact.

        Counter-free (callers attribute the result under the engine
        lock): returns ``((k, body), tier, tier_faulted)`` with tier
        codes 0 = integer test, 1 = Schubfach, 2 = exact.  The fast-lane
        region is guard-railed: anything unexpected it raises (a
        :class:`ReproError` is a deliberate signal and passes through)
        falls back to the exact path with ``tier_faulted`` set, unless
        :attr:`strict`.  :meth:`_write_batch` inlines the same
        route for its batch loop.
        """
        faulted = False
        if not self.exact_only and base == 10 and tables.radix == 2:
            try:
                plan = _faults._PLAN
                if plan is not None:
                    plan.fire("engine.tier0")
                if e < 0 and not f & ((1 << -e) - 1):
                    digits = str(f >> -e)
                    return (len(digits), digits.rstrip("0")), 0, False
                if (tables.grisu_ok
                        and (mode is ReaderMode.NEAREST_EVEN
                             or mode is ReaderMode.NEAREST_UNKNOWN)):
                    # Falling through on other modes is gating, not
                    # bailing: once the lane runs it decides every
                    # finite value.
                    if plan is not None:
                        plan.fire("engine.schubfach")
                    if not tables.schub_ready:
                        tables.ensure_schub()
                    return schubfach_digits(
                        f, e, tables,
                        mode is ReaderMode.NEAREST_EVEN and not f & 1,
                        tie), 1, False
            except ReproError:
                raise
            except Exception:
                if self.strict:
                    raise
                faulted = True
        if v is None:
            v = Flonum.finite(0, f, e, fmt)
        r, s, m_plus, m_minus = initial_scaled_value(v)
        sv = adjust_for_mode(v, r, s, m_plus, m_minus, mode)
        res = shortest_digits_scaled(sv, v, base, tie, tables.scale)
        return (res.k,
                "".join(_DIGIT_CHARS[d] for d in res.digits)), 2, faulted

    # ------------------------------------------------------------------
    # Public conversions
    # ------------------------------------------------------------------

    def shortest_digits(self, x: Number, base: int = 10,
                        mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                        tie: TieBreak = TieBreak.UP,
                        fmt: FloatFormat = BINARY64) -> DigitResult:
        """Digit-level result (positive finite values only), as
        :class:`repro.core.digits.DigitResult` — drop-in for
        :func:`repro.core.dragon.shortest_digits`."""
        v = to_flonum(x, fmt)
        if not v.is_finite or v.is_zero or v.sign:
            raise RangeError("shortest_digits requires a positive finite value")
        k, body = self._body_fe(v.f, v.e, v.fmt, base, mode, tie, v)
        return DigitResult(k=k, digits=tuple(int(c, 36) for c in body),
                           base=base)

    # ------------------------------------------------------------------
    # Fixed-format conversions (counted tier with exact fallback)
    # ------------------------------------------------------------------

    def _plane_probe(self, f: int, e: int, ctx: int
                     ) -> Optional[Tuple[int, str]]:
        """Lock-free probe of an attached shared-memory hot plane.

        Guard-railed like the fast tiers: a plane that misbehaves
        (unmapped segment, torn state that survived the attach CRC) is
        detached and counted as a ``snapshot_faults`` — the probe is an
        optimization, never a crash (unless :attr:`strict`).
        """
        entry = self._planes.get(ctx)
        if entry is None:
            return None
        plane, to_bits = entry
        try:
            hit = plane.get(to_bits(f, e))
        except Exception:
            if self.strict:
                raise
            self._planes.pop(ctx, None)
            with self._lock:
                self._snapshot_faults += 1
            return None
        if hit is not None:
            with self._lock:
                self._hot_hits += 1
        return hit

    def _cache_get(self, key):
        with self._lock:
            hit = self._cache.hit(key)
            if hit is not None:
                self._cache_hits += 1
                return hit
            self._cache_misses += 1
        return None

    def _finish_fixed(self, key, result, fast: bool, bailed: bool,
                      faulted: bool = False) -> None:
        """Attribute one fixed-format conversion and memoize it, under a
        single lock acquisition (counters must never tear against a
        concurrent :meth:`stats`)."""
        with self._lock:
            if fast:
                self._fixed_tier1_hits += 1
            else:
                self._fixed_tier2_calls += 1
            if bailed:
                self._fixed_tier1_bailouts += 1
            if faulted:
                self._tier_faults += 1
            if key is not None:
                self._cache.put(key, result)

    @staticmethod
    def _fixed_args(position, ndigits):
        if (position is None) == (ndigits is None):
            raise RangeError("give exactly one of position= or ndigits=")
        if ndigits is not None:
            if ndigits < 1:
                raise RangeError(f"ndigits must be >= 1, got {ndigits}")
            return "rel", ndigits
        return "abs", position

    def _counted_fast(self, v: Flonum, tables: FormatTables,
                      position: Optional[int], ndigits: Optional[int],
                      ) -> Optional[Tuple[int, int, int]]:
        """``(acc, nd, k)`` from the counted tier, position restored.

        Applies the absolute-mode carry fix-up (a carry past the first
        digit leaves the block one position short of ``position``; the
        carried value is exactly ``10**(k-1)``, so appending a zero is
        exact).  Returns None on any bailout.
        """
        got = counted_tier_digits(v.f, v.e, tables.grisu_powers,
                                  tables.grisu_e_min,
                                  ndigits=ndigits, position=position)
        if got is None:
            return None
        acc, nd, k = got
        if position is not None:
            if k - nd == position + 1:
                acc *= 10
                nd += 1
            if k - nd != position:  # pragma: no cover - defensive
                return None
        return acc, nd, k

    def counted_digits(self, x: Number, position: Optional[int] = None,
                       ndigits: Optional[int] = None, base: int = 10,
                       tie: TieBreak = TieBreak.EVEN,
                       fmt: FloatFormat = BINARY64) -> DigitResult:
        """Correctly rounded digits of the *exact* value of ``x`` at a
        counted position — drop-in for
        :func:`repro.baselines.naive_fixed.exact_fixed_digits` (the
        ``printf`` semantics): relative mode produces ``ndigits``
        significant digits, absolute mode rounds at weight
        ``base**position``.  Routed through the counted fast tier when
        it can certify the rounded block; exact big-integer fallback.

        The fast tier bails on every genuine tie, so its acceptances are
        valid for any ``tie`` strategy; ``tie`` only shapes the exact
        fallback (default even, matching IEEE-mode ``printf``).
        """
        v = to_flonum(x, fmt)
        if not v.is_finite or v.is_zero or v.sign:
            raise RangeError("counted_digits requires a positive finite value")
        kind, n = self._fixed_args(position, ndigits)
        key = None
        if self.cache_size:
            key = (v.f, v.e, n,
                   self._ctx_id(v.fmt, base, "cnt-" + kind, tie))
            hit = self._cache_get(key)
            if hit is not None:
                return hit
        result = None
        bailed = False
        faulted = False
        if self.fixed_tier1 and base == 10:
            tables = tables_for(v.fmt, base)
            if tables.grisu_ok:
                try:
                    if _faults._PLAN is not None:
                        _faults._PLAN.fire("engine.counted")
                    got = self._counted_fast(v, tables, position, ndigits)
                    if got is not None:
                        acc, _nd, k = got
                        result = DigitResult(
                            k=k, digits=tuple(int(c) for c in str(acc)),
                            base=base)
                    else:
                        bailed = True
                except ReproError:
                    raise
                except Exception:
                    if self.strict:
                        raise
                    faulted = True
        fast = result is not None
        if result is None:
            result = exact_fixed_digits(v, position=position,
                                        ndigits=ndigits, base=base, tie=tie)
        self._finish_fixed(key, result, fast, bailed, faulted)
        return result

    def fixed_digits(self, x: Number, position: Optional[int] = None,
                     ndigits: Optional[int] = None, base: int = 10,
                     tie: TieBreak = TieBreak.UP,
                     fmt: FloatFormat = BINARY64) -> FixedResult:
        """Paper Section 4 fixed format (``#`` marks) through the tiers
        — drop-in for :func:`repro.core.fixed.fixed_digits`.

        The counted tier serves a request only when Section 4's expanded
        rounding range is provably governed by the requested precision on
        both sides (:meth:`FormatTables.expansion_dominates`): there the
        paper's algorithm reduces to correct rounding of the exact value
        at the stop position with no ``#`` marks, which is exactly what
        the tier certifies.  Every other request — insignificant
        trailing positions, denormals, rounds-to-zero, wide bases —
        falls back to the exact integer implementation.
        """
        v = to_flonum(x, fmt)
        if not v.is_finite or v.is_zero or v.sign:
            raise RangeError("fixed_digits requires a positive finite value")
        kind, n = self._fixed_args(position, ndigits)
        key = None
        if self.cache_size:
            key = (v.f, v.e, n,
                   self._ctx_id(v.fmt, base, "fix-" + kind, tie))
            hit = self._cache_get(key)
            if hit is not None:
                return hit
        result = None
        bailed = False
        faulted = False
        if self.fixed_tier1 and base == 10:
            tables = tables_for(v.fmt, base)
            if (tables.grisu_ok
                    and not (v.f == tables.mantissa_limit - 1
                             and v.e == tables.max_e)):
                try:
                    if _faults._PLAN is not None:
                        _faults._PLAN.fire("engine.counted")
                    got = self._counted_fast(v, tables, position, ndigits)
                    if got is not None:
                        acc, nd, k = got
                        j = k - nd  # == position in absolute mode
                        if tables.expansion_dominates(j, v.e):
                            result = FixedResult(
                                k=k, digits=tuple(int(c) for c in str(acc)),
                                hashes=0, position=j, base=base)
                    if result is None:
                        bailed = True
                except ReproError:
                    raise
                except Exception:
                    if self.strict:
                        raise
                    bailed = False
                    faulted = True
        fast = result is not None
        if result is None:
            result = exact_paper_fixed(v, position=position,
                                       ndigits=ndigits, base=base, tie=tie)
        self._finish_fixed(key, result, fast, bailed, faulted)
        return result

    def format_fixed(self, x: Number, position: Optional[int] = None,
                     ndigits: Optional[int] = None,
                     decimals: Optional[int] = None,
                     base: int = 10, tie: TieBreak = TieBreak.UP,
                     style: str = "positional",
                     options: Optional[NotationOptions] = None) -> str:
        """Fixed-format string through this engine (signs/zeros/specials
        included) — :func:`repro.core.api.format_fixed` with
        ``engine=self``."""
        from repro.core.api import format_fixed

        return format_fixed(x, position=position, ndigits=ndigits,
                            decimals=decimals, base=base, tie=tie,
                            style=style, options=options, engine=self)

    def format(self, x: Number, base: int = 10,
               mode: ReaderMode = ReaderMode.NEAREST_EVEN,
               tie: TieBreak = TieBreak.UP,
               options: Optional[NotationOptions] = None,
               fmt: FloatFormat = BINARY64) -> str:
        """Shortest string for one value (signs/zeros/specials included).

        Base 10 under the default options runs :meth:`_write_batch` on
        the value's bit pattern, as :meth:`format_many` does a batch.
        """
        default = base == 10 and (options is None
                                  or options is DEFAULT_OPTIONS)
        if type(x) is float and fmt is BINARY64:
            if default:
                return self._write_batch((_bits64(x),), fmt, mode, tie)[0]
            opts = options or DEFAULT_OPTIONS
            if x != x:
                return opts.nan_text
            if x == 0.0:
                body = "0.0" if opts.python_repr else "0"
                return "-" + body if copysign(1.0, x) < 0.0 else body
            if x < 0.0:
                sign, ax, vmode = "-", -x, mode.mirrored()
            else:
                sign, ax, vmode = "", x, mode
            if ax == _INF:
                return sign + opts.inf_text
            m, ex = frexp(ax)
            f = int(m * _TWO_P53)
            e = ex - 53
            if e < -1074:
                f >>= -1074 - e
                e = -1074
            k, digits = self._body_fe(f, e, BINARY64, base, vmode, tie)
            return sign + render_shortest_parts(digits, k, opts)
        v = to_flonum(x, fmt)
        if default and self._route(v.fmt, mode, tie) is not None:
            return self._write_batch((v.to_bits(),), v.fmt, mode, tie)[0]
        opts = options or DEFAULT_OPTIONS
        if not v.is_finite:
            return special_text(v.is_nan, bool(v.sign), opts)
        if v.is_zero:
            body = "0.0" if opts.python_repr else "0"
            return "-" + body if v.sign else body
        if v.sign:
            v = v.abs()
            mode = mode.mirrored()
            sign = "-"
        else:
            sign = ""
        k, digits = self._body_fe(v.f, v.e, v.fmt, base, mode, tie, v)
        return sign + render_shortest_parts(digits, k, opts)

    def format_many(self, xs: Iterable[Number], base: int = 10,
                    mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                    tie: TieBreak = TieBreak.UP,
                    options: Optional[NotationOptions] = None,
                    fmt: FloatFormat = BINARY64) -> List[str]:
        """Shortest strings for a batch, amortizing per-call overhead.

        Semantically ``[self.format(x, ...) for x in xs]``.  In base 10
        under the default options, on every format the Schubfach lane
        serves (binary16/32/64), the batch becomes bit patterns up
        front (an all-float binary64 batch in one C pass) and runs
        through :meth:`_write_batch`; a batch holding a Flonum of
        another format, like every other request, goes value by value.

        Batch discipline: an empty batch touches no shared state (and
        no lock); the batch loop leaves the memo as sequential calls
        would and takes one lock acquisition for its counters, plus one
        per generation swap.
        """
        if not isinstance(xs, list):
            xs = list(xs)
        if not xs:
            return []
        opts = options or DEFAULT_OPTIONS
        if base == 10 and opts is DEFAULT_OPTIONS:
            bits = self._patterns(xs, fmt, mode, tie)
            if bits is not None:
                return self._write_batch(bits, fmt, mode, tie)
        return [self.format(x, base, mode, tie, opts, fmt) for x in xs]

    def _patterns(self, xs: List[Number], fmt: FloatFormat,
                  mode: ReaderMode, tie: TieBreak
                  ) -> Optional[Iterable[int]]:
        """The batch's signed bit patterns of ``fmt``, or None when
        ``fmt`` is off the bit-keyed route or an item is a Flonum of
        another format (which formats as its own format).

        An all-float binary64 batch packs with one ``array('d')`` pass;
        Flonums of ``fmt`` encode inline; ints (and floats into a
        narrower format) take :func:`to_flonum` and its range checks.
        """
        route = self._route(fmt, mode, tie)
        if route is None:
            return None
        if fmt is BINARY64 and set(map(type, xs)) == _FLOAT_ONLY:
            return array("Q", array("d", xs).tobytes())
        hidden, shift, offset, sign_bit, inf_bits, nan_bits = route[-1]
        out = []
        append = out.append
        for x in xs:
            if type(x) is Flonum:
                if x.fmt is not fmt:
                    return None
                f = x.f  # 0 for zeros, infinities and NaN
                if f >= hidden:
                    b = (x.e << shift) + f + offset
                elif f or x.kind is _FINITE:
                    b = f
                else:
                    b = nan_bits if x.kind is _NAN else inf_bits
                append(b | sign_bit if x.sign else b)
            elif type(x) is float and fmt is BINARY64:
                append(_bits64(x))
            else:
                v = to_flonum(x, fmt)
                if v.fmt is not fmt:
                    return None
                append(v.to_bits())
        return out

    def _route(self, fmt: FloatFormat, mode: ReaderMode,
               tie: TieBreak) -> Optional[tuple]:
        """:meth:`_write_batch`'s state for one ``(fmt, mode, tie)``, or
        None when ``fmt`` is off the bit-keyed route (no IEEE-style
        hidden-bit encoding, or no Schubfach table).  Built once per
        engine; the probe keys on identities, since hashing an enum
        member runs Python code, and the format is pinned by
        :meth:`_ctx_id`."""
        key = (id(fmt), id(mode), id(tie))
        route = self._routes.get(key, False)
        if route is not False:
            return route
        route = None
        if fmt.has_encoding and not fmt.explicit_leading_bit:
            tables = tables_for(fmt, 10)
            if tables.grisu_ok:
                mirrored = mode.mirrored()
                lanes_ok = not self.exact_only
                route = (
                    tables, self._ctx_id(fmt, 10, mode, tie),
                    self._ctx_id(fmt, 10, mirrored, tie), mirrored,
                    lanes_ok and mode in _NEAREST_MODES,
                    lanes_ok and mirrored in _NEAREST_MODES,
                    mode is ReaderMode.NEAREST_EVEN,
                    mirrored is ReaderMode.NEAREST_EVEN,
                    _bits_layout(fmt))
        self._routes[key] = route
        return route

    def _write_batch(self, bits: Iterable[int], fmt: FloatFormat,
                     mode: ReaderMode, tie: TieBreak) -> List[str]:
        """The default write route's one batch loop: the shortest text
        of each signed bit pattern of ``fmt``, base 10, default options.

        The mirror of :meth:`ReadEngine._read_batch`.  Memo entries map
        ``(bits, ctx)`` to the final text, so a hit is one probe and
        one append: no decomposition and no render.  A miss splits the
        pattern into ``(f, e)`` with integer operations, probes the hot
        dictionary and any attached hot plane, then runs
        :meth:`_convert`'s route, inlined: the integer test, Schubfach
        under the same gates, guard rail and fault sites, then the exact
        tier.  NaN, infinities and zeros are never memoized.

        The memo is probed and filled in place, lock-free; under
        sampled admission only every ``STRIDE``-th miss installs
        (:mod:`repro.engine.memo`).  Counters accumulate in locals; one
        final lock flushes them (a concurrent :meth:`stats` never sees
        a torn batch), records the memo's hits and misses for its
        admission rule and trims it.  A format off the route
        formats each pattern through :meth:`format`.
        """
        route = self._route(fmt, mode, tie)
        if route is None:
            from_bits = Flonum.from_bits
            return [self.format(from_bits(b, fmt), 10, mode, tie, None, fmt)
                    for b in bits]
        (tables, ctx, ctx_neg, mirrored, schub_pos, schub_neg, even_pos,
         even_neg, layout) = route
        if (schub_pos or schub_neg) and not tables.schub_ready:
            tables.ensure_schub()
        hidden, shift, _, sign_bit, inf_bits, _ = layout
        frac = hidden - 1
        min_e = tables.min_e
        emin1 = min_e - 1
        lanes = not self.exact_only
        memo = self._cache
        cache = memo if self.cache_size else None
        new, old, cap = memo.new, memo.old, memo.capacity
        gap, skip = memo.gap, memo.skip
        lock = self._lock
        hot = self._hot or None
        planes = self._planes
        plane_pos = planes.get(ctx) if planes else None
        plane_neg = planes.get(ctx_neg) if planes else None
        plan = _faults._PLAN
        strict = self.strict
        c_hits = c_misses = t0_hits = schub_hits = t2_calls = 0
        t_faults = hot_hits = snap_faults = 0
        out: List[str] = []
        append = out.append
        for b in bits:
            if cache is not None:
                key = (b, ctx)
                text = new.get(key)
                if text is None:
                    text = old.pop(key, None)
                    if text is not None:
                        new[key] = text
                if text is not None:
                    c_hits += 1
                    append(text)
                    continue
            # --- decode: the magnitude's (f, e), or a special ---
            if b >= sign_bit:
                mag = b - sign_bit
                sign = "-"
            else:
                mag = b
                sign = ""
            if mag >= hidden:
                if mag >= inf_bits:
                    append("nan" if mag > inf_bits else sign + "inf")
                    continue
                f = (mag & frac) | hidden
                e = (mag >> shift) + emin1
            elif mag:
                f = mag
                e = min_e
            else:
                append(sign + "0")
                continue
            if sign:
                vmode = mirrored
                schub_ok = schub_neg
                even_mode = even_neg
                mctx = ctx_neg
                plane = plane_neg
            else:
                vmode = mode
                schub_ok = schub_pos
                even_mode = even_pos
                mctx = ctx
                plane = plane_pos
            # --- route ---
            kb = None
            if cache is not None:
                c_misses += 1
            if hot is not None:
                kb = hot.get((f, e, mctx))
                if kb is not None:
                    hot_hits += 1
            if kb is None and plane is not None:
                try:
                    kb = plane[0].get(mag)
                except Exception:
                    if strict:
                        raise
                    # Detach the misbehaving plane for good, as
                    # _plane_probe does, for every sign it serves.
                    planes.pop(mctx, None)
                    if plane_pos is plane:
                        plane_pos = None
                    if plane_neg is plane:
                        plane_neg = None
                    snap_faults += 1
                    kb = None
                if kb is not None:
                    hot_hits += 1
            if kb is None:
                try:
                    if lanes:
                        if plan is not None:
                            plan.fire("engine.tier0")
                        if e < 0 and not f & ((1 << -e) - 1):
                            digits = str(f >> -e)
                            kb = (len(digits), digits.rstrip("0"))
                            t0_hits += 1
                    if kb is None and schub_ok:
                        if plan is not None:
                            plan.fire("engine.schubfach")
                        kb = schubfach_digits(f, e, tables,
                                              even_mode and not f & 1, tie)
                        schub_hits += 1
                except ReproError:
                    raise
                except Exception:
                    if strict:
                        raise
                    t_faults += 1
                    kb = None
                if kb is None:
                    t2_calls += 1
                    v = Flonum.finite(0, f, e, fmt)
                    r, s, mp, mm = initial_scaled_value(v)
                    sv = adjust_for_mode(v, r, s, mp, mm, vmode)
                    res = shortest_digits_scaled(sv, v, 10, tie,
                                                 tables.scale)
                    kb = (res.k, "".join(_DIGIT_CHARS[d]
                                         for d in res.digits))
            k, body = kb
            # --- render (inline of render_shortest_parts: auto style,
            #     exp window (-4, 16], exp_char 'e', no grouping) ---
            if -4 < k <= 16:
                if k <= 0:
                    text = sign + "0." + "0" * -k + body
                else:
                    nd = len(body)
                    if nd <= k:
                        text = sign + body + "0" * (k - nd)
                    else:
                        text = sign + body[:k] + "." + body[k:]
            else:
                rest = body[1:]
                if rest:
                    text = sign + body[0] + "." + rest + "e" + str(k - 1)
                else:
                    text = sign + body[0] + "e" + str(k - 1)
            append(text)
            if cache is not None:
                if skip:  # sampled admission: not this miss
                    skip -= 1
                    continue
                skip = gap
                if not old and len(new) >= cap:
                    with lock:
                        new, old = cache.turn(new)
                if old:
                    try:
                        old.popitem()
                    except KeyError:  # drained by a racing batch
                        pass
                new[key] = text
        with lock:
            self._cache_hits += c_hits
            self._cache_misses += c_misses
            self._tier0_hits += t0_hits
            self._tier2_calls += t2_calls
            self._schubfach_hits += schub_hits
            self._tier_faults += t_faults
            self._hot_hits += hot_hits
            self._snapshot_faults += snap_faults
            memo.record(c_hits, c_misses, skip)
            memo.trim()
        return out

    # ------------------------------------------------------------------
    # The read side (decimal→binary through the tiered read engine)
    # ------------------------------------------------------------------

    @property
    def reader(self) -> ReadEngine:
        """This engine's :class:`~repro.engine.reader.ReadEngine`,
        built lazily on first use.

        The read engine shares this engine's memo and lock (text keys
        cannot collide with the write side's integer keys, so one memo
        budget serves both directions) and its ``read_*`` counters are
        merged into :meth:`stats` / zeroed by :meth:`reset_stats`.
        """
        r = self._reader
        if r is None:
            with self._lock:
                r = self._reader
                if r is None:
                    r = ReadEngine(
                        cache_size=self.cache_size,
                        strict=self.strict,
                        tier_order=() if self._read_exact_only else None,
                        _shared_cache=self._cache,
                        _shared_lock=self._lock)
                    self._reader = r
        return r

    def read(self, text: str, fmt: FloatFormat = BINARY64,
             mode: ReaderMode = ReaderMode.NEAREST_EVEN) -> Flonum:
        """Correctly rounded value of a decimal literal — drop-in for
        :func:`repro.reader.exact.read_decimal`, routed through the
        tiered read engine."""
        return self.reader.read(text, fmt, mode)

    def read_result(self, text: str, fmt: FloatFormat = BINARY64,
                    mode: ReaderMode = ReaderMode.NEAREST_EVEN
                    ) -> ReadResult:
        """Like :meth:`read` but returning the
        :class:`~repro.engine.reader.ReadResult` (value + tier)."""
        return self.reader.read_result(text, fmt, mode)

    def read_many(self, texts: Iterable[str], fmt: FloatFormat = BINARY64,
                  mode: ReaderMode = ReaderMode.NEAREST_EVEN
                  ) -> List[Flonum]:
        """Batch reads through the read engine (see
        :meth:`ReadEngine.read_many`)."""
        return self.reader.read_many(texts, fmt, mode)


_default_engine: Optional[Engine] = None
_default_lock = threading.Lock()


def default_engine() -> Engine:
    """The process-wide engine behind :func:`repro.core.api.format_shortest`."""
    global _default_engine
    eng = _default_engine
    if eng is None:
        with _default_lock:
            eng = _default_engine
            if eng is None:
                eng = Engine()
                _default_engine = eng
    return eng


def format_many(xs: Iterable[Number], base: int = 10,
                mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                tie: TieBreak = TieBreak.UP,
                options: Optional[NotationOptions] = None,
                fmt: FloatFormat = BINARY64) -> List[str]:
    """Batch shortest formatting through the default engine."""
    return default_engine().format_many(xs, base, mode, tie, options, fmt)
