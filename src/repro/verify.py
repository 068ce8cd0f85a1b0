"""Self-verification harness: every surface against one exact oracle.

A downstream adopter's smoke test and the nightly fuzz entry point
(``python -m repro.verify``).  The paper's claim is byte identity with
the exact algorithm, so the exact tier and Clinger's exact reader are
the oracle behind every surface.  A battery is a table of *rows* over
one *corpus*:

* the **corpus** (:class:`Corpus`, once per ``(fmt, n, seed)``)
  holds the signed sample with NaN and both infinities, its bits and
  packed column, and the oracle columns: the lines of
  ``Engine(tier_order=(), cache_size=0)``, their payload, the bits
  :func:`repro.reader.exact.read_decimal` reads back, and the read lane
  a memo-less default :class:`~repro.engine.reader.ReadEngine` resolves
  each line with;
* a **row** (:class:`Row`) is a tag, a surface call and the oracle
  column it must equal, optionally on a :class:`Rig` — a pool, daemon
  or engine opened once per battery, with an optional fault plan armed
  around its rows and an audit of its counters after them;
* one loop (:func:`run_rows`) runs the rows and compares whole columns
  (:func:`_compare_rows`).  A mismatch is tagged ``<row>/<lane>``.

Checks that are not a column comparison (typed errors, the strict
engine, fault accounting) run once per battery.  The flags, each a
table of rows:

============  ==========================================  ================
flag          surfaces (rows)                             oracle
============  ==========================================  ================
(none)        per value: exact shortest, limb port,       rational specs
              Grisu3, engine tiers, counted/paper fixed,  (§2, §4),
              readers, scheme/hex/truncated surfaces,     ``Fraction``
              host ``repr``/``%``/``float``               counted oracle
--roundtrip   print→parse→print and parse→print→parse     the sample,
              through the default engine, per read tier;  host ``float``,
              exact midpoints, default and exact reader   even neighbour
--contenders  ``Engine.format``, ``format_many`` with     exact tier
              memo off and on (cold and warm), both
              nearest modes; no exact-tier call
--bulk        ``format_column`` ×3, ``format_bulk``,      exact tier,
              ``read_bulk``, ``read_many``, a process     exact reader
              and a ``jobs=1`` (inline) ``BulkPool``
--buffer      ``format_buffer`` ×5, ``parse_buffer`` ×5,  exact tier,
              scalar ``read_result``; the memo pass       exact reader
--warm        snapshot-warmed ``Engine`` and pool, a      exact tier,
              pool on a corrupt snapshot file             exact reader
--chaos       process ``BulkPool`` under five fault       exact tier,
              plans; typed errors, strict engine          exact reader
--serve       daemon wire on ``jobs=1`` (inline) and      exact tier,
              process pools: format, read, pipelined      exact reader
              bursts, the chaos plan; typed errors
--control     controlled process daemon under four        exact tier
              fault plans, a hedged process pool, live
              snapshot rotation
============  ==========================================  ================
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import (Any, Callable, ContextManager, Dict, List, Optional,
                    Sequence, Tuple)

from repro import faults
from repro.baselines.naive_fixed import exact_fixed_digits, fixed_digits_loop
from repro.core.backends import shortest_digits_bignat
from repro.core.dragon import shortest_digits
from repro.core.rational import shortest_digits_rational
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine, ReadEngine, tables_for
from repro.engine.tier0 import tier0_digits
from repro.errors import ReproError
from repro.fastpath import counted_fixed, grisu_shortest
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.format.printf import format_printf
from repro.format.repr_shortest import py_repr
from repro.reader.algorithm_r import algorithm_r
from repro.reader.bellerophon import bellerophon
from repro.reader.exact import read_decimal, read_fraction
from repro.serve import (BulkPool, DelimitedWriter, bits_from_buffer,
                         format_buffer, format_bulk, format_column,
                         pack_bits, parse_buffer, read_bulk, serving)
from repro.serve.client import ServeClient
from repro.serve.pool import INLINE_ROWS
from repro.workloads.corpus import (
    decimal_ties,
    denormals,
    power_boundaries,
    torture_floats,
)

__all__ = ["VerificationReport", "Corpus", "Harness", "Row", "Rig",
           "run_rows", "verify_format", "verify_roundtrip", "verify_bulk",
           "verify_buffer", "verify_chaos", "verify_serve", "verify_warm",
           "verify_contenders", "verify_control", "sample_values",
           "roundtrip_values", "counted_digits_rational", "main"]

#: Significant-digit probes for the counted/fixed checks (the engine's
#: fast tier certifies at most 17; 17 is also binary64's distinguishing
#: count, so both acceptance and bailout paths are exercised).
_NDIGIT_PROBES = (1, 3, 7, 13, 17)
#: Absolute-position probes (fractional, units and a coarser stop).
_POSITION_PROBES = (-6, -1, 0, 2)


@dataclass
class VerificationReport:
    """Aggregate outcome of one verification run.

    ``checked`` counts sampled values, each once, however many rows a
    pool call repeats it in.
    """

    format_name: str
    checked: int = 0
    mismatches: List[str] = field(default_factory=list)
    tier_checks: Dict[str, int] = field(default_factory=dict)
    tier_mismatches: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def check(self, tier: str, count: int = 1) -> None:
        """Count comparisons against the named conversion path."""
        self.tier_checks[tier] = self.tier_checks.get(tier, 0) + count

    def record(self, kind: str, v: Flonum, detail: str = "") -> None:
        self.mismatches.append(f"{kind}: {v!r} {detail}".strip())
        self.tier_mismatches[kind] = self.tier_mismatches.get(kind, 0) + 1

    def expect(self, tag: str, ok: bool, v: Flonum, detail: str) -> None:
        """One check that records ``detail`` unless ``ok``."""
        self.check(tag)
        if not ok:
            self.record(tag, v, detail)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (f"{self.format_name}: {self.checked} values checked "
                f"across engines — {status}")

    def tier_summary(self) -> str:
        """Per-tier check/mismatch table, one line per conversion path."""
        lines = [self.summary()]
        for tier in sorted(set(self.tier_checks) | set(self.tier_mismatches)):
            bad = self.tier_mismatches.get(tier, 0)
            status = "ok" if not bad else f"{bad} MISMATCHES"
            checks = self.tier_checks.get(tier, "?")
            lines.append(f"  {tier:<30} {checks:>7} checks  {status}")
        return "\n".join(lines)


def sample_values(fmt: FloatFormat, n: int, seed: int = 0) -> List[Flonum]:
    """Deterministic positive sample mixing uniform and boundary values."""
    rng = random.Random(seed)
    out: List[Flonum] = []
    lo, hi = fmt.hidden_limit, fmt.mantissa_limit - 1
    for _ in range(max(n - 8, 0)):
        f = rng.randrange(lo, hi + 1)
        e = rng.randrange(fmt.min_e, fmt.max_e + 1)
        out.append(Flonum.finite(0, f, e, fmt))
    for f, e in ((1, fmt.min_e), (hi, fmt.max_e), (lo, fmt.min_e),
                 ((lo, min(0, fmt.max_e)) if fmt.max_e >= 0
                  else (lo, fmt.max_e)),
                 (hi, fmt.min_e), (lo + 1, 0 if fmt.max_e >= 0 else fmt.max_e),
                 (hi - 1, fmt.min_e), (lo, fmt.max_e)):
        try:
            out.append(Flonum.finite(0, f, e, fmt))
        except Exception:
            continue
    return out[:n] if len(out) > n else out


# ----------------------------------------------------------------------
# The Fraction oracle for counted (printf-semantics) digit requests.
# ----------------------------------------------------------------------

def _round_fraction(x: Fraction, tie: TieBreak) -> int:
    """``round(x)`` with the given tie strategy (x >= 0)."""
    q, rem = divmod(x.numerator, x.denominator)
    double_rem = 2 * rem
    if double_rem < x.denominator:
        return q
    if double_rem > x.denominator:
        return q + 1
    return tie.choose(q)


def _int_digits(n: int, base: int) -> Tuple[int, ...]:
    if base == 10:
        return tuple(int(c) for c in str(n))
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return tuple(reversed(out))


def counted_digits_rational(v: Flonum, position: Optional[int] = None,
                            ndigits: Optional[int] = None, base: int = 10,
                            tie: TieBreak = TieBreak.EVEN
                            ) -> Tuple[int, Tuple[int, ...]]:
    """``(k, digits)`` of the exact value, rounded at a counted position.

    An independent re-statement of the ``printf`` fixed-format contract
    over :class:`fractions.Fraction` — deliberately different plumbing
    from :func:`repro.baselines.naive_fixed.exact_fixed_digits` (which
    works on an integer numerator/denominator pair with its own scaled
    ``ilog``), so the two can serve as oracles for each other and for
    the engine's counted tier.
    """
    value = Fraction(v.f) * Fraction(v.fmt.radix) ** v.e
    B = Fraction(base)
    if position is not None:
        n = _round_fraction(value / B**position, tie)
        if n == 0:
            return position, ()
        digits = _int_digits(n, base)
        return position + len(digits), digits
    # Relative mode: locate k with base**(k-1) <= value < base**k.
    num, den = value.numerator, value.denominator
    k = int((num.bit_length() - den.bit_length())
            * math.log(2) / math.log(base))
    bk = B**k
    while value >= bk:
        bk *= B
        k += 1
    while value < bk / B:
        bk /= B
        k -= 1
    n = _round_fraction(value / B**(k - ndigits), tie)
    if n >= base**ndigits:  # 9.99… carries into a new leading digit
        n //= base
        k += 1
    return k, _int_digits(n, base)


# ----------------------------------------------------------------------
# The per-value oracles of the default battery
# ----------------------------------------------------------------------

def _check_shortest_engines(v: Flonum, report: VerificationReport) -> None:
    spec = shortest_digits_rational(v, mode=ReaderMode.NEAREST_EVEN)
    report.check("free/exact")
    fast = shortest_digits(v, mode=ReaderMode.NEAREST_EVEN)
    if (spec.k, spec.digits) != (fast.k, fast.digits):
        report.record("free/exact", v, f"{fast} != {spec}")
    report.check("free/exact")
    limbs = shortest_digits_bignat(v, mode=ReaderMode.NEAREST_EVEN)
    if (limbs.k, limbs.digits) != (fast.k, fast.digits):
        report.record("free/exact", v, f"{limbs} != {fast}")
    grisu = grisu_shortest(v)
    if grisu is not None:
        report.check("free/tier1")
        unknown = shortest_digits(v, mode=ReaderMode.NEAREST_UNKNOWN)
        if (grisu.k, grisu.digits) != (unknown.k, unknown.digits):
            report.record("free/tier1", v, f"{grisu} != {unknown}")


def _check_shortest_tiers(v: Flonum, engine: Engine,
                          report: VerificationReport) -> None:
    """The engine's own tiers against the rational spec."""
    spec = shortest_digits_rational(v, mode=ReaderMode.NEAREST_EVEN)
    report.check("free/engine")
    got = engine.shortest_digits(v, fmt=v.fmt)
    if (got.k, got.digits) != (spec.k, spec.digits):
        report.record("free/engine", v, f"{got} != {spec}")
    if v.fmt.radix == 2:
        tables = tables_for(v.fmt, 10)
        t0 = tier0_digits(v.f, v.e, tables.hidden_limit, tables.min_e,
                          tables.mantissa_limit, tables.max_e,
                          ReaderMode.NEAREST_EVEN)
        if t0 is not None:
            report.check("free/tier0")
            acc, _nd, k = t0
            if (k, tuple(int(c) for c in str(acc))) != (spec.k, spec.digits):
                report.record("free/tier0", v, f"{t0} != {spec}")


def _check_fixed_engines(v: Flonum, report: VerificationReport) -> None:
    n = min(12, v.fmt.decimal_digits_to_distinguish())
    report.check("fixed/exact")
    one_shot = exact_fixed_digits(v, ndigits=n)
    loop = fixed_digits_loop(v, n)
    if (one_shot.k, one_shot.digits) != (loop.k, loop.digits):
        report.record("fixed/exact", v, f"{loop} != {one_shot}")
    counted = counted_fixed(v, n)
    if counted is not None:
        report.check("fixed/counted")
        if (counted.k, counted.digits) != (one_shot.k, one_shot.digits):
            report.record("fixed/counted", v, f"{counted} != {one_shot}")
    # The paper's fixed format: integer implementation vs rational spec.
    from repro.core.fixed import fixed_digits
    from repro.core.fixed_rational import fixed_digits_rational

    report.check("fixed/exact")
    ours = fixed_digits(v, ndigits=n)
    spec = fixed_digits_rational(v, ndigits=n)
    if (ours.k, ours.digits, ours.hashes) != (spec.k, spec.digits,
                                              spec.hashes):
        report.record("fixed/exact", v, f"{ours} != {spec}")


def _check_fixed_tiers(v: Flonum, engine: Engine,
                       report: VerificationReport) -> None:
    """The engine's counted/paper fixed routes against both oracles."""
    from repro.core.fixed_rational import fixed_digits_rational

    for nd in _NDIGIT_PROBES:
        report.check("fixed/engine-counted")
        got = engine.counted_digits(v, ndigits=nd, fmt=v.fmt)
        want = exact_fixed_digits(v, ndigits=nd)
        if (got.k, got.digits) != (want.k, want.digits):
            report.record("fixed/engine-counted", v,
                          f"ndigits={nd} {got} != {want}")
    # Absolute probes produce every digit down to the position — skip
    # values whose magnitude would need thousands of them (wide formats
    # near max_e; CPython's int->str conversion also caps there).
    absolute_ok = (v.e * math.log10(v.fmt.radix) < 400)
    for pos in _POSITION_PROBES if absolute_ok else ():
        report.check("fixed/engine-counted")
        got = engine.counted_digits(v, position=pos, fmt=v.fmt)
        want = exact_fixed_digits(v, position=pos)
        if (got.k, got.digits) != (want.k, want.digits):
            report.record("fixed/engine-counted", v,
                          f"position={pos} {got} != {want}")
    # Second, independently constructed oracle (Fraction arithmetic).
    for nd in (3, 13):
        report.check("fixed/counted-rational")
        got = engine.counted_digits(v, ndigits=nd, fmt=v.fmt)
        k, digits = counted_digits_rational(v, ndigits=nd)
        if (got.k, got.digits) != (k, digits):
            report.record("fixed/counted-rational", v,
                          f"ndigits={nd} {got} != ({k}, {digits})")
    # Paper Section 4 semantics through the engine vs the rational spec.
    for nd in (2, 8):
        report.check("fixed/engine-paper")
        got = engine.fixed_digits(v, ndigits=nd, fmt=v.fmt)
        spec = fixed_digits_rational(v, ndigits=nd)
        if (got.k, got.digits, got.hashes, got.position) != (
                spec.k, spec.digits, spec.hashes, spec.position):
            report.record("fixed/engine-paper", v,
                          f"ndigits={nd} {got} != {spec}")
    for pos in (-4, 0) if absolute_ok else ():
        report.check("fixed/engine-paper")
        got = engine.fixed_digits(v, position=pos, fmt=v.fmt)
        spec = fixed_digits_rational(v, position=pos)
        if (got.k, got.digits, got.hashes, got.position) != (
                spec.k, spec.digits, spec.hashes, spec.position):
            report.record("fixed/engine-paper", v,
                          f"position={pos} {got} != {spec}")


def _check_surfaces(v: Flonum, report: VerificationReport) -> None:
    """String surfaces: scheme, hex (radix-2 only), truncated reader."""
    from repro.compat.scheme import number_to_string, string_to_number
    from repro.core.api import format_shortest
    from repro.reader.truncated import read_decimal_truncated

    report.check("surface/roundtrip")
    scheme = string_to_number(number_to_string(v), v.fmt)
    if scheme != v:
        report.record("surface/roundtrip", v, f"scheme {scheme!r}")
    text = format_shortest(v)
    trunc = read_decimal_truncated(text, v.fmt)
    if trunc != v:
        report.record("surface/roundtrip", v, f"truncated {trunc!r}")
    if v.fmt.radix == 2 and v.fmt.has_encoding:
        from repro.format.hexfloat import format_hex, parse_hex

        hexed = parse_hex(format_hex(v), v.fmt)
        if hexed != v:
            report.record("surface/roundtrip", v, "hexfloat")


def _check_readers(v: Flonum, engine: Engine,
                   report: VerificationReport) -> None:
    report.check("reader/roundtrip")
    r = shortest_digits(v, mode=ReaderMode.NEAREST_EVEN)
    frac = r.to_fraction()
    back = read_fraction(frac, v.fmt)
    if back != v:
        report.record("reader/roundtrip", v, f"read back {back!r}")
    ar = algorithm_r(frac.numerator, frac.denominator, v.fmt)
    if ar != v:
        report.record("reader/roundtrip", v, f"algorithm-r {ar!r}")
    # The tiered read engine on the shortest text, with tier attribution.
    text = engine.format(v, fmt=v.fmt)
    got = engine.read_result(text, v.fmt)
    report.check(f"reader/engine-{got.tier}")
    if not _same_datum(got.value, v):
        report.record(f"reader/engine-{got.tier}", v,
                      f"{text!r} -> {got.value!r}")


#: ``printf`` specs the host oracle checks run, chosen to hit both the
#: engine's fast tier (short counted requests) and the exact fallback.
_HOST_SPECS = ("%.17e", "%.6f", "%.12g", "%.2e", "%g")


def _check_host_oracles(v: Flonum, engine: Engine,
                        report: VerificationReport) -> None:
    x = v.to_float()
    report.check("free/host")
    if py_repr(x) != repr(x):
        report.record("free/host", v, f"{py_repr(x)} != {repr(x)}")
    if float(py_repr(x)) != x:
        report.record("free/host", v, "host read-back")
    report.check("free/engine-host")
    if float(engine.format(x)) != x:
        report.record("free/engine-host", v, "engine output not read back")
    for spec in _HOST_SPECS:
        report.check("fixed/printf-host")
        if format_printf(spec, x) != spec % x:
            report.record("fixed/printf-host", v,
                          f"{spec}: {format_printf(spec, x)} != {spec % x}")
    # Bellerophon from the repr's parsed parts.
    from repro.reader.parse import parse_decimal

    report.check("reader/bellerophon")
    parsed = parse_decimal(repr(x))
    got = bellerophon(parsed.digits, parsed.exponent).value
    if got != v:
        report.record("reader/bellerophon", v, f"{got!r}")



# ----------------------------------------------------------------------
# Samples
# ----------------------------------------------------------------------

def _same_datum(a: Flonum, b: Flonum) -> bool:
    """Bit identity: same kind, sign, significand and exponent.

    ``Flonum.__eq__`` treats ``+0 == -0`` (value semantics); the
    round-trip contract is stricter — signed zeros and the sign of
    infinities must survive.
    """
    if a.is_nan or b.is_nan:
        return a.is_nan and b.is_nan
    if not a.is_finite or not b.is_finite:
        return a.is_finite == b.is_finite and a.sign == b.sign
    return (a.sign, a.f, a.e) == (b.sign, b.f, b.e)


def roundtrip_values(fmt: FloatFormat, n: int, seed: int = 0
                     ) -> List[Flonum]:
    """Deterministic *signed* sample for the round-trip battery.

    Mixes uniform bit patterns with the populations the reader tiers
    find hardest: denormals (including the smallest), exact powers of
    two hugging ``emin``/``emax`` (where the lower rounding gap
    halves), boundary significands, and both signed zeros.
    """
    rng = random.Random(seed)
    lo, hi = fmt.hidden_limit, fmt.mantissa_limit - 1
    out: List[Flonum] = [Flonum.zero(fmt, 0), Flonum.zero(fmt, 1)]
    for f, e in ((1, fmt.min_e), (lo - 1, fmt.min_e), (lo, fmt.min_e),
                 (hi, fmt.max_e), (lo, fmt.max_e), (hi, fmt.min_e)):
        out.append(Flonum.finite(0, f, e, fmt))
        out.append(Flonum.finite(1, f, e, fmt))
    while len(out) < n:
        sign = rng.randrange(2)
        kind = rng.randrange(8)
        if kind == 0:  # denormal
            f, e = rng.randrange(1, lo), fmt.min_e
        elif kind == 1:  # exact power of two near the exponent rails
            f = lo
            e = rng.choice((fmt.min_e, fmt.min_e + 1, fmt.min_e + 2,
                            fmt.max_e, fmt.max_e - 1, fmt.max_e - 2))
        elif kind == 2:  # boundary significands, any exponent
            f = rng.choice((lo, lo + 1, hi - 1, hi))
            e = rng.randrange(fmt.min_e, fmt.max_e + 1)
        else:  # uniform over the normal range
            f = rng.randrange(lo, hi + 1)
            e = rng.randrange(fmt.min_e, fmt.max_e + 1)
        out.append(Flonum.finite(sign, f, e, fmt))
    return out[:n]


def _roundtrip_literals(fmt: FloatFormat, n: int, seed: int) -> List[str]:
    """Random decimal literals for the parse→print→parse leg.

    The exponent span is sized to the format so the sample crosses the
    zero and infinity clamps, the denormal band and the exact-power
    window; significand shapes mix short human-style decimals with
    long (truncating) digit strings.
    """
    rng = random.Random(seed ^ 0x5EED)
    # Decimal orders to just past the format's finite range.
    span = int((abs(fmt.min_e) + fmt.precision) * 0.302) + 30
    lits: List[str] = []
    for _ in range(n):
        sign = "-" if rng.randrange(2) else ""
        kind = rng.randrange(6)
        if kind == 0:  # short integer-significand scientific
            d = rng.randrange(1, 10**rng.randrange(1, 8))
            lits.append(f"{sign}{d}e{rng.randrange(-span, span)}")
        elif kind == 1:  # machine-precision scientific
            d = rng.randrange(1, 10**rng.randrange(15, 22))
            lits.append(f"{sign}{d}e{rng.randrange(-span, span)}")
        elif kind == 2:  # long, truncating significand
            d = rng.randrange(1, 10**rng.randrange(22, 45))
            lits.append(f"{sign}{d}e{rng.randrange(-span, span)}")
        elif kind == 3:  # human-style point literal
            ip = rng.randrange(0, 10**rng.randrange(1, 10))
            fp = rng.randrange(0, 10**rng.randrange(1, 12))
            lits.append(f"{sign}{ip}.{fp}")
        elif kind == 4:  # near the clamp thresholds
            d = rng.randrange(1, 10**rng.randrange(1, 20))
            edge = rng.choice((span - 3, span - 2, span - 1, span))
            q = edge if rng.randrange(2) else -edge
            lits.append(f"{sign}{d}e{q}")
        else:  # exact-power-window candidates (tier-0 shapes)
            d = rng.randrange(1, fmt.mantissa_limit)
            lits.append(f"{sign}{d}e{rng.randrange(-25, 40)}")
    return lits


def _signed_sample(fmt: FloatFormat, n: int, seed: int) -> List[Flonum]:
    """:func:`roundtrip_values` plus NaN and both infinities."""
    return roundtrip_values(fmt, n, seed) + [
        Flonum.nan(fmt), Flonum.infinity(fmt, 0), Flonum.infinity(fmt, 1)]


def _route_sample(fmt: FloatFormat, n: int, seed: int) -> List[Flonum]:
    """:func:`sample_values` plus the denormal, binade-boundary,
    decimal-tie and torture corpora: the write route's case splits."""
    return (sample_values(fmt, n, seed) + denormals(fmt)
            + power_boundaries(fmt) + decimal_ties(fmt)
            + torture_floats(fmt))


# ----------------------------------------------------------------------
# The corpus: one sample and one exact oracle per battery
# ----------------------------------------------------------------------

class Corpus:
    """One battery's inputs and the exact answers every row is held to,
    built once per ``(fmt, n, seed)`` (and reader ``mode``).

    ``sample`` holds ``sample(fmt, n, seed)`` — by default the signed
    round-trip sample with NaN and both infinities — once each;
    ``values`` repeats it until it has ``min_rows`` rows, so a pool call
    shards to the rung under test instead of converting inline.  The
    oracle columns follow ``values`` row for row and are built on first
    use, once per distinct input:

    * ``lines`` — the exact tier's shortest text under ``mode``;
    * ``payload`` — the lines as one ``\\n``-terminated plane;
    * ``want_bits`` — the exact reader's bits for each line;
    * ``lanes`` — the lane a memo-less default read engine resolves
      each line with, which tags every mismatch.
    """

    def __init__(self, fmt: FloatFormat, n: int, seed: int = 0, *,
                 sample: Callable = _signed_sample,
                 mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                 min_rows: int = INLINE_ROWS):
        self.fmt = fmt
        self.mode = mode
        self.sample = sample = sample(fmt, n, seed)
        self.values = (sample * -(-min_rows // len(sample))
                       if len(sample) < min_rows else list(sample))
        self.bits = [v.to_bits() for v in self.values]

    @functools.cached_property
    def lines(self) -> List[str]:
        exact = Engine(tier_order=(), cache_size=0)
        texts: Dict[int, str] = {}
        for b, v in zip(self.bits, self.values):
            if b not in texts:
                texts[b] = exact.format(v, mode=self.mode, fmt=self.fmt)
        return [texts[b] for b in self.bits]

    @functools.cached_property
    def want_bits(self) -> List[int]:
        read = {t: read_decimal(t, self.fmt).to_bits()
                for t in dict.fromkeys(self.lines)}
        return [read[t] for t in self.lines]

    @functools.cached_property
    def lanes(self) -> List[str]:
        reader = ReadEngine(cache_size=0)
        lane = {t: reader.read_result(t, self.fmt).tier
                for t in dict.fromkeys(self.lines)}
        return [lane[t] for t in self.lines]

    @functools.cached_property
    def packed(self) -> bytes:
        return pack_bits(self.bits, self.fmt)

    @property
    def itemsize(self) -> int:
        return len(self.packed) // len(self.bits)

    def plane(self, start: int = 0, stop: Optional[int] = None,
              delimiter: str = "\n") -> bytes:
        """Oracle lines ``start:stop`` as one terminated plane."""
        rows = self.lines[start:stop]
        return (delimiter.join(rows) + delimiter).encode("ascii")

    @functools.cached_property
    def payload(self) -> bytes:
        return self.plane()

    def spans(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` spans of 2048-row wire requests; a
        remainder below :data:`~repro.serve.pool.INLINE_ROWS` joins the
        span before it, so every request shards to the pool's rung."""
        count = len(self.values)
        spans = [(a, min(a + 2048, count)) for a in range(0, count, 2048)]
        if len(spans) > 1 and spans[-1][1] - spans[-1][0] < INLINE_ROWS:
            spans[-2:] = [(spans[-2][0], count)]
        return spans


# ----------------------------------------------------------------------
# Rows, rigs and the loop that runs them
# ----------------------------------------------------------------------

def _lines(c: Corpus):
    return c.lines, c.lanes


def _bits(c: Corpus):
    return c.want_bits, c.lanes


def _sampled(c: Corpus):
    return c.bits, c.lanes


@dataclass
class Harness:
    """What one battery run hands its rigs and fixed checks."""

    corpus: Corpus
    seed: int
    jobs: int
    tmp: str
    engine: Optional[Engine] = None
    cache: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Rig:
    """What a group of rows runs on — a pool, a daemon or an engine —
    opened once per battery.  ``plan(seed)`` builds the fault plan
    armed around the rig's rows; ``audit(report, harness, rig, plan)``
    checks the rig's counters after them."""

    open: Callable[[Harness], ContextManager]
    plan: Optional[Callable[[int], "faults.FaultPlan"]] = None
    audit: Optional[Callable] = None


#: The rig of rows that need none: their surfaces get None.
_NO_RIG = Rig(lambda h: contextlib.nullcontext())


@dataclass(frozen=True)
class Row:
    """One surface call, compared as a whole column with ``oracle``
    (``corpus -> (want, lanes)``).  The surface gets the corpus and
    its rig's opened object."""

    tag: str
    surface: Callable[[Corpus, Any], Sequence]
    oracle: Callable[[Corpus], Tuple[Sequence, Sequence[str]]] = _lines
    rig: Rig = _NO_RIG


def _compare_rows(report: VerificationReport, tag: str, got, want,
                  values, lanes: Optional[Sequence[str]] = None) -> None:
    """Check one whole column; report the first divergence.

    With ``lanes``, the rows are also counted per read lane
    (``<tag>/<lane>``) and the mismatch is tagged with the lane of the
    first diverging row.
    """
    report.check(tag)
    if lanes is not None:
        for lane, count in Counter(lanes).items():
            report.check(f"{tag}/{lane}", count)
    if got == want:
        return
    i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    if len(got) != len(want):
        detail = f"row count {len(got)} != {len(want)}, first " \
                 f"divergence at row {i}"
    else:
        detail = f"row {i}: {got[i]!r} != {want[i]!r}"
    where = f"{tag}/{lanes[i]}" if lanes is not None and i < len(lanes) \
        else tag
    report.record(where, values[min(i, len(values) - 1)], detail)


def _rows(payload: bytes, delimiter: bytes = b"\n") -> List[str]:
    """A delimited payload's rows; a missing final terminator marks the
    last row, so a comparison with the oracle lines catches it."""
    rows = payload.decode("latin-1").split(delimiter.decode("latin-1"))
    tail = rows.pop()
    if tail:
        rows.append(tail + " <unterminated>")
    return rows


def _run_row(report: VerificationReport, c: Corpus, row: Row,
             obj: Any) -> None:
    try:
        got = row.surface(c, obj)
    except Exception as exc:
        kind = "typed error" if isinstance(exc, ReproError) \
            else "untyped escape"
        report.expect(row.tag, False, c.values[0], f"{kind}: {exc!r}")
        return
    want, lanes = row.oracle(c)
    _compare_rows(report, row.tag, got, want, c.values, lanes)


def run_rows(report: VerificationReport, h: Harness,
             rows: Sequence[Row]) -> None:
    """Run ``rows`` over ``h.corpus``: each rig is opened once, its
    plan armed around its rows, and audited after them."""
    groups: Dict[Rig, List[Row]] = {}
    for row in rows:
        groups.setdefault(row.rig, []).append(row)
    for rig, members in groups.items():
        plan = rig.plan(h.seed) if rig.plan else None
        try:
            with rig.open(h) as obj:
                with faults.armed(plan):
                    for row in members:
                        _run_row(report, h.corpus, row, obj)
                if rig.audit:
                    rig.audit(report, h, obj, plan)
        except Exception as exc:
            report.expect(members[0].tag, False, h.corpus.values[0],
                          f"rig failed: {exc!r}")


# ----------------------------------------------------------------------
# Surfaces shared by several batteries
# ----------------------------------------------------------------------

def _scalar(eng: Engine, c: Corpus) -> List[str]:
    """The scalar surface: one :meth:`Engine.format` call per row."""
    return [eng.format(v, mode=c.mode, fmt=c.fmt) for v in c.values]


def _pool_format(c: Corpus, pool) -> List[str]:
    return _rows(pool.format_bulk(c.packed))


def _pool_read(c: Corpus, pool) -> List[int]:
    return pool.read_bulk(c.payload)


def _pool(jobs: Optional[int] = None, **kw
          ) -> Callable[[Harness], ContextManager]:
    """A rig opener for a :class:`BulkPool` of the battery's format
    (``jobs`` defaults to the battery's)."""
    return lambda h: BulkPool(jobs=jobs or h.jobs, fmt=h.corpus.fmt, **kw)


@contextlib.contextmanager
def _daemon(h: Harness, **kw):
    """A loopback daemon and one client connection to it."""
    with serving(**kw) as daemon:
        with ServeClient(daemon.host, daemon.port) as client:
            yield SimpleNamespace(daemon=daemon, client=client, sent=0,
                                  errors=0)


def _wire_format(c: Corpus, rig) -> List[str]:
    got: List[str] = []
    for a, b in c.spans():
        got += _rows(rig.client.format(
            c.packed[a * c.itemsize:b * c.itemsize], c.fmt.name))
    return got


def _wire_read(c: Corpus, rig) -> List[int]:
    got: List[int] = []
    for a, b in c.spans():
        got += bits_from_buffer(rig.client.read(c.plane(a, b), c.fmt.name),
                                c.fmt)
    return got


def _wire_pipeline(c: Corpus, rig, rounds: int = 1, burst: int = 0,
                   resends: int = 0) -> List:
    """Each span's format and read frame, ``rounds`` times over,
    pipelined ``burst`` frames at a time (default all) on one connection
    in request order.  A typed error is sent again, up to ``resends``
    times; ``rig.sent`` and ``rig.errors`` count frames and errors."""
    from repro.serve import protocol

    frames = []
    for a, b in c.spans():
        frames.append(protocol.encode_request(
            protocol.OP_FORMAT, c.packed[a * c.itemsize:b * c.itemsize],
            c.fmt.name, b"\n"))
        frames.append(protocol.encode_request(
            protocol.OP_READ, c.plane(a, b), c.fmt.name, b"\n"))
    frames *= rounds
    burst = burst or len(frames)
    got: List = []
    for i, frame in enumerate(frames):
        if i % burst == 0:
            answers = iter(rig.client.pipeline(frames[i:i + burst]))
        status, payload = next(answers)
        rig.sent += 1
        for _ in range(resends):
            if status == protocol.STATUS_OK:
                break
            rig.errors += 1
            time.sleep(0.05)
            (status, payload), = rig.client.pipeline([frame])
            rig.sent += 1
        if status != protocol.STATUS_OK:
            rig.errors += 1
            got.append(f"status {status}")
        elif i % 2 == 0:
            got += _rows(payload)
        else:
            got += bits_from_buffer(payload, c.fmt)
    return got


def _pipelined(c: Corpus, rounds: int = 1):
    want: List = []
    lanes: List[str] = []
    for a, b in c.spans():
        want += c.lines[a:b] + c.want_bits[a:b]
        lanes += c.lanes[a:b] * 2
    return want * rounds, lanes * rounds


# ----------------------------------------------------------------------
# The round-trip battery: print↔parse conformance through the engines
# ----------------------------------------------------------------------

def _check_roundtrip(report: VerificationReport, h: Harness) -> None:
    """The paper's information-preservation contract, both directions.

    Leg A (the sample): ``print → parse → print``.  The shortest output
    of each value must read back bit-identically through the tiered
    read engine (checks tagged per resolving tier, so a regression
    localizes), and re-printing the parsed value must reproduce the
    text byte for byte.  For binary64 the host's ``float()`` serves as
    an independent read oracle on the same text.

    Leg B (as many random literals): ``parse → print → parse``.  An
    arbitrary literal reads to some flonum; printing that flonum and
    reading the output must land on the same bits (tagged by the
    *first* parse's tier).  The host oracle applies on binary64 again,
    this time on the arbitrary literal — exercising the interval and
    exact tiers against an implementation that shares no code with
    this package.
    """
    fmt = h.corpus.fmt
    eng = h.engine if h.engine is not None else Engine()
    host = fmt == BINARY64
    for v in h.corpus.sample:
        text = eng.format(v, fmt=fmt)
        got = eng.read_result(text, fmt)
        report.check(f"print-parse/{got.tier}")
        if not _same_datum(got.value, v):
            report.record(f"print-parse/{got.tier}", v,
                          f"{text!r} -> {got.value!r}")
            continue
        again = eng.format(got.value, fmt=fmt)
        report.expect("print-parse-print", again == text, v,
                      f"{text!r} reprints as {again!r}")
        if host:
            report.expect("host-float",
                          _same_datum(Flonum.from_float(float(text)), v),
                          v, f"host reads {text!r} as {float(text)!r}")
    literals = _roundtrip_literals(fmt, len(h.corpus.sample), h.seed)
    report.checked += len(literals)
    for lit in literals:
        first = eng.read_result(lit, fmt)
        text = eng.format(first.value, fmt=fmt)
        second = eng.read_result(text, fmt)
        report.expect(f"parse-print-parse/{first.tier}",
                      _same_datum(first.value, second.value), first.value,
                      f"{lit!r} -> {text!r} -> {second.value!r}")
        if host:
            report.expect("host-float", _same_datum(
                Flonum.from_float(float(lit)), first.value), first.value,
                f"host reads {lit!r} as {float(lit)!r}")


def _check_midpoints(report: VerificationReport, h: Harness) -> None:
    """The midpoint ``(2f+1)·2^(e-1)`` above each finite sample value
    ``f·2^e`` is an exact tie: ``read_many`` on the default engine and on
    the exact-only reader must return the neighbour with the even
    significand (zero below the least denormal, infinity past the max)."""
    fmt = h.corpus.fmt
    if fmt.radix != 2:
        return
    texts: List[str] = []
    want: List[str] = []
    for v in h.corpus.sample:
        if not v.is_finite:
            continue
        d, e = 2 * v.f + 1, v.e - 1
        texts.append(("-" if v.sign else "")
                     + (str(d << e) if e >= 0 else f"{d * 5**-e}e{e}"))
        f, e = v.f + (v.f & 1), v.e
        if f == fmt.mantissa_limit:
            f, e = fmt.hidden_limit, e + 1
        want.append(repr(Flonum.zero(fmt, v.sign) if f == 0
                         else Flonum.infinity(fmt, v.sign) if e > fmt.max_e
                         else Flonum.finite(v.sign, f, e, fmt)))
    read = ReadEngine(cache_size=0).read_result
    lanes = [read(t, fmt).tier for t in texts]
    for tag, reader in (
            ("midpoint/read_many", h.engine or Engine()),
            ("midpoint/exact", ReadEngine(tier_order=(), cache_size=0))):
        got = [repr(v) for v in reader.read_many(texts, fmt)]
        _compare_rows(report, tag, got, want, texts, lanes)


# ----------------------------------------------------------------------
# The contenders battery: the default write route against the exact tier
# ----------------------------------------------------------------------

def _route_batch(c: Corpus) -> List:
    """``format_many``'s input: host floats for binary64, Flonums of
    the batch's format otherwise."""
    return [v.to_float() for v in c.values] if c.fmt == BINARY64 \
        else c.values


def _route_audit(report: VerificationReport, h: Harness, rig,
                 plan) -> None:
    """The route has no bail path: the exact tier never runs, and tier
    0, Schubfach and the memo account for every conversion.  A warm
    pass converts nothing."""
    stats = rig.eng.stats()
    v0 = h.corpus.values[0]
    mode = h.corpus.mode.name
    report.expect("route/no-bail", not stats["tier2_calls"], v0,
                  f"{rig.path} {mode}: {stats['tier2_calls']} exact-tier "
                  f"consultations")
    lanes = stats["tier0_hits"] + stats["schubfach_hits"]
    report.expect("route/coverage",
                  lanes + stats["cache_hits"] == stats["conversions"], v0,
                  f"{rig.path} {mode}: lanes and memo resolved "
                  f"{lanes + stats['cache_hits']} of "
                  f"{stats['conversions']} conversions")
    if rig.cold is not None and lanes != (rig.cold["tier0_hits"]
                                          + rig.cold["schubfach_hits"]):
        report.record("route/coverage", v0,
                      f"{rig.path} {mode}: the warm pass converted "
                      f"values the memo holds")


def _route_engine(path: str, memo: bool = False) -> Rig:
    def open_(h: Harness):
        size = len(h.corpus.values) if memo else 0
        return contextlib.nullcontext(SimpleNamespace(
            eng=Engine(cache_size=size), path=path, cold=None))
    return Rig(open_, audit=_route_audit)


def _many(c: Corpus, rig) -> List[str]:
    return rig.eng.format_many(_route_batch(c), mode=c.mode, fmt=c.fmt)


def _cold_pass(c: Corpus, rig) -> List[str]:
    got = _many(c, rig)
    rig.cold = rig.eng.stats()
    return got


_SCALAR_ROUTE = _route_engine("scalar")
_BATCH_ROUTE = _route_engine("format_many")
_MEMO_ROUTE = _route_engine("format_many+memo", memo=True)

_CONTENDER_ROWS = (
    Row("route/scalar", lambda c, rig: _scalar(rig.eng, c),
        rig=_SCALAR_ROUTE),
    Row("route/format_many", _many, rig=_BATCH_ROUTE),
    Row("route/format_many+memo", _cold_pass, rig=_MEMO_ROUTE),
    Row("route/format_many+memo", _many, rig=_MEMO_ROUTE),
)


# ----------------------------------------------------------------------
# The bulk and buffer batteries: columnar and byte-plane surfaces
# ----------------------------------------------------------------------

_PROCESS_POOL = Rig(_pool())
_INLINE_POOL = Rig(_pool(jobs=1))

_BULK_ROWS = (
    Row("bulk/column-dedup",
        lambda c, _: format_column(c.bits, c.fmt, engine=Engine())),
    Row("bulk/column-nodedup", lambda c, _: format_column(
        c.bits, c.fmt, engine=Engine(), dedup=False)),
    Row("bulk/column-packed",
        lambda c, _: format_column(c.packed, c.fmt, engine=Engine())),
    Row("bulk/writer",
        lambda c, _: _rows(format_bulk(c.bits, c.fmt, engine=Engine()))),
    Row("bulk/pool-format", _pool_format, rig=_PROCESS_POOL),
    Row("bulk/pool-read", _pool_read, _bits, rig=_PROCESS_POOL),
    Row("bulk/inline-format", _pool_format, rig=_INLINE_POOL),
    Row("bulk/inline-read", _pool_read, _bits, rig=_INLINE_POOL),
    Row("bulk/read",
        lambda c, _: read_bulk(c.payload, c.fmt, engine=Engine()), _bits),
    Row("bulk/read-roundtrip", lambda c, _: [
        v.to_bits() for v in Engine().read_many(c.lines, c.fmt)], _sampled),
)


def _memo_pass(c: Corpus, reader: ReadEngine) -> List[int]:
    reader.reset_stats()
    return parse_buffer(c.payload, c.fmt, engine=reader)


def _memo_audit(report: VerificationReport, h: Harness,
                reader: ReadEngine, plan) -> None:
    """The second parse through one engine is served by its memo, once
    per distinct row."""
    stats = reader.stats()
    distinct = len(set(h.corpus.lines))
    report.expect("buffer/parse-memo",
                  stats["read_cache_hits"] == distinct
                  and stats["read_conversions"] == distinct,
                  h.corpus.values[0],
                  f"second pass: {stats['read_cache_hits']} memo hits "
                  f"of {stats['read_conversions']} conversions, "
                  f"{distinct} distinct rows")


_MEMO_READER = Rig(lambda h: contextlib.nullcontext(
    ReadEngine(cache_size=len(h.corpus.values))), audit=_memo_audit)


def _scalar_reads(c: Corpus, _) -> List[int]:
    """The scalar read surface: one memo-less ``read_result`` per row."""
    reader = ReadEngine(cache_size=0)
    return [reader.read_result(t, c.fmt).value.to_bits() for t in c.lines]


def _emit(bits_in: bool = False, delimiter: bytes = b"\n", **kw):
    """A ``format_buffer`` row on a fresh default engine."""
    return lambda c, _: _rows(format_buffer(
        c.bits if bits_in else c.packed, c.fmt, engine=Engine(),
        delimiter=delimiter, **kw), delimiter)


_BUFFER_ROWS = (
    Row("buffer/format-packed", _emit()),
    Row("buffer/format-bits", _emit(bits_in=True)),
    Row("buffer/format-nodedup", _emit(dedup=False)),
    Row("buffer/format-writer", lambda c, _: _rows(format_buffer(
        c.packed, c.fmt, engine=Engine(), writer=DelimitedWriter(b"\n")))),
    Row("buffer/format-crlf", _emit(delimiter=b"\r\n")),
    Row("buffer/parse", _memo_pass, _bits, rig=_MEMO_READER),
    Row("buffer/parse-memo", _memo_pass, _bits, rig=_MEMO_READER),
    Row("buffer/parse-nodedup", lambda c, _: parse_buffer(
        c.payload, c.fmt, engine=ReadEngine(), dedup=False), _bits),
    Row("buffer/parse-flonums", lambda c, _: [v.to_bits() for v in (
        parse_buffer(c.payload, c.fmt, engine=ReadEngine(),
                     out="flonums"))], _bits),
    Row("buffer/parse-crlf", lambda c, _: parse_buffer(
        c.plane(delimiter="\r\n"), c.fmt, engine=ReadEngine(),
        delimiter=b"\r\n"), _bits),
    Row("buffer/parse-roundtrip", _scalar_reads, _sampled),
)


# ----------------------------------------------------------------------
# The warm battery: snapshot-warmed engines and pools
# ----------------------------------------------------------------------

def _snapshot_files(h: Harness) -> Tuple[Any, str, str]:
    """The battery's snapshot, built once: a donor default engine plays
    the corpus and the head of its frequency distribution becomes the
    hot dictionary.  Saved to a file and to a copy with one payload
    byte flipped mid-file."""
    from repro.engine.snapshot import (build_snapshot, hot_entries,
                                       save_snapshot)

    if "snapshot" not in h.cache:
        c = h.corpus
        donor = Engine()
        _scalar(donor, c)
        head = [v for v, _ in Counter(
            v for v in c.values if v.is_finite and not v.is_zero
        ).most_common(512)]
        snap = build_snapshot([c.fmt.name], engine=donor,
                              hot=hot_entries(head, engine=donor))
        path = os.path.join(h.tmp, "warm.snap")
        save_snapshot(snap, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 0x40
        bad = os.path.join(h.tmp, "corrupt.snap")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        h.cache["snapshot"] = (snap, path, bad)
    return h.cache["snapshot"]


def _restored(tag: str, clean: bool):
    """An audit of ``snapshot_faults``: none on a valid snapshot, at
    least one on the corrupt file."""
    def audit(report, h, obj, plan):
        faults_seen = obj.stats()["snapshot_faults"]
        report.expect(tag, (faults_seen == 0) if clean else faults_seen > 0,
                      h.corpus.values[0],
                      f"{faults_seen} snapshot faults" if clean
                      else "corrupt snapshot was not counted")
    return audit


_WARM_ENGINE = Rig(lambda h: contextlib.nullcontext(
    Engine(snapshot=_snapshot_files(h)[0])),
    audit=_restored("warm/engine-clean-restore", clean=True))
_WARM_POOL = Rig(lambda h: BulkPool(jobs=h.jobs, fmt=h.corpus.fmt,
                                    snapshot=_snapshot_files(h)[1]),
                 audit=_restored("warm/pool-clean-restore", clean=True))
_CORRUPT_POOL = Rig(lambda h: BulkPool(jobs=h.jobs, fmt=h.corpus.fmt,
                                       snapshot=_snapshot_files(h)[2]),
                    audit=_restored("warm/corrupt-counted", clean=False))

_WARM_ROWS = (
    Row("warm/engine", lambda c, eng: _scalar(eng, c), rig=_WARM_ENGINE),
    Row("warm/pool-format", _pool_format, rig=_WARM_POOL),
    Row("warm/pool-read", _pool_read, _bits, rig=_WARM_POOL),
    Row("warm/corrupt-fallback", _pool_format, rig=_CORRUPT_POOL),
)


# ----------------------------------------------------------------------
# The chaos battery: pool byte identity under injected faults
# ----------------------------------------------------------------------

def _chaos_plans() -> Dict[str, Tuple[Callable, Dict]]:
    """The named fault plans, each ``(seed -> fresh plan, pool
    kwargs)`` (plans are stateful)."""
    FaultPlan, FaultSpec = faults.FaultPlan, faults.FaultSpec
    return {
        "crash": (lambda seed: FaultPlan([
            FaultSpec("pool.format_shard", "crash", shard=1),
            FaultSpec("pool.read_shard", "crash", shard=2),
        ], seed), {}),
        "stall": (lambda seed: FaultPlan([
            FaultSpec("pool.format_shard", "stall", shard=0, stall=0.8),
            FaultSpec("pool.read_shard", "stall", shard=1, stall=0.8),
        ], seed), {"deadline": 0.3}),
        "corrupt": (lambda seed: FaultPlan([
            FaultSpec("pool.format_shard", "corrupt", shard=2),
            FaultSpec("pool.read_shard", "corrupt", shard=0),
        ], seed), {}),
        # Every spec must fire even on a few hundred values (a worker
        # may see only ~40 calls of a site); the limit bounds the
        # healing cost on large corpora.
        "tier-raise": (lambda seed: FaultPlan([
            FaultSpec("engine.tier0", rate=0.2, limit=64),
            FaultSpec("engine.schubfach", rate=0.2, limit=64),
            FaultSpec("reader.tier0", rate=0.2, limit=64),
            FaultSpec("reader.tier1", rate=0.2, limit=64),
        ], seed), {}),
        "mixed": (faults.smoke_plan, {}),
    }


def _chaos_accounting(report: VerificationReport, h: Harness, pool,
                      plan, name: str) -> None:
    """Every injected fault is visible afterwards — pool faults in the
    recovery counters, in-worker lane faults in the healing counters —
    and every spec of the plan fired."""
    stats = pool.stats()
    v0 = h.corpus.values[0]
    with plan._lock:
        pool_fired = sum(plan.fired.get(s, 0) for s in faults.POOL_SITES)
        call_fired = sum(plan.fired.get(s, 0) for s in faults.CALL_SITES)
    recovered = (stats["shard_failures"] + stats["corrupt_shards"]
                 + stats["deadline_hits"])
    healed = stats.get("tier_faults", 0) + stats.get("read_tier_faults", 0)
    report.check("chaos/accounting")
    if pool_fired and recovered < pool_fired:
        report.record("chaos/accounting", v0,
                      f"{name}: {pool_fired} pool faults fired but only "
                      f"{recovered} recoveries counted")
    if healed < call_fired:
        report.record("chaos/accounting", v0,
                      f"{name}: {call_fired} lane faults fired but only "
                      f"{healed} healings counted")
    for spec, fired in zip(plan.specs, plan.spec_fired()):
        if not fired:
            report.record("chaos/accounting", v0,
                          f"{name}: {spec.site} spec never fired "
                          f"(dead chaos spec)")


def _chaos_rows() -> Tuple[Row, ...]:
    rows: List[Row] = []
    for name, (plan, pool_kw) in _chaos_plans().items():
        rig = Rig(_pool(**pool_kw), plan=plan, audit=functools.partial(
            _chaos_accounting, name=name))
        rows += [Row(f"chaos/{name}", _pool_format, rig=rig),
                 Row(f"chaos/{name}-read", _pool_read, _bits, rig=rig)]
    return tuple(rows)


def _raises(report: VerificationReport, tag: str, v0: Flonum, call,
            wanted, check=None) -> None:
    """One typed-error check: ``call()`` must raise ``wanted`` (and
    pass ``check(exc)``, which returns a complaint or None)."""
    report.check(tag)
    try:
        call()
    except wanted as exc:
        complaint = check(exc) if check else None
        if complaint:
            report.record(tag, v0, complaint)
    except Exception as exc:
        report.record(tag, v0, f"wrong error type: {exc!r}")
    else:
        report.record(tag, v0, f"no {wanted.__name__} raised")


def _check_typed_errors(report: VerificationReport, h: Harness) -> None:
    """Unrecoverable pool failures surface as the documented typed
    errors, with shard attribution; a strict engine re-raises an
    injected lane fault instead of healing it."""
    from repro.errors import DeadlineExceededError, ShardError

    c = h.corpus
    v0 = c.values[0]

    def persistent_fault():
        plan = faults.FaultPlan([faults.FaultSpec(
            "pool.format_shard", "raise", shard=0, attempt=None,
            limit=None)], h.seed)
        with BulkPool(jobs=h.jobs, fmt=c.fmt, on_error="raise",
                      retries=1) as pool:
            with faults.armed(plan):
                pool.format_bulk(c.packed)

    _raises(report, "chaos/typed-shard-error", v0, persistent_fault,
            ShardError, lambda exc: None if (
                exc.shard == 0 and exc.attempts >= 2) else
            f"bad attribution: shard={exc.shard} attempts={exc.attempts}")

    def exhausted_budget():
        plan = faults.FaultPlan([faults.FaultSpec(
            "pool.format_shard", "stall", attempt=None, stall=0.4,
            limit=None)], h.seed)
        with BulkPool(jobs=h.jobs, fmt=c.fmt, budget=0.5) as pool:
            with faults.armed(plan):
                pool.format_bulk(c.packed)

    _raises(report, "chaos/typed-deadline", v0, exhausted_budget,
            DeadlineExceededError)

    def strict_engine():
        strict = Engine(strict=True)
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.tier0", at=(0,)),
            faults.FaultSpec("engine.schubfach", at=(0,)),
        ], h.seed)
        with faults.armed(plan):
            for v in c.values[:64]:
                if v.is_finite and not v.is_zero:
                    strict.format(v, fmt=c.fmt)

    _raises(report, "chaos/strict", v0, strict_engine, faults.InjectedFault)


# ----------------------------------------------------------------------
# The serve battery: the daemon wire
# ----------------------------------------------------------------------

def _wire_errors(report: VerificationReport, h: Harness, rig,
                 plan) -> None:
    """A garbage literal, a misaligned format payload and an unknown
    format name each come back as the documented typed error, and the
    connection keeps serving."""
    from repro.errors import DecodeError, ParseError, ProtocolError
    from repro.serve import protocol

    c = h.corpus
    v0 = c.values[0]
    with ServeClient(rig.daemon.host, rig.daemon.port) as client:
        _raises(report, "serve/errors-parse", v0, lambda: client.read(
            b"1.5\nnot a number\n", c.fmt.name), ParseError)
        _raises(report, "serve/errors-align", v0, lambda: client.format(
            b"\x00" * (c.itemsize + 1), c.fmt.name), DecodeError)
        _raises(report, "serve/errors-format", v0, lambda: client.send_raw(
            protocol.encode_request(protocol.OP_FORMAT, b"", "bogus!",
                                    b"\n")) or client._response(),
            ProtocolError)
        try:
            alive = client.format(c.packed[:8 * c.itemsize], c.fmt.name)
        except Exception as exc:
            alive = f"connection died after typed errors: {exc!r}"
        report.expect("serve/errors-alive", alive == c.plane(0, 8), v0,
                      f"post-error response: {alive!r}")


#: Passes per chaos wire row.  Each span's frame pair is one burst, so
#: every pass makes its own pool calls instead of one coalesced batch.
_CHAOS_ROUNDS = 16


def _wire_chaos_audit(report: VerificationReport, h: Harness, rig, plan,
                      tag: str, shed_bound: float = 0.0) -> None:
    """Chaos through a daemon: a pool fault fired, ``pool_stats()``
    counts a recovery per pool fault fired, the daemon admitted each
    frame sent once, and at most ``shed_bound`` got a typed error."""
    with plan._lock:
        fired = sum(plan.fired.get(s, 0) for s in faults.POOL_SITES)
    pool = rig.daemon.pool_stats()
    recovered = sum(pool.get(k, 0) for k in (
        "shard_failures", "corrupt_shards", "deadline_hits"))
    admitted = rig.daemon.stats()["requests"]
    report.expect(tag, 1 <= fired <= recovered and admitted == rig.sent
                  and rig.errors <= rig.sent * shed_bound,
                  h.corpus.values[0],
                  f"{fired} pool faults fired, {recovered} recoveries; "
                  f"{rig.sent} frames sent, {admitted} admitted, "
                  f"{rig.errors} typed errors (bound {shed_bound:.0%})")


_INLINE_WIRE = Rig(lambda h: _daemon(h, jobs=1), audit=_wire_errors)
_PROCESS_WIRE = Rig(lambda h: _daemon(h, jobs=h.jobs))
_CHAOS_WIRE = Rig(lambda h: _daemon(h, jobs=h.jobs, retries=3),
                  plan=faults.chaos_plan, audit=functools.partial(
                      _wire_chaos_audit, tag="serve/chaos-accounting"))

_SERVE_ROWS = (
    Row("serve/format", _wire_format, rig=_INLINE_WIRE),
    Row("serve/read", _wire_read, _bits, rig=_INLINE_WIRE),
    Row("serve/pipeline", _wire_pipeline, _pipelined, rig=_INLINE_WIRE),
    Row("serve/process-format", _wire_format, rig=_PROCESS_WIRE),
    Row("serve/process-read", _wire_read, _bits, rig=_PROCESS_WIRE),
    Row("serve/chaos",
        functools.partial(_wire_pipeline, rounds=_CHAOS_ROUNDS, burst=2),
        functools.partial(_pipelined, rounds=_CHAOS_ROUNDS),
        rig=_CHAOS_WIRE),
)


# ----------------------------------------------------------------------
# The control battery: the self-healing control plane under fire
# ----------------------------------------------------------------------

def _control_audit(report: VerificationReport, h: Harness, rig, plan,
                   tag: str) -> None:
    """Faults the pool heals stay invisible to the control plane: a
    bounded shed rate and no breaker transitions."""
    stats = rig.daemon.stats()
    requests = max(1, stats["requests"])
    report.expect(tag, stats["overloads"] <= requests * 0.5
                  and stats["breaker_trips"] == 0, h.corpus.values[0],
                  f"shed {stats['overloads']}/{requests}, breaker "
                  f"tripped {stats['breaker_trips']}x")


def _controlled(pool_kw: Dict) -> Callable[[Harness], ContextManager]:
    return lambda h: _daemon(h, jobs=h.jobs, retries=3,
                             breaker_threshold=5, slo_target_ms=5000.0,
                             observe_stride=1, **pool_kw)


def _hedge_audit(report: VerificationReport, h: Harness, pool,
                 plan) -> None:
    stats = pool.stats()
    report.expect("control/hedge",
                  stats["hedges"] >= 1 and stats["hedge_wins"] >= 1,
                  h.corpus.values[0],
                  f"hedge unaccounted: hedges={stats['hedges']} "
                  f"wins={stats['hedge_wins']}")


#: One pool call of INLINE_ROWS rows, so the straggler is the stalled
#: shard rather than the shard size.
_HEDGE_POOL = Rig(
    _pool(jobs=2, deadline=5.0, hedge=True, hedge_min=0.05,
          hedge_with_faults=True),
    plan=lambda seed: faults.FaultPlan([faults.FaultSpec(
        "pool.format_shard", "stall", shard=0, attempt=0, stall=0.8)],
        seed),
    audit=_hedge_audit)


@contextlib.contextmanager
def _rotating(h: Harness):
    path = os.path.join(h.tmp, "rotated.snap")
    with _daemon(h, jobs=1, rotate_snapshot=path,
                 rotate_every=64, observe_stride=1) as rig:
        rig.path = path
        yield rig


def _after_rotation(c: Corpus, rig) -> List[str]:
    """The wire again once traffic has triggered a rotation."""
    deadline = time.monotonic() + 10.0
    while (rig.daemon.stats()["snapshot_rotations"] == 0
           and time.monotonic() < deadline):
        time.sleep(0.01)
    return _wire_format(c, rig)


def _rotation_audit(report: VerificationReport, h: Harness, rig,
                    plan) -> None:
    rotations = rig.daemon.stats()["snapshot_rotations"]
    report.expect("control/rotation",
                  rotations >= 1 and os.path.exists(rig.path),
                  h.corpus.values[0],
                  f"{rotations} rotations, file written: "
                  f"{os.path.exists(rig.path)}")


_ROTATION = Rig(_rotating, audit=_rotation_audit)


def _control_rows() -> Tuple[Row, ...]:
    rows: List[Row] = []
    for name, (plan, pool_kw) in _chaos_plans().items():
        if name in ("tier-raise", "mixed"):
            continue  # in-worker lanes are the chaos battery's beat
        tag = f"control/chaos-{name}"
        rig = Rig(_controlled(pool_kw), plan=plan,
                  audit=functools.partial(_control_audit, tag=tag))
        rows.append(Row(tag, _wire_format, rig=rig))
    # The chaos plan again: the control plane may shed (and the client
    # resend) at most a fifth of the frames.
    rows.append(Row(
        "control/chaos-wire",
        functools.partial(_wire_pipeline, rounds=_CHAOS_ROUNDS, burst=2,
                          resends=20),
        functools.partial(_pipelined, rounds=_CHAOS_ROUNDS),
        rig=Rig(lambda h: _daemon(
            h, jobs=h.jobs, retries=3, breaker_threshold=8,
            slo_target_ms=60.0, hedge=True, hedge_min=0.05,
            hedge_under_faults=True), plan=faults.chaos_plan,
            audit=functools.partial(_wire_chaos_audit, shed_bound=0.2,
                                    tag="control/chaos-wire-accounting"))))
    return tuple(rows) + (
        Row("control/hedge", lambda c, pool: _rows(pool.format_bulk(
            c.packed[:INLINE_ROWS * c.itemsize])),
            lambda c: (c.lines[:INLINE_ROWS], c.lanes[:INLINE_ROWS]),
            rig=_HEDGE_POOL),
        Row("control/rotation", _wire_format, rig=_ROTATION),
        Row("control/rotation-after", _after_rotation, rig=_ROTATION),
        # A rotated snapshot may only skip work, never change bytes.
        Row("control/rotation-warm",
            lambda c, rig: _scalar(Engine(snapshot=rig.path), c),
            rig=_ROTATION),
    )


# ----------------------------------------------------------------------
# The batteries
# ----------------------------------------------------------------------

def _check_values(report: VerificationReport, h: Harness) -> None:
    """Every per-value oracle of :func:`verify_format`."""
    host_checks = h.corpus.fmt == BINARY64
    engine = Engine()  # all tiers enabled; memo exercised across values
    for v in h.corpus.sample:
        _check_shortest_engines(v, report)
        _check_shortest_tiers(v, engine, report)
        _check_fixed_engines(v, report)
        _check_fixed_tiers(v, engine, report)
        _check_readers(v, engine, report)
        _check_surfaces(v, report)
        if host_checks:
            _check_host_oracles(v, engine, report)


@dataclass(frozen=True)
class _Battery:
    """One CLI flag: its rows, its fixed checks and its corpus."""

    label: str
    help: str
    rows: Tuple[Row, ...] = ()
    checks: Tuple[Callable, ...] = ()
    sample: Callable = _signed_sample
    min_rows: int = INLINE_ROWS
    modes: Tuple[ReaderMode, ...] = (ReaderMode.NEAREST_EVEN,)


#: Flag → battery, in ``--help`` order; ``format`` is the default
#: battery and has no flag.
_BATTERIES: Dict[str, _Battery] = {
    "format": _Battery(
        "", "", checks=(_check_values,), sample=sample_values, min_rows=0),
    "roundtrip": _Battery(
        "round-trip", "run the print↔parse round-trip battery (tiered "
        "read engine + host float() oracle, exact decimal midpoints "
        "read ties-to-even) instead of the printing battery",
        checks=(_check_roundtrip, _check_midpoints), min_rows=0),
    "bulk": _Battery(
        "bulk", "run the bulk serving-layer battery: every columnar/"
        "pooled route must be byte-identical to the exact tier",
        rows=_BULK_ROWS),
    "buffer": _Battery(
        "buffer", "run the byte-plane pipeline battery: parse_buffer/"
        "format_buffer must be byte/bit-identical to the exact tier and "
        "reader, with per-lane mismatch attribution", rows=_BUFFER_ROWS),
    "chaos": _Battery(
        "chaos", "run the chaos battery: pool byte identity under "
        "injected worker crashes, shard stalls, payload corruption and "
        "fast-tier raises", rows=_chaos_rows(),
        checks=(_check_typed_errors,)),
    "serve": _Battery(
        "serve", "run the serving battery: loopback daemon round trips on "
        "inline and process pools (format and read ops, pipelined "
        "bursts, typed error responses) must be byte-identical to the "
        "exact tier", rows=_SERVE_ROWS),
    "warm": _Battery(
        "warm", "run the warm-start battery: snapshot-warmed engines and "
        "pools must be byte-identical to the exact tier, and corrupt "
        "snapshots must fall back cold (counted, never served)",
        rows=_WARM_ROWS),
    "contenders": _Battery(
        "contenders", "run the default-route battery: tier 0 then "
        "Schubfach, scalar and format_many, must be byte-identical to "
        "the exact tier with zero exact-tier consultations",
        rows=_CONTENDER_ROWS, sample=_route_sample, min_rows=0,
        modes=(ReaderMode.NEAREST_EVEN, ReaderMode.NEAREST_UNKNOWN)),
    "control": _Battery(
        "control", "run the control-plane battery: chaos plans through "
        "a controlled daemon, hedged shards and live snapshot rotation "
        "— shed or reroute, never change a byte", rows=_control_rows()),
}


def _run(name: str, fmt: FloatFormat, n: int, seed: int, jobs: int = 2,
         engine: Optional[Engine] = None) -> VerificationReport:
    """Build the battery's corpus (one per reader mode), run its rows
    and then its fixed checks."""
    battery = _BATTERIES[name]
    report = VerificationReport(
        f"{fmt.name} {battery.label}".rstrip())
    with tempfile.TemporaryDirectory() as tmp:
        for mode in battery.modes:
            corpus = Corpus(fmt, n, seed, sample=battery.sample, mode=mode,
                            min_rows=battery.min_rows)
            report.checked = len(corpus.sample)
            h = Harness(corpus, seed, jobs, tmp, engine)
            run_rows(report, h, battery.rows)
            for check in battery.checks:
                check(report, h)
    return report


def verify_format(fmt: FloatFormat = BINARY64, n: int = 200,
                  seed: int = 0) -> VerificationReport:
    """Cross-validate all engines on ``n`` sampled values of ``fmt``."""
    return _run("format", fmt, n, seed)


def verify_roundtrip(fmt: FloatFormat = BINARY64, n: int = 50000,
                     seed: int = 0,
                     engine: Optional[Engine] = None) -> VerificationReport:
    """Print↔parse conformance in both directions (see
    :func:`_check_roundtrip`), through ``engine`` or a default one."""
    return _run("roundtrip", fmt, n, seed, engine=engine)


def verify_contenders(fmt: FloatFormat = BINARY64, n: int = 50000,
                      seed: int = 0) -> VerificationReport:
    """The default write route (tier 0, then Schubfach) against the
    exact tier: ``n`` sampled values plus the denormal/boundary/
    decimal-tie/torture corpora through a memo-less engine one value at
    a time and as one ``format_many`` batch, and a memo-on batch twice
    (the warm pass must convert nothing), under both nearest reader
    modes, with no exact-tier call."""
    return _run("contenders", fmt, n, seed)


def verify_bulk(fmt: FloatFormat = BINARY64, n: int = 50000, seed: int = 0,
                jobs: int = 2) -> VerificationReport:
    """The columnar serving layer — ``format_column``, ``format_bulk``,
    ``read_bulk``, a ``jobs``-worker process :class:`BulkPool` and a
    ``jobs=1`` one that converts inline — against the exact tier and
    reader."""
    return _run("bulk", fmt, n, seed, jobs)


def verify_buffer(fmt: FloatFormat = BINARY64, n: int = 50000,
                  seed: int = 0) -> VerificationReport:
    """The byte-plane pipeline (``format_buffer``/``parse_buffer``:
    packed and bit-list input, dedup off, a prepared writer, CRLF, the
    memo pass, flonum output) against the exact tier and reader."""
    return _run("buffer", fmt, n, seed)


def verify_warm(fmt: FloatFormat = BINARY64, n: int = 50000, seed: int = 0,
                jobs: int = 2) -> VerificationReport:
    """A snapshot may only skip work: a warm engine, a pool warmed from
    the snapshot file and a pool on a corrupt copy (rejected, counted,
    served cold) against the exact tier and reader."""
    return _run("warm", fmt, n, seed, jobs)


def verify_chaos(fmt: FloatFormat = BINARY64, n: int = 50000, seed: int = 0,
                 jobs: int = 2) -> VerificationReport:
    """A process :class:`BulkPool` under each fault plan: byte identity
    with the exact tier and reader, every fault accounted for, and only
    typed :class:`~repro.errors.ReproError` subclasses escaping."""
    return _run("chaos", fmt, n, seed, jobs)


def verify_serve(fmt: FloatFormat = BINARY64, n: int = 50000,
                 seed: int = 0, jobs: int = 2) -> VerificationReport:
    """The daemon wire on an inline and a process pool — format, read
    and a pipelined burst in ~2048-row requests — against the exact
    tier and reader, and typed error responses on a live connection."""
    return _run("serve", fmt, n, seed, jobs)


def verify_control(fmt: FloatFormat = BINARY64, n: int = 50000,
                   seed: int = 0, jobs: int = 2) -> VerificationReport:
    """The control plane may shed or reroute, never change a byte: the
    chaos plans through a controlled process daemon, a hedged stalled
    shard and live snapshot rotation, against the exact tier."""
    return _run("control", fmt, n, seed, jobs)


# ----------------------------------------------------------------------
# CLI: ``python -m repro.verify`` (the nightly fuzz entry point)
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    """Run a battery from the command line; exit 1 on any mismatch."""
    import argparse

    from repro.floats.formats import STANDARD_FORMATS

    flags = [name for name in _BATTERIES if name != "format"]
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential verification: every surface against "
                    "the exact tier and the exact reader.")
    parser.add_argument("--n", type=int, default=None,
                        help="values sampled per format (default 200; "
                             "50000 with " +
                             "/".join(f"--{f}" for f in flags) + ")")
    parser.add_argument("--seed", default="0",
                        help="sample seed: an integer, or 'fresh' for a "
                             "new random seed (nightly fuzz; the chosen "
                             "seed is printed for reproduction)")
    parser.add_argument("--formats", nargs="*", metavar="NAME",
                        default=["binary16", "binary32", "binary64"],
                        choices=sorted(STANDARD_FORMATS),
                        help="formats to verify (default: binary16/32/64)")
    group = parser.add_mutually_exclusive_group()
    for name in flags:
        group.add_argument(f"--{name}", dest="battery", action="store_const",
                           const=name, help=_BATTERIES[name].help)
    args = parser.parse_args(argv)
    name = args.battery or "format"
    seed = (random.SystemRandom().randrange(2**32) if args.seed == "fresh"
            else int(args.seed))
    n = args.n if args.n is not None else (200 if name == "format"
                                           else 50000)
    print(f"{_BATTERIES[name].label or 'verification'} battery: n={n} "
          f"seed={seed} formats={','.join(args.formats)}")
    failures = 0
    for fmt_name in args.formats:
        report = _run(name, STANDARD_FORMATS[fmt_name], n, seed)
        print(report.tier_summary())
        for mismatch in report.mismatches[:10]:
            print(f"    {mismatch}")
        failures += len(report.mismatches)
    if failures:
        print(f"FAILED: {failures} disagreements (seed {seed})")
        return 1
    print("all tiers agree on every sampled value")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
