"""Self-verification battery: cross-check every engine against the others.

A downstream adopter's smoke test: run N sampled values of a format
through all the independent implementations in this package (and the
host, for binary64) and report any disagreement.  Used by
``examples/self_check.py``, the test suite and the nightly CI fuzz job
(``python -m repro.verify``); the design principle is the reproduction's
own — every component is validated by at least one *independently
constructed* oracle.

The battery is tier-aware: every check is tagged with the conversion
path it exercises (``free/tier0``, ``fixed/engine-counted``, ...) and the
report carries per-tier check and mismatch counts, so a regression in
one tier of the engine is visible as that tier's counter, not just a
flat failure.  Oracles per path:

=====================  =================================================
path                   independent oracles
=====================  =================================================
free (shortest)        Section-2 rational spec, limb bignum port,
                       Grisu3 self-certification, host ``repr``
fixed (paper, ``#``)   Section-4 rational spec (``fixed_digits_rational``)
fixed (counted/printf) exact integer division *and* a Fraction
                       re-implementation here, host ``%``-formatting
readers                round-trip through Bellerophon / Algorithm R /
                       the tiered read engine
round trip             print→parse→print byte identity and
                       parse→print→parse bit identity per read tier,
                       host ``float()`` as the binary64 oracle
                       (``python -m repro.verify --roundtrip``)
buffer                 the byte-plane pipeline
                       (``parse_buffer``/``format_buffer``) against the
                       scalar engines, byte/bit-identical with per-tier
                       mismatch attribution
                       (``python -m repro.verify --buffer``)
chaos                  the bulk byte-identity battery replayed under
                       injected worker crashes, shard stalls, payload
                       corruption and fast-tier raises — outputs must
                       stay byte-identical to the fault-free run, every
                       fault must be accounted for in ``stats()``, and
                       only typed ``ReproError`` subclasses may escape
                       (``python -m repro.verify --chaos``)
=====================  =================================================
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.baselines.naive_fixed import exact_fixed_digits, fixed_digits_loop
from repro.core.backends import shortest_digits_bignat
from repro.core.dragon import shortest_digits
from repro.core.rational import shortest_digits_rational
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine, tables_for
from repro.engine.tier0 import tier0_digits
from repro.fastpath import counted_fixed, grisu_shortest
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.format.printf import format_printf
from repro.format.repr_shortest import py_repr
from repro.reader.algorithm_r import algorithm_r
from repro.reader.bellerophon import bellerophon
from repro.reader.exact import read_fraction
from repro.workloads.corpus import (
    decimal_ties,
    denormals,
    power_boundaries,
    torture_floats,
)

__all__ = ["VerificationReport", "verify_format", "verify_roundtrip",
           "verify_bulk", "verify_buffer", "verify_chaos", "verify_warm",
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
    """Aggregate outcome of one verification run."""

    format_name: str
    checked: int = 0
    mismatches: List[str] = field(default_factory=list)
    tier_checks: Dict[str, int] = field(default_factory=dict)
    tier_mismatches: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def check(self, tier: str) -> None:
        """Count one comparison against the named conversion path."""
        self.tier_checks[tier] = self.tier_checks.get(tier, 0) + 1

    def record(self, kind: str, v: Flonum, detail: str = "") -> None:
        self.mismatches.append(f"{kind}: {v!r} {detail}".strip())
        self.tier_mismatches[kind] = self.tier_mismatches.get(kind, 0) + 1

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (f"{self.format_name}: {self.checked} values checked "
                f"across engines — {status}")

    def tier_summary(self) -> str:
        """Per-tier check/mismatch table, one line per conversion path."""
        lines = [self.summary()]
        for tier in sorted(self.tier_checks):
            bad = self.tier_mismatches.get(tier, 0)
            status = "ok" if not bad else f"{bad} MISMATCHES"
            lines.append(f"  {tier:<24} {self.tier_checks[tier]:>7} checks"
                         f"  {status}")
        stray = set(self.tier_mismatches) - set(self.tier_checks)
        for tier in sorted(stray):  # pragma: no cover - defensive
            lines.append(f"  {tier:<24} {'?':>7} checks"
                         f"  {self.tier_mismatches[tier]} MISMATCHES")
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
# The battery
# ----------------------------------------------------------------------

def verify_format(fmt: FloatFormat = BINARY64, n: int = 200,
                  seed: int = 0) -> VerificationReport:
    """Cross-validate all engines on ``n`` sampled values of ``fmt``."""
    report = VerificationReport(format_name=fmt.name)
    host_checks = fmt is BINARY64 or fmt == BINARY64
    engine = Engine()  # all tiers enabled; memo exercised across values
    for v in sample_values(fmt, n, seed):
        report.checked += 1
        _check_shortest_engines(v, report)
        _check_shortest_tiers(v, engine, report)
        _check_fixed_engines(v, report)
        _check_fixed_tiers(v, engine, report)
        _check_readers(v, engine, report)
        _check_surfaces(v, report)
        if host_checks:
            _check_host_oracles(v, engine, report)
    return report


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
# The round-trip battery: print↔parse conformance through the engines
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


def sample_with_specials(fmt: FloatFormat, n: int, seed: int = 0,
                   min_rows: int = 0) -> List[Flonum]:
    """:func:`roundtrip_values` plus NaN and both infinities, repeated
    until the sample has at least ``min_rows`` rows.  The pool
    batteries ask for :data:`repro.serve.pool.INLINE_ROWS`, so their
    calls shard to the rung under test instead of converting inline
    whatever ``n`` is."""
    values = roundtrip_values(fmt, n, seed)
    values += [Flonum.nan(fmt), Flonum.infinity(fmt, 0),
               Flonum.infinity(fmt, 1)]
    return values * -(-min_rows // len(values)) if min_rows else values


def _chunk_spans(count: int, chunk: int = 2048) -> List[Tuple[int, int]]:
    """``(start, stop)`` spans of ``chunk`` rows over ``count`` rows; a
    remainder below :data:`repro.serve.pool.INLINE_ROWS` joins the span
    before it, so every span shards to the pool's rung."""
    from repro.serve.pool import INLINE_ROWS

    spans = [(a, min(a + chunk, count)) for a in range(0, count, chunk)]
    if len(spans) > 1 and spans[-1][1] - spans[-1][0] < INLINE_ROWS:
        spans[-2:] = [(spans[-2][0], count)]
    return spans


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


def verify_roundtrip(fmt: FloatFormat = BINARY64, n: int = 50000,
                     seed: int = 0,
                     engine: Optional[Engine] = None) -> VerificationReport:
    """The paper's information-preservation contract, both directions.

    Leg A (``n`` flonums): ``print → parse → print``.  The shortest
    output of each sampled value must read back bit-identically through
    the tiered read engine (checks tagged per resolving tier, so a
    regression localizes), and re-printing the parsed value must
    reproduce the text byte for byte.  For binary64 the host's
    ``float()`` serves as an independent read oracle on the same text.

    Leg B (``n`` literals): ``parse → print → parse``.  An arbitrary
    literal reads to some flonum; printing that flonum and reading the
    output must land on the same bits (tagged by the *first* parse's
    tier).  The host oracle applies on binary64 again, this time on the
    arbitrary literal — exercising the interval and exact tiers against
    an implementation that shares no code with this package.
    """
    report = VerificationReport(format_name=f"{fmt.name} round-trip")
    eng = engine if engine is not None else Engine()
    host = fmt is BINARY64 or fmt == BINARY64
    for v in roundtrip_values(fmt, n, seed):
        report.checked += 1
        text = eng.format(v, fmt=fmt)
        got = eng.read_result(text, fmt)
        report.check(f"print-parse/{got.tier}")
        if not _same_datum(got.value, v):
            report.record(f"print-parse/{got.tier}", v,
                          f"{text!r} -> {got.value!r}")
            continue
        report.check("print-parse-print")
        again = eng.format(got.value, fmt=fmt)
        if again != text:
            report.record("print-parse-print", v,
                          f"{text!r} reprints as {again!r}")
        if host:
            report.check("host-float")
            if not _same_datum(Flonum.from_float(float(text)), v):
                report.record("host-float", v,
                              f"host reads {text!r} as {float(text)!r}")
    for lit in _roundtrip_literals(fmt, n, seed):
        report.checked += 1
        first = eng.read_result(lit, fmt)
        text = eng.format(first.value, fmt=fmt)
        second = eng.read_result(text, fmt)
        report.check(f"parse-print-parse/{first.tier}")
        if not _same_datum(first.value, second.value):
            report.record(f"parse-print-parse/{first.tier}", first.value,
                          f"{lit!r} -> {text!r} -> {second.value!r}")
        if host:
            report.check("host-float")
            if not _same_datum(Flonum.from_float(float(lit)), first.value):
                report.record("host-float", first.value,
                              f"host reads {lit!r} as {float(lit)!r}")
    return report


# ----------------------------------------------------------------------
# The contenders battery: the default write route, certified
# differentially
# ----------------------------------------------------------------------

def verify_contenders(fmt: FloatFormat = BINARY64, n: int = 50000,
                      seed: int = 0) -> VerificationReport:
    """Certify the default write route (tier 0, then Schubfach) against
    the exact tier.

    ``n`` sampled values plus the denormal/boundary/decimal-tie/torture
    corpora go through a memo-less default engine twice — one value at
    a time (:meth:`Engine.format`, the scalar route) and as one batch
    (:meth:`Engine.format_many`, the inlined batch loop) — under both
    nearest reader modes, and every output must be byte-identical to an
    exact-only engine's.  A memo-on leg repeats the batch on an engine
    whose memo holds it all: the warm pass (lock-free probes, bumps and
    installs at the flush) must convert nothing and match too.  The
    route has no bail path, so the exact tier must never run
    (``tier2_calls == 0``) and tier 0, Schubfach and the memo must
    account for every conversion.
    """
    report = VerificationReport(format_name=f"{fmt.name} contenders")
    exact = Engine(tier_order=(), cache_size=0)
    values = sample_values(fmt, n, seed)
    values += (denormals(fmt) + power_boundaries(fmt)
               + decimal_ties(fmt) + torture_floats(fmt))
    # format_many decomposes host floats for binary64 and Flonums of
    # the batch's format otherwise.
    batch = ([v.to_float() for v in values] if fmt == BINARY64
             else values)
    for mode in (ReaderMode.NEAREST_EVEN, ReaderMode.NEAREST_UNKNOWN):
        want = [exact.format(v, mode=mode, fmt=fmt) for v in values]
        for path in ("scalar", "format_many", "format_many+memo"):
            eng = Engine(cache_size=len(values) if "memo" in path else 0)
            if path == "scalar":
                runs = [[eng.format(v, mode=mode, fmt=fmt) for v in values]]
            else:
                runs = [eng.format_many(batch, mode=mode, fmt=fmt)]
                cold = eng.stats()
                if eng.cache_size:
                    runs.append(eng.format_many(batch, mode=mode, fmt=fmt))
            tag = f"route/{path}"
            for got in runs:
                for v, g, w in zip(values, got, want):
                    report.checked += 1
                    report.check(tag)
                    if g != w:
                        report.record(tag, v, f"{mode.name}: {g!r} != "
                                              f"exact {w!r}")
            stats = eng.stats()
            report.check("route/no-bail")
            if stats["tier2_calls"]:
                report.record("route/no-bail", values[0],
                              f"{path} {mode.name}: {stats['tier2_calls']}"
                              f" exact-tier consultations")
            report.check("route/coverage")
            lanes = stats["tier0_hits"] + stats["schubfach_hits"]
            if lanes + stats["cache_hits"] != stats["conversions"]:
                report.record("route/coverage", values[0],
                              f"{path} {mode.name}: lanes and memo "
                              f"resolved {lanes + stats['cache_hits']} of "
                              f"{stats['conversions']} conversions")
            if eng.cache_size and lanes != (cold["tier0_hits"]
                                            + cold["schubfach_hits"]):
                report.record("route/coverage", values[0],
                              f"{path} {mode.name}: the warm pass "
                              f"converted values the memo holds")
    return report


# ----------------------------------------------------------------------
# The bulk battery: the serving layer against the scalar engine
# ----------------------------------------------------------------------

def _compare_rows(report: VerificationReport, tag: str, got, want,
                  values) -> None:
    """Tag one whole-column comparison; report the first divergence."""
    report.check(tag)
    if got == want:
        return
    if len(got) != len(want):
        report.record(tag, values[0],
                      f"row count {len(got)} != {len(want)}")
        return
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            report.record(tag, values[i], f"row {i}: {g!r} != {w!r}")
            return


def verify_bulk(fmt: FloatFormat = BINARY64, n: int = 50000, seed: int = 0,
                jobs: int = 2) -> VerificationReport:
    """Byte-identity of the bulk serving layer against the scalar engine.

    The bulk layer (:mod:`repro.serve`) reorders work — columnar
    ingestion, dedup interning, shard split/merge — but must never
    change a single output byte.  This battery formats the signed
    round-trip sample (:func:`roundtrip_values` plus NaN and both
    infinities) once through the scalar :meth:`Engine.format` path as
    the oracle, then checks every bulk route against it:

    * :func:`repro.serve.format_column` with interning on and off, fed
      bit patterns *and* the packed byte column (the zero-copy path);
    * :func:`repro.serve.format_bulk` payload bytes against the joined
      scalar rows (the :class:`~repro.serve.DelimitedWriter` leg);
    * a process :class:`~repro.serve.BulkPool` (``jobs`` workers) on
      the same packed column — shard split, per-worker engines and
      order-preserving merge;
    * :func:`repro.serve.read_bulk` of the payload against the scalar
      :meth:`ReadEngine.read_many` bits (and, transitively, the
      original bits — the sample round-trips by construction).
    """
    from repro.serve import (BulkPool, format_bulk, format_column,
                             pack_bits, read_bulk)
    from repro.serve.pool import INLINE_ROWS

    report = VerificationReport(format_name=f"{fmt.name} bulk")
    eng = Engine()
    values = sample_with_specials(fmt, n, seed, min_rows=INLINE_ROWS)
    report.checked = len(values)
    bits = [v.to_bits() for v in values]
    packed = pack_bits(bits, fmt)
    scalar = [eng.format(v, fmt=fmt) for v in values]

    _compare_rows(report, "bulk/column-dedup",
                  format_column(bits, fmt, engine=eng), scalar, values)
    _compare_rows(report, "bulk/column-nodedup",
                  format_column(bits, fmt, engine=eng, dedup=False),
                  scalar, values)
    _compare_rows(report, "bulk/column-packed",
                  format_column(packed, fmt, engine=eng), scalar, values)

    payload = format_bulk(bits, fmt, engine=eng)
    want_payload = ("\n".join(scalar) + "\n").encode("ascii")
    report.check("bulk/writer")
    if payload != want_payload:
        report.record("bulk/writer", values[0],
                      f"payload differs ({len(payload)} vs "
                      f"{len(want_payload)} bytes)")

    with BulkPool(jobs=jobs, fmt=fmt) as pool:
        pool_payload = pool.format_bulk(packed)
        report.check("bulk/pool-format")
        if pool_payload != want_payload:
            report.record("bulk/pool-format", values[0],
                          f"pool payload differs ({len(pool_payload)} vs "
                          f"{len(want_payload)} bytes)")
        _compare_rows(report, "bulk/pool-read",
                      pool.read_bulk(payload), bits, values)

    want_bits = [v.to_bits() for v in eng.read_many(scalar, fmt)]
    _compare_rows(report, "bulk/read",
                  read_bulk(payload, fmt, engine=eng), want_bits, values)
    _compare_rows(report, "bulk/read-roundtrip", want_bits, bits, values)
    return report


# ----------------------------------------------------------------------
# The warm battery: snapshot-warmed pools against cold ones
# ----------------------------------------------------------------------

def verify_warm(fmt: FloatFormat = BINARY64, n: int = 50000, seed: int = 0,
                jobs: int = 2) -> VerificationReport:
    """Byte-identity of the warm-start fabric against cold execution.

    A snapshot (tables + memo + hot dictionary) may only skip work —
    it must never change a single output byte, and a rejected snapshot
    must degrade to a cold start, counted, never served.  Legs:

    * **warm engine** — ``Engine(snapshot=...)`` output against a cold
      engine's over the signed round-trip sample plus specials, with a
      clean restore (``snapshot_faults == 0``);
    * **warm pool** — a ``jobs``-worker process :class:`BulkPool` warmed
      from the snapshot *file* (container decode, shared-memory hot
      plane, worker re-load all on the path) against the cold pool's
      payload, format and read directions;
    * **corrupt fallback** — the same pool pointed at a bit-flipped
      copy of the file: output still byte-identical, and the rejection
      visible as ``snapshot_faults >= 1`` in :meth:`BulkPool.stats`.
    """
    import collections
    import tempfile

    from repro.engine.snapshot import (build_snapshot, hot_entries,
                                       save_snapshot)
    from repro.serve import BulkPool, pack_bits
    from repro.serve.pool import INLINE_ROWS

    report = VerificationReport(format_name=f"{fmt.name} warm")
    values = sample_with_specials(fmt, n, seed, min_rows=INLINE_ROWS)
    report.checked = len(values)
    packed = pack_bits([v.to_bits() for v in values], fmt)

    # The donor plays the sample, the head of its frequency
    # distribution becomes the hot dictionary (tools/warm_snapshot.py's
    # recipe, inlined so the battery is self-contained).
    donor = Engine()
    scalar = [donor.format(v, fmt=fmt) for v in values]
    head = [v for v, _ in collections.Counter(
        v for v in values if v.is_finite and not v.is_zero
    ).most_common(512)]
    snap = build_snapshot([fmt.name], engine=donor,
                          hot=hot_entries(head, engine=donor))

    # Warm engine vs cold scalar rows.
    warm_eng = Engine(snapshot=snap)
    _compare_rows(report, "warm/engine",
                  [warm_eng.format(v, fmt=fmt) for v in values],
                  scalar, values)
    report.check("warm/engine-clean-restore")
    if warm_eng.stats()["snapshot_faults"]:
        report.record("warm/engine-clean-restore", values[0],
                      "the battery's own snapshot was rejected")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "warm.snap")
        save_snapshot(snap, path)
        with BulkPool(jobs=jobs, fmt=fmt) as cold:
            want_payload = cold.format_bulk(packed)
        with BulkPool(jobs=jobs, fmt=fmt, snapshot=path) as warm:
            got_payload = warm.format_bulk(packed)
            report.check("warm/pool-format")
            if got_payload != want_payload:
                report.record("warm/pool-format", values[0],
                              f"payload differs ({len(got_payload)} vs "
                              f"{len(want_payload)} bytes)")
            _compare_rows(report, "warm/pool-read",
                          warm.read_bulk(want_payload),
                          [v.to_bits() for v in
                           donor.read_many(scalar, fmt)], values)
            stats = warm.stats()
            report.check("warm/pool-clean-restore")
            if stats["snapshot_faults"]:
                report.record("warm/pool-clean-restore", values[0],
                              f"{stats['snapshot_faults']} snapshot "
                              f"faults on a valid file")

        # Corrupt fallback: flip one payload byte mid-file.  The pool
        # must serve identical bytes cold and count the rejection.
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[len(blob) // 2] ^= 0x40
        bad = os.path.join(tmp, "corrupt.snap")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with BulkPool(jobs=jobs, fmt=fmt, snapshot=bad) as pool:
            got_payload = pool.format_bulk(packed)
            report.check("warm/corrupt-fallback")
            if got_payload != want_payload:
                report.record("warm/corrupt-fallback", values[0],
                              "corrupt snapshot changed output bytes")
            report.check("warm/corrupt-counted")
            if not pool.stats()["snapshot_faults"]:
                report.record("warm/corrupt-counted", values[0],
                              "corrupt snapshot was not counted")
    return report


# ----------------------------------------------------------------------
# The buffer battery: the byte-plane pipeline against the scalar engines
# ----------------------------------------------------------------------

def verify_buffer(fmt: FloatFormat = BINARY64, n: int = 50000,
                  seed: int = 0) -> VerificationReport:
    """Byte/bit-identity of the byte-plane pipeline
    (:mod:`repro.engine.buffer`) against the scalar engines.

    The pipeline never materializes per-row ``Flonum`` objects — tokens
    stay ``bytes`` until the distinct ones are decoded, and conversions
    come back as bit patterns — but must reproduce the scalar results
    exactly.  Oracles and legs:

    * **emit** — :func:`~repro.engine.buffer.format_buffer` on the
      packed column (and the bit list, with dedup off, into a prepared
      :class:`~repro.serve.DelimitedWriter`, and with a CRLF delimiter)
      against the joined scalar :meth:`Engine.format` rows;
    * **parse** — :func:`~repro.engine.buffer.parse_buffer` of the
      payload against a memo-free scalar
      :meth:`ReadEngine.read_result` per row, with *per-tier mismatch
      attribution*: each row's check is tagged by the tier the scalar
      reader resolved it with (``buffer/parse/tier0`` …), so a
      divergence localizes to the lane that produced it.  The plane is
      parsed twice through one engine whose memo holds it whole: the
      second pass (``buffer/parse-memo/…``) must be served entirely by
      the memo, once per distinct row;
    * **split** — :func:`~repro.engine.buffer.split_plane` /
      :func:`~repro.engine.buffer.split_rows` edge cases: trailing
      terminator, unterminated trailing token, CRLF and multi-byte
      delimiters, empty plane, non-bytes input.

    The sample is the signed round-trip population
    (:func:`roundtrip_values`: denormals, rail-hugging powers, both
    zeros) plus NaN and both infinities.
    """
    from repro.engine.buffer import (format_buffer, parse_buffer,
                                     split_plane, split_rows)
    from repro.engine.reader import ReadEngine
    from repro.errors import DecodeError
    from repro.serve import DelimitedWriter, pack_bits

    report = VerificationReport(format_name=f"{fmt.name} buffer")
    eng = Engine()
    values = sample_with_specials(fmt, n, seed)
    report.checked = len(values)
    bits = [v.to_bits() for v in values]
    packed = pack_bits(bits, fmt)
    scalar = [eng.format(v, fmt=fmt) for v in values]
    want_payload = ("\n".join(scalar) + "\n").encode("ascii")

    # --- emit legs -----------------------------------------------------
    for tag, got in (
            ("buffer/format-packed",
             format_buffer(packed, fmt, engine=eng)),
            ("buffer/format-bits",
             format_buffer(bits, fmt, engine=eng)),
            ("buffer/format-nodedup",
             format_buffer(packed, fmt, engine=eng, dedup=False)),
            ("buffer/format-writer",
             format_buffer(packed, fmt, engine=eng,
                           writer=DelimitedWriter(b"\n")))):
        report.check(tag)
        if got != want_payload:
            report.record(tag, values[0],
                          f"payload differs ({len(got)} vs "
                          f"{len(want_payload)} bytes)")
    report.check("buffer/format-crlf")
    got = format_buffer(packed, fmt, engine=eng, delimiter=b"\r\n")
    if got != ("\r\n".join(scalar) + "\r\n").encode("ascii"):
        report.record("buffer/format-crlf", values[0], "payload differs")

    # --- parse legs, tier-attributed; the second pass through the same
    #     engine is served by its memo -----------------------------------
    oracle = ReadEngine(cache_size=0)  # memo off: true tier per row
    results = [oracle.read_result(t, fmt) for t in scalar]
    want_bits = [r.value.to_bits() for r in results]
    reader = ReadEngine(cache_size=len(values))  # holds the whole plane
    for leg in ("buffer/parse", "buffer/parse-memo"):
        reader.reset_stats()
        got_bits = parse_buffer(want_payload, fmt, engine=reader)
        if len(got_bits) != len(want_bits):
            report.check(leg)
            report.record(leg, values[0],
                          f"row count {len(got_bits)} != {len(want_bits)}")
            continue
        for i, (g, w, r) in enumerate(zip(got_bits, want_bits, results)):
            tag = f"{leg}/{r.tier}"
            report.check(tag)
            if g != w:
                report.record(tag, values[i],
                              f"row {i} ({scalar[i]!r}): "
                              f"{g:#x} != {w:#x}")
    report.check("buffer/parse-memo")
    stats = reader.stats()
    if (stats["read_cache_hits"] != len(set(scalar))
            or stats["read_conversions"] != stats["read_cache_hits"]):
        report.record("buffer/parse-memo", values[0],
                      f"second pass: {stats['read_cache_hits']} memo hits "
                      f"of {stats['read_conversions']} conversions, "
                      f"{len(set(scalar))} distinct rows")
    _compare_rows(report, "buffer/parse-nodedup",
                  parse_buffer(want_payload, fmt, dedup=False),
                  want_bits, values)
    _compare_rows(report, "buffer/parse-flonums",
                  [v.to_bits() for v in parse_buffer(want_payload, fmt,
                                                     out="flonums")],
                  want_bits, values)
    crlf = ("\r\n".join(scalar) + "\r\n").encode("ascii")
    _compare_rows(report, "buffer/parse-crlf",
                  parse_buffer(crlf, fmt, delimiter=b"\r\n"),
                  want_bits, values)
    _compare_rows(report, "buffer/parse-roundtrip", want_bits, bits,
                  values)

    # --- splitter edge cases -------------------------------------------
    report.check("buffer/split")
    head = scalar[:3]
    cases = []
    for delim in ("\n", "\r\n", "||"):
        body = delim.join(head)
        cases.append((body + delim, delim, head))       # terminated
        cases.append((body, delim, head))               # unterminated tail
    cases.append(("", "\n", []))                        # empty plane
    for text, delim, want_rows in cases:
        plane, starts, lengths = split_plane(text.encode("ascii"), delim)
        rows = [plane[s:s + w].decode("ascii")
                for s, w in zip(starts, lengths)]
        if rows != want_rows or split_rows(text, delim) != want_rows:
            report.record("buffer/split", values[0],
                          f"{text!r} split on {delim!r}: {rows!r}")
    try:
        split_rows(object())
        report.record("buffer/split", values[0],
                      "non-bytes input did not raise DecodeError")
    except DecodeError:
        pass
    except Exception as exc:
        report.record("buffer/split", values[0],
                      f"non-bytes input raised {exc!r}, not DecodeError")
    return report


# ----------------------------------------------------------------------
# The chaos battery: bulk byte-identity under injected faults
# ----------------------------------------------------------------------

def _chaos_plans(seed: int):
    """The named fault plans the chaos battery replays, one fresh
    :class:`~repro.faults.FaultPlan` per call (plans are stateful)."""
    from repro.faults import FaultPlan, FaultSpec, smoke_plan

    yield "crash", FaultPlan([
        FaultSpec("pool.format_shard", "crash", shard=1),
        FaultSpec("pool.read_shard", "crash", shard=2),
    ], seed), {}
    yield "stall", FaultPlan([
        FaultSpec("pool.format_shard", "stall", shard=0, stall=0.8),
        FaultSpec("pool.read_shard", "stall", shard=1, stall=0.8),
    ], seed), {"deadline": 0.3}
    yield "corrupt", FaultPlan([
        FaultSpec("pool.format_shard", "corrupt", shard=2),
        FaultSpec("pool.read_shard", "corrupt", shard=0),
    ], seed), {}
    # Every spec must fire even on a few hundred values (a worker may
    # see only ~40 calls of a site); the limit bounds the healing cost
    # on large corpora.
    yield "tier-raise", FaultPlan([
        FaultSpec("engine.tier0", rate=0.2, limit=64),
        FaultSpec("engine.schubfach", rate=0.2, limit=64),
        FaultSpec("reader.tier0", rate=0.2, limit=64),
        FaultSpec("reader.tier1", rate=0.2, limit=64),
    ], seed), {}
    yield "mixed", smoke_plan(seed), {}


def verify_chaos(fmt: FloatFormat = BINARY64, n: int = 50000, seed: int = 0,
                 jobs: int = 2) -> VerificationReport:
    """The bulk byte-identity battery replayed under injected faults.

    For each named fault plan (worker crash, shard stall past its
    deadline, payload corruption in transit, fast tiers raising
    mid-certification, and a mixed plan), format and re-read the signed
    round-trip sample through a process :class:`~repro.serve.BulkPool`
    with the plan armed, and enforce the three fault-tolerance
    contracts:

    * **byte identity** — both directions must match the fault-free
      scalar oracle exactly; a fault may cost retries, never a byte;
    * **accounting** — every injected fault is visible afterwards:
      parent-side pool faults in the recovery counters
      (``shard_failures``/``deadline_hits``/``corrupt_shards``),
      in-worker tier faults in the merged ``tier_faults`` /
      ``read_tier_faults`` engine counters;
    * **typed errors only** — when a failure is made unrecoverable
      (persistent faults under ``on_error="raise"``, an exhausted
      ``budget``, a strict engine), what escapes is the documented
      :class:`~repro.errors.ReproError` subclass and nothing else.
    """
    from repro import faults
    from repro.errors import (DeadlineExceededError, ReproError,
                              ShardError)
    from repro.serve import BulkPool, pack_bits
    from repro.serve.pool import INLINE_ROWS

    report = VerificationReport(format_name=f"{fmt.name} chaos")
    eng = Engine()
    values = sample_with_specials(fmt, n, seed, min_rows=INLINE_ROWS)
    report.checked = len(values)
    bits = [v.to_bits() for v in values]
    packed = pack_bits(bits, fmt)
    scalar = [eng.format(v, fmt=fmt) for v in values]
    want_payload = ("\n".join(scalar) + "\n").encode("ascii")
    want_bits = [v.to_bits() for v in eng.read_many(scalar, fmt)]

    for name, plan, pool_kw in _chaos_plans(seed):
        tag = f"chaos/{name}"
        stats = None
        try:
            with BulkPool(jobs=jobs, fmt=fmt, **pool_kw) as pool:
                with faults.armed(plan):
                    got_payload = pool.format_bulk(packed)
                    got_bits = pool.read_bulk(want_payload)
                stats = pool.stats()
        except ReproError as exc:
            report.check(tag)
            report.record(tag, values[0], f"did not heal: {exc!r}")
            continue
        except Exception as exc:  # the cardinal sin: an untyped escape
            report.check(tag)
            report.record(tag, values[0],
                          f"non-ReproError escaped: {exc!r}")
            continue
        report.check(tag)
        if got_payload != want_payload:
            report.record(tag, values[0],
                          f"format payload differs ({len(got_payload)} "
                          f"vs {len(want_payload)} bytes)")
        _compare_rows(report, f"{tag}-read", got_bits, want_bits, values)
        # Accounting: every injected fault is visible somewhere, and
        # every spec of the plan fired (workers report their call-site
        # firings back with their shards).
        report.check("chaos/accounting")
        with plan._lock:
            pool_fired = sum(plan.fired.get(s, 0) for s in faults.POOL_SITES)
            call_fired = sum(plan.fired.get(s, 0) for s in faults.CALL_SITES)
        recovered = (stats["shard_failures"] + stats["corrupt_shards"]
                     + stats["deadline_hits"])
        healed = (stats.get("tier_faults", 0)
                  + stats.get("read_tier_faults", 0))
        if pool_fired and recovered < pool_fired:
            report.record("chaos/accounting", values[0],
                          f"{name}: {pool_fired} pool faults fired but "
                          f"only {recovered} recoveries counted")
        if healed < call_fired:
            report.record("chaos/accounting", values[0],
                          f"{name}: {call_fired} lane faults fired but "
                          f"only {healed} healings counted")
        for spec, fired in zip(plan.specs, plan.spec_fired()):
            if not fired:
                report.record("chaos/accounting", values[0],
                              f"{name}: {spec.site} spec never fired "
                              f"(dead chaos spec)")

    # Unrecoverable failures surface as the documented typed errors.
    report.check("chaos/typed-shard-error")
    plan = faults.FaultPlan([faults.FaultSpec(
        "pool.format_shard", "raise", shard=0, attempt=None, limit=None)],
        seed)
    try:
        with BulkPool(jobs=jobs, fmt=fmt, kind="thread", on_error="raise",
                      retries=1) as pool:
            with faults.armed(plan):
                pool.format_bulk(packed)
        report.record("chaos/typed-shard-error", values[0],
                      "persistent shard fault did not raise")
    except ShardError as exc:
        if exc.shard != 0 or exc.attempts < 2:
            report.record("chaos/typed-shard-error", values[0],
                          f"bad attribution: shard={exc.shard} "
                          f"attempts={exc.attempts}")
    except Exception as exc:
        report.record("chaos/typed-shard-error", values[0],
                      f"wrong error type: {exc!r}")

    report.check("chaos/typed-deadline")
    plan = faults.FaultPlan([faults.FaultSpec(
        "pool.format_shard", "stall", attempt=None, stall=0.4,
        limit=None)], seed)
    try:
        with BulkPool(jobs=jobs, fmt=fmt, budget=0.5) as pool:
            with faults.armed(plan):
                pool.format_bulk(packed)
        report.record("chaos/typed-deadline", values[0],
                      "exhausted budget did not raise")
    except DeadlineExceededError:
        pass
    except Exception as exc:
        report.record("chaos/typed-deadline", values[0],
                      f"wrong error type: {exc!r}")

    # Strict mode re-raises the injected fault instead of healing.
    report.check("chaos/strict")
    strict_eng = Engine(strict=True)
    plan = faults.FaultPlan([
        faults.FaultSpec("engine.tier0", at=(0,)),
        faults.FaultSpec("engine.schubfach", at=(0,)),
    ], seed)
    raised = False
    try:
        with faults.armed(plan):
            for v in values[:64]:
                if v.is_finite and not v.is_zero:
                    strict_eng.format(v, fmt=fmt)
    except faults.InjectedFault:
        raised = True
    except Exception as exc:
        report.record("chaos/strict", values[0],
                      f"strict engine raised {exc!r} instead of the "
                      f"injected fault")
        raised = True
    if not raised:
        report.record("chaos/strict", values[0],
                      "strict engine healed an injected fault")
    return report


# ----------------------------------------------------------------------
# The serve battery: the wire against the scalar engine
# ----------------------------------------------------------------------

def verify_serve(fmt: FloatFormat = BINARY64, n: int = 50000,
                 seed: int = 0, jobs: int = 2) -> VerificationReport:
    """Byte-identity of the serving daemon's wire against the scalar
    engine — the source paper's guarantee re-proven at the protocol
    boundary.

    Boots one loopback :class:`~repro.serve.daemon.ReproDaemon` and
    drives the signed round-trip sample (plus NaN and both infinities)
    through it in ~2048-row requests:

    * **serve/format** — packed bit patterns over the wire; every
      response plane must equal the scalar :meth:`Engine.format` rows
      joined with the delimiter, byte for byte;
    * **serve/read** — the scalar plane back over the wire; every
      response must equal the packed scalar
      :meth:`ReadEngine.read_many` bits;
    * **serve/pipeline** — a pre-encoded burst of mixed format/read
      frames on one connection; responses must come back in FIFO
      request order with the same byte identity (this is the leg that
      exercises micro-batch coalescing and split-back);
    * **serve/errors** — a garbage literal, a misaligned format
      payload and an unknown format name must each come back as the
      documented typed :class:`~repro.errors.ReproError` response with
      the connection still serving afterwards.
    """
    from repro.errors import (DecodeError, ParseError, ProtocolError,
                              ReproError)
    from repro.serve import pack_bits, protocol, serving
    from repro.serve.client import ServeClient
    from repro.serve.pool import INLINE_ROWS

    report = VerificationReport(format_name=f"{fmt.name} serve")
    eng = Engine()
    values = sample_with_specials(fmt, n, seed, min_rows=INLINE_ROWS)
    report.checked = len(values)
    bits = [v.to_bits() for v in values]
    packed = pack_bits(bits, fmt)
    itemsize = len(packed) // len(bits)
    scalar = [eng.format(v, fmt=fmt) for v in values]
    want_bits = [v.to_bits() for v in eng.read_many(scalar, fmt)]

    spans = _chunk_spans(len(values))

    def plane_of(a: int, b: int) -> bytes:
        return ("\n".join(scalar[a:b]) + "\n").encode("ascii")

    def bits_of(a: int, b: int) -> bytes:
        return pack_bits(want_bits[a:b], fmt)

    with serving(jobs=jobs, kind="thread", batch_window=0.001) as daemon:
        with ServeClient(daemon.host, daemon.port) as client:
            for a, b in spans:
                tag = "serve/format"
                try:
                    got = client.format(packed[a * itemsize:b * itemsize],
                                        fmt.name)
                except ReproError as exc:
                    report.check(tag)
                    report.record(tag, values[a], f"typed error: {exc!r}")
                    continue
                _compare_rows(report, tag, got.split(b"\n")[:-1],
                              plane_of(a, b).split(b"\n")[:-1],
                              values[a:b])
            for a, b in spans:
                tag = "serve/read"
                try:
                    got = client.read(plane_of(a, b), fmt.name)
                except ReproError as exc:
                    report.check(tag)
                    report.record(tag, values[a], f"typed error: {exc!r}")
                    continue
                report.check(tag)
                if got != bits_of(a, b):
                    report.record(tag, values[a],
                                  f"packed bits differ ({len(got)} vs "
                                  f"{len(bits_of(a, b))} bytes)")

            # Pipelined mixed burst: FIFO identity through coalescing.
            burst = spans[:8]
            frames = []
            want = []
            for a, b in burst:
                frames.append(protocol.encode_request(
                    protocol.OP_FORMAT, packed[a * itemsize:b * itemsize],
                    fmt.name, b"\n"))
                want.append(plane_of(a, b))
                frames.append(protocol.encode_request(
                    protocol.OP_READ, plane_of(a, b), fmt.name, b"\n"))
                want.append(bits_of(a, b))
            try:
                responses = client.pipeline(frames)
            except ReproError as exc:
                report.check("serve/pipeline")
                report.record("serve/pipeline", values[0],
                              f"burst failed: {exc!r}")
            else:
                for i, ((status, payload), w) in enumerate(
                        zip(responses, want)):
                    report.check("serve/pipeline")
                    if status != protocol.STATUS_OK or payload != w:
                        report.record("serve/pipeline", values[0],
                                      f"response {i}: status={status}, "
                                      f"{len(payload)} vs {len(w)} bytes")

        # Typed-error legs on a fresh connection; it must keep serving.
        with ServeClient(daemon.host, daemon.port) as client:
            for tag, call, wanted in (
                ("serve/errors-parse",
                 lambda: client.read(b"1.5\nnot a number\n", fmt.name),
                 ParseError),
                ("serve/errors-align",
                 lambda: client.format(b"\x00" * (itemsize + 1), fmt.name),
                 DecodeError),
                ("serve/errors-format",
                 lambda: client.send_raw(protocol.encode_request(
                     protocol.OP_FORMAT, b"", "bogus!", b"\n"))
                 or client._response(),
                 ProtocolError),
            ):
                report.check(tag)
                try:
                    call()
                    report.record(tag, values[0], "no error response")
                except wanted:
                    pass
                except Exception as exc:
                    report.record(tag, values[0],
                                  f"wrong error type: {exc!r}")
            report.check("serve/errors-alive")
            try:
                if client.format(packed[:8 * itemsize], fmt.name) \
                        != plane_of(0, 8):
                    report.record("serve/errors-alive", values[0],
                                  "post-error response differs")
            except Exception as exc:
                report.record("serve/errors-alive", values[0],
                              f"connection died after typed errors: "
                              f"{exc!r}")
    return report


# ----------------------------------------------------------------------
# The control battery: the self-healing control plane under fire
# ----------------------------------------------------------------------

def verify_control(fmt: FloatFormat = BINARY64, n: int = 50000,
                   seed: int = 0, jobs: int = 2) -> VerificationReport:
    """The self-healing control plane replayed under the chaos plans.

    The contract mirrors the chaos battery's, lifted to the daemon with
    breakers, adaptive admission and the traffic observer armed: the
    control plane may *shed* or *reroute*, never change a byte.

    * **control/breaker** — the circuit-breaker state machine on a fake
      clock: trip after the threshold, shed while open, a single canary
      in half-open (concurrent arrivals shed, not queued), close on
      canary success with backoff reset, re-open on canary failure with
      the full doubled backoff;
    * **control/daemon-breaker** — the same machine on the wire: a
      persistently broken pool trips the breaker after exactly
      ``threshold`` typed failures, subsequent requests shed as
      :class:`ServeOverloadError` without touching the pool, and after
      the (fake-clock) backoff one canary heals the key with
      byte-identical responses;
    * **control/chaos** — the crash/stall/corrupt plans replayed
      through a controlled daemon: byte identity against the scalar
      oracle, a bounded shed rate, and no breaker transitions when the
      pool heals underneath (faults that recover must not trip);
    * **control/admission** — the AIMD controller: p99 above target
      halves the window down to its floor, p99 below grows it back to
      the ceiling, and the daemon's static caps stay hard ceilings;
    * **control/hedge** — the dedicated hedge leg: with hedging opted
      in under an armed stall plan, the straggling shard's duplicate
      wins, ``hedges``/``hedge_wins`` account for it, and the plane is
      byte-identical;
    * **control/rotation** — live snapshot rotation: traffic triggers
      an atomic rebuild from observed hot keys, the rotation is
      counted, responses before and after are byte-identical, and an
      engine warmed from the rotated snapshot matches a cold engine
      byte for byte;
    * **control/health** — the ``HEALTH`` opcode returns breaker
      states, the controller window and the observer summary over the
      wire while regular traffic is being shed.
    """
    import os
    import tempfile
    import time as _time

    from repro import faults
    from repro.errors import ReproError, ServeOverloadError, ShardError
    from repro.serve import pack_bits, serving
    from repro.serve.client import ServeClient
    from repro.serve.control import (AdmissionController, CircuitBreaker,
                                     ADMIT, CANARY, SHED)
    from repro.serve.pool import INLINE_ROWS, BulkPool

    report = VerificationReport(format_name=f"{fmt.name} control")
    eng = Engine()
    values = sample_with_specials(fmt, n, seed, min_rows=INLINE_ROWS)
    report.checked = len(values)
    bits = [v.to_bits() for v in values]
    packed = pack_bits(bits, fmt)
    itemsize = len(packed) // len(bits)
    scalar = [eng.format(v, fmt=fmt) for v in values]

    spans = _chunk_spans(len(values))

    def plane_of(a: int, b: int) -> bytes:
        return ("\n".join(scalar[a:b]) + "\n").encode("ascii")

    # -- control/breaker: the state machine on a fake clock ----------
    tag = "control/breaker"
    now = [0.0]
    brk = CircuitBreaker(threshold=3, reset_timeout=1.0,
                         clock=lambda: now[0])
    report.check(tag)
    trace = []
    for _ in range(3):
        trace.append(brk.admit() == ADMIT)
        brk.record(False)
    trace.append(brk.state == "open")
    trace.append(brk.admit() == SHED)          # open: shed immediately
    now[0] = 0.5
    trace.append(brk.admit() == SHED)          # still inside the backoff
    now[0] = 1.0
    trace.append(brk.admit() == CANARY)        # half-open: one probe
    trace.append(brk.admit() == SHED)          # concurrent: shed, not queued
    brk.record(False, canary=True)             # canary fails
    trace.append(brk.state == "open")          # re-opened...
    now[0] = 2.0                               # ...with the FULL doubled
    trace.append(brk.admit() == SHED)          # backoff (2s), not 1s
    now[0] = 3.0
    trace.append(brk.admit() == CANARY)
    brk.record(True, canary=True)              # canary heals
    trace.append(brk.state == "closed")
    trace.append(brk.admit() == ADMIT)
    snap = brk.snapshot()
    trace.append(snap["trips"] == 1 and snap["reopens"] == 1
                 and snap["closes"] == 1 and snap["canaries"] == 2
                 and snap["reset_timeout"] == 1.0)  # backoff reset
    if not all(trace):
        report.record(tag, values[0],
                      f"state-machine trace failed: {trace}")

    # -- control/admission: AIMD window against the SLO target -------
    tag = "control/admission"
    report.check(tag)
    ctl = AdmissionController(target_p99_ms=10.0, ceiling_bytes=1 << 20,
                              floor_bytes=1 << 16, step_bytes=1 << 18,
                              window=64, adjust_every=16)
    for _ in range(16 * 8):
        ctl.observe(0.050)                     # 50ms >> 10ms target
    shrunk = ctl.limit_bytes
    for _ in range(16 * 16):
        ctl.observe(0.001)                     # 1ms << target
    grown = ctl.limit_bytes
    if not (shrunk == ctl.floor_bytes and grown == ctl.ceiling_bytes
            and ctl.decreases >= 1 and ctl.increases >= 1):
        report.record(tag, values[0],
                      f"AIMD window wrong: shrunk={shrunk} grown={grown} "
                      f"(floor={ctl.floor_bytes} "
                      f"ceiling={ctl.ceiling_bytes}, "
                      f"-{ctl.decreases}/+{ctl.increases})")

    # -- control/daemon-breaker: trip, shed, heal on the wire --------
    tag = "control/daemon-breaker"
    plan = faults.FaultPlan([faults.FaultSpec(
        "pool.format_shard", "raise", attempt=None, limit=None)], seed)
    with serving(jobs=1, kind="thread", batch_window=0.0,
                 on_error="raise", retries=0, breaker_threshold=3,
                 breaker_reset=1.0, clock=lambda: now[0]) as daemon:
        with ServeClient(daemon.host, daemon.port) as client:
            span = packed[:INLINE_ROWS * itemsize]
            with faults.armed(plan):
                for i in range(3):
                    report.check(tag)
                    try:
                        client.format(span, fmt.name)
                        report.record(tag, values[0],
                                      f"failure {i} did not surface")
                    except ReproError as exc:
                        # ShardError's structured signature degrades to
                        # the base class on the wire; the name travels
                        # in the message.
                        if not (isinstance(exc, ShardError)
                                or "ShardError" in str(exc)):
                            report.record(tag, values[0],
                                          f"failure {i}: wrong type "
                                          f"{exc!r}")
                report.check(tag)
                try:
                    client.format(span, fmt.name)
                    report.record(tag, values[0],
                                  "open breaker admitted a request")
                except ServeOverloadError:
                    pass
                except ReproError as exc:
                    report.record(tag, values[0],
                                  f"open breaker: wrong type {exc!r}")
            # Fault cleared; advance the fake clock past the backoff:
            # the next request is the canary and must heal the key.
            now[0] += 1.5
            report.check(tag)
            try:
                got = client.format(span, fmt.name)
                if got != plane_of(0, INLINE_ROWS):
                    report.record(tag, values[0],
                                  "canary response differs from oracle")
            except ReproError as exc:
                report.record(tag, values[0], f"canary failed: {exc!r}")
            stats = daemon.stats()
            report.check(tag)
            if not (stats["breaker_trips"] == 1
                    and stats["breaker_sheds"] >= 1
                    and stats["breaker_canaries"] == 1
                    and stats["breaker_closes"] == 1):
                report.record(tag, values[0],
                              f"unaccounted transitions: "
                              f"trips={stats['breaker_trips']} "
                              f"sheds={stats['breaker_sheds']} "
                              f"canaries={stats['breaker_canaries']} "
                              f"closes={stats['breaker_closes']}")

    # -- control/chaos: the chaos plans through the control plane ----
    for name, plan, pool_kw in _chaos_plans(seed):
        if name in ("tier-raise", "mixed"):
            continue  # in-worker tiers are the chaos battery's beat
        tag = f"control/chaos-{name}"
        with serving(jobs=jobs, kind="process", batch_window=0.0,
                     retries=3, breaker_threshold=5,
                     slo_target_ms=5000.0, observe_stride=1,
                     **pool_kw) as daemon:
            with ServeClient(daemon.host, daemon.port) as client:
                with faults.armed(plan):
                    for a, b in spans[:4]:
                        report.check(tag)
                        try:
                            got = client.format(
                                packed[a * itemsize:b * itemsize],
                                fmt.name)
                        except ReproError as exc:
                            report.record(tag, values[a],
                                          f"did not heal: {exc!r}")
                            continue
                        if got != plane_of(a, b):
                            report.record(tag, values[a],
                                          "plane differs under chaos")
                stats = daemon.stats()
            report.check(tag)
            requests = max(1, stats["requests"])
            shed = stats["overloads"]
            if shed > requests * 0.5:
                report.record(tag, values[0],
                              f"unbounded shedding: {shed}/{requests}")
            if stats["breaker_trips"] != 0:
                report.record(tag, values[0],
                              f"healing faults tripped the breaker "
                              f"{stats['breaker_trips']}x")

    # -- control/hedge: the dedicated hedge leg ----------------------
    tag = "control/hedge"
    report.check(tag)
    plan = faults.FaultPlan([faults.FaultSpec(
        "pool.format_shard", "stall", shard=0, attempt=0, stall=0.8)],
        seed)
    span = packed[:INLINE_ROWS * itemsize]
    try:
        with BulkPool(jobs=2, kind="thread", fmt=fmt, deadline=5.0,
                      hedge=True, hedge_min=0.05,
                      hedge_with_faults=True) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(span)
            stats = pool.stats()
        if got != plane_of(0, INLINE_ROWS):
            report.record(tag, values[0], "hedged plane differs")
        if stats["hedges"] < 1 or stats["hedge_wins"] < 1:
            report.record(tag, values[0],
                          f"hedge unaccounted: hedges={stats['hedges']} "
                          f"wins={stats['hedge_wins']}")
    except ReproError as exc:
        report.record(tag, values[0], f"hedge leg failed: {exc!r}")

    # -- control/rotation: live snapshot rotation --------------------
    tag = "control/rotation"
    report.check(tag)
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "rotated.snap")
        with serving(jobs=1, kind="thread", batch_window=0.0,
                     rotate_snapshot=path, rotate_every=64,
                     observe_stride=1) as daemon:
            with ServeClient(daemon.host, daemon.port) as client:
                a, b = spans[0]
                before = client.format(packed[a * itemsize:b * itemsize],
                                       fmt.name)
                deadline = _time.monotonic() + 10.0
                while (daemon.stats()["snapshot_rotations"] == 0
                       and _time.monotonic() < deadline):
                    _time.sleep(0.01)
                after = client.format(packed[a * itemsize:b * itemsize],
                                      fmt.name)
            rotations = daemon.stats()["snapshot_rotations"]
        if rotations < 1:
            report.record(tag, values[0], "rotation never happened")
        elif not os.path.exists(path):
            report.record(tag, values[0], "rotation counted but no file")
        if before != after or before != plane_of(a, b):
            report.record(tag, values[0],
                          "rotation changed response bytes")
        # A rotated snapshot may only skip work, never change bytes:
        # an engine warmed from it must match the cold oracle exactly.
        if os.path.exists(path):
            warm = Engine(snapshot=path)
            for i, v in enumerate(values[:512]):
                report.check(tag)
                got = warm.format(v, fmt=fmt)
                if got != scalar[i]:
                    report.record(tag, v,
                                  f"warm {got!r} != cold {scalar[i]!r}")

    # -- control/health: the HEALTH opcode over the wire -------------
    tag = "control/health"
    report.check(tag)
    with serving(jobs=1, kind="thread", batch_window=0.0,
                 breaker_threshold=3, slo_target_ms=100.0,
                 observe_stride=1) as daemon:
        with ServeClient(daemon.host, daemon.port) as client:
            client.format(packed[:32 * itemsize], fmt.name)
            try:
                health = client.health()
            except ReproError as exc:
                report.record(tag, values[0], f"HEALTH failed: {exc!r}")
            else:
                if not (isinstance(health.get("breakers"), dict)
                        and isinstance(health.get("admission"), dict)
                        and isinstance(health.get("observer"), dict)
                        and health["observer"].get("requests", 0) >= 1
                        and "limit_bytes" in health["admission"]):
                    report.record(tag, values[0],
                                  f"malformed health payload: "
                                  f"{sorted(health)}")
    return report


# ----------------------------------------------------------------------
# CLI: ``python -m repro.verify`` (the nightly fuzz entry point)
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    """Run the battery from the command line; exit 1 on any mismatch."""
    import argparse

    from repro.floats.formats import STANDARD_FORMATS

    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential verification battery: every printing "
                    "tier against independent oracles.")
    parser.add_argument("--n", type=int, default=None,
                        help="values sampled per format (default 200; "
                             "50000 with the deep batteries: --roundtrip/"
                             "--bulk/--buffer/--chaos/--serve/--warm/"
                             "--control)")
    parser.add_argument("--seed", default="0",
                        help="sample seed: an integer, or 'fresh' for a "
                             "new random seed (nightly fuzz; the chosen "
                             "seed is printed for reproduction)")
    parser.add_argument("--formats", nargs="*", metavar="NAME",
                        default=["binary16", "binary32", "binary64"],
                        choices=sorted(STANDARD_FORMATS),
                        help="formats to verify (default: binary16/32/64)")
    parser.add_argument("--roundtrip", action="store_true",
                        help="run the print↔parse round-trip battery "
                             "(tiered read engine + host float() oracle) "
                             "instead of the printing battery")
    parser.add_argument("--bulk", action="store_true",
                        help="run the bulk serving-layer battery: every "
                             "columnar/pooled route must be byte-identical "
                             "to the scalar engine")
    parser.add_argument("--buffer", action="store_true",
                        help="run the byte-plane pipeline battery: "
                             "parse_buffer/format_buffer must be byte/bit-"
                             "identical to the scalar engines, with "
                             "per-tier mismatch attribution")
    parser.add_argument("--chaos", action="store_true",
                        help="run the chaos battery: the bulk byte-identity "
                             "checks under injected worker crashes, shard "
                             "stalls, payload corruption and fast-tier "
                             "raises")
    parser.add_argument("--serve", action="store_true",
                        help="run the serving battery: loopback daemon "
                             "round trips (format and read ops, pipelined "
                             "bursts, typed error responses) must be byte-"
                             "identical to the scalar engine")
    parser.add_argument("--warm", action="store_true",
                        help="run the warm-start battery: snapshot-warmed "
                             "engines and pools must be byte-identical to "
                             "cold ones, and corrupt snapshots must fall "
                             "back cold (counted, never served)")
    parser.add_argument("--contenders", action="store_true",
                        help="run the default-route battery: tier 0 then "
                             "Schubfach, scalar and format_many, must be "
                             "byte-identical to the exact tier with zero "
                             "exact-tier consultations")
    parser.add_argument("--control", action="store_true",
                        help="run the control-plane battery: circuit "
                             "breakers, hedged shards, adaptive admission "
                             "and live snapshot rotation replayed under "
                             "the chaos plans — shed or reroute, never "
                             "change a byte")
    args = parser.parse_args(argv)
    if sum((args.roundtrip, args.bulk, args.buffer, args.chaos,
            args.serve, args.warm, args.contenders, args.control)) > 1:
        parser.error("--roundtrip, --bulk, --buffer, --chaos, --serve, "
                     "--warm, --contenders and --control are separate "
                     "batteries")
    seed = (random.SystemRandom().randrange(2**32) if args.seed == "fresh"
            else int(args.seed))
    deep = (args.roundtrip or args.bulk or args.buffer or args.chaos
            or args.serve or args.warm or args.contenders or args.control)
    n = args.n if args.n is not None else (50000 if deep else 200)
    if args.control:
        battery, kind = verify_control, "control"
    elif args.contenders:
        battery, kind = verify_contenders, "contenders"
    elif args.warm:
        battery, kind = verify_warm, "warm"
    elif args.serve:
        battery, kind = verify_serve, "serve"
    elif args.chaos:
        battery, kind = verify_chaos, "chaos"
    elif args.buffer:
        battery, kind = verify_buffer, "buffer"
    elif args.bulk:
        battery, kind = verify_bulk, "bulk"
    elif args.roundtrip:
        battery, kind = verify_roundtrip, "round-trip"
    else:
        battery, kind = verify_format, "verification"
    print(f"{kind} battery: n={n} seed={seed} "
          f"formats={','.join(args.formats)}")
    failures = 0
    for name in args.formats:
        report = battery(STANDARD_FORMATS[name], n, seed)
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
