"""Seeded input generation: the same seed always gives the same bytes.

Everything here uses :class:`random.Random` seeded from the workload
seed and a per-purpose label, plus :mod:`struct` for bit patterns, so
the inputs do not depend on any module of the program under test.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Dict, List, Sequence, Tuple

#: Values per ``format_many`` / ``read_many`` call on ``engine_strata``,
#: the same row count a serve request carries.
BATCH = 64

#: Distinct values in each write stratum and read band.
STRATUM_SIZE = 6000
READ_BAND_SIZE = 9000

#: The engine's default memo holds 8192 entries; the zipf universe is
#: several times larger so a steady tail of rows misses it.  Rank ``r``
#: is drawn with weight ``1 / (r + 1 + ZIPF_Q) ** ZIPF_S``: the offset
#: keeps the single hottest value from deciding a plane's bytes per row.
ZIPF_UNIVERSE = 40960
ZIPF_S = 1.3
ZIPF_Q = 4

#: ``plane_zipf``: rows per ``format_buffer`` call and calls per pass.
PLANE_ROWS = 512
PLANE_CHUNKS = 512

#: ``serve_*``: rows per request and distinct request templates.
REQUEST_ROWS = 64
REQUEST_TEMPLATES = 512

WRITE_STRATA = ("uniform64", "integer", "short_decimal", "subnormal",
                "pow2_boundary", "uniform32")
READ_BANDS = ((1, 7), (8, 15), (16, 17), (18, 25))


def rng_for(seed: int, label: str) -> random.Random:
    """An independent stream per purpose, reproducible from the seed."""
    return random.Random(f"{seed}:{label}")


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def float_to_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _finite64(rng: random.Random) -> int:
    while True:
        bits = rng.getrandbits(64)
        if (bits >> 52) & 0x7FF != 0x7FF:
            return bits


def _short_decimal(rng: random.Random) -> float:
    """A value whose shortest form has 1-7 significant digits."""
    nd = rng.randint(1, 7)
    d = rng.randrange(10 ** (nd - 1), 10 ** nd)
    while d % 10 == 0 and nd > 1:
        d = rng.randrange(10 ** (nd - 1), 10 ** nd)
    x = float(f"{d}e{rng.randint(-30, 30)}")
    return -x if rng.random() < 0.5 else x


def _draw_distinct(rng, n: int, draw, seen: set, sign_bit: int = 63
                   ) -> List[int]:
    """``n`` draws whose magnitudes are new to ``seen``: the engine's
    memo keys on the magnitude, so ``x`` and ``-x`` would share a
    row."""
    out = []
    mask = ~(1 << sign_bit)
    while len(out) < n:
        bits = draw(rng)
        if bits & mask not in seen:
            seen.add(bits & mask)
            out.append(bits)
    return out


def write_strata(seed: int) -> Dict[str, List[int]]:
    """Distinct bit patterns per write stratum (binary32 patterns for
    ``uniform32``, binary64 for the rest), none repeated across
    strata."""
    rng = rng_for(seed, "write")
    seen: set = set()
    out: Dict[str, List[int]] = {}
    out["uniform64"] = _draw_distinct(rng, STRATUM_SIZE, _finite64, seen)

    def integer(r):
        n = r.getrandbits(r.randint(1, 53)) or 1
        return float_to_bits(-float(n) if r.random() < 0.5 else float(n))

    out["integer"] = _draw_distinct(rng, STRATUM_SIZE, integer, seen)
    out["short_decimal"] = _draw_distinct(
        rng, STRATUM_SIZE, lambda r: float_to_bits(_short_decimal(r)), seen)
    out["subnormal"] = _draw_distinct(
        rng, STRATUM_SIZE,
        lambda r: r.randrange(1, 1 << 52) | (r.getrandbits(1) << 63), seen)
    boundaries = []
    for k in range(-1022, 1024):
        p = math.ldexp(1.0, k)
        for x in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)):
            if math.isfinite(x):
                boundaries.append(float_to_bits(x))
    boundaries = sorted(set(boundaries) - seen)
    out["pow2_boundary"] = [b | (rng.getrandbits(1) << 63) for b in
                            rng.sample(boundaries, STRATUM_SIZE)]

    def finite32(r):
        while True:
            bits = r.getrandbits(32)
            if (bits >> 23) & 0xFF != 0xFF:
                return bits

    out["uniform32"] = _draw_distinct(rng, STRATUM_SIZE, finite32, set(),
                                      sign_bit=31)
    return out


def _literal(rng: random.Random, lo: int, hi: int) -> str:
    nd = rng.randint(lo, hi)
    digits = str(rng.randint(1, 9)) + "".join(
        str(rng.randint(0, 9)) for _ in range(nd - 1))
    e10 = rng.randint(-290, 290)
    sign = "-" if rng.random() < 0.5 else ""
    if -8 <= e10 <= 15 and rng.random() < 0.5:
        # Positional form: the point sits after digit e10 + 1.
        point = e10 + 1
        if point <= 0:
            return sign + "0." + "0" * -point + digits
        if point >= nd:
            return sign + digits + "0" * (point - nd)
        return sign + digits[:point] + "." + digits[point:]
    body = digits[0] + ("." + digits[1:] if nd > 1 else "")
    return f"{sign}{body}e{e10}"


def read_bands(seed: int) -> Dict[str, List[str]]:
    """Distinct decimal literals per significant-digit band."""
    rng = rng_for(seed, "read")
    seen: set = set()
    out: Dict[str, List[str]] = {}
    for lo, hi in READ_BANDS:
        band = []
        while len(band) < READ_BAND_SIZE:
            s = _literal(rng, lo, hi)
            if s not in seen:
                seen.add(s)
                band.append(s)
        out[f"digits_{lo}_{hi}"] = band
    return out


def strata_batches(seed: int) -> List[Tuple[str, list]]:
    """``engine_strata``'s pass: ``(kind, items)`` batches of
    :data:`BATCH` values, kind ``w64`` (binary64 bit patterns, every
    binary64 stratum mixed), ``w32`` (binary32 bit patterns) or ``r``
    (literals, every band mixed), in a seeded interleaved order."""
    rng = rng_for(seed, "batches")
    strata = write_strata(seed)
    w64 = [b for name in WRITE_STRATA if name != "uniform32"
           for b in strata[name]]
    w32 = list(strata["uniform32"])
    reads = [s for band in read_bands(seed).values() for s in band]
    batches: List[Tuple[str, list]] = []
    for kind, items in (("w64", w64), ("w32", w32), ("r", reads)):
        rng.shuffle(items)
        batches.extend((kind, items[i:i + BATCH])
                       for i in range(0, len(items), BATCH))
    rng.shuffle(batches)
    return batches


def zipf_universe(seed: int, n: int = ZIPF_UNIVERSE) -> List[int]:
    """Distinct binary64 bit patterns in zipf rank order.  Ranks cycle
    through three kinds, so every seed has the same mix at every
    depth: short decimals, full-precision values of everyday
    magnitude and uniform bit patterns."""
    rng = rng_for(seed, "universe")
    seen: set = set()
    draws = (lambda r: float_to_bits(_short_decimal(r)),
             lambda r: float_to_bits(r.uniform(-1e6, 1e6)),
             _finite64)
    out = []
    while len(out) < n:
        bits = draws[len(out) % 3](rng)
        if bits not in seen:
            seen.add(bits)
            out.append(bits)
    return out


def zipf_rows(seed: int, label: str, universe: Sequence[int],
              count: int) -> List[int]:
    """``count`` rows drawn from ``universe`` with the zipf rank
    weights above."""
    rng = rng_for(seed, label)
    cum = []
    acc = 0.0
    for r in range(len(universe)):
        acc += 1.0 / (r + 1 + ZIPF_Q) ** ZIPF_S
        cum.append(acc)
    return rng.choices(universe, cum_weights=cum, k=count)


def pack64(bits: Sequence[int]) -> bytes:
    """Native-order packed binary64 column, as the wire carries it."""
    return struct.pack(f"={len(bits)}Q", *bits)
