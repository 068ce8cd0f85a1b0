"""The Schubfach writer: the default route's only lane after the
inline integer test (tier 0).

The guarantees are differential and absolute: the lane must be
byte-identical to the exact Burger–Dybvig writer on every finite input
*without a bail path*, so the default engine never consults the exact
tier on a nearest-mode shortest conversion.  The engines' one switch
(``tier_order=None`` for the route, ``()`` for exact-only, anything
else rejected) gets its own edge cases here.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from helpers import positive_flonums
from repro.core.dragon import shortest_digits
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine, ReadEngine
from repro.engine import schubfach as schubfach_mod
from repro.engine.buffer import format_buffer
from repro.engine.buffer import pack_bits
from repro.engine.schubfach import _image, schubfach_digits
from repro.engine.tables import _floor_log10_pow2, _pow10_128, tables_for
from repro.errors import RangeError
from repro.floats.formats import BINARY16, BINARY32, BINARY64
from repro.floats.model import Flonum
from repro.reader.exact import read_decimal
from repro.workloads.corpus import (
    decimal_ties,
    denormals,
    power_boundaries,
    torture_floats,
    uniform_random,
)

NE = ReaderMode.NEAREST_EVEN


def exact_text(v, mode=NE, tie=TieBreak.UP):
    d = shortest_digits(v, mode=mode, tie=tie)
    return d.k, "".join(str(x) for x in d.digits)


def corpus64():
    return (torture_floats() + decimal_ties() + power_boundaries()
            + denormals() + uniform_random(300, seed=42))


class TestSchubfachDigits:
    """The lane's core promise: exact agreement, no bail, any input."""

    def test_curated_corpus_binary64(self):
        t = tables_for(BINARY64, 10)
        t.ensure_schub()
        for v in corpus64():
            even = not (v.f & 1)
            k, text = schubfach_digits(v.f, v.e, t, even, TieBreak.UP)
            assert (k, text) == exact_text(v), f"f={v.f} e={v.e}"

    @pytest.mark.parametrize("fmt", [BINARY16, BINARY32])
    def test_narrow_formats(self, fmt):
        t = tables_for(fmt, 10)
        t.ensure_schub()
        vals = (uniform_random(300, fmt=fmt, seed=3)
                + denormals(fmt=fmt) + power_boundaries(fmt=fmt))
        for v in vals:
            even = not (v.f & 1)
            k, text = schubfach_digits(v.f, v.e, t, even, TieBreak.UP)
            assert (k, text) == exact_text(v), f"f={v.f} e={v.e}"

    @pytest.mark.parametrize("tie",
                             [TieBreak.UP, TieBreak.DOWN, TieBreak.EVEN])
    def test_tie_strategies_on_decimal_ties(self, tie):
        t = tables_for(BINARY64, 10)
        t.ensure_schub()
        for v in decimal_ties() + torture_floats():
            even = not (v.f & 1)
            k, text = schubfach_digits(v.f, v.e, t, even, tie)
            assert (k, text) == exact_text(v, tie=tie)

    def test_extreme_denormals_and_limits(self):
        t = tables_for(BINARY64, 10)
        t.ensure_schub()
        edges = [
            Flonum.finite(0, 1, BINARY64.min_e, BINARY64),
            Flonum.finite(0, 10, BINARY64.min_e, BINARY64),
            Flonum.finite(0, BINARY64.hidden_limit, BINARY64.min_e,
                          BINARY64),
            Flonum.finite(0, BINARY64.mantissa_limit - 1, BINARY64.max_e,
                          BINARY64),
            Flonum.finite(0, BINARY64.hidden_limit, BINARY64.max_e,
                          BINARY64),
        ]
        for v in edges:
            even = not (v.f & 1)
            assert schubfach_digits(v.f, v.e, t, even,
                                    TieBreak.UP) == exact_text(v)

    @given(positive_flonums())
    @settings(max_examples=300)
    def test_random_agreement(self, v):
        t = tables_for(BINARY64, 10)
        t.ensure_schub()
        even = not (v.f & 1)
        assert schubfach_digits(v.f, v.e, t, even,
                                TieBreak.UP) == exact_text(v)


class TestTierRouterEdges:
    def test_unknown_write_lane_raises(self):
        # There is no lane order to choose: any order but () is
        # rejected, including the names of the route's own lanes.
        with pytest.raises(RangeError):
            Engine(tier_order=("tier0", "ryu"))
        with pytest.raises(RangeError):
            Engine(tier_order=("tier0", "schubfach"))

    def test_unknown_read_lane_raises(self):
        with pytest.raises(RangeError):
            Engine(read_tier_order=("strtod",))
        with pytest.raises(RangeError):
            ReadEngine(tier_order=("strtod",))

    def test_duplicate_lane_raises(self):
        with pytest.raises(RangeError):
            Engine(tier_order=("schubfach", "schubfach"))
        with pytest.raises(RangeError):
            ReadEngine(tier_order=("window", "window"))

    def test_empty_order_is_exact_only(self):
        eng = Engine(tier_order=(), cache_size=0)
        base = Engine(cache_size=0)
        vals = [v.to_float() for v in uniform_random(100, seed=9)]
        assert eng.format_many(vals) == base.format_many(vals)
        s = eng.stats()
        assert s["tier2_calls"] == s["conversions"] == len(vals)
        assert s["tier0_hits"] == s["schubfach_hits"] == 0

    def test_empty_read_order_is_exact_only(self):
        eng = ReadEngine(tier_order=(), cache_size=0)
        texts = ["0.1", "1.5", "6.02214076e23", "1e-310"]
        for txt in texts:
            assert eng.read(txt) == read_decimal(txt, BINARY64, NE)
        s = eng.stats()
        assert s["read_tier2_calls"] == s["read_conversions"] == len(texts)

    @given(positive_flonums())
    @settings(max_examples=200)
    def test_schubfach_only_random_byte_identical(self, v):
        # The default route: the integer test, then Schubfach for
        # everything else.
        eng = Engine(cache_size=0)
        base = Engine(tier_order=(), cache_size=0)
        assert eng.format(v) == base.format(v)
        assert eng.stats()["tier2_calls"] == 0

    def test_schubfach_only_never_bails(self):
        eng = Engine(cache_size=0)
        vals = [v.to_float() for v in corpus64()]
        eng.format_many(vals)
        s = eng.stats()
        assert s["tier2_calls"] == 0
        assert s["schubfach_hits"] > 0
        assert s["tier0_hits"] + s["schubfach_hits"] == s["conversions"]


def _binade_edges(fmt):
    """Every biased exponent with stored significands 0 (the irregular
    gap below a power of two), 1 (the row start) and all-ones (the row
    end), both signs — the Schubfach table's row boundaries."""
    width = fmt.mantissa_field_width
    sign_bit = fmt.total_bits - 1
    out = []
    for be in range(fmt.max_biased_exponent):
        for m in (0, 1, (1 << width) - 1):
            for sign in (0, 1):
                out.append(Flonum.from_bits(
                    (sign << sign_bit) | (be << width) | m, fmt))
    return out


class TestRouteBoundaryCorpus:
    """The inlined batch route (``format_many``) equals the scalar route
    (``format``) and the exact oracle at every binade edge, and neither
    ever reaches the exact tier."""

    @pytest.mark.parametrize("mode", [NE, ReaderMode.NEAREST_UNKNOWN])
    def test_binary64_every_binade_edge(self, mode):
        values = _binade_edges(BINARY64)
        floats = [v.to_float() for v in values]
        want = Engine(tier_order=(), cache_size=0).format_many(
            floats, mode=mode)
        many = Engine(cache_size=0)
        scalar = Engine(cache_size=0)
        assert many.format_many(floats, mode=mode) == want
        assert [scalar.format(x, mode=mode) for x in floats] == want
        for eng in (many, scalar):
            s = eng.stats()
            assert s["tier2_calls"] == 0
            assert s["tier0_hits"] + s["schubfach_hits"] == \
                s["conversions"] == len(values) - 2  # minus the zeros

    @pytest.mark.parametrize("mode", [NE, ReaderMode.NEAREST_UNKNOWN])
    def test_binary32_every_binade_edge(self, mode):
        values = _binade_edges(BINARY32)
        want = Engine(tier_order=(), cache_size=0).format_many(
            values, mode=mode, fmt=BINARY32)
        eng = Engine(cache_size=0)
        assert eng.format_many(values, mode=mode, fmt=BINARY32) == want
        s = eng.stats()
        assert s["tier2_calls"] == 0
        assert s["tier0_hits"] + s["schubfach_hits"] == \
            s["conversions"] == len(values) - 2


def _pow2_neighbourhoods():
    """Every binary64 power of two, subnormal ones included, with the
    patterns one below and one above it, both signs, each once."""
    powers = [1 << k for k in range(52)] + [be << 52 for be in range(1, 2047)]
    out = []
    for p in powers:
        for b in (p - 1, p, p + 1):
            if b:
                out += [b, b | 1 << 63]
    return list(dict.fromkeys(out))


class TestMemoHotRoute:
    """A memo hit returns the text the route rendered when it missed:
    every surface's second pass over the values equals the exact tier
    and runs no lane."""

    @pytest.mark.parametrize("mode", [NE, ReaderMode.NEAREST_UNKNOWN])
    def test_binary64_powers_of_two_and_neighbours(self, mode):
        bits = _pow2_neighbourhoods()
        floats = [Flonum.from_bits(b, BINARY64).to_float() for b in bits]
        want = Engine(tier_order=(), cache_size=0).format_many(
            floats, mode=mode)
        eng = Engine(cache_size=1 << 15)
        assert eng.format_many(floats, mode=mode) == want
        packed = pack_bits(bits, BINARY64)
        plane = "".join(t + "\n" for t in want).encode("ascii")
        for rnd in range(2):
            eng.reset_stats()
            assert eng.format_many(floats, mode=mode) == want
            assert [eng.format(x, mode=mode) for x in floats] == want
            assert format_buffer(packed, BINARY64, mode=mode,
                                 engine=eng) == plane
            s = eng.stats()
            assert s["cache_hits"] == s["conversions"] == 3 * len(bits)
            assert s["cache_misses"] == 0


def _fraction_image(c, e, k, j):
    """``2*floor(x) + (x is not an integer)`` of ``c*2**(e-2+j)*10**-k``,
    in exact rational arithmetic."""
    x = Fraction(c) * Fraction(2) ** (e - 2 + j) / Fraction(10) ** k
    return 2 * (x.numerator // x.denominator) + (x.denominator != 1)


def _entry(k, e, bits):
    """``(k, g, sh, exact)`` like a Schubfach table entry, with ``g`` the
    ``bits``-wide ceiling significand of ``10**-k`` (128 is the real
    table's width)."""
    _g, a, _exact = _pow10_128(-k)
    scaled = Fraction(10) ** -k * Fraction(2) ** (bits - 1 - a)
    g = -(-scaled.numerator // scaled.denominator)
    return (k, g, bits + 1 - a - e, scaled.denominator == 1)


class _Tables64:
    """A :class:`FormatTables` stand-in whose Schubfach significands are
    exact 64-bit ceilings: the ceiling error ``c*d`` then reaches the
    product's dropped bits on many values, so the exact rescue runs."""

    def __init__(self, fmt):
        real = tables_for(fmt, 10)
        real.ensure_schub()
        self.hidden_limit = real.hidden_limit
        self.min_e = real.min_e
        self.schub_e_min = real.schub_e_min
        self.schub_powers = [
            _entry(row[0], e, 64) + _entry(row[4], e, 64)
            for e, row in enumerate(real.schub_powers, real.schub_e_min)]


class TestImageRescue:
    """The round-to-odd images and the exact rescue behind them: the
    rescue is reachable, and the lane stays exact when it runs."""

    @pytest.mark.parametrize("bits", [128, 64])
    def test_image_matches_fraction(self, bits):
        rng = random.Random(bits)
        for _ in range(1500):
            e = rng.randint(-1100, 1000)
            k = _floor_log10_pow2(1, e) + rng.randint(-2, 2)
            j = rng.choice((0, 2))
            c = rng.randint(1, 1 << 56)
            _k, g, sh, exact = _entry(k, e, bits)
            assert _image(c, g, sh - j, exact, e, k, j) == \
                _fraction_image(c, e, k, j), (c, e, k, j)

    def test_band_cases_match_fraction(self):
        # Search each random (e, k, j) for a c whose 64-bit product
        # lands in the band (dropped bits below c, inexact table): the
        # shifted product alone cannot settle floor(x) there.
        rng = random.Random(7)
        found = 0
        for _ in range(200):
            e = rng.randint(-1100, 1000)
            k = _floor_log10_pow2(1, e) + rng.randint(-1, 1)
            j = rng.choice((0, 2))
            _k, g, sh, exact = _entry(k, e, 64)
            if exact:
                continue
            s = sh - j
            c = rng.randint(1 << 54, 1 << 56)
            while (c * g) & ((1 << s) - 1) >= c:
                c += 1
            found += 1
            assert _image(c, g, s, exact, e, k, j) == \
                _fraction_image(c, e, k, j), (c, e, k, j)
        assert found > 150

    def test_lane_with_rescue_matches_exact(self, monkeypatch):
        # The route-boundary corpus (every binary64 binade edge) through
        # the lane on the 64-bit stand-in: byte-identical to the exact
        # tier, with the rescue deciding many images.
        calls = []
        real = schubfach_mod._image_exact

        def spy(c, e, k, j):
            calls.append((c, e, k, j))
            return real(c, e, k, j)

        monkeypatch.setattr(schubfach_mod, "_image_exact", spy)
        tables = _Tables64(BINARY64)
        values = [v for v in _binade_edges(BINARY64)
                  if not v.sign and v.is_finite and not v.is_zero]
        for v in values:
            even = not (v.f & 1)
            assert schubfach_digits(v.f, v.e, tables, even,
                                    TieBreak.UP) == exact_text(v), v
        assert len(calls) > 10
