"""The tiered read engine: routing, certification, memo, stats, threads."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounding import ReaderMode
from repro.engine import READ_STAT_KEYS, STAT_KEYS, Engine, ReadEngine
from repro.engine.buffer import parse_buffer
from repro.engine.reader import _decimal_digits, read_many
from repro.errors import FormatError, ParseError, RangeError
from repro.floats.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    DECIMAL64,
    X87_80,
)
from repro.floats.model import Flonum
from repro.reader.exact import read_decimal
from repro.reader.parse import _scan_decimal, parse_decimal
from repro.workloads.corpus import uniform_random
from repro.workloads.schryer import corpus as schryer_corpus

NARROW_FORMATS = [BINARY16, BINARY32, BINARY64]
ALL_FORMATS = NARROW_FORMATS + [BINARY128, X87_80]


def _same(a: Flonum, b: Flonum) -> bool:
    """Bit-identity, signed zeros and NaN included."""
    if a.is_nan or b.is_nan:
        return a.is_nan and b.is_nan
    return a == b and a.sign == b.sign


# A corpus crossing every routing decision: exact-power window, interval
# tier, truncation, clamps, specials, signs, '#' marks, whitespace.
CORPUS = [
    "0", "-0", "1", "-1", "1.5", "0.1", "3.141592653589793", "255",
    "1e23", "9007199254740993", "6.1e-5", "65504", "65520", "3.4e38",
    "2.2250738585072014e-308", "1.7976931348623157e308", "5e-324",
    "4.9e-324", "2.47e-324", "1e400", "-1e400", "1e-999999", "-1e-400",
    "12345678901234567890123456789e-40", "123456789012345678901e-21",
    "9" * 40 + "e-60", "1" + "0" * 30, "0.0000000001",
    "nan", "inf", "-inf", "+inf", "  1.5  ", "1.2##e2", "1##",
    "7.038531e-26", "1.00000017881393432617187499e0",
]


class TestTierRouting:
    def test_tier_attribution_binary64(self):
        eng = ReadEngine()
        want = {
            "1.5": "tier0", "1e23": "tier0", "1e400": "tier0",
            "1e-999999": "tier0",
            "2.2250738585072014e-308": "tier1", "5e-324": "tier1",
            "1.7976931348623157e308": "tier1",
            "12345678901234567890123456789e-40": "tier1",
            "-0": "special", "nan": "special", "-inf": "special",
        }
        for text, tier in want.items():
            assert eng.read_result(text).tier == tier, text

    def test_generic_tier0_serves_narrow_formats(self):
        eng = ReadEngine()
        assert eng.read_result("1.5", BINARY16).tier == "tier0"
        assert eng.read_result("65504", BINARY32).tier == "tier0"
        # Overflow clamp settles without building 10**q.
        assert eng.read_result("1e10", BINARY16).tier == "tier0"
        assert eng.read_result("1e10", BINARY16).value.is_infinite

    def test_directed_modes_always_exact(self):
        eng = ReadEngine()
        for mode in (ReaderMode.TOWARD_ZERO, ReaderMode.TOWARD_POSITIVE,
                     ReaderMode.TOWARD_NEGATIVE):
            r = eng.read_result("1.5", BINARY64, mode)
            assert r.tier == "tier2"
            assert _same(r.value, read_decimal("1.5", BINARY64, mode))

    def test_wide_formats_always_exact(self):
        eng = ReadEngine()
        for fmt in (BINARY128, X87_80):
            r = eng.read_result("3.14", fmt)
            assert r.tier == "tier2"
            assert _same(r.value, read_decimal("3.14", fmt))

    def test_disabled_tiers_fall_through(self):
        eng = ReadEngine(tier_order=(), cache_size=0)
        for text in ("1.5", "1e23", "5e-324"):
            r = eng.read_result(text)
            assert r.tier == "tier2"
            assert _same(r.value, read_decimal(text))
        stats = eng.stats()
        assert stats["read_tier0_hits"] == 0
        assert stats["read_tier1_hits"] == 0
        assert stats["read_tier2_calls"] == 3

    def test_rejects_negative_cache_size(self):
        with pytest.raises(RangeError):
            ReadEngine(cache_size=-1)


class TestDifferentialVsExactReader:
    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_corpus_matches_read_decimal(self, fmt):
        eng = ReadEngine(cache_size=0)
        for text in CORPUS:
            assert _same(eng.read(text, fmt), read_decimal(text, fmt)), (
                fmt.name, text)

    @pytest.mark.parametrize("fmt", NARROW_FORMATS, ids=lambda f: f.name)
    def test_every_mode_matches(self, fmt):
        eng = ReadEngine(cache_size=0)
        for mode in ReaderMode:
            for text in ("1.5", "0.1", "6.1e-5", "9" * 25 + "e-30",
                         "-3.077e-3"):
                assert _same(eng.read(text, fmt, mode),
                             read_decimal(text, fmt, mode)), (
                    fmt.name, mode, text)

    @given(st.integers(min_value=0, max_value=10**25),
           st.integers(min_value=-345, max_value=330),
           st.booleans())
    @settings(max_examples=300)
    def test_random_literals_binary64(self, d, q, neg):
        text = f"{'-' if neg else ''}{d}e{q}"
        eng = ReadEngine(cache_size=0)
        got = eng.read(text)
        assert _same(got, read_decimal(text))
        if abs(q) < 300:  # host parses without under/overflow surprises
            assert _same(got, Flonum.from_float(float(text)))

    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=-60, max_value=50))
    @settings(max_examples=200)
    def test_random_literals_binary16_32(self, d, q):
        text = f"{d}e{q}"
        eng = ReadEngine(cache_size=0)
        for fmt in (BINARY16, BINARY32):
            assert _same(eng.read(text, fmt), read_decimal(text, fmt)), (
                fmt.name, text)


class TestLaneFloor:
    def test_fast_lanes_settle_nineteen_in_twenty(self):
        # The round-trip mix: shortest output of uniform random doubles
        # and of Schryer's hard cases, plus human-style literals (short
        # decimals, long scientific, integers).  Tier 0 and the window
        # tier settle at least 95 % of it without the exact tier.
        eng = Engine()
        texts = eng.format_many([v.to_float()
                                 for v in uniform_random(2000, seed=2024)])
        texts += eng.format_many([v.to_float() for v in schryer_corpus(1000)])
        rng = random.Random(2024)
        for _ in range(500):
            kind = rng.randrange(3)
            if kind == 0:
                texts.append(f"{rng.randrange(10**6)}"
                             f".{rng.randrange(10**6):06d}")
            elif kind == 1:
                texts.append(f"{rng.randrange(1, 10**19)}"
                             f"e{rng.randrange(-300, 300)}")
            else:
                texts.append(str(rng.randrange(10**9)))
        reader = ReadEngine(cache_size=0)
        reader.read_many(texts)
        s = reader.stats()
        fast = s["read_tier0_hits"] + s["read_tier1_hits"]
        assert fast >= 0.95 * s["read_conversions"], s


class TestSignedZeros:
    def test_negative_zero_literals(self):
        eng = ReadEngine()
        for text in ("-0", "-0.0", "-0e99", "-0.000e-2"):
            v = eng.read(text)
            assert v.is_zero and v.is_negative, text

    def test_negative_underflow_keeps_sign(self):
        eng = ReadEngine()
        for text, fmt in (("-1e-400", BINARY64), ("-1e-999999", BINARY64),
                          ("-1e-20", BINARY16), ("-2.4e-324", BINARY64)):
            v = eng.read(text, fmt)
            assert v.is_zero and v.is_negative, (text, fmt.name)

    def test_positive_zero_stays_positive(self):
        eng = ReadEngine()
        for text in ("0", "+0.0", "1e-999999"):
            v = eng.read(text)
            assert v.is_zero and not v.is_negative, text


class TestMemo:
    def test_second_read_is_memo(self):
        eng = ReadEngine()
        first = eng.read_result("1.5")
        again = eng.read_result("1.5")
        assert first.tier == "tier0" and again.tier == "memo"
        assert _same(first.value, again.value)
        stats = eng.stats()
        assert stats["read_cache_hits"] == 1
        assert stats["read_cache_misses"] == 1

    def test_contexts_do_not_collide(self):
        eng = ReadEngine()
        a = eng.read("1e-10", BINARY64)
        b = eng.read("1e-10", BINARY32)
        assert a.fmt.precision != b.fmt.precision
        assert eng.read_result("1e-10", BINARY64).tier == "memo"
        assert _same(eng.read("1e-10", BINARY64), a)

    def test_lru_evicts_oldest_first(self):
        eng = ReadEngine(cache_size=2)
        eng.read("1.5")
        eng.read("2.5")
        eng.read("1.5")          # refresh: 2.5 is now the oldest
        eng.read("3.5")          # evicts 2.5
        assert eng.read_result("1.5").tier == "memo"
        assert eng.read_result("2.5").tier != "memo"

    def test_clear_cache(self):
        eng = ReadEngine()
        eng.read("1.5")
        eng.clear_cache()
        assert eng.read_result("1.5").tier != "memo"

    def test_cache_size_zero_disables(self):
        eng = ReadEngine(cache_size=0)
        eng.read("1.5")
        assert eng.read_result("1.5").tier == "tier0"
        assert eng.stats()["read_cache_hits"] == 0


class TestReadMany:
    def test_matches_singles(self):
        batch = ReadEngine(cache_size=0).read_many(CORPUS)
        singles = ReadEngine(cache_size=0)
        assert len(batch) == len(CORPUS)
        for text, got in zip(CORPUS, batch):
            assert _same(got, singles.read(text)), text

    def test_duplicates_hit_the_memo(self):
        eng = ReadEngine()
        eng.read_many(["1.5", "0.1"])  # warm: the first batch skips an
        out = eng.read_many(["1.5", "0.1"] * 50)  # empty-cache probe
        assert all(_same(a, b) for a, b in zip(out[:2], out[2:4]))
        assert eng.stats()["read_cache_hits"] == 100

    def test_memo_warm_across_batches(self):
        eng = ReadEngine()
        first = eng.read_many(CORPUS)
        hits_before = eng.stats()["read_cache_hits"]
        second = eng.read_many(CORPUS)
        assert eng.stats()["read_cache_hits"] > hits_before
        for a, b in zip(first, second):
            assert _same(a, b)

    def test_empty_batch(self):
        assert ReadEngine().read_many([]) == []

    def test_module_level_read_many(self):
        out = read_many(["1.5", "1e23"])
        assert _same(out[0], Flonum.from_float(1.5))
        assert _same(out[1], read_decimal("1e23"))


class TestParseErrors:
    @pytest.mark.parametrize("bad", ["", "abc", "1e", "--5", "1.2.3",
                                     "0x1p3", "1e+", "1.2#3e2", "e5"])
    def test_malformed_raises(self, bad):
        eng = ReadEngine()
        with pytest.raises(ParseError):
            eng.read(bad)
        with pytest.raises(ParseError):
            eng.read_many(["1.5", bad])

    def test_scan_agrees_with_parse_decimal(self):
        for text in CORPUS:
            scanned = _scan_decimal(text.strip())
            if scanned is None:
                continue  # specials, '#' marks: slow path territory
            sign, d, q = scanned
            parsed = parse_decimal(text.strip())
            assert parsed.special is None
            assert (parsed.sign, parsed.digits, parsed.exponent) == (
                sign, d, q), text

    @given(st.integers(min_value=0, max_value=10**30),
           st.integers(min_value=-200, max_value=200))
    @settings(max_examples=200)
    def test_scan_agrees_on_random_literals(self, d, q):
        text = f"{d}e{q}"
        sign, ds, qs = _scan_decimal(text)
        parsed = parse_decimal(text)
        assert (parsed.sign, parsed.digits, parsed.exponent) == (
            sign, ds, qs)


class TestDecimalDigits:
    def test_exhaustive_around_powers_of_ten(self):
        for k in range(20):
            p = 10**k
            for d in (p - 1, p, p + 1):
                if d > 0:
                    assert _decimal_digits(d) == len(str(d)), d

    def test_every_bit_length(self):
        for bits in range(1, 65):
            for d in (1 << (bits - 1), (1 << bits) - 1):
                assert _decimal_digits(d) == len(str(d)), d


class TestStatsSchema:
    def test_read_stat_keys_pinned(self):
        assert READ_STAT_KEYS == frozenset({
            "read_tier0_hits", "read_tier1_hits", "read_tier1_bailouts",
            "read_tier2_calls", "read_specials",
            "read_cache_hits", "read_cache_misses", "read_conversions",
            "read_tier_faults", "read_snapshot_faults",
        })

    def test_read_engine_stats_keys_exact(self):
        eng = ReadEngine()
        assert frozenset(eng.stats()) == READ_STAT_KEYS
        eng.read("1.5")
        assert frozenset(eng.stats()) == READ_STAT_KEYS

    def test_conversions_totals_every_resolution(self):
        eng = ReadEngine()
        for text in ("1.5", "1.5", "5e-324", "nan", "1e999"):
            eng.read(text)
        eng.read("2.5", BINARY128)  # tier2
        s = eng.stats()
        assert s["read_conversions"] == 6
        assert s["read_conversions"] == (
            s["read_tier0_hits"] + s["read_tier1_hits"]
            + s["read_tier2_calls"] + s["read_specials"]
            + s["read_cache_hits"])

    def test_engine_stats_include_read_keys_before_reader_built(self):
        eng = Engine()
        stats = eng.stats()
        assert READ_STAT_KEYS <= frozenset(stats)
        assert all(stats[k] == 0 for k in READ_STAT_KEYS)

    def test_engine_reset_stats_preserves_key_set(self):
        eng = Engine()
        eng.format(0.1)
        eng.read("1.5")
        before = frozenset(eng.stats())
        assert before == STAT_KEYS == READ_STAT_KEYS | {
            "tier0_hits", "tier2_calls", "schubfach_hits",
            "fixed_tier1_hits", "fixed_tier1_bailouts", "fixed_tier2_calls",
            "fixed_conversions", "cache_hits", "cache_misses",
            "conversions", "cache_entries", "tier_faults", "hot_hits",
            "snapshot_faults",
        }
        eng.reset_stats()
        after = eng.stats()
        assert frozenset(after) == before
        for key in READ_STAT_KEYS:
            assert after[key] == 0, key


class TestEngineIntegration:
    def test_engine_read_matches_exact(self):
        eng = Engine()
        for text in CORPUS:
            assert _same(eng.read(text), read_decimal(text)), text

    def test_shared_memo_one_budget(self):
        eng = Engine(cache_size=4)
        assert eng.reader._cache is eng._cache
        eng.read_many([f"1e{k}" for k in range(10)])
        assert len(eng._cache) <= 4

    def test_text_and_float_keys_coexist(self):
        eng = Engine()
        eng.format(1.5)
        assert _same(eng.read("1.5"), Flonum.from_float(1.5))
        assert eng.format(1.5) == "1.5"
        assert eng.read_result("1.5").tier == "memo"

    def test_read_result_and_read_many_delegate(self):
        eng = Engine()
        assert eng.read_result("1e23").tier == "tier0"
        out = eng.read_many(["1.5", "2.5"])
        assert _same(out[1], Flonum.from_float(2.5))

    def test_concurrent_reads_and_formats(self):
        # Satellite regression: the memo is shared between directions
        # and mutated under one lock; racing both must neither corrupt
        # the LRU nor produce a wrong conversion.
        eng = Engine(cache_size=64)
        texts = [f"{k}.{k}e{k % 40}" for k in range(1, 200)]
        floats = [float(t) for t in texts]
        errors = []

        def read_loop():
            try:
                for _ in range(20):
                    for got, text in zip(eng.read_many(texts), texts):
                        if not _same(got, read_decimal(text)):
                            errors.append(("read", text))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(("read-raised", repr(exc)))

        def format_loop():
            try:
                for _ in range(20):
                    for out, x in zip(eng.format_many(floats), floats):
                        if float(out) != x:
                            errors.append(("format", x))
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(("format-raised", repr(exc)))

        threads = [threading.Thread(target=read_loop) for _ in range(2)]
        threads += [threading.Thread(target=format_loop) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[:5]
        assert len(eng._cache) <= 64


#: CORPUS after the readers' strip, each text once: every lane code
#: (tier 0, window, window bail, specials) appears.
DISTINCT = list(dict.fromkeys(t.strip() for t in CORPUS)) + [
    "1.00000000000000011102230246251565404e0"]  # bails the window

#: Counters both surfaces must agree on, per lane code.
LANE_KEYS = ("read_tier0_hits", "read_tier1_hits", "read_tier1_bailouts",
             "read_tier2_calls", "read_specials", "read_tier_faults",
             "read_cache_misses", "read_conversions")


def _plane(texts) -> bytes:
    return ("\n".join(texts) + "\n").encode("ascii")


class TestOneMemoTwoSurfaces:
    """``parse_buffer`` and ``read_many`` run one batch loop over one
    memo: either surface's entries serve the other."""

    def test_parse_buffer_then_read_many(self):
        eng = Engine()
        bits = parse_buffer(_plane(DISTINCT), engine=eng)
        eng.reset_stats()
        flos = eng.read_many(DISTINCT)
        stats = eng.stats()
        assert stats["read_cache_hits"] == len(DISTINCT)
        assert stats["read_cache_misses"] == 0
        assert [v.to_bits() for v in flos] == bits
        cold = ReadEngine(cache_size=0).read_many(DISTINCT)
        assert all(_same(a, b) for a, b in zip(flos, cold))

    def test_read_many_then_parse_buffer(self):
        eng = Engine()
        flos = eng.read_many(DISTINCT)
        eng.reset_stats()
        bits = parse_buffer(_plane(DISTINCT), engine=eng)
        stats = eng.stats()
        assert stats["read_cache_hits"] == len(DISTINCT)
        assert stats["read_cache_misses"] == 0
        assert bits == [v.to_bits() for v in flos]

    def test_lane_counters_agree(self):
        buf = ReadEngine()
        parse_buffer(_plane(DISTINCT), engine=buf)
        many = ReadEngine()
        many.read_many(DISTINCT)
        got = {k: buf.stats()[k] for k in LANE_KEYS}
        assert got == {k: many.stats()[k] for k in LANE_KEYS}
        for key in ("read_tier0_hits", "read_tier1_hits",
                    "read_tier1_bailouts", "read_tier2_calls",
                    "read_specials"):
            assert got[key] > 0, key

    def test_memo_off_and_exact_only_match_exact_reader(self):
        want = [read_decimal(t).to_bits() for t in DISTINCT]
        for reader in (ReadEngine(cache_size=0), ReadEngine(tier_order=())):
            assert parse_buffer(_plane(DISTINCT), engine=reader) == want

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_bits_encoder_every_format(self, fmt):
        # The loop's inline encoder against Flonum.to_bits: subnormals,
        # normals, zeros, infinities and NaN, x87's explicit bit kept.
        want = [read_decimal(t, fmt).to_bits() for t in DISTINCT]
        assert parse_buffer(_plane(DISTINCT), fmt,
                            engine=ReadEngine()) == want

    def test_format_without_encoding_memoizes_flonums(self):
        eng = ReadEngine()
        first = eng.read_many(DISTINCT, DECIMAL64)
        again = eng.read_many(DISTINCT, DECIMAL64)
        assert all(_same(a, b) for a, b in zip(first, again))
        assert eng.stats()["read_cache_hits"] == len(DISTINCT)
        with pytest.raises(FormatError):
            parse_buffer(_plane(DISTINCT), DECIMAL64, engine=eng)
