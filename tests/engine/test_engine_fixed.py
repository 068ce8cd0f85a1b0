"""Satellite: Engine.stats() and memo behaviour under fixed-format keys.

The memo now holds three key shapes — shortest ``(f, e, ctx)``,
counted/fixed ``(f, e, n, ctx)`` — and the stats carry separate
fixed-tier counters.  These tests pin the contract: no cross-
contamination between shortest and counted entries, distinct keys per
(ndigits | position, kind, tie), ``+x``/``-x`` sharing, and counter
arithmetic.
"""

import pytest

from repro.core.api import format_fixed
from repro.core.rounding import TieBreak
from repro.engine import Engine
from repro.errors import RangeError
from repro.floats.formats import BINARY32, BINARY64
from repro.floats.model import Flonum
from repro.format.printf import format_printf
from repro.workloads.corpus import uniform_random


@pytest.fixture()
def engine():
    return Engine()


class TestStatsCounters:
    def test_fixed_counters_start_zero(self, engine):
        s = engine.stats()
        assert s["fixed_tier1_hits"] == 0
        assert s["fixed_tier1_bailouts"] == 0
        assert s["fixed_tier2_calls"] == 0
        assert s["fixed_conversions"] == 0

    def test_fast_hit_counts(self, engine):
        engine.counted_digits(0.3, ndigits=5)
        s = engine.stats()
        assert s["fixed_tier1_hits"] == 1
        assert s["fixed_tier2_calls"] == 0
        assert s["fixed_conversions"] == 1
        assert s["conversions"] == 1

    def test_bailout_counts_and_falls_back(self, engine):
        # An exact decimal tie forces the tier to decline.
        engine.counted_digits(0.125, ndigits=2)
        s = engine.stats()
        assert s["fixed_tier1_bailouts"] == 1
        assert s["fixed_tier2_calls"] == 1
        assert s["fixed_conversions"] == 1

    def test_shortest_and_fixed_counted_separately(self, engine):
        engine.shortest_digits(0.3)
        engine.counted_digits(0.3, ndigits=5)
        s = engine.stats()
        assert s["conversions"] == 2
        assert s["fixed_conversions"] == 1

    def test_fixed_tier_disabled_goes_exact(self):
        eng = Engine(fixed_tier1=False)
        eng.counted_digits(0.3, ndigits=5)
        eng.fixed_digits(0.3, ndigits=5)
        s = eng.stats()
        assert s["fixed_tier1_hits"] == 0
        assert s["fixed_tier1_bailouts"] == 0
        assert s["fixed_tier2_calls"] == 2

    def test_reset_clears_fixed_counters(self, engine):
        engine.counted_digits(0.3, ndigits=5)
        engine.reset_stats()
        s = engine.stats()
        assert s["fixed_conversions"] == 0
        assert s["conversions"] == 0


class TestMemoKeys:
    def test_memo_hit_on_repeat(self, engine):
        a = engine.counted_digits(0.3, ndigits=5)
        b = engine.counted_digits(0.3, ndigits=5)
        assert a == b
        s = engine.stats()
        assert s["cache_hits"] == 1
        assert s["fixed_conversions"] == 1  # second call never re-converts

    def test_no_shortest_fixed_cross_contamination(self, engine):
        # Same (f, e), same digit count: the shortest result for 0.1 is
        # one digit ('1', k=0) while counted ndigits=1 rounds the exact
        # value — the memo must keep them apart.
        engine.shortest_digits(0.1)
        r = engine.counted_digits(0.1, ndigits=17)
        # 0.1 == 0.1000000000000000055511151231257827, 17 digits.
        assert r.digits[:3] == (1, 0, 0)
        assert len(r.digits) == 17
        s = engine.stats()
        assert s["cache_hits"] == 0
        assert s["cache_entries"] == 2

    def test_counted_vs_paper_fixed_distinct_keys(self, engine):
        engine.counted_digits(0.1, ndigits=5)
        engine.fixed_digits(0.1, ndigits=5)
        s = engine.stats()
        assert s["cache_hits"] == 0
        assert s["cache_entries"] == 2

    def test_relative_vs_absolute_distinct_keys(self, engine):
        # 2.0 with ndigits=3 and with position=-2 produce the same block
        # but must occupy distinct memo entries (different request kind).
        engine.counted_digits(2.0, ndigits=3)
        engine.counted_digits(2.0, position=-2)
        s = engine.stats()
        assert s["cache_hits"] == 0
        assert s["cache_entries"] == 2

    def test_ndigits_values_distinct_keys(self, engine):
        engine.counted_digits(0.3, ndigits=5)
        engine.counted_digits(0.3, ndigits=6)
        s = engine.stats()
        assert s["cache_hits"] == 0
        assert s["cache_entries"] == 2

    def test_tie_contexts_distinct_keys(self, engine):
        # Tie results depend on the strategy, so contexts must differ
        # even though fast-tier acceptances are tie-independent.
        a = engine.counted_digits(0.125, ndigits=2, tie=TieBreak.EVEN)
        b = engine.counted_digits(0.125, ndigits=2, tie=TieBreak.UP)
        assert a.digits == (1, 2)
        assert b.digits == (1, 3)

    def test_format_distinct_keys(self, engine):
        # binary32 1.0 and binary64 1.0 share (f=1<<23 vs 1<<52 …) — use
        # values whose (f, e) collide across formats to prove the ctx
        # separates them: f=1, e=min_e (the smallest denormals).
        v32 = Flonum.finite(0, 1, BINARY32.min_e, BINARY32)
        v64 = Flonum.finite(0, 1, BINARY64.min_e, BINARY64)
        a = engine.counted_digits(v32, ndigits=3, fmt=BINARY32)
        b = engine.counted_digits(v64, ndigits=3, fmt=BINARY64)
        assert a != b
        assert engine.stats()["cache_hits"] == 0

    def test_cache_disabled(self):
        eng = Engine(cache_size=0)
        eng.counted_digits(0.3, ndigits=5)
        eng.counted_digits(0.3, ndigits=5)
        s = eng.stats()
        assert s["cache_hits"] == 0
        assert s["cache_entries"] == 0
        assert s["fixed_conversions"] == 2


class TestSignSharing:
    """+x and -x share fixed memo entries (magnitude-only rounding)."""

    def test_format_fixed_shares_entries(self, engine):
        engine.format_fixed(1.75, decimals=4)
        before = engine.stats()["cache_entries"]
        engine.format_fixed(-1.75, decimals=4)
        s = engine.stats()
        assert s["cache_entries"] == before
        assert s["cache_hits"] == 1

    def test_printf_shares_entries(self, engine):
        assert format_printf("%.3e", 0.3) == "3.000e-01"
        assert format_printf("%.3e", -0.3) == "-3.000e-01"
        # Through a private engine to observe the memo directly:
        engine2 = Engine()
        from repro.format import printf

        printf.fmt_e(0.3, precision=3, engine=engine2)
        printf.fmt_e(-0.3, precision=3, engine=engine2)
        s = engine2.stats()
        assert s["cache_entries"] == 1
        assert s["cache_hits"] == 1

    def test_signs_render_correctly(self, engine):
        assert engine.format_fixed(-1.75, decimals=2) == "-1.75"
        assert engine.format_fixed(1.75, decimals=2) == "1.75"


class TestRouting:
    def test_format_fixed_routes_through_engine(self, engine):
        out = engine.format_fixed(1 / 3, ndigits=10)
        assert out == format_fixed(1 / 3, ndigits=10, engine=None)
        assert engine.stats()["fixed_conversions"] == 1

    def test_format_fixed_hash_marks_via_engine(self, engine):
        # The #-mark path must survive engine routing (tier bails).
        out = engine.format_fixed(100.0, decimals=20)
        assert out == "100.000000000000000#####"

    def test_engine_none_is_exact_only(self):
        from repro.engine import default_engine

        eng = default_engine()
        eng.reset_stats()
        format_fixed(1 / 3, ndigits=10, engine=None)
        format_printf("%.5e", 1 / 3, engine=None)
        assert eng.stats()["conversions"] == 0

    def test_validation_errors(self, engine):
        with pytest.raises(RangeError):
            engine.counted_digits(0.3)  # neither ndigits nor position
        with pytest.raises(RangeError):
            engine.counted_digits(0.3, ndigits=2, position=-1)
        with pytest.raises(RangeError):
            engine.counted_digits(0.3, ndigits=0)
        with pytest.raises(RangeError):
            engine.fixed_digits(-0.3, ndigits=2)
        with pytest.raises(RangeError):
            engine.counted_digits(float("inf"), ndigits=2)


class TestLaneFloor:
    def test_counted_lane_settles_nine_in_ten(self):
        # %.6e-shaped requests (7 digits) on uniform random binary64:
        # the counted lane, not the exact tier, settles at least 90 %.
        eng = Engine(cache_size=0)
        for v in uniform_random(2000, seed=2024):
            eng.counted_digits(v, ndigits=7)
        s = eng.stats()
        assert s["fixed_tier1_hits"] >= 0.90 * s["conversions"], s
