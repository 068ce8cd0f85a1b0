"""Tier-level correctness: every fast-tier answer is byte-identical to
the exact algorithm (satellite: the agreement audit of the engine PR).

The write route is tier 0 (one inline integer test), then Schubfach
(the engine's tier 1), then the exact tier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import positive_flonums
from repro.core.dragon import shortest_digits
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine
from repro.engine.schubfach import schubfach_digits
from repro.engine.tables import tables_for
from repro.fastpath import grisu_shortest
from repro.floats.formats import BINARY16, BINARY32, BINARY64
from repro.floats.model import Flonum, to_flonum
from repro.workloads.corpus import (
    decimal_ties,
    denormals,
    power_boundaries,
    torture_floats,
    uniform_random,
)
from repro.workloads.schryer import corpus as schryer_corpus

T64 = tables_for(BINARY64, 10)

ALL_MODES = list(ReaderMode)
NEAREST_MODES = (ReaderMode.NEAREST_EVEN, ReaderMode.NEAREST_UNKNOWN)


#: The exact tier every route answer is held to.
EXACT = Engine(tier_order=(), cache_size=0)


def run_route(values, mode, fmt=BINARY64):
    """``values`` through a memo-less engine's batch loop, then each
    magnitude through its scalar route (checked against the exact
    tier's digits): ``(texts, the batch's stats)``."""
    eng = Engine(cache_size=0)
    texts = eng.format_many(values, mode=mode, fmt=fmt)
    stats = eng.stats()
    for v in values:
        v = to_flonum(v, fmt)
        vmode = mode.mirrored() if v.sign else mode
        got = eng.shortest_digits(v.abs(), mode=vmode, fmt=fmt)
        want = EXACT.shortest_digits(v.abs(), mode=vmode, fmt=fmt)
        assert (got.k, got.digits) == (want.k, want.digits), v
    return texts, stats


def exact_texts(values, mode, fmt=BINARY64):
    return [EXACT.format(v, mode=mode, fmt=fmt) for v in values]


def run_tier1(v, mode=ReaderMode.NEAREST_EVEN, tie=TieBreak.UP,
              tables=T64):
    """The Schubfach lane, as the engine calls it: ``(acc, nd, k)``."""
    tables.ensure_schub()
    even = mode is ReaderMode.NEAREST_EVEN and not v.f & 1
    k, body = schubfach_digits(v.f, v.e, tables, even, tie)
    return int(body), len(body), k


def assert_matches_exact(v, got, mode, tie=TieBreak.UP):
    acc, nd, k = got
    body = str(acc)
    assert len(body) == nd
    exact = shortest_digits(v, mode=mode, tie=tie)
    assert k == exact.k
    assert body == "".join(str(d) for d in exact.digits)


def curated_corpus():
    vals = []
    vals += [Flonum.from_float(float(i)) for i in range(1, 300)]
    vals += [Flonum.from_float(i / 4) for i in range(1, 100)]
    vals += [Flonum.from_float(i / 10) for i in range(1, 100)]
    vals += [Flonum.from_float(x) for x in
             (1e23, 1e22, 1e16, 0.5, 0.25, 0.125, 1.5, 2.5, 1024.0,
              4503599627370496.0, 9007199254740992.0, 0.1, 0.2, 0.3)]
    vals += torture_floats()
    vals += decimal_ties()
    vals += power_boundaries()
    vals += denormals()
    return vals


class TestTier0:
    """The integer test: ``f * 2**e`` with ``e < 0`` and ``2**-e``
    dividing ``f`` prints as its own digits in every reader mode."""

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_curated_corpus_every_mode(self, mode):
        vals = curated_corpus()
        texts, stats = run_route(vals, mode)
        assert texts == exact_texts(vals, mode)
        assert stats["tier0_hits"] > 100  # the test must actually fire

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_binary16_integers_every_mode(self, mode):
        # Every binary16 integer below 2**10, both signs: all have e < 0.
        vals = [Flonum.from_int(s * i, BINARY16)
                for i in range(1, 1 << 10) for s in (1, -1)]
        texts, stats = run_route(vals, mode, BINARY16)
        assert texts == exact_texts(vals, mode, BINARY16)
        assert stats["tier0_hits"] == len(vals)
        assert stats["schubfach_hits"] == stats["tier2_calls"] == 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_binary64_integers_near_powers_of_two(self, mode):
        vals = sorted({float(s * ((1 << j) + d)) for j in range(52)
                       for d in (-1, 0, 1) for s in (1, -1)
                       if (1 << j) + d > 0})
        texts, stats = run_route(vals, mode)
        assert texts == exact_texts(vals, mode)
        assert stats["tier0_hits"] == len(vals)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_larger_integers_leave_the_test(self, mode):
        # From 2**10 (binary16) and 2**52 (binary64) up, e >= 0: the
        # values go to Schubfach (nearest modes) or the exact tier.
        for fmt, vals in (
                (BINARY16, [Flonum.from_int(i, BINARY16)
                            for i in (1024, 1025, 2047, 2048, 4096, 65504)]),
                (BINARY64, [float(x) for x in
                            (2**52, 2**52 + 1, 2**53, 2**53 + 2, 2**60,
                             10**18, 10**19, 1e22, 1e23, 2.0**1023)])):
            texts, stats = run_route(vals, mode, fmt)
            assert texts == exact_texts(vals, mode, fmt)
            assert stats["tier0_hits"] == 0
            lane = ("schubfach_hits" if mode in NEAREST_MODES
                    else "tier2_calls")
            assert stats[lane] == len(vals)

    def test_small_integers_accepted(self):
        eng = Engine(cache_size=0)
        for i in range(1, 1000):
            got = eng.shortest_digits(float(i))
            assert "".join(map(str, got.digits)) == str(i).rstrip("0")
            assert got.k == len(str(i))
        assert eng.stats()["tier0_hits"] == 999

    @pytest.mark.parametrize("mode", [m for m in ALL_MODES
                                      if m not in NEAREST_MODES])
    def test_short_decimals_reach_exact_tier_outside_schubfach_modes(
            self, mode):
        # Short exact decimals (binary fractions, integers of 2**53 and
        # up) are not integers with e < 0: in every mode Schubfach does
        # not cover they go to the exact tier, and print its digits.
        vals = [i / (1 << sh) for i in (1, 3, 5, 7, 11, 255)
                for sh in (1, 2, 3, 10, 20)]
        vals += [2.0**53, 2.0**60, 1e18, 1e19]
        texts, stats = run_route(vals, mode)
        assert texts == exact_texts(vals, mode)
        assert stats["tier0_hits"] == 0
        assert stats["tier2_calls"] == len(vals)

    def test_declines_boundary_ambiguity(self):
        # 1e23 is a decimal tie whose shortest output "1e23" is *not*
        # the exact expansion of the double; it is no integer with
        # e < 0, so the test declines and Schubfach prints "1e23".
        texts, stats = run_route([1e23], ReaderMode.NEAREST_EVEN)
        assert texts == ["1e23"]
        assert stats["tier0_hits"] == 0

    @given(st.integers(1, (1 << 53) - 1))
    @settings(max_examples=100)
    def test_random_integers_all_modes(self, n):
        v = float(n)
        for mode in ALL_MODES:
            texts, stats = run_route([v], mode)
            assert texts == exact_texts([v], mode)
            assert stats["tier0_hits"] == (1 if n < 1 << 52 else 0)

    @given(positive_flonums())
    @settings(max_examples=300)
    def test_random_agreement_all_modes(self, v):
        for mode in ALL_MODES:
            texts, _ = run_route([v], mode)
            assert texts == exact_texts([v], mode)


class TestTier1:
    """The Schubfach lane: it decides every value, so each answer —
    not just the certified ones — must match the exact algorithm."""

    def test_pins_reference_grisu(self):
        """Wherever the readable fastpath.grisu certifies, identical."""
        vals = (schryer_corpus(600) + curated_corpus()
                + uniform_random(600, seed=99))
        for v in vals:
            ref = grisu_shortest(v)
            acc, nd, k = run_tier1(v)
            if ref is not None:
                assert k == ref.k
                assert str(acc) == "".join(str(d) for d in ref.digits)

    @pytest.mark.parametrize("mode", NEAREST_MODES)
    @pytest.mark.parametrize("tie",
                             [TieBreak.UP, TieBreak.DOWN, TieBreak.EVEN])
    def test_success_matches_exact(self, mode, tie):
        for v in uniform_random(400, seed=5) + torture_floats():
            assert_matches_exact(v, run_tier1(v, mode, tie), mode, tie)

    @given(positive_flonums())
    @settings(max_examples=300)
    def test_random_success_matches_exact(self, v):
        for mode in NEAREST_MODES:
            assert_matches_exact(v, run_tier1(v, mode), mode)

    def test_binary32_tables(self):
        t32 = tables_for(BINARY32, 10)
        assert t32.grisu_ok
        for v in uniform_random(300, fmt=BINARY32, seed=11):
            acc, nd, k = run_tier1(v, tables=t32)
            exact = shortest_digits(v, mode=ReaderMode.NEAREST_EVEN)
            assert k == exact.k
            assert str(acc) == "".join(str(d) for d in exact.digits)

    def test_high_success_rate(self):
        # Grisu3 bailed on ~0.5% of these; the route after the integer
        # test has no bail path, so the exact tier never runs.
        eng = Engine(cache_size=0)
        eng.format_many([v.to_float() for v in uniform_random(1500,
                                                               seed=77)])
        s = eng.stats()
        assert s["tier2_calls"] == 0
        assert s["tier0_hits"] + s["schubfach_hits"] == 1500
