"""Tier-level correctness: every fast-tier answer is byte-identical to
the exact algorithm (satellite: the agreement audit of the engine PR).

The write route is tier 0, then Schubfach (the engine's tier 1), then
the exact tier."""

import pytest
from hypothesis import given, settings

from helpers import positive_flonums
from repro.core.dragon import shortest_digits
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine
from repro.engine.schubfach import schubfach_digits
from repro.engine.tables import tables_for
from repro.engine.tier0 import tier0_digits
from repro.fastpath import grisu_shortest
from repro.floats.formats import BINARY32, BINARY64
from repro.floats.model import Flonum
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


def run_tier0(v, mode):
    return tier0_digits(v.f, v.e, T64.hidden_limit, T64.min_e,
                        T64.mantissa_limit, T64.max_e, mode)


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
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_curated_corpus_every_mode(self, mode):
        accepted = 0
        for v in curated_corpus():
            got = run_tier0(v, mode)
            if got is None:
                continue
            accepted += 1
            assert_matches_exact(v, got, mode)
        assert accepted > 100  # the tier must actually fire

    def test_small_integers_accepted(self):
        for i in range(1, 1000):
            got = run_tier0(Flonum.from_float(float(i)), ReaderMode.NEAREST_EVEN)
            assert got is not None
            acc, nd, k = got
            assert str(acc) == str(i).rstrip("0")
            assert k == len(str(i))

    def test_exact_binary_fractions_accepted(self):
        for i in (1, 3, 5, 7, 11, 255):
            for sh in (1, 2, 3, 10, 20):
                v = Flonum.from_float(i / (1 << sh))
                assert run_tier0(v, ReaderMode.NEAREST_UNKNOWN) is not None

    def test_declines_boundary_ambiguity(self):
        # 1e23 is a decimal-tie: under NEAREST_EVEN the shortest output
        # is "1e23", which is *not* the exact expansion of the double —
        # tier 0 must decline rather than print 24 digits.
        v = Flonum.from_float(1e23)
        got = run_tier0(v, ReaderMode.NEAREST_EVEN)
        assert got is None

    def test_mode_changes_acceptance(self):
        # Under TOWARD_ZERO the value itself is always in the rounding
        # interval's closure, so exact expansions certify more often.
        v = Flonum.from_float(1e23)  # f = 0x152d02c7e14af6800...
        exact = shortest_digits(v, mode=ReaderMode.TOWARD_ZERO)
        got = run_tier0(v, ReaderMode.TOWARD_ZERO)
        if got is not None:
            assert_matches_exact(v, got, ReaderMode.TOWARD_ZERO)

    @given(positive_flonums())
    @settings(max_examples=300)
    def test_random_agreement_all_modes(self, v):
        for mode in ALL_MODES:
            got = run_tier0(v, mode)
            if got is not None:
                assert_matches_exact(v, got, mode)


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
        # Grisu3 bailed on ~0.5% of these; the route after tier 0 has
        # no bail path, so the exact tier never runs.
        eng = Engine(cache_size=0)
        eng.format_many([v.to_float() for v in uniform_random(1500,
                                                               seed=77)])
        s = eng.stats()
        assert s["tier2_calls"] == 0
        assert s["tier0_hits"] + s["schubfach_hits"] == 1500
