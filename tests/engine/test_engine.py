"""The Engine router: string agreement, batch API, memo, statistics."""

import threading

import pytest

from repro import format_many, format_shortest
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine, default_engine
from repro.errors import RangeError
from repro.floats.formats import BINARY32, BINARY64, BINARY128
from repro.floats.model import Flonum
from repro.format.notation import NotationOptions
from repro.workloads.corpus import torture_floats, uniform_random
from repro.workloads.schryer import corpus as schryer_corpus


def exact(x, **kw):
    return format_shortest(x, engine=None, **kw)


@pytest.fixture()
def engine():
    return Engine()


class TestAgreement:
    """Satellite: every engine output byte-equals the exact path."""

    @pytest.mark.parametrize("mode", list(ReaderMode))
    def test_schryer_all_modes(self, engine, mode):
        floats = [v.to_float() for v in schryer_corpus(250)]
        floats += [-x for x in floats[:50]]
        expected = [exact(x, mode=mode) for x in floats]
        assert engine.format_many(floats, mode=mode) == expected
        assert [engine.format(x, mode=mode) for x in floats] == expected

    @pytest.mark.parametrize("tie", list(TieBreak))
    def test_uniform_random_ties(self, engine, tie):
        floats = [v.to_float() for v in uniform_random(400, seed=13)]
        expected = [exact(x, tie=tie) for x in floats]
        assert engine.format_many(floats, tie=tie) == expected

    def test_torture_and_specials(self, engine):
        xs = [f.to_float() for f in torture_floats()]
        xs += [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
               1e23, -1e23, 5e-324, -5e-324, 1.0, -1.0]
        expected = [exact(x) for x in xs]
        assert engine.format_many(xs) == expected
        assert [engine.format(x) for x in xs] == expected

    def test_binary32_and_binary128(self, engine):
        for fmt in (BINARY32, BINARY128):
            vs = uniform_random(60, fmt=fmt, seed=3)
            for v in vs:
                assert engine.format(v) == exact(v)

    def test_int_inputs(self, engine):
        for n in (0, 1, -7, 10**15, 2**53):
            assert engine.format(n) == exact(n)
        assert engine.format_many([1, 2.5, -3]) == ["1", "2.5", "-3"]

    def test_default_engine_behind_format_shortest(self):
        eng = default_engine()
        before = eng.stats()["conversions"]
        assert format_shortest(0.1) == "0.1"
        assert eng.stats()["conversions"] == before + 1

    def test_format_many_module_function(self):
        xs = [0.1, 1e23, -2.5]
        assert format_many(xs) == [format_shortest(x) for x in xs]


class TestOptions:
    def test_custom_notation_options(self, engine):
        opts = NotationOptions(style="scientific", python_repr=True)
        for x in (0.1, 1234.5, -6e-9):
            assert engine.format(x, options=opts) == exact(x, options=opts)

    def test_special_spellings(self, engine):
        opts = NotationOptions(nan_text="NaN", inf_text="Infinity")
        assert engine.format(float("nan"), options=opts) == "NaN"
        assert engine.format(float("inf"), options=opts) == "Infinity"
        assert engine.format(float("-inf"), options=opts) == "-Infinity"
        got = engine.format_many(
            [float("nan"), float("-inf"), 1.5], options=opts)
        assert got == ["NaN", "-Infinity", "1.5"]

    def test_special_spellings_through_api(self):
        opts = NotationOptions(nan_text="NAN", inf_text="INF")
        assert format_shortest(float("nan"), options=opts) == "NAN"
        assert format_shortest(float("-inf"), options=opts) == "-INF"
        # The exact-only path honours them too (the old code ignored
        # opts for specials).
        assert exact(float("inf"), options=opts) == "INF"
        assert exact(float("nan"), options=opts) == "NAN"

    def test_python_repr_zero(self, engine):
        opts = NotationOptions(python_repr=True)
        assert engine.format(0.0, options=opts) == "0.0"
        assert engine.format(-0.0, options=opts) == "-0.0"

    def test_base_16(self, engine):
        v = Flonum.from_float(0.5)
        assert engine.format(0.5, base=16) == exact(0.5, base=16)
        assert engine.shortest_digits(v, base=16).base == 16


class TestShortestDigits:
    def test_matches_dragon(self, engine):
        from repro.core.dragon import shortest_digits

        for v in uniform_random(100, seed=21):
            got = engine.shortest_digits(v)
            ref = shortest_digits(v)
            assert (got.k, got.digits, got.base) == (ref.k, ref.digits,
                                                     ref.base)

    def test_rejects_nonpositive(self, engine):
        with pytest.raises(RangeError):
            engine.shortest_digits(0.0)
        with pytest.raises(RangeError):
            engine.shortest_digits(-1.5)
        with pytest.raises(RangeError):
            engine.shortest_digits(float("inf"))


class TestStatsAndCache:
    def test_tier_counters(self):
        eng = Engine()
        eng.format(3.0)  # tier 0
        eng.format(3.141592653589793)  # Schubfach
        s = eng.stats()
        assert s["tier0_hits"] == 1
        assert s["schubfach_hits"] == 1
        assert s["conversions"] == 2
        eng.reset_stats()
        assert eng.stats()["conversions"] == 0

    def test_cache_hits(self):
        eng = Engine()
        eng.format(0.1)
        eng.format(0.1)
        # Entries key on the signed bit pattern and map to the final
        # text, so -0.1 has its own entry even though NEAREST_EVEN
        # mirrors to itself.
        eng.format(-0.1)
        eng.format(-0.1)
        s = eng.stats()
        assert s["cache_hits"] == 2
        assert s["cache_misses"] == 2
        assert s["cache_entries"] == 2
        # Each mode keeps its own entries.
        eng.format(0.1, mode=ReaderMode.TOWARD_POSITIVE)
        eng.format(-0.1, mode=ReaderMode.TOWARD_POSITIVE)
        assert eng.stats()["cache_entries"] == 4

    def test_cache_is_bounded_lru(self):
        eng = Engine(cache_size=16)
        xs = [float(i) + 0.5 for i in range(64)]
        eng.format_many(xs)
        assert eng.stats()["cache_entries"] <= 16
        eng.clear_cache()
        assert eng.stats()["cache_entries"] == 0

    def test_cache_disabled(self):
        eng = Engine(cache_size=0)
        eng.format(0.1)
        eng.format(0.1)
        s = eng.stats()
        assert s["cache_hits"] == 0
        assert s["cache_entries"] == 0

    def test_tier2_only_engine(self):
        eng = Engine(tier_order=(), cache_size=0)
        floats = [v.to_float() for v in uniform_random(50, seed=31)]
        assert eng.format_many(floats) == [exact(x) for x in floats]
        s = eng.stats()
        assert s["tier2_calls"] == s["conversions"] == 50
        assert s["tier0_hits"] == s["schubfach_hits"] == 0

    def test_directed_modes_bypass_tier1(self):
        # Schubfach covers the nearest modes only: directed modes go
        # from the integer test (tier 0) straight to the exact tier.
        eng = Engine()
        floats = [v.to_float() for v in uniform_random(30, seed=41)]
        got = eng.format_many(floats, mode=ReaderMode.TOWARD_ZERO)
        assert got == Engine(tier_order=()).format_many(
            floats, mode=ReaderMode.TOWARD_ZERO)
        assert eng.stats()["schubfach_hits"] == 0

    def test_negative_cache_size_rejected(self):
        with pytest.raises(RangeError):
            Engine(cache_size=-1)

    def test_threaded_use(self):
        eng = Engine(cache_size=64)
        floats = [v.to_float() for v in uniform_random(200, seed=51)]
        expected = [exact(x) for x in floats]
        results = {}

        def work(tid):
            results[tid] = eng.format_many(floats)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results.values():
            assert got == expected
        assert eng.stats()["cache_entries"] <= 64
        # Four writers on overlapping windows and one reader, all on a
        # 64-entry memo: lock-free probes race the other batches'
        # flushes (bumps of entries evicted meanwhile, installs past
        # capacity) and must never change a byte.
        eng = Engine(cache_size=64)
        floats = [v.to_float() for v in uniform_random(240, seed=52)]
        expected = [exact(x) for x in floats]
        texts = [repr(x) for x in floats]
        results = {}

        def write(tid):
            lo = 30 * tid
            got = []
            for _ in range(20):
                for start in range(lo, lo + 120, 20):
                    got.append((start,
                                eng.format_many(floats[start:start + 40])))
            results[tid] = got

        def read():
            results["read"] = [eng.read_many(texts[i:i + 50])
                               for _ in range(4)
                               for i in range(0, 240, 10)]

        threads = [threading.Thread(target=write, args=(i,))
                   for i in range(4)]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tid in range(4):
            for start, got in results[tid]:
                assert got == expected[start:start + 40]
        for i, got in zip(list(range(0, 240, 10)) * 4, results["read"]):
            assert [v.to_float() for v in got] == floats[i:i + 50]
        assert eng.stats()["cache_entries"] <= 64
