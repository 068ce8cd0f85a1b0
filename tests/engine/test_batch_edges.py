"""Satellite: batch-API edge cases — empty batches, memo-disabled
engines, and batches larger than the memo.

The contracts under test:

* an empty batch returns ``[]`` without touching shared state (zero
  lock acquisitions);
* a memo-disabled engine runs the whole batch lock-free and takes
  exactly one acquisition (the counter flush);
* a batch larger than the memo installs only the tail the equivalent
  sequential calls would have left behind, and never grows the memo
  past its bound;
* intra-batch duplicates are deduplicated against the batch-local
  pending set and counted as cache hits;
* the memo's recency order after any mix of scalar and batch calls in
  both directions is pinned exactly, and survives a snapshot round
  trip per direction;
* a memo-enabled batch also takes exactly one acquisition: probes are
  lock-free and the hits are bumped at the flush;
* the batch loop serves binary32/16 batches too, equal to the scalar
  route element by element and in every counter.
"""

import math
import random

import pytest

from repro.core.rounding import ReaderMode
from repro.engine import Engine, ReadEngine
from repro.engine.snapshot import build_snapshot
from repro.floats.formats import BINARY16, BINARY32, BINARY64
from repro.floats.model import Flonum


class CountingLock:
    """A context-manager lock proxy that tallies acquisitions."""

    def __init__(self, inner):
        self.inner = inner
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)

    def acquire(self, *a, **kw):
        self.acquisitions += 1
        return self.inner.acquire(*a, **kw)

    def release(self):
        return self.inner.release()


def _vals(n, seed=1):
    rng = random.Random(seed)
    return [rng.uniform(-1e9, 1e9) for _ in range(n)]


def _count_locks(obj):
    proxy = CountingLock(obj._lock)
    obj._lock = proxy
    return proxy


class TestEmptyBatches:
    def test_format_many_empty_no_lock(self):
        eng = Engine()
        proxy = _count_locks(eng)
        assert eng.format_many([]) == []
        assert eng.format_many(iter([])) == []
        assert proxy.acquisitions == 0

    def test_format_many_empty_general_path(self):
        eng = Engine()
        assert eng.format_many([], base=16) == []

    def test_read_many_empty_no_lock(self):
        eng = ReadEngine()
        proxy = _count_locks(eng)
        assert eng.read_many([]) == []
        assert eng.read_many(iter([])) == []
        assert proxy.acquisitions == 0

    def test_empty_batches_leave_stats_untouched(self):
        eng = Engine()
        eng.format_many([])
        eng.read_many([])
        assert eng.stats()["conversions"] == 0
        assert eng.stats()["read_conversions"] == 0


class TestMemoDisabled:
    def test_format_many_single_flush_acquisition(self):
        eng = Engine(cache_size=0)
        vals = _vals(100)
        eng.format_many(vals)  # warm context interning + tables
        proxy = _count_locks(eng)
        out = eng.format_many(vals)
        assert proxy.acquisitions == 1
        assert out == [repr(v) for v in vals]
        assert eng.stats()["cache_hits"] == 0
        assert eng.stats()["cache_entries"] == 0

    def test_read_many_single_flush_acquisition(self):
        eng = ReadEngine(cache_size=0)
        texts = [repr(v) for v in _vals(100)]
        eng.read_many(texts)  # warm context interning + tables
        proxy = _count_locks(eng)
        out = eng.read_many(texts)
        assert proxy.acquisitions == 1
        assert [v.to_float() for v in out] == [float(t) for t in texts]
        assert eng.stats()["read_cache_hits"] == 0

    def test_results_match_memoized_engine(self):
        plain = Engine(cache_size=0)
        memo = Engine(cache_size=4096)
        vals = _vals(500, seed=9)
        assert plain.format_many(vals) == memo.format_many(vals)


class TestMemoEnabled:
    def test_format_many_single_acquisition(self):
        eng = Engine(cache_size=64)
        vals = _vals(40)
        eng.format_many(vals[:20])  # interns the contexts, warms the memo
        proxy = _count_locks(eng)
        eng.format_many(vals)  # 20 hits, 20 misses
        assert proxy.acquisitions == 1
        s = eng.stats()
        assert s["cache_hits"] == 20 and s["cache_entries"] == 40


def _mixed_batch(fmt):
    """Specials, signed zeros, subnormals, binary64 Flonums, ints,
    normals and repeats, all formatted as ``fmt``."""
    width = fmt.total_bits
    sign = 1 << (width - 1)
    top = (1 << fmt.mantissa_field_width) - 1
    rng = random.Random(width)
    normals = [Flonum.from_bits(rng.getrandbits(width), fmt)
               for _ in range(300)]
    batch = [Flonum.nan(fmt), Flonum.infinity(fmt, 0),
             Flonum.infinity(fmt, 1),
             Flonum.from_bits(0, fmt), Flonum.from_bits(sign, fmt),
             Flonum.from_bits(1, fmt), Flonum.from_bits(top, fmt),
             Flonum.from_bits(sign | 1, fmt),
             Flonum.from_float(0.1, BINARY64),
             Flonum.from_float(-2.5, BINARY64),
             7, -12, 0, 1 << 10]
    return batch + normals + normals[:50] + batch[:8]


class TestNarrowFormatBatches:
    @pytest.mark.parametrize("fmt", [BINARY32, BINARY16])
    @pytest.mark.parametrize("cache_size", [0, 8192])
    @pytest.mark.parametrize("mode", [ReaderMode.NEAREST_EVEN,
                                      ReaderMode.NEAREST_UNKNOWN,
                                      ReaderMode.TOWARD_ZERO])
    def test_mixed_batch_matches_scalar_route(self, fmt, cache_size, mode):
        batch = _mixed_batch(fmt)
        many = Engine(cache_size=cache_size)
        scalar = Engine(cache_size=cache_size)
        got = many.format_many(batch, mode=mode, fmt=fmt)
        want = [scalar.format(x, mode=mode, fmt=fmt) for x in batch]
        for i, (g, w) in enumerate(zip(got, want)):
            assert g == w, (i, batch[i])
        assert len(got) == len(want)
        assert many.stats() == scalar.stats()
        # Same entries; the batch installs its own conversions at the
        # flush, after the ones the scalar fallback made in-loop.
        assert dict(many._cache) == dict(scalar._cache)


class TestOversizedBatches:
    def test_format_many_keeps_only_the_tail(self):
        eng = Engine(cache_size=8)
        vals = _vals(64, seed=3)
        eng.format_many(vals)
        assert eng.stats()["cache_entries"] <= 8
        eng.reset_stats()
        eng.format_many(vals[-8:])
        s = eng.stats()
        assert s["cache_hits"] == 8
        assert s["cache_misses"] == 0
        # The evicted head misses again.
        eng.reset_stats()
        eng.format_many(vals[:1])
        assert eng.stats()["cache_misses"] == 1

    def test_read_many_keeps_only_the_tail(self):
        eng = ReadEngine(cache_size=8)
        texts = [repr(v) for v in _vals(64, seed=4)]
        eng.read_many(texts)
        assert len(eng._cache) <= 8
        eng.reset_stats()
        eng.read_many(texts[-8:])
        s = eng.stats()
        assert s["read_cache_hits"] == 8
        assert s["read_cache_misses"] == 0

    def test_memo_never_exceeds_bound_under_stream(self):
        eng = Engine(cache_size=16)
        for i in range(10):
            eng.format_many(_vals(50, seed=i))
            assert eng.stats()["cache_entries"] <= 16


class TestIntraBatchDuplicates:
    def test_duplicates_hit_the_pending_set(self):
        eng = Engine(cache_size=64)
        out = eng.format_many([0.1] * 10)
        assert out == ["0.1"] * 10
        s = eng.stats()
        assert s["cache_misses"] == 1
        assert s["cache_hits"] == 9
        assert s["conversions"] == 10

    def test_duplicate_results_identical_objects(self):
        eng = Engine()
        a, b = eng.format_many([1.2345678e17] * 2)
        assert a == b


def _label(key):
    """A context-free name for one memo key: ``r<text>`` for reads,
    ``w<value>`` for shortest writes, ``n<value>`` for fixed-format
    (counted/``#``-mark) entries."""
    if isinstance(key[0], str):
        return "r" + key[0]
    tag = "w" if len(key) == 3 else "n"
    return tag + repr(math.ldexp(key[0], key[1]))


class TestRecencyOrder:
    def test_scripted_calls_pin_lru_order(self):
        eng = Engine(cache_size=4)
        steps = [
            (lambda: eng.format(1.5), ["w1.5"]),
            # 2.5 repeats from the batch-local pending set.
            (lambda: eng.format_many([2.5, 3.5, 2.5]),
             ["w1.5", "w2.5", "w3.5"]),
            (lambda: eng.read("0.25"), ["w1.5", "w2.5", "w3.5", "r0.25"]),
            # A scalar hit moves its entry to the most recent end.
            (lambda: eng.format(1.5), ["w2.5", "w3.5", "r0.25", "w1.5"]),
            (lambda: eng.counted_digits(4.5, ndigits=3),
             ["w3.5", "r0.25", "w1.5", "n4.5"]),
            (lambda: eng.read_many(["0.25", "0.75"]),
             ["w1.5", "n4.5", "r0.25", "r0.75"]),
            # Oversized batch: only its last four keys count, and the
            # hit among them (1.5, bumped when probed) sits before the
            # new entries; 9.5 is never installed.
            (lambda: eng.format_many([9.5, 10.5, 11.5, 1.5, 12.5]),
             ["w1.5", "w10.5", "w11.5", "w12.5"]),
            (lambda: eng.fixed_digits(6.5, ndigits=2),
             ["w10.5", "w11.5", "w12.5", "n6.5"]),
            (lambda: eng.read("2.25"), ["w11.5", "w12.5", "n6.5", "r2.25"]),
            # Oversized read batch: the hit is bumped, then the last
            # four misses push everything older out.
            (lambda: eng.read_many(["0.5", "1.25", "2.25", "3.25", "4.25",
                                    "5.25"]),
             ["r1.25", "r3.25", "r4.25", "r5.25"]),
            (lambda: eng.format_many([1.5]),
             ["r3.25", "r4.25", "r5.25", "w1.5"]),
            (lambda: eng.read("4.25"), ["r3.25", "r5.25", "w1.5", "r4.25"]),
        ]
        for i, (call, expected) in enumerate(steps):
            call()
            assert [_label(k) for k in eng._cache] == expected, f"step {i}"
        # A restore installs the write rows, then the read rows, each in
        # the donor's recency order.
        warm = Engine(cache_size=4,
                      snapshot=build_snapshot(["binary64"], engine=eng))
        assert [_label(k) for k in warm._cache] == [
            "w1.5", "r3.25", "r5.25", "r4.25"]
        small = Engine(cache_size=2,
                       snapshot=build_snapshot(["binary64"], engine=eng))
        assert [_label(k) for k in small._cache] == ["r5.25", "r4.25"]
        # A below-capacity batch mixing hits and misses: the hits move
        # to the recent end in probe order (5.5 before the older 1.5),
        # then the misses install.
        eng.format_many([5.5])
        assert [_label(k) for k in eng._cache] == [
            "r5.25", "w1.5", "r4.25", "w5.5"]
        eng.format_many([7.5, 5.5, 1.5])
        assert [_label(k) for k in eng._cache] == [
            "r4.25", "w5.5", "w1.5", "w7.5"]
