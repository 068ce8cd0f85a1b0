"""Satellite: batch-API edge cases — empty batches, memo-disabled
engines, batches larger than the memo, and the memo's two generations.

The contracts under test:

* an empty batch returns ``[]`` without touching shared state (zero
  lock acquisitions);
* a memo-disabled engine runs the whole batch lock-free and takes
  exactly one acquisition (the counter flush);
* a batch larger than the memo leaves what the equivalent sequential
  calls would have left while the memo admits every miss, and never
  grows the memo past its bound;
* the admission rule: a stream of distinct values enters sampled
  admission after ``capacity`` misses, a hot set brings back full
  admission, and ``clear_cache()`` resets the rule;
* intra-batch duplicates hit the memo and count as cache hits;
* the ``new``/``old`` contents after any mix of scalar and batch calls
  in both directions are pinned exactly, step by step and against a
  reference model of the policy, and a snapshot restore installs them
  ``old`` then ``new``;
* a memo-enabled batch also takes exactly one acquisition when no
  generation swap falls inside it: probes and installs are lock-free;
* batches racing each other's swaps (with and without the rule
  engaging mid-race), and a ``popitem`` on an ``old`` that another
  batch just drained, change no byte and keep the bound;
* the batch loop serves binary32/16 batches too, equal to the scalar
  route element by element and in every counter.
"""

import math
import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounding import ReaderMode
from repro.engine import Engine, ReadEngine
from repro.engine.memo import GenMemo
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
        # Same entries.
        assert dict(many._cache) == dict(scalar._cache)


class TestOversizedBatches:
    """Below one generation of evidence for sampled admission (fewer
    than ``capacity`` misses, or a hit per 64 misses) the memo admits
    every miss, so an oversized batch leaves its tail exactly as
    sequential calls would.  Past it, a batch of distinct values
    enters sampled admission, and the bound holds either way."""

    def test_format_many_keeps_only_the_tail(self):
        eng = Engine(cache_size=8)
        vals = _vals(64, seed=3)
        eng.format_many(vals[:1] * 2)  # a hit: full admission holds
        eng.format_many(vals)  # 1 hit, 63 misses
        assert not eng._cache.sampled
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
        eng.read_many(texts[:1] * 2)
        eng.read_many(texts)
        assert not eng._cache.sampled
        assert len(eng._cache) <= 8
        eng.reset_stats()
        eng.read_many(texts[-8:])
        s = eng.stats()
        assert s["read_cache_hits"] == 8
        assert s["read_cache_misses"] == 0

    def test_format_many_past_a_generation_enters_sampled_admission(self):
        eng = Engine(cache_size=8)
        vals = _vals(64, seed=3)
        eng.format_many(vals)  # 64 misses, no hit
        assert eng._cache.sampled
        assert eng.stats()["cache_entries"] == 0  # cleared on entry
        eng.reset_stats()
        eng.format_many(vals[-8:])
        s = eng.stats()
        assert (s["cache_hits"], s["cache_misses"]) == (0, 8)
        assert s["cache_entries"] == 1  # the first miss of sixteen

    def test_read_many_past_a_generation_enters_sampled_admission(self):
        eng = ReadEngine(cache_size=8)
        texts = [repr(v) for v in _vals(64, seed=4)]
        eng.read_many(texts)
        assert eng._cache.sampled
        assert len(eng._cache) == 0
        eng.reset_stats()
        eng.read_many(texts[-8:])
        s = eng.stats()
        assert (s["read_cache_hits"], s["read_cache_misses"]) == (0, 8)
        assert len(eng._cache) == 1

    def test_memo_never_exceeds_bound_under_stream(self):
        eng = Engine(cache_size=16)
        for i in range(10):
            eng.format_many(_vals(50, seed=i))
            assert eng.stats()["cache_entries"] <= 16


class TestAdmission:
    def test_distinct_stream_enters_after_capacity_misses(self):
        eng = Engine(cache_size=64)
        stream = iter(_vals(400, seed=5))
        for _ in range(4):
            assert not eng._cache.sampled
            eng.format_many([next(stream) for _ in range(16)])
        # The fourth flush brings the window to 64 misses, no hit.
        assert eng._cache.sampled
        assert eng.stats()["cache_entries"] == 0
        # Then every sixteenth miss installs, across batches.
        for _ in range(10):
            eng.format_many([next(stream) for _ in range(16)])
        assert eng.stats()["cache_entries"] == 10
        # One-value scalar calls, reads included, are sampled too.
        for _ in range(32):
            eng.format(next(stream))
        eng.read_many([repr(next(stream)) for _ in range(16)])
        assert eng.stats()["cache_entries"] == 13
        assert eng._cache.sampled

    def test_hot_set_returns_to_full_admission(self):
        eng = Engine(cache_size=64)
        model = GenModel(64)
        distinct = _vals(96, seed=6)
        hot = _vals(8, seed=7)
        calls = [distinct[i:i + 16] for i in range(0, 96, 16)] \
            + [hot * 2] * 4
        hits, per_batch, sampled = 0, [], []
        for batch in calls:
            eng.format_many(batch)
            per_batch.append(model.batch(["w" + repr(x) for x in batch]))
            hits += per_batch[-1]
            assert _gens(eng._cache) == (model.old, model.new)
            assert eng.stats()["cache_hits"] == hits
            assert eng._cache.sampled == model.sampled
            sampled.append(model.sampled)
        # Sampled from the fourth distinct batch on.  The first hot
        # batch installs one hot value (1 hit in a window of 111
        # misses); the second brings 4 hits in 124 misses, past one in
        # 64, and full admission; the fourth is all hits.
        assert sampled == [False] * 3 + [True] * 4 + [False] * 3
        assert per_batch == [0] * 6 + [1, 3, 10, 16]
        assert eng.format_many(hot) == [repr(x) for x in hot]
        assert eng.stats()["cache_hits"] == hits + 8

    def test_clear_cache_resets_the_rule(self):
        eng = Engine(cache_size=8)
        eng.format_many(_vals(64, seed=8))
        assert eng._cache.sampled
        eng.clear_cache()
        memo = eng._cache
        assert not memo.sampled
        assert (memo.hits, memo.misses, memo.skip) == (0, 0, 0)
        eng.format_many(_vals(5, seed=9))
        assert eng.stats()["cache_entries"] == 5

    def test_read_engine_clear_cache_resets_the_rule(self):
        eng = ReadEngine(cache_size=8)
        eng.read_many([repr(v) for v in _vals(64, seed=8)])
        assert eng._cache.sampled
        eng.clear_cache()
        assert not eng._cache.sampled
        eng.read_many([repr(v) for v in _vals(5, seed=9)])
        assert len(eng._cache) == 5

    def test_put_admits_every_miss(self):
        # The routes off the batch loops (here: another base) and
        # snapshot restores install regardless of the rule.
        eng = Engine(cache_size=8)
        eng.format_many(_vals(64, seed=8))
        assert eng._cache.sampled
        for x in _vals(4, seed=10):
            eng.format(x, base=16)
        assert eng.stats()["cache_entries"] == 4


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
    ``w<value>`` for default-route writes (keyed on the signed binary64
    pattern, so ``x`` and ``-x`` are two entries), ``d<value>`` for the
    ``(k, digits)`` entries of other routes and ``n<value>/<n>`` for
    fixed-format (counted/``#``-mark) entries of ``n`` digits."""
    if isinstance(key[0], str):
        return "r" + key[0]
    if len(key) == 2:
        return "w" + repr(struct.unpack("<d", struct.pack("<Q", key[0]))[0])
    value = repr(math.ldexp(key[0], key[1]))
    return "d" + value if len(key) == 3 else f"n{value}/{key[2]}"


def _gens(memo):
    """The memo's two generations as label lists: ``(old, new)``."""
    return ([_label(k) for k in memo.old], [_label(k) for k in memo.new])


class TestGenerations:
    def test_scripted_calls_pin_generations(self):
        eng = Engine(cache_size=4)
        steps = [
            (lambda: eng.format(1.5), [], ["w1.5"]),
            # 2.5 repeats as a hit in ``new``.
            (lambda: eng.format_many([2.5, 3.5, 2.5]),
             [], ["w1.5", "w2.5", "w3.5"]),
            (lambda: eng.read("0.25"), [], ["w1.5", "w2.5", "w3.5", "r0.25"]),
            # A miss that finds ``new`` full swaps the generations, then
            # evicts the last entry of ``old`` (``popitem``).
            (lambda: eng.counted_digits(4.5, ndigits=3),
             ["w1.5", "w2.5", "w3.5"], ["n4.5/3"]),
            # A scalar hit in ``old`` moves the entry into ``new``.
            (lambda: eng.format(1.5), ["w2.5", "w3.5"], ["n4.5/3", "w1.5"]),
            # Two misses drain ``old``.
            (lambda: eng.read_many(["0.25", "0.75"]),
             [], ["n4.5/3", "w1.5", "r0.25", "r0.75"]),
            # Oversized batch: the first miss swaps, the next three
            # drain ``old`` from its end, 1.5 included, so 1.5 misses
            # too; the fifth miss swaps again.
            (lambda: eng.format_many([9.5, 10.5, 11.5, 1.5, 12.5]),
             ["w9.5", "w10.5", "w11.5"], ["w12.5"]),
            (lambda: eng.fixed_digits(6.5, ndigits=2),
             ["w9.5", "w10.5"], ["w12.5", "n6.5/2"]),
            (lambda: eng.read("2.25"),
             ["w9.5"], ["w12.5", "n6.5/2", "r2.25"]),
            # Oversized read batch: a drain, a swap, a promotion
            # (2.25), a second drain and a second swap.
            (lambda: eng.read_many(["0.5", "1.25", "2.25", "3.25", "4.25",
                                    "5.25"]),
             ["r1.25", "r2.25", "r3.25"], ["r5.25"]),
            (lambda: eng.format_many([1.5]),
             ["r1.25", "r2.25"], ["r5.25", "w1.5"]),
            (lambda: eng.read("4.25"),
             ["r1.25"], ["r5.25", "w1.5", "r4.25"]),
        ]
        for i, (call, old, new) in enumerate(steps):
            call()
            assert _gens(eng._cache) == (old, new), f"step {i}"
            assert list(map(_label, eng._cache)) == old + new, f"step {i}"
        # A restore installs the write rows, then the read rows, each
        # ``old`` then ``new``, as a sequence of misses.
        warm = Engine(cache_size=4,
                      snapshot=build_snapshot(["binary64"], engine=eng))
        assert _gens(warm._cache) == (
            [], ["w1.5", "r1.25", "r5.25", "r4.25"])
        assert warm.snapshot_restored["read"] == 3
        small = Engine(cache_size=2,
                       snapshot=build_snapshot(["binary64"], engine=eng))
        assert _gens(small._cache) == ([], ["r5.25", "r4.25"])
        assert small.snapshot_restored == {
            "formats": 1, "write": 1, "read": 2, "hot": 0}
        # A miss drains ``old``; then a batch's first miss swaps, its
        # misses evict from the new ``old`` and its hit there moves.
        eng.format_many([5.5])
        assert _gens(eng._cache) == (
            [], ["r5.25", "w1.5", "r4.25", "w5.5"])
        eng.format_many([7.5, 5.5, 1.5])
        assert _gens(eng._cache) == (["r5.25"], ["w7.5", "w5.5", "w1.5"])


class GenModel:
    """Reference model of the memo policy over labels: a probe hits in
    ``new`` or moves a hit in ``old`` into ``new``; a miss that finds
    ``new`` full (and ``old`` empty) makes it ``old``, evicts the last
    entry of ``old`` and appends to ``new``.

    Admission: a batch-loop call (:meth:`batch`) flushes its hits and
    misses into a window.  Once the window holds at least ``cap``
    misses and fewer than one hit per 64, the memo clears and enters
    sampled admission, where a batch-loop miss installs only every
    16th time (counted across calls); the first flush with a hit per
    64 misses leaves it.  Both counts halve while the misses exceed
    ``2 * cap``.  Other routes (:meth:`touch` alone) admit every miss
    and flush nothing."""

    def __init__(self, cap):
        self.cap, self.new, self.old = cap, [], []
        self.hits = self.misses = self.skip = 0
        self.sampled = False

    def touch(self, label, sampling: bool = False) -> bool:
        if label in self.new:
            return True
        if label in self.old:
            self.old.remove(label)
            self.new.append(label)
            return True
        if sampling and self.sampled:
            if self.skip:
                self.skip -= 1
                return False
            self.skip = 15
        if not self.old and len(self.new) >= self.cap:
            self.old, self.new = self.new, []
        if self.old:
            self.old.pop()
        self.new.append(label)
        return False

    def batch(self, labels) -> int:
        """One batch-loop call over ``labels``; returns its hits."""
        if not labels:
            return 0
        hits = sum([self.touch(lab, sampling=True) for lab in labels])
        misses = len(labels) - hits
        h, m = self.hits + hits, self.misses + misses
        if h * 64 >= m:
            self.sampled = False
        elif not self.sampled and m >= self.cap:
            self.sampled = True
            self.new, self.old = [], []
        while m > 2 * self.cap:
            h, m = h >> 1, m >> 1
        self.hits, self.misses = h, m
        if not self.sampled:
            self.skip = 0
        return hits


_POOL = [1.5, -1.5, 0.1, 2.5e-300, 5e-324, 1e23, 123456.789, 0.0, -0.0,
         math.inf, math.nan, 7.0, 7, -12]
_TEXTS = ["1.5", " 1.5", "-1.5", "0.1", "1e23", "5e-324", "nan", "inf",
          "0", "7", "123456.789", "2.5e-300"]


def _write_labels(x):
    return [] if x == 0 or not math.isfinite(x) else [
        "w" + repr(float(x))]


_value = st.sampled_from(_POOL)
_text = st.sampled_from(_TEXTS)
_positive = st.sampled_from([x for x in _POOL if x > 0 and x != math.inf])
_call = st.one_of(
    st.tuples(st.just("format"), _value),
    st.tuples(st.just("format_many"), st.lists(_value, max_size=8)),
    st.tuples(st.just("read"), _text),
    st.tuples(st.just("read_many"), st.lists(_text, max_size=8)),
    st.tuples(st.just("counted_digits"), _positive, st.integers(1, 4)),
)


class TestPolicyModel:
    @settings(max_examples=200, deadline=None)
    @given(cap=st.integers(1, 6), calls=st.lists(_call, max_size=25))
    def test_memo_follows_the_model(self, cap, calls):
        eng = Engine(cache_size=cap)
        exact = Engine(tier_order=(), read_tier_order=(), cache_size=0)
        model = GenModel(cap)
        writes = reads = 0
        for name, arg, *rest in calls:
            kw = {"ndigits": rest[0]} if rest else {}
            got = getattr(eng, name)(arg, **kw)
            want = getattr(exact, name)(arg, **kw)
            if name.startswith("read"):
                labels = ["r" + t.strip()
                          for t in (arg if name == "read_many" else [arg])]
                got, want = ([repr(v) for v in x] if name == "read_many"
                             else repr(x) for x in (got, want))
            elif name == "counted_digits":
                labels = [f"n{float(arg)!r}/{kw['ndigits']}"]
            else:
                labels = [lab for x in (arg if name == "format_many"
                                        else [arg])
                          for lab in _write_labels(x)]
            assert got == want
            hits = (model.touch(labels[0]) if name == "counted_digits"
                    else model.batch(labels))
            if name.startswith("read"):
                reads += hits
            else:
                writes += hits
            assert _gens(eng._cache) == (model.old, model.new)
            assert eng._cache.sampled == model.sampled
            s = eng.stats()
            assert s["cache_entries"] <= cap
            assert (s["cache_hits"], s["read_cache_hits"]) == (writes, reads)


class TestGenerationSwapRace:
    def test_racing_swaps_keep_bytes_and_bound(self):
        # An 8-entry memo swaps generations every few misses, so four
        # threads' batches race each other's swaps, promotions and
        # ``popitem`` calls on an ``old`` another thread just drained.
        eng = Engine(cache_size=8)
        floats = _vals(120, seed=7)
        texts = [repr(x) for x in floats]
        oracle = Engine(tier_order=(), read_tier_order=(), cache_size=0)
        want_w = oracle.format_many(floats)
        want_r = [v.to_bits() for v in oracle.read_many(texts)]
        failures = []

        def work(tid):
            try:
                for rnd in range(15):
                    lo = (7 * tid + 11 * rnd) % 90
                    hi = lo + 30
                    if eng.format_many(floats[lo:hi]) != want_w[lo:hi]:
                        failures.append(("write", tid, rnd))
                    got = [v.to_bits() for v in eng.read_many(texts[lo:hi])]
                    if got != want_r[lo:hi]:
                        failures.append(("read", tid, rnd))
            except Exception as exc:  # pragma: no cover - the regression
                failures.append(("raised", tid, repr(exc)))

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        # Switch threads every few bytecodes, not every 5 ms, so the
        # batches interleave mid-loop.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:5]
        assert eng.stats()["cache_entries"] <= 8

    def test_rule_engaging_mid_race_keeps_bytes_and_bound(self):
        # Two threads stream values that never repeat, so the memo
        # enters sampled admission (clearing both generations) while
        # two others replay a hot window; either may pull the rule
        # back and forth.  No byte changes and the bound holds.
        class Counting(GenMemo):
            __slots__ = ("entries",)

            def record(self, hits, misses, skip):
                was = self.sampled
                super().record(hits, misses, skip)
                self.entries += self.sampled and not was

        eng = Engine(cache_size=8)
        eng._cache = Counting(8)
        eng._cache.entries = 0
        floats = _vals(960, seed=11)
        texts = [repr(x) for x in floats]
        oracle = Engine(tier_order=(), read_tier_order=(), cache_size=0)
        want_w = oracle.format_many(floats)
        want_r = [v.to_bits() for v in oracle.read_many(texts)]
        failures = []

        def work(tid):
            try:
                for rnd in range(15):
                    lo = 60 + 30 * (2 * rnd + tid) if tid < 2 \
                        else (7 * tid + 11 * rnd) % 30
                    hi = lo + 30
                    if eng.format_many(floats[lo:hi]) != want_w[lo:hi]:
                        failures.append(("write", tid, rnd))
                    got = [v.to_bits() for v in eng.read_many(texts[lo:hi])]
                    if got != want_r[lo:hi]:
                        failures.append(("read", tid, rnd))
            except Exception as exc:  # pragma: no cover - the regression
                failures.append(("raised", tid, repr(exc)))

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:5]
        assert eng._cache.entries >= 1
        assert eng.stats()["cache_entries"] <= 8

    @pytest.mark.parametrize("call", [
        lambda eng: eng.format_many([1.5, -2.5, 3.5]),
        lambda eng: [v.to_bits()
                     for v in eng.read_many(["1.5", "-2.5", "3.5"])],
        lambda eng: eng.format(1.5),
    ], ids=["format_many", "read_many", "format"])
    def test_popitem_on_a_drained_old_does_not_raise(self, call):
        class Drained(dict):
            """An ``old`` that a racing batch empties between the
            emptiness check and the ``popitem``."""

            def popitem(self):
                self.clear()
                raise KeyError("popitem(): dictionary is empty")

        eng = Engine(cache_size=1)
        eng._cache.old = Drained({("unprobed", -1): (0, None)})
        exact = Engine(tier_order=(), read_tier_order=(), cache_size=0)
        assert call(eng) == call(exact)
        assert eng.stats()["cache_entries"] <= 1
