"""Satellite: ``stats()`` snapshots must never tear mid-batch.

Every counter mutation happens under the engine lock and the batch APIs
flush their tallies once per batch, so a concurrent observer may only
ever see whole-batch multiples.  The pollers below hammer ``stats()``
while a worker streams fixed-size batches; the old per-element
increments fail these assertions within a few batches.
"""

import random
import threading

from repro.engine import Engine, ReadEngine


def _corpus(n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        x = rng.uniform(-1e300, 1e300) * rng.choice([1e-200, 1.0, 1e200])
        if x == x and abs(x) != float("inf"):
            out.append(x)
    return out


def _poll_until(done, snap, check):
    """Run ``check(snap())`` in a tight loop until ``done`` is set.

    Returns the list of violations (empty == consistent throughout).
    """
    bad = []
    while not done.is_set():
        s = snap()
        err = check(s)
        if err is not None:
            bad.append(err)
            break
    return bad


class TestConcurrentStats:
    def test_format_many_batches_flush_atomically(self):
        eng = Engine(cache_size=64)
        k = 16
        batches = [_corpus(k, 100 + i) for i in range(150)]
        done = threading.Event()
        bad = []

        def check(s):
            total = s["conversions"]
            if total % k:
                return ("conversions", total)
            return None

        poller = threading.Thread(
            target=lambda: bad.extend(_poll_until(done, eng.stats, check)))
        poller.start()
        try:
            for b in batches:
                eng.format_many(b)
        finally:
            done.set()
            poller.join()
        assert bad == [], f"torn mid-batch snapshot observed: {bad}"
        assert eng.stats()["conversions"] == k * len(batches)

    def test_read_many_batches_flush_atomically(self):
        eng = ReadEngine(cache_size=64)
        k = 16
        batches = [[repr(x) for x in _corpus(k, 200 + i)]
                   for i in range(150)]
        done = threading.Event()
        bad = []

        def check(s):
            total = s["read_conversions"]
            if total % k:
                return ("read_conversions", total)
            return None

        poller = threading.Thread(
            target=lambda: bad.extend(_poll_until(done, eng.stats, check)))
        poller.start()
        try:
            for b in batches:
                eng.read_many(b)
        finally:
            done.set()
            poller.join()
        assert bad == [], f"torn mid-batch snapshot observed: {bad}"
        assert eng.stats()["read_conversions"] == k * len(batches)

    def test_reset_stats_races_cleanly_with_batches(self):
        """reset_stats() during a batch stream never yields a snapshot
        with impossible internal accounting (hit/miss sums exceeding
        conversions, negative counters...)."""
        eng = Engine(cache_size=64)
        vals = _corpus(64, 7)
        done = threading.Event()
        bad = []

        def check(s):
            parts = (s["tier0_hits"] + s["schubfach_hits"] + s["tier2_calls"]
                     + s["fixed_conversions"] + s["cache_hits"])
            if parts != s["conversions"] or any(
                    v < 0 for v in s.values()
                    if not isinstance(v, dict)):
                return dict(s)
            return None

        poller = threading.Thread(
            target=lambda: bad.extend(_poll_until(done, eng.stats, check)))
        poller.start()
        try:
            for i in range(200):
                eng.format_many(vals)
                if i % 10 == 0:
                    eng.reset_stats()
        finally:
            done.set()
            poller.join()
        assert bad == [], f"inconsistent snapshot observed: {bad[:1]}"

    def test_engine_reader_stats_share_one_acquisition(self):
        """Engine.stats() with a built reader must not deadlock (the two
        share one non-reentrant lock) and must merge read counters."""
        eng = Engine()
        eng.read_many(["1.5", "2.5"])
        s = eng.stats()
        assert s["read_conversions"] == 2
        eng.reset_stats()
        assert eng.stats()["read_conversions"] == 0
