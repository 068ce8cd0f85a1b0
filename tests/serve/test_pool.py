"""Sharded pools: ordering, byte identity, stats merging, validation."""

import multiprocessing
import sys
import threading

import pytest

from repro.engine import Engine
from repro.engine.buffer import format_buffer, ingest_bits, parse_buffer
from repro.errors import ParseError, RangeError
from repro.floats.formats import BINARY32, BINARY64, FloatFormat
from repro.serve import BulkPool
from repro.serve.pool import INLINE_ROWS
from repro.serve.workers import PipeExecutor
from repro.workloads.corpus import duplicated_random, uniform_random

CORPUS = [v.to_float() for v in uniform_random(600, seed=21, signed=True)] \
    + [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]


def scalar_payload(xs):
    return format_buffer(xs, engine=Engine())


class TestProcessPool:
    def test_format_is_byte_identical_and_ordered(self):
        with BulkPool(jobs=2, shards_per_job=3) as pool:
            assert pool.format_bulk(CORPUS) == scalar_payload(CORPUS)

    def test_read_merges_shards_in_input_order(self):
        payload = scalar_payload(CORPUS)
        bits = ingest_bits(CORPUS, BINARY64)
        with BulkPool(jobs=2) as pool:
            assert pool.read_bulk(payload) == bits
            flonums = pool.read_bulk(payload, out="flonums")
        assert [v.to_bits() for v in flonums] == bits

    def test_stats_sum_worker_deltas(self):
        xs = duplicated_random(INLINE_ROWS, 50, seed=6)
        with BulkPool(jobs=2, shards_per_job=1) as pool:
            pool.format_bulk(xs)
            stats = pool.stats()
        # Each worker engine's memo: at most one miss per distinct value
        # per shard, and every row was served (a lane or a memo hit).
        assert 0 < stats["cache_misses"] <= 2 * 50
        assert stats["conversions"] == len(xs)
        assert stats["cache_hits"] == len(xs) - stats["cache_misses"]

    def test_jobs_1_runs_inline(self):
        pool = BulkPool(jobs=1)
        assert pool._pool() is None
        assert pool.format_bulk([1.5, 2.5]) == b"1.5\n2.5\n"
        pool.close()

    def test_narrow_format_pool(self):
        bits = list(range(0, 1000 * INLINE_ROWS, 1000))
        with BulkPool(jobs=2, fmt=BINARY32) as pool:
            got = pool.format_bulk(bits)
        assert got == format_buffer(bits, BINARY32, engine=Engine())

    def test_concurrent_calls_get_their_own_bytes(self):
        # More calling threads than workers or cores, each with its own
        # column, all multiplexed over the same worker pipes: every
        # reply must reach the future of the shard that asked for it.
        columns = [[v.to_float()
                    for v in uniform_random(INLINE_ROWS, seed=s)]
                   for s in range(8)]
        wants = [scalar_payload(c) for c in columns]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BulkPool(jobs=2, shards_per_job=3) as pool:
                def calls(k):
                    for _ in range(10):
                        if pool.format_bulk(columns[k]) != wants[k]:
                            errors.append(k)

                threads = [threading.Thread(target=calls, args=(k,))
                           for k in range(len(columns))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


    def test_concurrent_inline_calls_get_their_own_bytes(self):
        # Below INLINE_ROWS every calling thread converts on the one
        # parent engine at once: its memo and counters must not mix
        # one call's rows into another's.
        columns = [[v.to_float()
                    for v in uniform_random(INLINE_ROWS - 1, seed=s)]
                   for s in range(8)]
        wants = [scalar_payload(c) for c in columns]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BulkPool(jobs=2) as pool:
                def calls(k):
                    for _ in range(5):
                        if pool.format_bulk(columns[k]) != wants[k]:
                            errors.append(k)

                threads = [threading.Thread(target=calls, args=(k,))
                           for k in range(len(columns))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = pool.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        # Each call converts each of its distinct values once; a lost
        # counter update would break the exact total.
        assert stats["conversions"] == 5 * sum(
            len(set(ingest_bits(c, BINARY64))) for c in columns)


class TestParentEngine:
    def test_shares_one_engine_and_matches_scalar(self):
        # A jobs=1 pool converts every call inline, at any size, on
        # the engine it was given.
        eng = Engine()
        with BulkPool(jobs=1, engine=eng) as pool:
            got = pool.format_bulk(CORPUS)
            assert got == scalar_payload(CORPUS)
            assert pool.stats() is not None
            assert pool.stats()["conversions"] == eng.stats()["conversions"]
            payload = scalar_payload(CORPUS)
            assert pool.read_bulk(payload) == ingest_bits(CORPUS, BINARY64)


class TestRouting:
    """Fewer than INLINE_ROWS rows, or any call of a jobs=1 pool,
    convert inline on the parent engine; otherwise INLINE_ROWS rows
    shard to the worker processes.  Either way the bytes are the
    exact-only engine's."""

    COLUMN = [v.to_float()
              for v in uniform_random(INLINE_ROWS, seed=31, signed=True)]

    @pytest.mark.parametrize("route", ["process", "inline"])
    @pytest.mark.parametrize("rows", [INLINE_ROWS - 1, INLINE_ROWS])
    def test_route_by_row_count(self, route, rows):
        xs = self.COLUMN[:rows]
        exact = Engine(tier_order=(), read_tier_order=(), cache_size=0)
        want = format_buffer(xs, engine=exact)
        want_bits = parse_buffer(want, engine=exact)
        assert want_bits == ingest_bits(xs, BINARY64)
        texts = want.decode("ascii").split("\n")[:-1]
        with BulkPool(jobs=2 if route == "process" else 1) as pool:
            assert pool.format_bulk(xs) == want
            assert pool.read_bulk(want) == want_bits
            assert pool.read_bulk(texts) == want_bits
            flonums = pool.read_bulk(want, out="flonums")
            assert [v.to_bits() for v in flonums] == want_bits
            children = multiprocessing.active_children()
            executor = pool._executor
            parent = pool._engine.stats()
            stats = pool.stats()
        on_parent = rows < INLINE_ROWS or route == "inline"
        if on_parent:
            assert children == []
            assert executor is None
        else:
            assert len(children) == 2
            assert isinstance(executor, PipeExecutor)
        # Each conversion counted once: on the parent engine, or in the
        # worker deltas and never on the parent.
        assert (parent["conversions"] > 0) == on_parent
        assert (parent["read_conversions"] > 0) == on_parent
        assert stats["conversions"] >= rows
        assert stats["read_conversions"] >= rows
        if on_parent:
            assert stats["conversions"] == parent["conversions"]
            assert stats["read_conversions"] == parent["read_conversions"]

    def test_inline_repeat_is_served_from_the_parent_memo(self):
        xs = self.COLUMN[:INLINE_ROWS - 1]
        with BulkPool(jobs=2) as pool:
            first = pool.format_bulk(xs)
            misses = pool.stats()["cache_misses"]
            assert pool.format_bulk(xs) == first
            stats = pool.stats()
        assert stats["cache_misses"] == misses
        assert stats["cache_hits"] >= len(set(xs))


class TestValidation:
    def test_non_standard_format_rejected(self):
        toy = FloatFormat(name="toy", radix=2, precision=5,
                          exponent_width=0, emin=-10, emax=10)
        with pytest.raises(RangeError):
            BulkPool(fmt=toy)

    def test_empty_delimiter_rejected(self):
        with pytest.raises(RangeError):
            BulkPool(delimiter="")

    def test_bad_out_kind(self):
        with BulkPool(jobs=1) as pool:
            with pytest.raises(RangeError):
                pool.read_bulk(b"1\n", out="text")

    def test_literal_holding_the_delimiter_is_a_parse_error(self):
        # A sequence of literals is joined into one plane; a literal
        # with the delimiter inside must not become two rows.
        with BulkPool(jobs=1) as pool:
            with pytest.raises(ParseError, match="delimiter"):
                pool.read_bulk(["0.5", "1.5\n2.5"])
            assert pool.read_bulk(["0.5", " 2.5"]) == ingest_bits([0.5, 2.5])

    def test_empty_inputs(self):
        with BulkPool(jobs=2) as pool:
            assert pool.format_bulk([]) == b""
            assert pool.read_bulk(b"") == []


class TestEntryPointSharding:
    def test_format_bulk_jobs_flag_matches_inline(self):
        xs = CORPUS[:INLINE_ROWS]
        with BulkPool(jobs=2) as pool:
            assert pool.format_bulk(xs) == scalar_payload(xs)
            assert pool.level == "process"

    def test_read_bulk_jobs_flag_matches_inline(self):
        payload = scalar_payload(CORPUS[:INLINE_ROWS])
        with BulkPool(jobs=2) as pool:
            assert pool.read_bulk(payload) == parse_buffer(
                payload, engine=Engine())
            assert pool.level == "process"
