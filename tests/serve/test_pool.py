"""Sharded pools: ordering, byte identity, stats merging, validation."""

import sys
import threading

import pytest

from repro.engine import Engine
from repro.engine.bulk import format_bulk, ingest_bits, read_bulk
from repro.errors import RangeError
from repro.floats.formats import BINARY32, BINARY64, FloatFormat
from repro.serve import BulkPool
from repro.workloads.corpus import duplicated_random, uniform_random

CORPUS = [v.to_float() for v in uniform_random(600, seed=21, signed=True)] \
    + [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]


def scalar_payload(xs):
    return format_bulk(xs, engine=Engine())


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
        xs = duplicated_random(400, 50, seed=6)
        with BulkPool(jobs=2, shards_per_job=1) as pool:
            pool.format_bulk(xs)
            stats = pool.stats()
        # Interning inside each shard: at most one conversion per
        # distinct value per shard, and every row was served.
        assert 0 < stats["conversions"] <= 2 * 50
        assert stats["conversions"] < 400

    def test_jobs_1_runs_inline(self):
        pool = BulkPool(jobs=1)
        assert pool._pool() is None
        assert pool.format_bulk([1.5, 2.5]) == b"1.5\n2.5\n"
        pool.close()

    def test_format_column_splits_rows(self):
        with BulkPool(jobs=2) as pool:
            assert pool.format_column([0.1, -0.0]) == ["0.1", "-0"]

    def test_narrow_format_pool(self):
        bits = list(range(0, 60000, 1000))
        with BulkPool(jobs=2, fmt=BINARY32) as pool:
            got = pool.format_bulk(bits)
        assert got == format_bulk(bits, BINARY32, engine=Engine())

    def test_concurrent_calls_get_their_own_bytes(self):
        # More calling threads than workers or cores, each with its own
        # column, all multiplexed over the same worker pipes: every
        # reply must reach the future of the shard that asked for it.
        columns = [[v.to_float() for v in uniform_random(120, seed=s)]
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


class TestThreadPool:
    def test_shares_one_engine_and_matches_scalar(self):
        eng = Engine()
        with BulkPool(jobs=2, kind="thread", engine=eng) as pool:
            got = pool.format_bulk(CORPUS)
            assert got == scalar_payload(CORPUS)
            assert pool.stats() is not None
            assert pool.stats()["conversions"] == eng.stats()["conversions"]
            payload = scalar_payload(CORPUS)
            assert pool.read_bulk(payload) == ingest_bits(CORPUS, BINARY64)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(RangeError):
            BulkPool(kind="greenlet")

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

    def test_empty_inputs(self):
        with BulkPool(jobs=2) as pool:
            assert pool.format_bulk([]) == b""
            assert pool.read_bulk(b"") == []


class TestEntryPointSharding:
    def test_format_bulk_jobs_flag_matches_inline(self):
        xs = CORPUS[:200]
        assert format_bulk(xs, jobs=2) == scalar_payload(xs)

    def test_read_bulk_jobs_flag_matches_inline(self):
        payload = scalar_payload(CORPUS[:200])
        assert read_bulk(payload, jobs=2) == read_bulk(
            payload, engine=Engine())
