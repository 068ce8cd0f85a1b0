"""Daemon lifecycle: admission control, micro-batching, graceful
drain, and the CLI entry point.

The backpressure contract: past the in-flight budget, new requests get
a typed :class:`~repro.errors.ServeOverloadError` response immediately
while admitted requests complete untouched.  The drain contract:
:meth:`ReproDaemon.close` stops accepting, flushes pending
micro-batches, writes every admitted response, and stays idempotent.
"""

import asyncio
import subprocess
import sys
import threading

import pytest

from repro.engine import Engine
from repro.engine.bulk import format_bulk, ingest_bits, pack_bits
from repro.errors import RangeError, ServeOverloadError
from repro.floats.formats import BINARY64
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.daemon import SERVE_STAT_KEYS, ReproDaemon, serving

VALUES = [1.5, 2.5, 3.0, -0.0, 5e-324, 1e308]
PACKED = pack_bits(ingest_bits(VALUES, BINARY64), BINARY64)
PLANE = format_bulk(PACKED, BINARY64, engine=Engine())


def run_async(coro, timeout=60):
    """Drive a coroutine on a fresh loop (tests stay synchronous)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestAdmission:
    def test_request_budget_sheds_with_typed_error(self):
        with serving(max_inflight_requests=1, batch_window=0.05) as d:
            async def burst():
                c = await AsyncServeClient.connect(d.host, d.port)
                tasks = [asyncio.ensure_future(c.format(PACKED))
                         for _ in range(12)]
                res = await asyncio.gather(*tasks, return_exceptions=True)
                await c.close()
                return res
            res = run_async(burst())
        ok = [r for r in res if isinstance(r, bytes)]
        shed = [r for r in res if isinstance(r, ServeOverloadError)]
        assert len(ok) >= 1 and len(shed) >= 1
        assert len(ok) + len(shed) == 12
        assert all(r == PLANE for r in ok)  # in-flight work unaffected
        assert d.stats()["overloads"] == len(shed)

    def test_byte_budget_sheds_with_typed_error(self):
        with serving(max_inflight_bytes=len(PACKED),
                     batch_window=0.05) as d:
            async def burst():
                c = await AsyncServeClient.connect(d.host, d.port)
                tasks = [asyncio.ensure_future(c.format(PACKED))
                         for _ in range(6)]
                res = await asyncio.gather(*tasks, return_exceptions=True)
                await c.close()
                return res
            res = run_async(burst())
        assert any(isinstance(r, ServeOverloadError) for r in res)
        assert all(r == PLANE for r in res if isinstance(r, bytes))

    def test_pings_bypass_admission(self):
        with serving(max_inflight_requests=1) as d:
            with ServeClient(d.host, d.port) as c:
                for _ in range(5):
                    assert c.ping()
            assert d.stats()["overloads"] == 0

    def test_inflight_returns_to_zero(self):
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                c.format(PACKED)
                c.read(PLANE)
            assert d.inflight == (0, 0)


class TestBatching:
    def test_burst_coalesces_into_one_bulk_call(self):
        with serving(batch_window=0.01) as d:
            async def burst():
                c = await AsyncServeClient.connect(d.host, d.port)
                outs = await asyncio.gather(
                    *[c.format(PACKED) for _ in range(24)])
                await c.close()
                return outs
            outs = run_async(burst())
            stats = d.stats()
        assert all(o == PLANE for o in outs)
        assert stats["max_batch"] > 1
        assert stats["batches"] < 24

    @staticmethod
    def alone_and_batched(d, op, payloads, delimiter=b"\n"):
        """Each payload's answer sent alone, then all of them in one
        burst (one micro-batch where they coalesce)."""
        async def send():
            c = await AsyncServeClient.connect(d.host, d.port)
            call = c.format if op == "format" else c.read
            alone = [await call(p, delimiter=delimiter) for p in payloads]
            batched = await asyncio.gather(
                *[call(p, delimiter=delimiter) for p in payloads])
            await c.close()
            return alone, list(batched)
        return run_async(send())

    def test_batched_responses_split_byte_identically(self):
        # Different-sized payloads in one batch must split back
        # exactly: per-request responses equal per-request oracles.
        chunks = [PACKED[:8], PACKED[:24], PACKED, b"", PACKED[8:16]]
        for delim in (b"\n", b"\r\n"):
            oracles = [format_bulk(c, BINARY64, engine=Engine(),
                                   delimiter=delim) for c in chunks]
            with serving(batch_window=0.01) as d:
                alone, outs = self.alone_and_batched(d, "format", chunks,
                                                     delim)
                stats = d.stats()
            assert alone == oracles
            assert outs == oracles
            assert stats["max_batch"] > 1

    def test_read_batches_split_on_token_counts(self):
        planes = [b"1.5\n2.5\n", b"", b"17\n", b"1e10\n-0.0\n3.25\n",
                  b"9.5",  # unterminated tail rides along
                  b"0.1\n2e-3"]  # terminated rows, unterminated tail
        from repro.engine.bulk import read_bulk

        for delim in (b"\n", b"\r\n"):
            sent = [p.replace(b"\n", delim) for p in planes]
            oracles = [pack_bits(read_bulk(p, BINARY64, engine=Engine(),
                                           delimiter=delim), BINARY64)
                       for p in sent]
            with serving(batch_window=0.01) as d:
                alone, outs = self.alone_and_batched(d, "read", sent, delim)
                stats = d.stats()
            assert alone == oracles
            assert outs == oracles
            assert stats["max_batch"] > 1

    def test_poisoned_batch_falls_back_per_request(self):
        # One garbage literal must fail alone; batch-mates succeed.
        planes = [b"1.5\n", b"zzz\n", b"2.5\n"]
        with serving(batch_window=0.01) as d:
            async def burst():
                c = await AsyncServeClient.connect(d.host, d.port)
                res = await asyncio.gather(
                    *[c.read(p) for p in planes],
                    return_exceptions=True)
                await c.close()
                return res
            res = run_async(burst())
            stats = d.stats()
        from repro.errors import ParseError

        assert isinstance(res[1], ParseError)
        assert isinstance(res[0], bytes) and isinstance(res[2], bytes)
        if stats["max_batch"] > 1:  # the burst actually coalesced
            assert stats["batch_fallbacks"] >= 1


class TestDrain:
    def test_close_is_idempotent(self):
        with serving() as d:
            async def closes():
                await d.close()
                await d.close()
            fut = asyncio.run_coroutine_threadsafe(closes(), d._loop)
            fut.result(timeout=30)
            assert d.stats()["drains"] == 1

    def test_close_drains_inflight_responses(self):
        d = ReproDaemon(batch_window=0.05)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                d.start(), loop).result(timeout=30)

            async def burst_then_close():
                c = await AsyncServeClient.connect(d.host, d.port)
                tasks = [asyncio.ensure_future(c.format(PACKED))
                         for _ in range(8)]
                # All eight sit in the micro-batch window; close() must
                # flush, convert, and *write* them before tearing down.
                for _ in range(2000):
                    if d.inflight[0] >= 8:
                        break
                    await asyncio.sleep(0.002)
                await d.close()
                res = await asyncio.gather(*tasks, return_exceptions=True)
                await c.close()
                return res

            res = asyncio.run_coroutine_threadsafe(
                burst_then_close(), loop).result(timeout=60)
            # Every admitted request completed; none hung.
            assert all(isinstance(r, bytes) and r == PLANE for r in res)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()

    def test_drain_admission_race_is_deterministic(self):
        # The drain/admission race, pinned: requests admitted before
        # the drain flag flips are *served* even though their
        # micro-batch window (30s, far past any drain wait) has not
        # expired — close() must wake the batchers, not wait them out;
        # a request arriving after the flip sheds with the typed
        # overload error; and the counters reconcile exactly.
        import time

        d = ReproDaemon(batch_window=30.0, drain_timeout=20.0)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                d.start(), loop).result(timeout=30)

            async def race():
                c = await AsyncServeClient.connect(d.host, d.port)
                tasks = [asyncio.ensure_future(c.format(PACKED))
                         for _ in range(4)]
                for _ in range(2000):
                    if d.inflight[0] >= 4:
                        break
                    await asyncio.sleep(0.002)
                t0 = time.monotonic()
                closing = asyncio.ensure_future(d.close())
                await asyncio.sleep(0)  # close() flips _draining here
                late = await asyncio.gather(c.format(PACKED),
                                            return_exceptions=True)
                res = await asyncio.gather(*tasks,
                                           return_exceptions=True)
                await closing
                elapsed = time.monotonic() - t0
                await c.close()
                return res, late[0], elapsed

            res, late, elapsed = asyncio.run_coroutine_threadsafe(
                race(), loop).result(timeout=60)
            assert all(r == PLANE for r in res)  # admitted => served
            assert isinstance(late, ServeOverloadError)  # late => shed
            assert elapsed < 15.0  # woke the batchers, no 30s wait
            stats = d.stats()
            assert stats["drains"] == 1
            assert stats["overloads"] >= 1
            assert stats["responses"] >= 4
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()

    def test_drain_right_after_disconnect_logs_no_error(self, caplog):
        # The SIGINT path of ``python -m repro.serve``: a client sends
        # a format and a read and hangs up, the daemon drains at once,
        # and the loop is torn down.  close() must let the connection
        # handler finish; one still running at teardown is cancelled,
        # and asyncio logs its CancelledError as an error.
        async def serve_then_drain():
            d = await ReproDaemon(jobs=2, kind="process").start()
            c = await AsyncServeClient.connect(d.host, d.port)
            assert await c.format(PACKED) == PLANE
            assert await c.read(PLANE) == PACKED
            await c.close()
            await d.close()

        with caplog.at_level("ERROR", logger="asyncio"):
            for _ in range(3):
                asyncio.run(serve_then_drain())
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []

    def test_requests_during_drain_are_rejected(self):
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                assert c.format(PACKED) == PLANE
                d._draining = True  # hold the drain window open
                with pytest.raises(ServeOverloadError, match="draining"):
                    c.format(PACKED)
                d._draining = False
                assert c.format(PACKED) == PLANE  # connection survived

    def test_stats_keys_always_complete(self):
        with serving() as d:
            assert set(d.stats()) == set(SERVE_STAT_KEYS)
            assert d.pool_stats() == {}  # no traffic, no pools
            with ServeClient(d.host, d.port) as c:
                c.format(PACKED)
            assert d.pool_stats() != {}


class TestConfig:
    def test_bad_kind_rejected(self):
        with pytest.raises(RangeError, match="kind"):
            ReproDaemon(kind="fiber")

    def test_bad_jobs_rejected(self):
        with pytest.raises(RangeError, match="jobs"):
            ReproDaemon(jobs=0)

    def test_negative_window_rejected(self):
        with pytest.raises(RangeError, match="batch_window"):
            ReproDaemon(batch_window=-1.0)


class TestCli:
    def test_serve_main_announces_and_serves(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            assert "repro-serve listening on" in line
            port = int(line.rsplit(":", 1)[1])
            with ServeClient("127.0.0.1", port) as c:
                assert c.format(PACKED) == PLANE
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_cli_serve_flag_rejects_values(self):
        from repro.cli import run

        with pytest.raises(SystemExit):
            run(["--serve", "1.5"])
