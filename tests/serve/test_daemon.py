"""Daemon lifecycle: admission control, batching, graceful drain, and
the CLI entry point.

The backpressure contract: past the in-flight budget, new requests get
a typed :class:`~repro.errors.ServeOverloadError` response immediately
while admitted requests complete untouched.  The batching contract: a
burst that arrives in one loop turn is one batch, requests that arrive
while a key's conversion runs form exactly one next batch, and
``batch_max_bytes`` caps each combined call.  The drain contract:
:meth:`ReproDaemon.close` stops accepting, writes every admitted
response, and stays idempotent.

Tests that need a conversion in flight hold one (:class:`Hold`) rather
than time anything.
"""

import asyncio
import random
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import Engine
from repro.engine.buffer import (
    format_buffer,
    ingest_bits,
    pack_bits,
    parse_buffer,
)
from repro.errors import RangeError, ReproError, ServeOverloadError
from repro.floats.formats import BINARY64
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.daemon import (
    SERVE_STAT_KEYS,
    SLICE_BYTES,
    ReproDaemon,
    serving,
)
from repro.serve.pool import INLINE_ROWS
from repro.serve.protocol import OP_FORMAT, OP_PING, OP_READ
from repro.workloads.corpus import uniform_random

VALUES = [1.5, 2.5, 3.0, -0.0, 5e-324, 1e308]
PACKED = pack_bits(ingest_bits(VALUES, BINARY64), BINARY64)
PLANE = format_buffer(PACKED, BINARY64, engine=Engine())
# More than INLINE_ROWS rows: a batch of this one request converts in
# two slices, where a Hold can stop it between them.
WIDE = PACKED * -(-INLINE_ROWS // len(VALUES))
WIDE_PLANE = PLANE * -(-INLINE_ROWS // len(VALUES))


def run_async(coro, timeout=60):
    """Drive a coroutine on a fresh loop (tests stay synchronous)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def fmt(packed, delimiter=b"\n"):
    return protocol.encode_request(OP_FORMAT, packed, "binary64", delimiter)


def read(plane, delimiter=b"\n"):
    return protocol.encode_request(OP_READ, plane, "binary64", delimiter)


def decoded(status, payload):
    """A response as its payload, or as the typed error it carries."""
    if status == protocol.STATUS_OK:
        return payload
    try:
        protocol.raise_error_payload(payload)
    except ReproError as exc:
        return exc


def pipelined(d, frames):
    """Send request frames in one write; the decoded responses."""
    with ServeClient(d.host, d.port) as c:
        return [decoded(*r) for r in c.pipeline(frames)]


def until(d, pred):
    """Poll ``pred(d)`` on the daemon's loop, between two of its
    steps, until it holds."""
    async def probe():
        return pred(d)

    while not asyncio.run_coroutine_threadsafe(
            probe(), d._loop).result(timeout=30):
        time.sleep(0.001)


class Hold:
    """Holds a daemon's sliced batches between two slices until
    released.

    A batch of more than ``INLINE_ROWS`` rows converts in several
    slices with a loop turn between them; there the patched
    ``_next_slice`` sets :attr:`entered` and waits, without blocking
    the loop, until :attr:`gate` is set.  :attr:`sizes` records the
    requests in every batch.
    """

    def __init__(self, d):
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.sizes = []
        next_slice, note_batch = d._next_slice, d._note_batch

        async def held():
            self.entered.set()
            while not self.gate.is_set():
                await asyncio.sleep(0.001)
            await next_slice()

        def noted(size):
            self.sizes.append(size)
            note_batch(size)

        d._next_slice = held
        d._note_batch = noted


class TestAdmission:
    def test_request_budget_sheds_with_typed_error(self):
        # One write: the first request is admitted, and the rest arrive
        # in the same loop turn, before its batch flushes.
        with serving(max_inflight_requests=1) as d:
            res = pipelined(d, [fmt(PACKED)] * 12)
        ok = [r for r in res if isinstance(r, bytes)]
        shed = [r for r in res if isinstance(r, ServeOverloadError)]
        assert len(ok) >= 1 and len(shed) >= 1
        assert len(ok) + len(shed) == 12
        assert all(r == PLANE for r in ok)  # in-flight work unaffected
        assert d.stats()["overloads"] == len(shed)

    def test_byte_budget_sheds_with_typed_error(self):
        with serving(max_inflight_bytes=len(PACKED)) as d:
            res = pipelined(d, [fmt(PACKED)] * 6)
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
        # A pipelined burst sent in one write arrives in one loop turn,
        # and the batch flushes one turn after its first request.
        with serving() as d:
            outs = pipelined(d, [fmt(PACKED)] * 24)
            stats = d.stats()
        assert all(o == PLANE for o in outs)
        assert stats["max_batch"] > 1
        assert stats["batches"] < 24
        assert stats["batches"] == 1 and stats["max_batch"] == 24

    def test_arrivals_during_a_conversion_form_one_next_batch(self):
        with serving() as d:
            hold = Hold(d)
            with ServeClient(d.host, d.port) as c:
                c.send_raw(fmt(WIDE))
                assert hold.entered.wait(30)
                for _ in range(10):  # ten writes, not one burst
                    c.send_raw(fmt(PACKED))
                until(d, lambda d: d.inflight[0] == 11)
                hold.gate.set()
                outs = [decoded(*protocol.parse_response(c.recv_body()))
                        for _ in range(11)]
            stats = d.stats()
        assert outs == [WIDE_PLANE] + [PLANE] * 10
        assert hold.sizes == [1, 10]
        assert stats["batches"] == 2 and stats["max_batch"] == 10

    def test_batch_max_bytes_splits_a_backlog(self):
        with serving(batch_max_bytes=3 * len(PACKED)) as d:
            hold = Hold(d)
            with ServeClient(d.host, d.port) as c:
                c.send_raw(fmt(WIDE))  # one request past the cap: alone
                assert hold.entered.wait(30)
                c.send_raw(fmt(PACKED) * 8)
                until(d, lambda d: d.inflight[0] == 9)
                hold.gate.set()
                outs = [decoded(*protocol.parse_response(c.recv_body()))
                        for _ in range(9)]
            stats = d.stats()
        assert outs == [WIDE_PLANE] + [PLANE] * 8
        assert hold.sizes == [1, 3, 3, 2]  # prefixes within the cap
        assert stats["batches"] == 4 and stats["batched_requests"] == 9

    def test_ready_run_is_one_fifo_write(self, monkeypatch):
        # Behind a held head, every other response settles: other keys
        # convert at once, errors are settled at admission, and the
        # head's key-mates convert inline the moment it finishes.  The
        # pump then writes them all with one write, in request order,
        # each byte-identical to the same request sent alone.
        frames = [fmt(WIDE), fmt(PACKED), read(PLANE), read(b"1.5\nzzz\n"),
                  fmt(PACKED[:5]),  # misaligned: DecodeError
                  protocol.encode_request(OP_PING),
                  read(PLANE.replace(b"\n", b"\r\n"), b"\r\n"),
                  protocol.encode_request(OP_FORMAT, PACKED, "bogus!"),
                  fmt(PACKED[:8])]
        writes = []
        write = asyncio.StreamWriter.write

        def counted(self, data):
            writes.append(len(data))
            return write(self, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                alone = []
                for f in frames:
                    c.send_raw(f)
                    alone.append(c.recv_body())
            hold = Hold(d)
            bytes_in = d.stats()["bytes_in"]
            with ServeClient(d.host, d.port) as c:
                c.send_raw(frames[0])
                assert hold.entered.wait(30)
                del writes[:]
                c.send_raw(b"".join(frames[1:]))
                # Everything read, and only the head and its two
                # key-mates still in flight.
                until(d, lambda d: d.stats()["bytes_in"] - bytes_in
                      == sum(map(len, frames)) and d.inflight[0] == 3)
                hold.gate.set()
                run = [c.recv_body() for _ in frames]
        assert run == alone
        statuses = [protocol.parse_response(b)[0] for b in run]
        assert statuses.count(protocol.STATUS_ERROR) == 3
        assert writes == [sum(len(b) + 4 for b in run)]

    @staticmethod
    def alone_and_batched(d, op, payloads, delimiter=b"\n"):
        """Each payload's answer sent alone, then all of them in one
        write (one batch where they coalesce)."""
        async def send():
            c = await AsyncServeClient.connect(d.host, d.port)
            call = c.format if op == "format" else c.read
            alone = [await call(p, delimiter=delimiter) for p in payloads]
            await c.close()
            return alone
        encode = fmt if op == "format" else read
        return run_async(send()), pipelined(
            d, [encode(p, delimiter) for p in payloads])

    def test_batched_responses_split_byte_identically(self):
        # Different-sized payloads in one batch must split back
        # exactly: per-request responses equal per-request oracles.
        chunks = [PACKED[:8], PACKED[:24], PACKED, b"", PACKED[8:16]]
        for delim in (b"\n", b"\r\n"):
            oracles = [format_buffer(c, BINARY64, engine=Engine(),
                                     delimiter=delim) for c in chunks]
            with serving() as d:
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
        for delim in (b"\n", b"\r\n"):
            sent = [p.replace(b"\n", delim) for p in planes]
            oracles = [pack_bits(parse_buffer(p, BINARY64, engine=Engine(),
                                              delimiter=delim), BINARY64)
                       for p in sent]
            with serving() as d:
                alone, outs = self.alone_and_batched(d, "read", sent, delim)
                stats = d.stats()
            assert alone == oracles
            assert outs == oracles
            assert stats["max_batch"] > 1

    def test_poisoned_batch_falls_back_per_request(self):
        # One garbage literal must fail alone; batch-mates succeed.
        planes = [b"1.5\n", b"zzz\n", b"2.5\n"]
        with serving() as d:
            res = pipelined(d, [read(p) for p in planes])
            stats = d.stats()
        from repro.errors import ParseError

        assert isinstance(res[1], ParseError)
        assert isinstance(res[0], bytes) and isinstance(res[2], bytes)
        assert stats["max_batch"] == 3  # the burst coalesced
        assert stats["batch_fallbacks"] >= 1


class TestSlices:
    """Every batch converts on the loop in slices of at most
    ``INLINE_ROWS`` rows and ``SLICE_BYTES`` bytes, with a loop turn
    between two slices."""

    @staticmethod
    def sliced(d):
        """Record the rows and bytes of every slice ``d`` converts."""
        seen = []
        convert = d._convert

        def recorded(op, fmt, delimiter, payloads, counts):
            seen.append((sum(counts), sum(map(len, payloads))))
            return convert(op, fmt, delimiter, payloads, counts)

        d._convert = recorded
        return seen

    @staticmethod
    def ping_between_slices(d, frame):
        """Send ``frame``, hold its batch between two slices, and PING
        on a second connection: the PING must be answered while the
        large response has not arrived.  Returns the large response."""
        hold = Hold(d)
        with ServeClient(d.host, d.port) as big, \
                ServeClient(d.host, d.port) as small:
            big.send_raw(frame)
            assert hold.entered.wait(60)
            assert small.ping()
            assert select.select([big._sock], [], [], 0)[0] == []
            hold.gate.set()
            return decoded(*protocol.parse_response(big.recv_body()))

    def test_large_read_yields_to_a_ping(self):
        # 511 rows (one fewer than INLINE_ROWS) of 5,000-digit literals:
        # about 2.5 MB, so only the byte bound slices it.
        rng = random.Random(32)
        plane = b"".join(
            b"%d.%se%d\n" % (rng.randrange(1, 10),
                              "".join(rng.choices("0123456789", k=4998))
                              .encode(), rng.randrange(-300, 300))
            for _ in range(INLINE_ROWS - 1))
        want = pack_bits(parse_buffer(plane, BINARY64, engine=Engine()),
                         BINARY64)
        with serving() as d:
            seen = self.sliced(d)
            got = self.ping_between_slices(d, read(plane))
        assert got == want
        assert len(seen) > 1
        assert all(size <= SLICE_BYTES for _, size in seen)
        assert sum(rows for rows, _ in seen) == INLINE_ROWS - 1

    def test_large_format_yields_to_a_ping(self):
        packed = pack_bits(ingest_bits(
            [v.to_float() for v in uniform_random(
                4 * INLINE_ROWS, seed=32, signed=True)], BINARY64), BINARY64)
        want = format_buffer(packed, BINARY64, engine=Engine())
        with serving() as d:
            seen = self.sliced(d)
            got = self.ping_between_slices(d, fmt(packed))
        assert got == want
        assert [rows for rows, _ in seen] == [INLINE_ROWS] * 4

    def test_cuts_keep_every_response_byte_identical(self):
        # One burst: requests whole, cut across slices, empty, and with
        # an unterminated tail, on both delimiters.
        packed = [WIDE, b"", PACKED, WIDE * 3, PACKED[:8]]
        planes = [WIDE_PLANE, b"", PLANE, WIDE_PLANE * 3 + b"7.5",
                  b"0.1\n2e-3"]
        for delim in (b"\n", b"\r\n"):
            sent = [p.replace(b"\n", delim) for p in planes]
            want = [format_buffer(p, BINARY64, engine=Engine(),
                                  delimiter=delim) for p in packed]
            want += [pack_bits(parse_buffer(p, BINARY64, engine=Engine(),
                                            delimiter=delim), BINARY64)
                     for p in sent]
            with serving() as d:
                seen = self.sliced(d)
                got = pipelined(d, [fmt(p, delim) for p in packed]
                                + [read(p, delim) for p in sent])
                stats = d.stats()
            assert got == want
            assert stats["batches"] == 2  # one per key
            assert max(rows for rows, _ in seen) == INLINE_ROWS
            assert len(seen) > 2

    def test_error_in_a_cut_request_lands_on_it_alone(self):
        # The bad request is cut in two; its garbage row shares the
        # second slice with the third request, which must still succeed.
        bad = WIDE_PLANE + b"zzz\n"
        with serving() as d:
            res = pipelined(d, [read(PLANE), read(bad), read(PLANE)])
            stats = d.stats()
        from repro.errors import ParseError

        assert res[0] == PACKED and res[2] == PACKED
        assert isinstance(res[1], ParseError)
        assert stats["batches"] == 1 and stats["batch_fallbacks"] == 1


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
        d = ReproDaemon()
        hold = Hold(d)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                d.start(), loop).result(timeout=30)

            async def burst_then_close():
                c = await AsyncServeClient.connect(d.host, d.port)
                wide = asyncio.ensure_future(c.format(WIDE))
                while not hold.entered.is_set():
                    await asyncio.sleep(0.002)
                tasks = [asyncio.ensure_future(c.format(PACKED))
                         for _ in range(8)]
                # All eight wait behind the held conversion; close()
                # must convert and *write* them before tearing down.
                for _ in range(2000):
                    if d.inflight[0] >= 9:
                        break
                    await asyncio.sleep(0.002)
                closing = asyncio.ensure_future(d.close())
                await asyncio.sleep(0)  # close() flips _draining here
                hold.gate.set()
                await closing
                res = await asyncio.gather(*tasks, return_exceptions=True)
                res.append(await wide)
                await c.close()
                return res

            res = asyncio.run_coroutine_threadsafe(
                burst_then_close(), loop).result(timeout=60)
            # Every admitted request completed; none hung.
            assert res.pop() == WIDE_PLANE
            assert all(isinstance(r, bytes) and r == PLANE for r in res)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()

    def test_drain_admission_race_is_deterministic(self):
        # The drain/admission race, pinned: requests admitted before
        # the drain flag flips are *served* even though they still wait
        # behind a held conversion when it flips; a request arriving
        # after the flip sheds with the typed overload error; and the
        # counters reconcile exactly.
        d = ReproDaemon(drain_timeout=20.0)
        hold = Hold(d)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                d.start(), loop).result(timeout=30)

            async def race():
                c = await AsyncServeClient.connect(d.host, d.port)
                wide = asyncio.ensure_future(c.format(WIDE))
                while not hold.entered.is_set():
                    await asyncio.sleep(0.002)
                tasks = [asyncio.ensure_future(c.format(PACKED))
                         for _ in range(4)]
                for _ in range(2000):
                    if d.inflight[0] >= 5:
                        break
                    await asyncio.sleep(0.002)
                t0 = time.monotonic()
                closing = asyncio.ensure_future(d.close())
                await asyncio.sleep(0)  # close() flips _draining here
                late = asyncio.ensure_future(c.format(PACKED))
                for _ in range(2000):
                    if d.stats()["overloads"]:
                        break
                    await asyncio.sleep(0.002)
                # The late response queues behind the held ones (FIFO):
                # release the conversion only once it has been shed.
                hold.gate.set()
                late = await asyncio.gather(late, return_exceptions=True)
                res = await asyncio.gather(wide, *tasks,
                                           return_exceptions=True)
                await closing
                elapsed = time.monotonic() - t0
                await c.close()
                return res, late[0], elapsed

            res, late, elapsed = asyncio.run_coroutine_threadsafe(
                race(), loop).result(timeout=60)
            assert res.pop(0) == WIDE_PLANE
            assert all(r == PLANE for r in res)  # admitted => served
            assert isinstance(late, ServeOverloadError)  # late => shed
            assert elapsed < 15.0  # drained well inside drain_timeout
            stats = d.stats()
            assert stats["drains"] == 1
            assert stats["overloads"] >= 1
            assert stats["responses"] >= 4
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()

    def test_drain_right_after_disconnect_logs_no_error(self, caplog,
                                                        monkeypatch):
        # The SIGINT path of ``python -m repro.serve``: a client sends
        # a format and a read and hangs up, the daemon drains at once,
        # and the loop is torn down.  close() must let the connection
        # handler finish; one still running at teardown is cancelled,
        # and asyncio logs its CancelledError as an error.  Half the
        # rounds drain while the handler is still closing its stream
        # (its wait_closed made a few loop turns slower).
        real_wait_closed = asyncio.StreamWriter.wait_closed
        closing = []

        async def slow_wait_closed(self):
            if closing:
                closing[0].set()
                for _ in range(20):
                    await asyncio.sleep(0)
            await real_wait_closed(self)

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            slow_wait_closed)

        async def serve_then_drain(mid_close):
            d = await ReproDaemon().start()
            c = await AsyncServeClient.connect(d.host, d.port)
            assert await c.format(WIDE) == WIDE_PLANE  # sliced
            assert await c.read(WIDE_PLANE) == WIDE
            closing[:] = [asyncio.Event()] if mid_close else []
            await c.close()
            if mid_close:
                await closing[0].wait()
            await d.close()

        with caplog.at_level("ERROR", logger="asyncio"):
            for mid_close in (False, True, False, True):
                asyncio.run(serve_then_drain(mid_close))
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
            # The engine's counters from the start, before any traffic.
            assert d.pool_stats() == Engine().stats()
            with ServeClient(d.host, d.port) as c:
                c.format(PACKED)
                c.read(PLANE)
            stats = d.pool_stats()
        assert stats["conversions"] == 5  # finite nonzero rows
        assert stats["read_conversions"] == len(VALUES)

    def test_serve_stat_keys_pinned(self):
        assert SERVE_STAT_KEYS == (
            "connections", "requests", "responses", "format_requests",
            "read_requests", "pings", "batches", "batched_requests",
            "max_batch", "batch_fallbacks", "overloads",
            "protocol_errors", "error_responses", "bytes_in",
            "bytes_out", "drains", "health_requests", "admission_sheds",
            "admission_increases", "admission_decreases",
            "observed_requests", "snapshot_rotations")


class TestConfig:
    def test_bad_kind_rejected(self, capsys):
        # --jobs alone picks the route; --kind survives only as the
        # spelling "process" for older command lines.
        from repro.serve.daemon import main

        with pytest.raises(SystemExit):
            main(["--kind", "thread"])
        assert "--kind" in capsys.readouterr().err

    def test_bad_jobs_rejected(self):
        # The daemon has no pool to size: any jobs is an unknown
        # argument (the CLI's --jobs is accepted and ignored).
        with pytest.raises(TypeError, match="jobs"):
            ReproDaemon(jobs=0)

    def test_pool_arguments_are_gone(self):
        for name in ("workers", "deadline", "budget", "retries",
                     "on_error", "breaker_threshold", "breaker_reset",
                     "hedge", "hedge_min", "hedge_under_faults", "clock"):
            with pytest.raises(TypeError, match=name):
                ReproDaemon(**{name: 1})

    def test_pool_flags_are_gone(self, capsys):
        from repro.serve.daemon import main

        for argv in (["--deadline", "1"], ["--budget", "1"],
                     ["--breaker-threshold", "1"],
                     ["--breaker-reset", "1"], ["--hedge"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_drain_timeout_rejected(self):
        with pytest.raises(RangeError, match="drain_timeout"):
            ReproDaemon(drain_timeout=-1)


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
            proc.stdout.close()

    def test_launcher_argv_converts_inline_with_no_child(self):
        # The benchmark launcher's exact argv: --jobs and --kind are
        # ignored, so batches of INLINE_ROWS rows and more convert in
        # the daemon's own process and nothing forks.  A thread of the
        # daemon's process answers "children" with its child count.
        code = ("import multiprocessing, os, sys, threading\n"
                "from repro.serve.daemon import main\n"
                "def answer():\n"
                "    while os.read(0, 64):\n"
                "        n = len(multiprocessing.active_children())\n"
                "        os.write(1, b'children %d\\n' % n)\n"
                "threading.Thread(target=answer, daemon=True).start()\n"
                "sys.exit(main(['--jobs', '2', '--kind', 'process', "
                "'--port', '0']))\n")
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            assert "repro-serve listening on" in line
            port = int(line.rsplit(":", 1)[1])
            with ServeClient("127.0.0.1", port) as c:
                assert c.format(WIDE) == WIDE_PLANE
                assert c.read(WIDE_PLANE) == WIDE
                assert c.format(WIDE * 4) == WIDE_PLANE * 4
                assert c.read(WIDE_PLANE * 4) == WIDE * 4
                proc.stdin.write("children\n")
                proc.stdin.flush()
                assert proc.stdout.readline() == "children 0\n"
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdin.close()
            proc.stdout.close()

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_drains_with_sigint_ignored(self, sig):
        # A background job inherits SIGINT ignored.  Either signal must
        # still stop the daemon, drain it and exit 0.
        code = ("import signal, sys\n"
                "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
                "from repro.serve.daemon import main\n"
                "sys.exit(main(['--port', '0']))\n")
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            assert "repro-serve listening on" in line
            port = int(line.rsplit(":", 1)[1])
            with ServeClient("127.0.0.1", port) as c:
                assert c.format(PACKED) == PLANE
                proc.send_signal(sig)
                assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()

    def test_cli_serve_flag_rejects_values(self):
        from repro.cli import run

        with pytest.raises(SystemExit):
            run(["--serve", "1.5"])
