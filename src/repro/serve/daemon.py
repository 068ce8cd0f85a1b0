"""The asyncio serving daemon: the engine behind a wire.

:class:`ReproDaemon` fronts the byte-plane pipeline
(:func:`~repro.engine.buffer.format_buffer` /
:func:`~repro.engine.buffer.parse_buffer` on one engine) with a
loopback/TCP server speaking the length-prefixed protocol of
:mod:`repro.serve.protocol`.  Payloads are byte planes end to end: a
format request's packed bit patterns and a read request's delimited
ASCII plane go straight into the pipeline — the wire never
materializes per-row strings.

Design:

* **Admission control** — accepting a request that would push the
  daemon past ``max_inflight_bytes`` or ``max_inflight_requests``
  (or that arrives while draining) yields a typed
  :class:`~repro.errors.ServeOverloadError` response immediately;
  in-flight requests are never affected.  Clients see a fast typed
  rejection instead of unbounded queueing — the latency SLO is
  protected by shedding, not by lying.
* **Request batching** — concurrent requests with the same
  ``(op, format, delimiter)`` key coalesce into one batch of at most
  ``batch_max_bytes``.  Batching is self-clocked: a batch flushes one
  loop turn after its first request, and the requests that arrive
  while it converts form the next one.  Responses are byte-identical
  to unbatched execution: format batches split on row counts, read
  batches on token counts, and a request that poisons a combined call
  (e.g. one garbage literal) falls back to per-request conversion so
  its neighbours still succeed.
* **Inline conversion in slices** — every batch converts on the event
  loop, on the daemon's one engine: no worker process, no thread hop
  (under the GIL neither buys a 64-row request anything).  A batch
  converts in slices of at most :data:`~repro.serve.pool.INLINE_ROWS`
  rows and :data:`SLICE_BYTES` payload bytes, cut on row boundaries,
  with one loop turn between slices, so the loop is never blocked for
  longer than one slice: frame reads, pings and other keys' batches
  run in between.  An error surfaces as its typed
  :class:`~repro.errors.ReproError` response; an untyped escape (an
  engine fault under ``strict``) is wrapped in the base type.
* **Graceful drain** — :meth:`close` stops accepting, waits (bounded
  by ``drain_timeout``) for in-flight responses to be written, then
  closes the connections.  Idempotent, and safe to call from any
  thread via :func:`serving`.

The event loop owns every counter, queue and conversion; only a live
snapshot rotation runs on the loop's default executor.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import buffer
from repro.engine.buffer import _itemsize, _row_count, pack_bits, split_plane
from repro.errors import (
    DecodeError,
    ProtocolError,
    RangeError,
    ReproError,
    ServeOverloadError,
)
from repro.floats.formats import STANDARD_FORMATS
from repro.serve import protocol
from repro.serve.control import AdmissionController, TrafficObserver
from repro.serve.pool import INLINE_ROWS
from repro.serve.protocol import OP_FORMAT, OP_HEALTH, OP_PING, OP_READ

__all__ = ["ReproDaemon", "serving", "main", "SERVE_STAT_KEYS",
           "SLICE_BYTES"]

#: Counters :meth:`ReproDaemon.stats` always includes.  The control
#: plane's ``admission_increases`` / ``admission_decreases`` /
#: ``observed_requests`` entries are folded live from the controller and
#: observer state in :meth:`ReproDaemon.stats`; the rest are incremented
#: where the event happens.
SERVE_STAT_KEYS = (
    "connections", "requests", "responses", "format_requests",
    "read_requests", "pings", "batches", "batched_requests", "max_batch",
    "batch_fallbacks", "overloads", "protocol_errors", "error_responses",
    "bytes_in", "bytes_out", "drains", "health_requests",
    "admission_sheds", "admission_increases", "admission_decreases",
    "observed_requests", "snapshot_rotations",
)

#: Most payload bytes one slice of a batch converts (with at most
#: :data:`~repro.serve.pool.INLINE_ROWS` rows), unless a single row is
#: longer.  A module constant, not a knob: 64 KiB of 5,000-digit
#: literals is 13 rows, a few milliseconds of the exact reader.
SLICE_BYTES = 64 << 10

#: One piece of a slice: ``(request index, payload bytes, rows)``.
Piece = Tuple[int, bytes, int]


def _failed(exc: ReproError, loop) -> asyncio.Future:
    fut = loop.create_future()
    fut.set_exception(exc)
    return fut


class _Batcher:
    """Coalesces same-keyed requests into one batch, converted in
    slices.

    Self-clocked, with no timer: the first request for an idle key
    flushes after one loop turn, so a burst that arrives in the same
    turn coalesces.  Requests that arrive while that batch converts
    become the next batch, which flushes as soon as it finishes; at
    most one batch per key is in flight.  A flush takes the longest
    prefix of the pending requests within ``batch_max_bytes`` (at least
    one request).
    """

    def __init__(self, daemon: "ReproDaemon", op: int, fmt_name: str,
                 delimiter: bytes):
        self.daemon = daemon
        self.op = op
        self.fmt = STANDARD_FORMATS[fmt_name]
        self.delimiter = delimiter
        self.pending: List[Tuple[bytes, asyncio.Future]] = []
        self._task: Optional[asyncio.Task] = None

    def add(self, payload: bytes, fut: asyncio.Future) -> None:
        self.pending.append((payload, fut))
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        try:
            await asyncio.sleep(0)  # one loop turn: same-burst coalescing
            while self.pending:
                await self._flush(self._take())
        finally:
            self._task = None

    def _take(self) -> List[Tuple[bytes, asyncio.Future]]:
        cap = self.daemon.batch_max_bytes
        size = k = 0
        for payload, _ in self.pending:
            size += len(payload)
            if k and size > cap:
                break
            k += 1
        batch, self.pending = self.pending[:k], self.pending[k:]
        return batch

    def _row_ends(self, payload: bytes) -> Sequence[int]:
        """The byte offset just past each row of ``payload``."""
        if self.op == OP_FORMAT:
            size = _itemsize(self.fmt)
            return range(size, len(payload) + 1, size)
        ends = split_plane(payload, self.delimiter)[1][1:].tolist()
        ends.append(len(payload))
        return ends

    def _slices(self, payloads: List[bytes]):
        """The batch cut into slices of at most ``INLINE_ROWS`` rows and
        ``SLICE_BYTES`` bytes (a row longer than that is a slice of its
        own): lists of pieces, in request order.  A request that fits
        the current slice joins it whole; a larger one is cut on row
        boundaries (packed items for format, delimiter-terminated
        tokens for read)."""
        cur: List[Piece] = []
        rows = size = 0
        for i, p in enumerate(payloads):
            n = (_row_count(p, self.delimiter) if self.op == OP_READ
                 else len(p) // _itemsize(self.fmt))
            if rows + n <= INLINE_ROWS and size + len(p) <= SLICE_BYTES:
                cur.append((i, p, n))
                rows += n
                size += len(p)
                continue
            ends = self._row_ends(p)
            a = start = 0  # rows of p taken, and their bytes
            while a < n:
                b = bisect_right(ends, start + SLICE_BYTES - size, a,
                                 min(n, a + INLINE_ROWS - rows))
                if b == a:
                    if cur:  # no room left: close this slice first
                        yield cur
                        cur, rows, size = [], 0, 0
                        continue
                    b = a + 1  # one row past the byte bound
                piece = p[start:ends[b - 1]]
                cur.append((i, piece, b - a))
                rows += b - a
                size += len(piece)
                a, start = b, ends[b - 1]
                if a < n:  # cut here: this slice is full
                    yield cur
                    cur, rows, size = [], 0, 0
        if cur:
            yield cur

    async def _flush(self, batch: List[Tuple[bytes, asyncio.Future]]
                     ) -> None:
        daemon = self.daemon
        daemon._note_batch(len(batch))
        parts: List[List[object]] = [[] for _ in batch]
        try:
            for k, pieces in enumerate(self._slices([p for p, _ in batch])):
                if k:
                    await daemon._next_slice()
                try:
                    results = daemon._convert(
                        self.op, self.fmt, self.delimiter,
                        [p for _, p, _ in pieces], [n for _, _, n in pieces])
                except Exception as exc:  # untyped escape: fail the slice
                    results = [exc] * len(pieces)
                for (i, _, _), res in zip(pieces, results):
                    parts[i].append(res)
        except BaseException as exc:  # cancelled at teardown: fail all
            parts = [[exc]] * len(batch)
            raise
        finally:
            for (payload, fut), res in zip(batch, parts):
                daemon._release(len(payload))
                if fut.cancelled():
                    continue
                err = next((r for r in res
                            if isinstance(r, BaseException)), None)
                if err is None:
                    fut.set_result(res[0] if len(res) == 1
                                   else b"".join(res))
                elif isinstance(err, ReproError):
                    fut.set_exception(err)
                else:
                    fut.set_exception(ReproError(
                        f"internal conversion failure: {err!r}"))


class ReproDaemon:
    """An asyncio front-end serving format/read byte planes with SLOs.

    Args:
        host / port: Listen address (``port=0`` picks a free port,
            published as :attr:`port` after :meth:`start`).
        batch_max_bytes: Most payload bytes one batch takes; a longer
            backlog flushes as several batches in turn.
        max_inflight_bytes / max_inflight_requests: The admission
            budget; past either, requests are rejected with
            :class:`ServeOverloadError`.
        max_frame: Largest accepted frame body; a length prefix past it
            is framing damage (typed response, connection closed).
        idle_timeout: Seconds a connection may sit idle (or hold a
            partial frame) before the daemon closes it; None disables.
        mode / tie: Reader assumption and tie strategy for formatting.
        drain_timeout: Seconds :meth:`close` waits for in-flight
            responses before tearing down anyway.
        snapshot: Optional warm-start source (path or
            :class:`repro.engine.snapshot.Snapshot`) for the daemon's
            one engine, applied once at construction.  A rejected
            snapshot counts ``snapshot_faults`` in :meth:`pool_stats`
            and serving starts cold — response bytes are identical
            either way.
        slo_target_ms: p99 latency target driving AIMD admission
            (None: static caps only).  The adaptive window can only
            shrink below ``max_inflight_bytes``, never grow past it.
        rotate_snapshot / rotate_every: Rebuild the warm-start
            snapshot at ``rotate_snapshot`` from live hot keys after
            every ``rotate_every`` observed rows (0: disabled).  The
            save is atomic (temp + rename) and rotation only pre-seeds
            caches — output bytes never change.
        observe_stride: Sample every Nth request's corpus shape
            (0: observer off; forced to 1 when rotation needs
            samples).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 batch_max_bytes: int = 1 << 20,
                 max_inflight_bytes: int = 16 << 20,
                 max_inflight_requests: int = 1024,
                 max_frame: int = protocol.MAX_FRAME,
                 idle_timeout: Optional[float] = None,
                 mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                 tie: TieBreak = TieBreak.UP,
                 drain_timeout: float = 10.0, snapshot=None,
                 slo_target_ms: Optional[float] = None,
                 rotate_snapshot=None, rotate_every: int = 0,
                 observe_stride: int = 16):
        if drain_timeout < 0:
            raise RangeError("drain_timeout must be >= 0")
        if rotate_every < 0 or observe_stride < 0:
            raise RangeError("rotate_every/observe_stride must be >= 0")
        if slo_target_ms is not None and slo_target_ms <= 0:
            raise RangeError(
                f"slo_target_ms must be positive, got {slo_target_ms}")
        self.host = host
        self.port = port
        self.batch_max_bytes = batch_max_bytes
        self.max_inflight_bytes = max_inflight_bytes
        self.max_inflight_requests = max_inflight_requests
        self.max_frame = max_frame
        self.idle_timeout = idle_timeout
        self.mode = mode
        self.tie = tie
        self.drain_timeout = drain_timeout
        self._inflight_requests = 0
        self._inflight_bytes = 0
        self._unwritten = 0
        self._draining = False
        self._closed = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Live connections: each writer and the task handling it.
        self._conns: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._batchers: Dict[Tuple[int, str, bytes], _Batcher] = {}
        self.snapshot = snapshot
        # --- control plane ------------------------------------------
        self.slo_target_ms = slo_target_ms
        self._controller = None if slo_target_ms is None else \
            AdmissionController(target_p99_ms=slo_target_ms,
                                ceiling_bytes=max_inflight_bytes)
        self.rotate_snapshot = rotate_snapshot
        self.rotate_every = int(rotate_every)
        self.observe_stride = int(observe_stride)
        if rotate_every and not self.observe_stride:
            self.observe_stride = 1  # rotation needs samples
        self._observer = TrafficObserver()
        self._rotation: Optional[asyncio.Future] = None
        from repro.engine.engine import Engine

        self._engine = Engine(snapshot=snapshot)
        self._stats: Dict[str, int] = dict.fromkeys(SERVE_STAT_KEYS, 0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ReproDaemon":
        """Bind and start accepting; publishes the chosen :attr:`port`."""
        if self._server is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Run until cancelled or the server is closed; drains
        gracefully on the way out."""
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.close()

    async def close(self) -> None:
        """Graceful drain: stop accepting, wait for in-flight responses
        (bounded by ``drain_timeout``), then close the connections.
        Idempotent — any number of calls, from the serve loop's finally
        or directly."""
        if self._closed:
            return
        self._draining = True
        self._stats["drains"] += 1
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        # Wait for every accepted response to be *written*, not merely
        # converted — a drained daemon owes the wire nothing — and for
        # a snapshot rotation still writing its temp file.
        rotation = self._rotation  # no rotation starts once draining
        while (self._inflight_requests > 0 or self._unwritten > 0
               or rotation is not None and not rotation.done()) \
                and loop.time() < deadline:
            await asyncio.sleep(0.005)
        self._closed = True
        for writer in list(self._conns):
            with contextlib.suppress(Exception):
                writer.close()
        # Let each handler see its closed stream and return before the
        # loop goes: a handler still running at loop teardown is
        # cancelled mid-``finally``, and asyncio logs that as an error.
        if self._conns:
            await asyncio.wait(list(self._conns.values()),
                               timeout=max(deadline - loop.time(), 1.0))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._stats["connections"] += 1
        self._conns[writer] = asyncio.current_task()
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        pump = asyncio.ensure_future(self._pump(queue, writer))
        try:
            while True:
                try:
                    frame = protocol.read_frame(reader, self.max_frame)
                    if self.idle_timeout is not None:
                        body = await asyncio.wait_for(frame,
                                                      self.idle_timeout)
                    else:
                        body = await frame
                except ProtocolError as exc:
                    # Bad length prefix: respond, then close — the
                    # stream is no longer framed.
                    self._stats["protocol_errors"] += 1
                    self._unwritten += 1
                    await queue.put(_failed(exc, loop))
                    break
                except (asyncio.IncompleteReadError, ConnectionError,
                        asyncio.TimeoutError):
                    break  # mid-frame disconnect or idle cutoff
                if body is None:
                    break  # clean EOF
                self._stats["bytes_in"] += len(body) + 4
                try:
                    req = protocol.parse_request(body)
                except ProtocolError as exc:
                    self._stats["protocol_errors"] += 1
                    self._unwritten += 1
                    await queue.put(_failed(exc, loop))
                    if exc.recoverable:
                        continue  # frame fully consumed; stream intact
                    break
                self._unwritten += 1
                await queue.put(self._admit(req, loop))
        finally:
            await queue.put(None)
            with contextlib.suppress(Exception):
                await pump
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            # Only now, so that close() waits for a handler still
            # closing its stream rather than leaving it to be cancelled.
            self._conns.pop(writer, None)

    async def _pump(self, queue: asyncio.Queue,
                    writer: asyncio.StreamWriter) -> None:
        """Write responses in request order; one pump per connection.

        Pipelined requests resolve concurrently (they may share a
        batch), but the wire contract is strict FIFO.  The pump waits
        for the head future, takes every settled future queued behind
        it, and writes the run with one ``write`` and one ``drain``.  A
        client that disconnects early stops receiving, never the
        accounting — remaining futures are still awaited so in-flight
        counters drain.
        """
        alive = True
        last = False
        nxt: Optional[asyncio.Future] = None
        while not last:
            head = nxt if nxt is not None else await queue.get()
            if head is None:
                return
            if not head.done():
                await asyncio.wait((head,))
            run, nxt = [head], None
            while not queue.empty():
                fut = queue.get_nowait()
                if fut is None:
                    last = True
                    break
                if not fut.done():
                    nxt = fut
                    break
                run.append(fut)
            try:
                if alive:
                    data = b"".join([self._encode(f) for f in run])
                    writer.write(data)
                    await writer.drain()
                    self._stats["responses"] += len(run)
                    self._stats["bytes_out"] += len(data)
            except (ConnectionError, RuntimeError, OSError):
                alive = False
            finally:
                self._unwritten -= len(run)

    def _encode(self, fut: asyncio.Future) -> bytes:
        """The response frame of one settled request future."""
        exc = fut.exception()
        if exc is None:
            return protocol.encode_response(fut.result())
        self._stats["error_responses"] += 1
        if not isinstance(exc, ReproError):  # pragma: no cover - defensive
            exc = ReproError(f"internal error: {exc!r}")
        return protocol.encode_error(exc)

    # ------------------------------------------------------------------
    # Admission control and batching
    # ------------------------------------------------------------------

    def _admit(self, req: protocol.Request,
               loop: asyncio.AbstractEventLoop) -> asyncio.Future:
        """The admission decision: a future that resolves to the
        response payload, already rejected when over budget."""
        self._stats["requests"] += 1
        if req.op == OP_PING:
            self._stats["pings"] += 1
            fut = loop.create_future()
            fut.set_result(b"")
            return fut
        if req.op == OP_HEALTH:
            # Introspection bypasses admission: HEALTH must answer
            # exactly when the daemon is shedding everything else.
            self._stats["health_requests"] += 1
            fut = loop.create_future()
            try:
                fut.set_result(
                    json.dumps(self.health(), sort_keys=True,
                               default=str).encode("utf-8"))
            except Exception as exc:  # pragma: no cover - defensive
                fut.set_exception(
                    ReproError(f"health summary failed: {exc!r}"))
            return fut
        if self._draining or self._closed:
            self._stats["overloads"] += 1
            return _failed(ServeOverloadError(
                "daemon is draining; connect elsewhere"), loop)
        if self._inflight_requests >= self.max_inflight_requests:
            self._stats["overloads"] += 1
            return _failed(ServeOverloadError(
                f"{self._inflight_requests} requests in flight "
                f"(limit {self.max_inflight_requests}); back off"), loop)
        if self._inflight_bytes + len(req.payload) \
                > self.max_inflight_bytes:
            self._stats["overloads"] += 1
            return _failed(ServeOverloadError(
                f"request of {len(req.payload)} bytes exceeds the "
                f"in-flight byte budget ({self._inflight_bytes}/"
                f"{self.max_inflight_bytes} used); back off"), loop)
        if self._controller is not None and self._inflight_bytes \
                and self._inflight_bytes + len(req.payload) \
                > self._controller.limit_bytes:
            # The AIMD window has shrunk below the static cap: latency
            # is past the SLO target, so shed early rather than queue.
            # An idle daemon admits anyway: a shed request feeds the
            # controller nothing, so traffic made only of requests
            # larger than the window would never reopen it.
            self._stats["overloads"] += 1
            self._stats["admission_sheds"] += 1
            return _failed(self._controller.shed_error(
                self._inflight_bytes, len(req.payload)), loop)
        if req.op == OP_FORMAT:
            try:
                itemsize = _itemsize(req.fmt)
            except DecodeError as exc:
                return _failed(exc, loop)
            if len(req.payload) % itemsize:
                return _failed(DecodeError(
                    f"format payload of {len(req.payload)} bytes is not "
                    f"a multiple of the {itemsize}-byte {req.fmt_name} "
                    f"encoding"), loop)
            self._stats["format_requests"] += 1
        else:
            self._stats["read_requests"] += 1
        if self.observe_stride and (self._stats["requests"]
                                    % self.observe_stride == 0):
            self._observe(req)
        self._inflight_requests += 1
        self._inflight_bytes += len(req.payload)
        fut = loop.create_future()
        key = (req.op, req.fmt_name, req.delimiter)
        batcher = self._batchers.get(key)
        if batcher is None:
            batcher = self._batchers[key] = _Batcher(
                self, req.op, req.fmt_name, req.delimiter)
        batcher.add(req.payload, fut)
        if self._controller is not None:
            t0 = loop.time()
            fut.add_done_callback(
                lambda f, t0=t0: self._settle(f, t0, loop))
        return fut

    def _settle(self, fut: asyncio.Future, t0: float,
                loop: asyncio.AbstractEventLoop) -> None:
        """Feed one admitted request's latency to the AIMD controller."""
        if not fut.cancelled():
            self._controller.observe(loop.time() - t0)

    def _observe(self, req: protocol.Request) -> None:
        """Sample corpus shape; trigger a snapshot rotation when due."""
        try:
            if req.op == OP_FORMAT:
                self._observer.observe_format(req.fmt_name, req.fmt,
                                              req.payload)
            else:
                self._observer.observe_read(req.payload, req.delimiter)
        except Exception:  # pragma: no cover - sampling is best-effort
            return
        if (self.rotate_every and self.rotate_snapshot is not None
                and not self._draining
                and (self._rotation is None or self._rotation.done())
                and self._observer.rows_since_rotation
                >= self.rotate_every):
            self._rotation = self._loop.run_in_executor(None,
                                                        self._rotate_now)

    def _rotate_now(self) -> None:
        """Rebuild the warm-start snapshot from live hot keys (on the
        loop's default executor).  Rotation may only skip work, never
        change bytes: the snapshot pre-seeds caches whose entries the
        verify battery byte-compares against cold computation, and the
        save is the torn-write-safe ``save_snapshot`` (temp file +
        rename)."""
        try:
            from repro.engine.snapshot import (build_snapshot, hot_entries,
                                               save_snapshot)

            values = self._observer.hot_values()
            formats = self._observer.observed_formats() or ["binary64"]
            hot = hot_entries(values, engine=self._engine, mode=self.mode,
                              tie=self.tie) if values else []
            snap = build_snapshot(formats=formats, engine=self._engine,
                                  hot=hot,
                                  meta={"source": "live-rotation",
                                        "requests":
                                        self._observer.requests})
            save_snapshot(snap, self.rotate_snapshot)
            # Engines built from here on warm from the rotated file;
            # the live one keeps its caches (a cache can only be
            # warmer, never different).
            self.snapshot = self.rotate_snapshot
            self._stats["snapshot_rotations"] += 1
        except Exception:  # pragma: no cover - rotation is best-effort
            pass
        finally:
            self._observer.rotation_done()

    def health(self) -> dict:
        """Controller window + observer summary — the payload of the
        ``HEALTH`` opcode, JSON-serializable."""
        return {
            "admission": None if self._controller is None
            else self._controller.snapshot(),
            "observer": self._observer.summary(),
            "inflight": {"requests": self._inflight_requests,
                         "bytes": self._inflight_bytes},
            "draining": self._draining,
            "stats": self.stats(),
        }

    def _release(self, payload_bytes: int) -> None:
        self._inflight_requests -= 1
        self._inflight_bytes -= payload_bytes

    def _note_batch(self, size: int) -> None:
        self._stats["batches"] += 1
        self._stats["batched_requests"] += size
        if size > self._stats["max_batch"]:
            self._stats["max_batch"] = size

    # ------------------------------------------------------------------
    # Conversion: one slice at a time, on the loop
    # ------------------------------------------------------------------

    async def _next_slice(self) -> None:
        """Yield one loop turn between two slices of a batch."""
        await asyncio.sleep(0)

    def _format(self, fmt, delimiter: bytes, payload: bytes) -> bytes:
        return buffer.format_buffer(payload, fmt, delimiter=delimiter,
                                    mode=self.mode, tie=self.tie,
                                    engine=self._engine)

    def _read(self, fmt, delimiter: bytes, payload: bytes) -> List[int]:
        return buffer.parse_buffer(payload, fmt, delimiter=delimiter,
                                   mode=self.mode, engine=self._engine)

    def _convert(self, op: int, fmt, delimiter: bytes,
                 payloads: List[bytes], counts: List[int]) -> List[object]:
        """One combined call for one slice; per-piece results (bytes)
        or typed errors, in order.  ``counts`` holds each payload's
        rows.

        When the combined call raises a :class:`ReproError` (one
        request's data poisons the slice — e.g. a garbage literal),
        falls back to per-piece conversion so the error lands only on
        the request that earned it.
        """
        if op == OP_FORMAT:
            def one(p):
                return self._format(fmt, delimiter, p)
        else:
            def one(p):
                return pack_bits(self._read(fmt, delimiter, p), fmt)
        if len(payloads) == 1:
            try:
                return [one(payloads[0])]
            except ReproError as exc:
                return [exc]
        try:
            if op == OP_FORMAT:
                # Every output row is terminated, so one C-level split
                # yields the rows plus one empty tail; each piece joins
                # its share.
                rows = self._format(fmt, delimiter,
                                    b"".join(payloads)).split(delimiter)
                join = delimiter.join
                out, idx = [], 0
                for c in counts:
                    out.append(join(rows[idx:idx + c]) + delimiter
                               if c else b"")
                    idx += c
                return out
            # Terminate an unterminated tail so piece boundaries survive
            # concatenation (an unterminated trailing token is one row
            # either way).
            bits = self._read(fmt, delimiter, b"".join(
                [p + delimiter if p and not p.endswith(delimiter) else p
                 for p in payloads]))
            out, idx = [], 0
            for c in counts:
                out.append(pack_bits(bits[idx:idx + c], fmt))
                idx += c
            return out
        except ReproError:
            self._stats["batch_fallbacks"] += 1
            out = []
            for p in payloads:
                try:
                    out.append(one(p))
                except ReproError as exc:
                    out.append(exc)
            return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def inflight(self) -> Tuple[int, int]:
        """(requests, payload bytes) currently admitted."""
        return self._inflight_requests, self._inflight_bytes

    def stats(self) -> Dict[str, int]:
        """Serving counters (:data:`SERVE_STAT_KEYS`), always complete.

        Control-plane counters are folded live: AIMD adjustments from
        the controller, sampled requests from the observer — so every
        shed, adjustment and rotation is accounted here.
        """
        out = dict(self._stats)
        if self._controller is not None:
            out["admission_increases"] += self._controller.increases
            out["admission_decreases"] += self._controller.decreases
        out["observed_requests"] += self._observer.requests
        return out

    def pool_stats(self) -> Dict[str, int]:
        """The daemon engine's counters
        (:meth:`~repro.engine.engine.Engine.stats`): every conversion
        the wire has made, both directions."""
        return self._engine.stats()


# ----------------------------------------------------------------------
# Synchronous harness: run the daemon on a background loop thread
# ----------------------------------------------------------------------

@contextlib.contextmanager
def serving(**kwargs):
    """Run a :class:`ReproDaemon` on a background event-loop thread.

    Yields the started daemon (``daemon.host``/``daemon.port`` are
    live); drains and tears the loop down on exit.  The harness tests
    and the ``--serve`` and ``--control`` verify batteries serve
    through this.
    """
    daemon = ReproDaemon(**kwargs)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever,
                              name="repro-serve-loop", daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(
            daemon.start(), loop).result(timeout=30)
        yield daemon
    finally:
        with contextlib.suppress(Exception):
            asyncio.run_coroutine_threadsafe(
                daemon.close(), loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        with contextlib.suppress(Exception):
            loop.close()


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.serve`` / ``repro-print --serve``: run the
    daemon until interrupted, draining gracefully on the way out."""
    import argparse
    import signal

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve format/read byte planes over the framed "
                    "protocol (see docs/serving.md).")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0: pick a free one, printed "
                             "on startup)")
    # perfbench's launcher (and older command lines) still pass these.
    parser.add_argument("--jobs", type=int, default=1,
                        help="ignored: every batch converts inline on "
                             "the daemon's one engine (accepted for "
                             "older command lines)")
    parser.add_argument("--kind", default="process", choices=["process"],
                        help="ignored, as --jobs is (accepted for older "
                             "command lines)")
    parser.add_argument("--max-inflight-mb", type=float, default=16.0,
                        help="admission budget: in-flight payload MiB")
    parser.add_argument("--max-inflight-requests", type=int,
                        default=1024,
                        help="admission budget: in-flight requests")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="warm-start snapshot (built by "
                             "tools/warm_snapshot.py); a rejected file "
                             "degrades to a cold start")
    parser.add_argument("--slo-target-ms", type=float, default=None,
                        metavar="MS",
                        help="p99 target for AIMD adaptive admission "
                             "(unset: static caps only)")
    parser.add_argument("--rotate-snapshot", default=None, metavar="PATH",
                        help="rebuild the warm-start snapshot here from "
                             "live hot keys")
    parser.add_argument("--rotate-every", type=int, default=0,
                        metavar="ROWS",
                        help="observed rows between snapshot rotations "
                             "(0: disabled)")
    parser.add_argument("--observe-stride", type=int, default=16,
                        metavar="N",
                        help="sample every Nth request's corpus shape "
                             "(0: observer off)")
    args = parser.parse_args(argv)

    daemon = ReproDaemon(
        host=args.host, port=args.port,
        max_inflight_bytes=int(args.max_inflight_mb * (1 << 20)),
        max_inflight_requests=args.max_inflight_requests,
        snapshot=args.snapshot,
        slo_target_ms=args.slo_target_ms,
        rotate_snapshot=args.rotate_snapshot,
        rotate_every=args.rotate_every,
        observe_stride=args.observe_stride)

    async def _run() -> None:
        await daemon.start()
        # SIGINT and SIGTERM both drain, whatever disposition the
        # process inherited (a background job starts with SIGINT
        # ignored): closing the server ends serve_forever, which then
        # runs close().
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, daemon._server.close)
        print(f"repro-serve listening on {daemon.host}:{daemon.port}",
              flush=True)
        await daemon.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0
