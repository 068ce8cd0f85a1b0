"""The asyncio serving daemon: the engine behind a wire.

:class:`ReproDaemon` fronts the bulk serving stack
(:class:`~repro.serve.pool.BulkPool` over
``format_buffer``/``parse_buffer``) with a loopback/TCP server speaking
the length-prefixed protocol of :mod:`repro.serve.protocol`.  Payloads
are byte planes end to end: a format request's packed bit patterns and
a read request's delimited ASCII plane go straight into the byte-plane
pipeline — the wire never materializes per-row strings.

Design:

* **Admission control** — accepting a request that would push the
  daemon past ``max_inflight_bytes`` or ``max_inflight_requests``
  (or that arrives while draining) yields a typed
  :class:`~repro.errors.ServeOverloadError` response immediately;
  in-flight requests are never affected.  Clients see a fast typed
  rejection instead of unbounded queueing — the latency SLO is
  protected by shedding, not by lying.
* **Request batching** — concurrent requests with the same
  ``(op, format, delimiter)`` key coalesce into one columnar bulk call
  of at most ``batch_max_bytes``.  Batching is self-clocked: a batch
  flushes one loop turn after its first request, and the requests that
  arrive while it converts form the next one.  Responses are
  byte-identical to unbatched execution: format batches split on row
  counts, read batches on token counts, and a request that poisons a
  combined call (e.g. one garbage literal) falls back to per-request
  conversion so its neighbours still succeed.
* **Fault tolerance** — every conversion runs through a
  :class:`BulkPool` (one per ``(format, delimiter)``, built lazily), so
  PR 5's machinery applies on the wire: CRC'd shards, deadlines and
  budgets, bounded retries, broken-pool rebuilds and the
  process → inline degradation ladder.  An unrecoverable
  failure surfaces as its typed :class:`~repro.errors.ReproError`
  response; an untyped escape is a protocol violation the chaos battery
  hunts for.
* **Graceful drain** — :meth:`close` stops accepting, waits (bounded
  by ``drain_timeout``) for in-flight responses to be written, then
  tears down pools and executors.  Idempotent, and safe to call from
  any thread via :func:`serving`.

The event loop owns every counter and queue.  A batch of fewer than
:data:`~repro.serve.pool.INLINE_ROWS` rows converts on the loop itself
(a hop to a thread buys no parallelism under the GIL), so the loop is
blocked for the length of one such batch; larger batches run on a small
thread-pool executor and never block frame reads, admission decisions
or other connections.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.buffer import _itemsize, pack_bits
from repro.errors import (
    DecodeError,
    ProtocolError,
    RangeError,
    ReproError,
    ServeOverloadError,
)
from repro.floats.formats import STANDARD_FORMATS
from repro.serve import protocol
from repro.serve.control import (
    CANARY,
    SHED,
    AdmissionController,
    CircuitBreaker,
    TrafficObserver,
)
from repro.serve.pool import BulkPool
from repro.serve.protocol import OP_FORMAT, OP_HEALTH, OP_PING, OP_READ

__all__ = ["ReproDaemon", "serving", "main", "SERVE_STAT_KEYS"]

#: Counters :meth:`ReproDaemon.stats` always includes.  The control
#: plane's ``breaker_*`` / ``admission_increases`` / ``admission_
#: decreases`` / ``observed_requests`` entries are folded live from the
#: breaker, controller and observer state in :meth:`ReproDaemon.stats`;
#: the rest are incremented where the event happens.
SERVE_STAT_KEYS = (
    "connections", "requests", "responses", "format_requests",
    "read_requests", "pings", "batches", "batched_requests", "max_batch",
    "batch_fallbacks", "overloads", "protocol_errors", "error_responses",
    "bytes_in", "bytes_out", "drains",
    "health_requests", "breaker_trips", "breaker_sheds", "breaker_closes",
    "breaker_reopens", "breaker_canaries", "admission_sheds",
    "admission_increases", "admission_decreases", "observed_requests",
    "snapshot_rotations",
)


def _failed(exc: ReproError, loop) -> asyncio.Future:
    fut = loop.create_future()
    fut.set_exception(exc)
    return fut


class _Batcher:
    """Coalesces same-keyed requests into one columnar bulk call.

    Self-clocked, with no timer: the first request for an idle key
    flushes after one loop turn, so a burst that arrives in the same
    turn coalesces.  Requests that arrive while that conversion runs
    become the next batch, which flushes as soon as it finishes; at
    most one conversion per key is in flight.  A flush takes the
    longest prefix of the pending requests within ``batch_max_bytes``
    (at least one request).
    """

    def __init__(self, daemon: "ReproDaemon", op: int, fmt_name: str,
                 delimiter: bytes):
        self.daemon = daemon
        self.op = op
        self.fmt_name = fmt_name
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

    async def _flush(self, batch: List[Tuple[bytes, asyncio.Future]]
                     ) -> None:
        daemon = self.daemon
        daemon._note_batch(len(batch))
        payloads = [p for p, _ in batch]
        try:
            pool = daemon._pool_for(self.fmt_name, self.delimiter)
            counts = [pool.rows(p, read=self.op == OP_READ)
                      for p in payloads]
            if pool.inline(sum(counts)):
                results = daemon._convert(pool, self.op, payloads, counts)
            else:
                results = await asyncio.get_running_loop().run_in_executor(
                    daemon._workers, daemon._convert, pool, self.op,
                    payloads, counts)
        except (Exception, asyncio.CancelledError) as exc:
            results = [exc] * len(batch)  # executor died: fail the batch
        for (payload, fut), res in zip(batch, results):
            daemon._release(len(payload))
            if fut.cancelled():
                continue
            if isinstance(res, BaseException):
                if not isinstance(res, ReproError):
                    res = ReproError(f"internal conversion failure: "
                                     f"{res!r}")
                fut.set_exception(res)
            else:
                fut.set_result(res)


class ReproDaemon:
    """An asyncio front-end serving format/read byte planes with SLOs.

    Args:
        host / port: Listen address (``port=0`` picks a free port,
            published as :attr:`port` after :meth:`start`).
        jobs: Worker processes per (format, delimiter)
            :class:`BulkPool`, for batches of at least
            :data:`repro.serve.pool.INLINE_ROWS` rows.  Smaller
            batches, and every batch when ``jobs=1``, convert inline
            on the daemon's one engine.
        batch_max_bytes: Most payload bytes one combined call takes;
            a longer backlog flushes as several calls in turn.
        max_inflight_bytes / max_inflight_requests: The admission
            budget; past either, requests are rejected with
            :class:`ServeOverloadError`.
        max_frame: Largest accepted frame body; a length prefix past it
            is framing damage (typed response, connection closed).
        idle_timeout: Seconds a connection may sit idle (or hold a
            partial frame) before the daemon closes it; None disables.
        deadline / budget / retries / on_error: Passed to every
            :class:`BulkPool` — shard deadline, whole-batch budget,
            retry count and ladder behaviour (see
            :mod:`repro.serve.pool`).
        mode / tie: Reader assumption and tie strategy for formatting.
        drain_timeout: Seconds :meth:`close` waits for in-flight
            responses before tearing down anyway.
        snapshot: Optional warm-start source (path or
            :class:`repro.engine.snapshot.Snapshot`).  It warms the
            daemon's engine once at construction; with ``jobs > 1``
            every lazily built :class:`BulkPool` also ships it to its
            workers, so they fork warm (shared-memory hot plane
            included).  A rejected snapshot counts ``snapshot_faults``
            in :meth:`pool_stats` and serving starts cold — response
            bytes are identical either way.
        breaker_threshold: Consecutive infrastructure failures
            (``ShardError``/``PoolBrokenError``/deadline) that trip a
            per-pool circuit breaker (0: breakers disabled).  While
            open, requests for that pool shed immediately with
            :class:`ServeOverloadError`; after ``breaker_reset``
            seconds one canary probes, closing on success and
            re-opening with exponential backoff on failure.
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
        hedge / hedge_min / hedge_under_faults: Hedged shard dispatch
            in every pool (see :class:`BulkPool`); ``hedge_under_faults``
            lets hedges race scripted fault plans (dedicated chaos
            legs only — determinism tests leave it off).
        clock: Injectable monotonic clock shared by the breakers
            (tests drive state machines without sleeping).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 jobs: int = 1,
                 batch_max_bytes: int = 1 << 20,
                 max_inflight_bytes: int = 16 << 20,
                 max_inflight_requests: int = 1024,
                 max_frame: int = protocol.MAX_FRAME,
                 idle_timeout: Optional[float] = None,
                 deadline: Optional[float] = None,
                 budget: Optional[float] = None,
                 retries: int = 2, on_error: str = "degrade",
                 mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                 tie: TieBreak = TieBreak.UP,
                 drain_timeout: float = 10.0,
                 workers: int = 4, snapshot=None,
                 breaker_threshold: int = 0, breaker_reset: float = 1.0,
                 slo_target_ms: Optional[float] = None,
                 rotate_snapshot=None, rotate_every: int = 0,
                 observe_stride: int = 16,
                 hedge: bool = False, hedge_min: float = 0.05,
                 hedge_under_faults: bool = False, clock=None):
        for name, v in (("jobs", jobs), ("workers", workers)):
            if v < 1:
                raise RangeError(f"{name} must be >= 1, got {v}")
        if drain_timeout < 0:
            raise RangeError("drain_timeout must be >= 0")
        if breaker_threshold < 0 or rotate_every < 0 or observe_stride < 0:
            raise RangeError("breaker_threshold/rotate_every/"
                             "observe_stride must be >= 0")
        if slo_target_ms is not None and slo_target_ms <= 0:
            raise RangeError(
                f"slo_target_ms must be positive, got {slo_target_ms}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.batch_max_bytes = batch_max_bytes
        self.max_inflight_bytes = max_inflight_bytes
        self.max_inflight_requests = max_inflight_requests
        self.max_frame = max_frame
        self.idle_timeout = idle_timeout
        self.deadline = deadline
        self.budget = budget
        self.retries = retries
        self.on_error = on_error
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
        self._pools: Dict[Tuple[str, bytes], BulkPool] = {}
        self._pools_lock = threading.Lock()
        self._workers = concurrent.futures.ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self.snapshot = snapshot
        # --- control plane ------------------------------------------
        self.breaker_threshold = int(breaker_threshold)  # 0: disabled
        self.breaker_reset = float(breaker_reset)
        self._clock = clock  # injectable; breakers default to monotonic
        self._breakers: Dict[Tuple[str, bytes], CircuitBreaker] = {}
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
        self._rotation: Optional[concurrent.futures.Future] = None
        self.hedge = bool(hedge)
        self.hedge_min = float(hedge_min)
        self.hedge_under_faults = bool(hedge_under_faults)
        from repro.engine.engine import Engine

        # Warm once at construction: every pool converts inline on this
        # one engine, so the snapshot is applied exactly once here
        # rather than per (format, delimiter) pool.  Process workers
        # still get the snapshot from their pool.
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
        (bounded by ``drain_timeout``), then tear down pools and
        executors.  Idempotent — any number of calls, from the serve
        loop's finally or directly."""
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
        with self._pools_lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            await loop.run_in_executor(None, pool.close)
        self._workers.shutdown(wait=False)

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
            self._conns.pop(writer, None)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

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
        brk = None
        canary = False
        if self.breaker_threshold > 0:
            brk = self._breaker_for((req.fmt_name, req.delimiter))
            decision = brk.admit()
            if decision == SHED:
                # The pool behind this key is (believed) broken: shed
                # immediately instead of queueing into it.
                self._stats["overloads"] += 1
                return _failed(brk.shed_error(req.fmt_name), loop)
            canary = decision == CANARY
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
        if brk is not None or self._controller is not None:
            t0 = loop.time()
            fut.add_done_callback(
                lambda f, brk=brk, canary=canary, t0=t0:
                self._settle(f, brk, canary, t0, loop))
        return fut

    def _breaker_for(self, key: Tuple[str, bytes]) -> CircuitBreaker:
        brk = self._breakers.get(key)
        if brk is None:
            kwargs = {} if self._clock is None else {"clock": self._clock}
            brk = self._breakers[key] = CircuitBreaker(
                threshold=self.breaker_threshold,
                reset_timeout=self.breaker_reset, **kwargs)
        return brk

    def _settle(self, fut: asyncio.Future, brk: Optional[CircuitBreaker],
                canary: bool, t0: float,
                loop: asyncio.AbstractEventLoop) -> None:
        """Outcome bookkeeping for one admitted request: feed the
        latency reservoir and the breaker state machine.  Data errors
        (bad literals, misaligned payloads) are the request's fault and
        count as successes; only infrastructure failures open a
        breaker."""
        if fut.cancelled():
            if brk is not None and canary:
                brk.record(False, canary=True)
            return
        exc = fut.exception()
        if self._controller is not None:
            self._controller.observe(loop.time() - t0)
        if brk is not None:
            brk.record(not CircuitBreaker.is_failure(exc), canary=canary)

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
            self._rotation = self._workers.submit(self._rotate_now)

    def _rotate_now(self) -> None:
        """Rebuild the warm-start snapshot from live hot keys (worker
        thread).  Rotation may only skip work, never change bytes: the
        snapshot pre-seeds caches whose entries the verify battery
        byte-compares against cold computation, and the save is the
        torn-write-safe ``save_snapshot`` (temp file + rename)."""
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
            # Pools and engines built from here on warm from the
            # rotated file; existing ones keep their caches (a cache
            # can only be warmer, never different).
            self.snapshot = self.rotate_snapshot
            self._stats["snapshot_rotations"] += 1
        except Exception:  # pragma: no cover - rotation is best-effort
            pass
        finally:
            self._observer.rotation_done()

    def health(self) -> dict:
        """Breaker states + controller window + observer summary — the
        payload of the ``HEALTH`` opcode, JSON-serializable."""
        breakers = {}
        for (fmt_name, delim), brk in list(self._breakers.items()):
            label = f"{fmt_name}:{delim.decode('ascii', 'replace')!r}"
            breakers[label] = brk.snapshot()
        return {
            "breakers": breakers,
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
    # Conversion (on the loop below INLINE_ROWS rows, else the executor)
    # ------------------------------------------------------------------

    def _pool_for(self, fmt_name: str, delimiter: bytes) -> BulkPool:
        key = (fmt_name, delimiter)
        with self._pools_lock:
            pool = self._pools.get(key)
            if pool is None:
                pool = self._pools[key] = BulkPool(
                    jobs=self.jobs, fmt=STANDARD_FORMATS[fmt_name],
                    mode=self.mode, tie=self.tie,
                    delimiter=delimiter, engine=self._engine,
                    deadline=self.deadline, budget=self.budget,
                    retries=self.retries, on_error=self.on_error,
                    snapshot=self.snapshot, hedge=self.hedge,
                    hedge_min=self.hedge_min,
                    hedge_with_faults=self.hedge_under_faults)
            return pool

    def _convert(self, pool: BulkPool, op: int, payloads: List[bytes],
                 counts: List[int]) -> List[object]:
        """One combined bulk call for a whole batch; per-request
        results (bytes) or typed errors, in batch order.  ``counts``
        holds each payload's rows (:meth:`BulkPool.rows`).

        When the combined call raises a :class:`ReproError` (one
        request's data poisons the batch — e.g. a garbage literal),
        falls back to per-request conversion so the error lands only on
        the request that earned it.
        """
        one = (self._format_one if op == OP_FORMAT else self._read_one)
        if len(payloads) == 1:
            try:
                return [one(pool, payloads[0])]
            except ReproError as exc:
                return [exc]
        combined = (self._format_combined if op == OP_FORMAT
                    else self._read_combined)
        try:
            return combined(pool, payloads, counts)
        except ReproError:
            self._stats["batch_fallbacks"] += 1
            out: List[object] = []
            for p in payloads:
                try:
                    out.append(one(pool, p))
                except ReproError as exc:
                    out.append(exc)
            return out

    @staticmethod
    def _format_one(pool: BulkPool, payload: bytes) -> bytes:
        return pool.format_bulk(payload)

    @staticmethod
    def _read_one(pool: BulkPool, payload: bytes) -> bytes:
        return pack_bits(pool.read_bulk(payload), pool.fmt)

    @staticmethod
    def _format_combined(pool: BulkPool, payloads: List[bytes],
                         counts: List[int]) -> List[bytes]:
        delim = pool.delimiter
        # Every output row is terminated, so one C-level split yields
        # the rows plus one empty tail; each request joins its share.
        rows = pool.format_bulk(b"".join(payloads)).split(delim)
        out: List[bytes] = []
        idx = 0
        for c in counts:
            out.append(delim.join(rows[idx:idx + c]) + delim if c else b"")
            idx += c
        return out

    @staticmethod
    def _read_combined(pool: BulkPool, payloads: List[bytes],
                       counts: List[int]) -> List[bytes]:
        delim = pool.delimiter
        # Terminate an unterminated tail so request boundaries survive
        # concatenation (an unterminated trailing token is one row
        # either way).
        bits = pool.read_bulk(b"".join(
            [p + delim if p and not p.endswith(delim) else p
             for p in payloads]))
        out: List[bytes] = []
        idx = 0
        for c in counts:
            out.append(pack_bits(bits[idx:idx + c], pool.fmt))
            idx += c
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

        Control-plane counters are folded live: breaker transitions
        from every breaker, AIMD adjustments from the controller,
        sampled requests from the observer — so every shed, trip,
        close and rotation is accounted here.
        """
        out = dict(self._stats)
        for brk in list(self._breakers.values()):
            snap = brk.snapshot()
            out["breaker_trips"] += snap["trips"]
            out["breaker_sheds"] += snap["sheds"]
            out["breaker_closes"] += snap["closes"]
            out["breaker_reopens"] += snap["reopens"]
            out["breaker_canaries"] += snap["canaries"]
        if self._controller is not None:
            out["admission_increases"] += self._controller.increases
            out["admission_decreases"] += self._controller.decreases
        out["observed_requests"] += self._observer.requests
        return out

    def pool_stats(self) -> Dict[str, int]:
        """Engine + recovery counters across every live pool (empty
        before the first pool): the engine the pools share counted
        once, plus each pool's worker deltas and recovery counters."""
        with self._pools_lock:
            pools = list(self._pools.values())
        if not pools:
            return {}
        out = self._engine.stats()
        for pool in pools:
            for k, v in pool._own_stats().items():
                out[k] = out.get(k, 0) + v
        return out


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
    parser.add_argument("--jobs", type=int, default=1,
                        help="BulkPool workers per (format, delimiter)")
    parser.add_argument("--kind", default="process", choices=["process"],
                        help="accepted for older command lines; --jobs "
                             "alone picks the route (see "
                             "docs/robustness.md)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS", help="per-shard deadline")
    parser.add_argument("--budget", type=float, default=None,
                        metavar="SECONDS",
                        help="whole-batch conversion budget")
    parser.add_argument("--max-inflight-mb", type=float, default=16.0,
                        help="admission budget: in-flight payload MiB")
    parser.add_argument("--max-inflight-requests", type=int,
                        default=1024,
                        help="admission budget: in-flight requests")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="warm-start snapshot (built by "
                             "tools/warm_snapshot.py); a rejected file "
                             "degrades to a cold start")
    parser.add_argument("--breaker-threshold", type=int, default=0,
                        metavar="N",
                        help="consecutive pool failures that trip a "
                             "circuit breaker (0: disabled)")
    parser.add_argument("--breaker-reset", type=float, default=1.0,
                        metavar="SECONDS",
                        help="open-state backoff before the half-open "
                             "canary probe")
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
    parser.add_argument("--hedge", action="store_true",
                        help="hedge straggling shards onto a spare "
                             "worker (first CRC-valid answer wins)")
    args = parser.parse_args(argv)

    daemon = ReproDaemon(
        host=args.host, port=args.port, jobs=args.jobs,
        deadline=args.deadline,
        budget=args.budget,
        max_inflight_bytes=int(args.max_inflight_mb * (1 << 20)),
        max_inflight_requests=args.max_inflight_requests,
        snapshot=args.snapshot,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        slo_target_ms=args.slo_target_ms,
        rotate_snapshot=args.rotate_snapshot,
        rotate_every=args.rotate_every,
        observe_stride=args.observe_stride, hedge=args.hedge)

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
