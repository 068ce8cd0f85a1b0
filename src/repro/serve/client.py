"""Clients for the serving daemon's framed protocol.

:class:`ServeClient` is the blocking socket client — one request, one
response, in order.  It is what the verify battery, the conformance
tests and the documentation example use.  :class:`AsyncServeClient` is
the pipelined asyncio client for callers inside an event loop: many
requests in flight on one connection, responses matched back in FIFO
order.

Both speak byte planes, exactly like the daemon: ``format`` sends
packed native-order bit patterns and returns a delimited ASCII plane;
``read`` sends a delimited ASCII plane and returns packed bit
patterns.  Error responses re-raise client-side as the typed
:class:`~repro.errors.ReproError` subclass the daemon reported
(:func:`repro.serve.protocol.raise_error_payload`).
"""

from __future__ import annotations

import asyncio
import socket
from typing import List, Optional, Tuple, Union

import json

from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.protocol import OP_FORMAT, OP_HEALTH, OP_PING, OP_READ

__all__ = ["ServeClient", "AsyncServeClient"]


class ServeClient:
    """A blocking client: strict request/response over one socket.

    A daemon restart between requests no longer surfaces as a bare
    ``ConnectionResetError``: idempotent operations (``format`` /
    ``read`` / ``ping`` / ``health`` — one request, one response, no
    state on the wire) transparently reconnect and retry **once**,
    counted in :attr:`reconnects`; a second failure, or any failure on
    the non-idempotent raw paths (``send_raw`` / ``pipeline``),
    surfaces as a typed :class:`~repro.errors.ProtocolError`.

    >>> with ServeClient("127.0.0.1", port) as client:
    ...     plane = client.format(packed, fmt="binary64")
    ...     bits = client.read(b"1.5\\n2.5\\n")
    """

    def __init__(self, host: str, port: int, *,
                 timeout: Optional[float] = 30.0,
                 max_frame: int = protocol.MAX_FRAME):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame = max_frame
        #: Transparent reconnect-and-retry count (idempotent ops only).
        self.reconnects = 0
        self._buf = b""
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _reconnect(self) -> None:
        self.close()
        self._buf = b""  # a torn response must not poison the retry
        self._sock = self._connect()
        self.reconnects += 1

    # -- context management -------------------------------------------

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    # -- raw frame I/O (the fuzz tests drive these directly) ----------

    def send_raw(self, data: bytes) -> None:
        """Write arbitrary bytes — malformed frames included."""
        self._sock.sendall(data)

    def recv_body(self) -> Optional[bytes]:
        """One response body, or None on EOF at a frame boundary."""
        while True:
            got = protocol.frame_and_body(self._buf, self.max_frame)
            if got is not None:
                body, consumed = got
                self._buf = self._buf[consumed:]
                return body
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                if self._buf:
                    raise ProtocolError(
                        "connection closed mid-frame "
                        f"({len(self._buf)} bytes buffered)")
                return None
            self._buf += chunk

    def _response(self) -> bytes:
        body = self.recv_body()
        if body is None:
            raise ProtocolError("connection closed before the response")
        status, payload = protocol.parse_response(body)
        if status == protocol.STATUS_ERROR:
            protocol.raise_error_payload(payload)
        return payload

    def _request(self, op: int, payload: bytes, fmt: str,
                 delimiter: Union[bytes, str]) -> bytes:
        """One idempotent request with a single bounded
        reconnect-and-retry on connection loss.

        Only whole-connection failures (reset, broken pipe, EOF before
        any response byte) trigger the retry — a daemon restart between
        requests, exactly.  A failure mid-response, or on the retry
        itself, surfaces as :class:`ProtocolError`.
        """
        frame = protocol.encode_request(op, payload, fmt, delimiter)
        try:
            self.send_raw(frame)
            return self._response()
        except (ConnectionError, BrokenPipeError) as exc:
            cause = exc
        except ProtocolError as exc:
            # Clean EOF before the response, with nothing buffered:
            # the daemon went away between requests.
            if self._buf or "closed before the response" not in str(exc):
                raise
            cause = exc
        try:
            self._reconnect()
            self.send_raw(frame)
            return self._response()
        except (ConnectionError, BrokenPipeError, OSError) as exc:
            raise ProtocolError(
                f"reconnect failed after connection loss: {exc!r}"
            ) from cause

    # -- operations ---------------------------------------------------

    def format(self, packed: bytes, fmt: str = "binary64",
               delimiter: Union[bytes, str] = b"\n") -> bytes:
        """Packed bit patterns in, delimited ASCII plane out."""
        return self._request(OP_FORMAT, packed, fmt, delimiter)

    def read(self, plane: bytes, fmt: str = "binary64",
             delimiter: Union[bytes, str] = b"\n") -> bytes:
        """Delimited ASCII plane in, packed bit patterns out."""
        return self._request(OP_READ, plane, fmt, delimiter)

    def ping(self) -> bool:
        return self._request(OP_PING, b"", "binary64", b"\n") == b""

    def health(self) -> dict:
        """The daemon's control-plane summary: breaker states, the
        admission controller window and the traffic observer's corpus
        shape (the ``HEALTH`` opcode, JSON-decoded)."""
        payload = self._request(OP_HEALTH, b"", "binary64", b"\n")
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"malformed health payload: {exc}") \
                from None

    def pipeline(self, frames: List[bytes]) -> List[Tuple[int, bytes]]:
        """Send pre-encoded request frames back to back, then collect
        one ``(status, payload)`` per frame — the conformance battery's
        pipelining probe."""
        self.send_raw(b"".join(frames))
        out = []
        for _ in frames:
            body = self.recv_body()
            if body is None:
                raise ProtocolError(
                    f"connection closed after {len(out)} of "
                    f"{len(frames)} pipelined responses")
            out.append(protocol.parse_response(body))
        return out


class AsyncServeClient:
    """A pipelined asyncio client: many requests in flight, FIFO match.

    Used from a coroutine::

        client = await AsyncServeClient.connect(host, port)
        plane = await client.format(packed, fmt="binary64")
        await client.close()

    A background reader task matches response frames to the oldest
    outstanding future; a connection loss fails every outstanding
    request with :class:`ProtocolError`.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 max_frame: int = protocol.MAX_FRAME):
        self._reader = reader
        self._writer = writer
        self.max_frame = max_frame
        self._pending: "asyncio.Queue[asyncio.Future]" = asyncio.Queue()
        self._closed = False
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int,
                      max_frame: int = protocol.MAX_FRAME
                      ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer, max_frame)

    async def _read_loop(self) -> None:
        error: BaseException
        try:
            while True:
                body = await protocol.read_frame(self._reader,
                                                 self.max_frame)
                if body is None:
                    error = ProtocolError("server closed the connection")
                    break
                fut = self._pending.get_nowait()
                if not fut.done():
                    fut.set_result(body)
        except BaseException as exc:
            error = ProtocolError(f"connection lost: {exc!r}")
        # Fail whatever is still outstanding.
        while not self._pending.empty():
            fut = self._pending.get_nowait()
            if not fut.done():
                fut.set_exception(error)

    async def _request(self, op: int, payload: bytes, fmt: str,
                       delimiter: Union[bytes, str]) -> bytes:
        if self._closed:
            raise ProtocolError("client is closed")
        fut = asyncio.get_running_loop().create_future()
        self._pending.put_nowait(fut)
        self._writer.write(
            protocol.encode_request(op, payload, fmt, delimiter))
        await self._writer.drain()
        body = await fut
        status, resp = protocol.parse_response(body)
        if status == protocol.STATUS_ERROR:
            protocol.raise_error_payload(resp)
        return resp

    async def format(self, packed: bytes, fmt: str = "binary64",
                     delimiter: Union[bytes, str] = b"\n") -> bytes:
        return await self._request(OP_FORMAT, packed, fmt, delimiter)

    async def read(self, plane: bytes, fmt: str = "binary64",
                   delimiter: Union[bytes, str] = b"\n") -> bytes:
        return await self._request(OP_READ, plane, fmt, delimiter)

    async def ping(self) -> bool:
        return await self._request(OP_PING, b"", "binary64", b"\n") \
            == b""

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass
