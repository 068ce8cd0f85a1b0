"""Wire-protocol conformance and framing fuzz.

Two layers: pure codec tests on :mod:`repro.serve.protocol` (no
sockets), then a live loopback daemon fed hostile byte streams —
truncated frames, oversized length prefixes, garbage headers,
zero-length payloads, pipelined bursts and mid-frame disconnects.  The
contract under attack: every malformed input yields a typed
:class:`~repro.errors.ReproError` *response* (never a hung or crashed
connection), and every well-formed response is byte-identical to the
in-process ``format_buffer``/``parse_buffer`` oracles.
"""

import socket
import struct

import pytest

from repro.engine import Engine
from repro.engine.buffer import (
    format_buffer,
    ingest_bits,
    pack_bits,
    parse_buffer,
)
from repro.errors import (
    DecodeError,
    ParseError,
    ProtocolError,
    ReproError,
    ServeOverloadError,
)
from repro.floats.formats import BINARY16, BINARY64, STANDARD_FORMATS
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import serving
from repro.workloads.corpus import uniform_random

VALUES = [v.to_float() for v in uniform_random(200, seed=3, signed=True)] \
    + [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324]
BITS = ingest_bits(VALUES, BINARY64)
PACKED = pack_bits(BITS, BINARY64)
PLANE = format_buffer(PACKED, BINARY64, engine=Engine())
WANT_BITS = pack_bits(parse_buffer(PLANE, BINARY64, engine=Engine()),
                      BINARY64)


@pytest.fixture(scope="module")
def daemon():
    with serving() as d:
        yield d


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.host, daemon.port, timeout=30) as c:
        yield c


# ----------------------------------------------------------------------
# Codec (no sockets)
# ----------------------------------------------------------------------

class TestCodec:
    def test_request_roundtrip(self):
        frame = protocol.encode_request(
            protocol.OP_READ, b"1.5\n", "binary32", b";")
        body, consumed = protocol.frame_and_body(frame)
        assert consumed == len(frame)
        req = protocol.parse_request(body)
        assert req.op == protocol.OP_READ
        assert req.fmt_name == "binary32"
        assert req.delimiter == b";"
        assert req.payload == b"1.5\n"
        assert req.fmt is STANDARD_FORMATS["binary32"]

    def test_ping_frame_has_empty_header(self):
        frame = protocol.encode_request(protocol.OP_PING)
        body, _ = protocol.frame_and_body(frame)
        req = protocol.parse_request(body)
        assert req.op == protocol.OP_PING
        assert req.payload == b""

    def test_response_roundtrip(self):
        frame = protocol.encode_response(b"payload")
        body, _ = protocol.frame_and_body(frame)
        assert protocol.parse_response(body) == (protocol.STATUS_OK,
                                                 b"payload")

    def test_error_roundtrip_preserves_type(self):
        frame = protocol.encode_error(ParseError("bad literal 'x'"))
        body, _ = protocol.frame_and_body(frame)
        status, payload = protocol.parse_response(body)
        assert status == protocol.STATUS_ERROR
        with pytest.raises(ParseError, match="bad literal"):
            protocol.raise_error_payload(payload)

    def test_error_with_structured_init_degrades_to_base(self):
        from repro.errors import ShardError

        frame = protocol.encode_error(
            ShardError(1, 3, ValueError("boom")))
        body, _ = protocol.frame_and_body(frame)
        _, payload = protocol.parse_response(body)
        with pytest.raises(ReproError, match="ShardError"):
            protocol.raise_error_payload(payload)

    def test_unknown_error_name_degrades_to_base(self):
        payload = bytes((7,)) + b"Unknown" + b"msg"
        with pytest.raises(ReproError):
            protocol.raise_error_payload(payload)

    def test_non_repro_exception_encodes_as_base(self):
        frame = protocol.encode_error(ValueError("not ours"))
        body, _ = protocol.frame_and_body(frame)
        _, payload = protocol.parse_response(body)
        assert payload[1:1 + payload[0]] == b"ReproError"

    def test_delimiter_length_enforced_on_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_request(protocol.OP_READ, b"", "binary64",
                                    b"123456789")
        with pytest.raises(ProtocolError):
            protocol.encode_request(protocol.OP_READ, b"", "binary64", b"")

    @pytest.mark.parametrize("body,recoverable", [
        (b"", True),                                   # short body
        (b"\xb5", True),
        (bytes((protocol.MAGIC, 99, 0, 0)), True),     # unknown opcode
        (bytes((protocol.MAGIC, 1, 250)) + b"x", True),  # name overrun
        (bytes((protocol.MAGIC, 1, 2)) + b"zz" + bytes((1,)) + b"\n",
         True),                                        # unknown format
        (bytes((protocol.MAGIC, 1, 8)) + b"binary64" + bytes((0,)),
         True),                                        # delimiter len 0
        (bytes((protocol.MAGIC, 1, 8)) + b"binary64" + bytes((8,)) + b";",
         True),                                        # delim overrun
        (bytes((0x00, 1, 0, 0)), False),               # bad magic
    ])
    def test_malformed_request_bodies(self, body, recoverable):
        with pytest.raises(ProtocolError) as exc:
            protocol.parse_request(body)
        assert exc.value.recoverable is recoverable

    def test_frame_and_body_incremental(self):
        frame = protocol.encode_request(protocol.OP_PING)
        for cut in range(len(frame)):
            assert protocol.frame_and_body(frame[:cut]) is None or cut >= 4
        body, consumed = protocol.frame_and_body(frame + b"extra")
        assert consumed == len(frame)

    def test_frame_and_body_rejects_bad_lengths(self):
        with pytest.raises(ProtocolError):
            protocol.frame_and_body(struct.pack(">I", 0) + b"x")
        with pytest.raises(ProtocolError):
            protocol.frame_and_body(struct.pack(">I", 2**31))


# ----------------------------------------------------------------------
# Live conformance: byte identity vs the in-process oracles
# ----------------------------------------------------------------------

class TestConformance:
    def test_format_matches_oracle(self, client):
        assert client.format(PACKED, "binary64") == PLANE

    def test_read_matches_oracle(self, client):
        assert client.read(PLANE, "binary64") == WANT_BITS == PACKED

    def test_ping(self, client):
        assert client.ping()

    def test_custom_delimiter(self, client):
        want = format_buffer(PACKED, BINARY64, delimiter=b";",
                             engine=Engine())
        assert client.format(PACKED, "binary64", b";") == want
        assert client.read(want, "binary64", b";") == PACKED

    def test_empty_payloads(self, client):
        assert client.format(b"", "binary64") == b""
        assert client.read(b"", "binary64") == b""

    def test_unterminated_read_plane(self, client):
        want = pack_bits(parse_buffer(b"1.5\n2.5", BINARY64,
                                      engine=Engine()), BINARY64)
        assert client.read(b"1.5\n2.5", "binary64") == want

    def test_binary16_leg(self, client):
        packed16 = pack_bits([0x3C00, 0x0001, 0x7BFF, 0xFC00], BINARY16)
        want = format_buffer(packed16, BINARY16, engine=Engine())
        assert client.format(packed16, "binary16") == want

    def test_pipelined_requests_fifo(self, client):
        frames, want = [], []
        for i in range(16):
            if i % 2:
                frames.append(protocol.encode_request(
                    protocol.OP_FORMAT, PACKED, "binary64", b"\n"))
                want.append((protocol.STATUS_OK, PLANE))
            else:
                frames.append(protocol.encode_request(
                    protocol.OP_READ, PLANE, "binary64", b"\n"))
                want.append((protocol.STATUS_OK, PACKED))
        assert client.pipeline(frames) == want


# ----------------------------------------------------------------------
# Framing fuzz against the live daemon
# ----------------------------------------------------------------------

class TestFuzz:
    def test_garbage_header_yields_typed_error(self, client):
        client.send_raw(struct.pack(">I", 4) + b"\x00\x01\x02\x03")
        with pytest.raises(ProtocolError, match="magic"):
            client._response()

    def test_unknown_opcode_keeps_connection(self, client):
        client.send_raw(struct.pack(">I", 4)
                        + bytes((protocol.MAGIC, 77, 0, 0)))
        with pytest.raises(ProtocolError, match="opcode"):
            client._response()
        # Recoverable: the same connection still serves.
        assert client.format(PACKED, "binary64") == PLANE

    def test_unknown_format_keeps_connection(self, client):
        client.send_raw(protocol.encode_request(
            protocol.OP_FORMAT, b"", "no_such_fmt", b"\n"))
        with pytest.raises(ProtocolError, match="unknown format"):
            client._response()
        assert client.ping()

    def test_zero_length_frame_closes_with_typed_error(self, daemon):
        with ServeClient(daemon.host, daemon.port) as c:
            c.send_raw(struct.pack(">I", 0))
            with pytest.raises(ProtocolError, match="length"):
                c._response()
            assert c.recv_body() is None  # then EOF, not a hang

    def test_oversized_length_prefix_closes_with_typed_error(self, daemon):
        with ServeClient(daemon.host, daemon.port) as c:
            c.send_raw(struct.pack(">I", 0xFFFFFFFF))
            with pytest.raises(ProtocolError, match="length"):
                c._response()
            assert c.recv_body() is None

    def test_misaligned_format_payload_typed_error(self, client):
        with pytest.raises(DecodeError, match="multiple"):
            client.format(b"\x00" * 9, "binary64")
        assert client.ping()

    def test_garbage_literal_typed_error(self, client):
        with pytest.raises(ParseError):
            client.read(b"1.5\nnot a number\n2.5\n", "binary64")
        assert client.read(b"2.5\n", "binary64") == pack_bits(
            [ingest_bits([2.5], BINARY64)[0]], BINARY64)

    def test_decimal_format_has_no_bit_encoding(self, client):
        with pytest.raises(DecodeError):
            client.format(b"\x00" * 4, "decimal32")

    def test_mid_frame_disconnect_leaves_daemon_serving(self, daemon):
        before = daemon.stats()["connections"]
        sock = socket.create_connection((daemon.host, daemon.port))
        frame = protocol.encode_request(protocol.OP_FORMAT, PACKED,
                                        "binary64", b"\n")
        sock.sendall(frame[:len(frame) // 2])
        sock.close()
        with ServeClient(daemon.host, daemon.port) as c:
            assert c.format(PACKED, "binary64") == PLANE
        assert daemon.stats()["connections"] >= before + 2

    def test_mixed_garbage_then_valid_pipelined(self, client):
        bad = struct.pack(">I", 4) + bytes((protocol.MAGIC, 66, 0, 0))
        good = protocol.encode_request(protocol.OP_FORMAT, PACKED,
                                       "binary64", b"\n")
        client.send_raw(bad + good)
        responses = [client.recv_body() for _ in range(2)]
        status0, payload0 = protocol.parse_response(responses[0])
        assert status0 == protocol.STATUS_ERROR
        with pytest.raises(ProtocolError):
            protocol.raise_error_payload(payload0)
        assert protocol.parse_response(responses[1]) \
            == (protocol.STATUS_OK, PLANE)

    def test_random_garbage_streams_never_hang(self, daemon):
        import random

        rng = random.Random(0xF022)
        for _ in range(20):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 64)))
            with ServeClient(daemon.host, daemon.port, timeout=10) as c:
                c.send_raw(blob)
                c._sock.shutdown(socket.SHUT_WR)
                # The daemon must close (possibly after a typed error
                # response) — never hang the connection.
                try:
                    while c.recv_body() is not None:
                        pass
                except ProtocolError:
                    pass
        # And it still serves.
        with ServeClient(daemon.host, daemon.port) as c:
            assert c.format(PACKED, "binary64") == PLANE
