"""Vectorized byte-plane pipeline: whole-buffer parsing and formatting.

The column API of the package, in the style of Lemire's "Number
Parsing at a Gigabyte per Second": whole delimited byte *planes* in
and out, never one Python ``str`` per row on the way to or from the
engine's batch loops.

* :func:`ingest_bits` / :func:`bits_from_buffer` / :func:`pack_bits`
  — zero-copy columnar ingestion: any packed representation of a
  column (``bytes``/``bytearray``/``memoryview`` of native-order IEEE
  encodings, ``array('d')``/``array('f')``, numpy arrays via the
  buffer protocol — no numpy import needed — unsigned-integer views of
  raw bit patterns, or plain Python sequences) becomes a list of
  bit-pattern integers with one ``array.frombytes`` call over the
  whole buffer, and back;
* :func:`split_plane` — a delimited splitter that reports token
  *offsets and lengths* (two ``array('q')`` columns) so shard
  boundaries are cut on the plane, never on per-row strings;
* :func:`parse_buffer` — tokenize, decode the byte tokens to text in
  one pass and run them through the read engine's batch loop for bit
  patterns — the same loop, lanes and memo as
  :meth:`~repro.engine.reader.ReadEngine.read_many`, but never a
  per-row ``Flonum``;
* :func:`format_buffer` — the mirror image: the whole ingested column
  goes straight into the write engine's batch loop
  (:meth:`~repro.engine.engine.Engine._write_batch`, whose memo maps
  bit patterns to text), and the rows come out with one ``join`` and
  one ``encode``.

Duplicate rows are absorbed by the engine memo, which keys on signed
bit patterns (writes) and literal text (reads); this module keeps no
cache of its own.  Everything is byte/bit-identical to the scalar
engines — enforced by ``python -m repro.verify --buffer`` — the
pipeline only changes *how* the same results are produced.  Every
stage is one stdlib path built from C-level ``bytes``/``str`` methods;
no array library is imported.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import List, Sequence, Tuple, Union

from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.reader import ReadEngine
from repro.errors import DecodeError, ParseError, RangeError
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum

__all__ = ["ingest_bits", "bits_from_buffer", "pack_bits", "split_plane",
           "parse_buffer", "format_buffer"]

#: array typecode for each unsigned itemsize this platform provides
#: (probed, not assumed: 'L' is 4 bytes on Windows, 8 on LP64 Linux).
_TYPECODE_BY_SIZE = {}
for _tc in "BHILQ":
    _TYPECODE_BY_SIZE.setdefault(array(_tc).itemsize, _tc)

#: memoryview/struct format characters of typed float columns.
_FLOAT_VIEW_FORMATS = {"e": 2, "f": 4, "d": 8}

#: Unsigned-integer view formats accepted as pre-decoded bit patterns.
_UINT_VIEW_FORMATS = frozenset("BHILQ")

_BYTE_VIEW_FORMATS = frozenset({"B", "b", "c"})


def _itemsize(fmt: FloatFormat) -> int:
    if not fmt.has_encoding or fmt.total_bits % 8:
        raise DecodeError(
            f"format {fmt.name!r} has no byte-aligned bit encoding")
    return fmt.total_bits // 8


def _bits_from_bytes(buf, itemsize: int) -> List[int]:
    """Decode a packed native-order buffer into bit-pattern ints.

    One ``array.frombytes`` over the whole buffer when the platform has
    an unsigned typecode of the right width; an ``int.from_bytes``
    sweep over zero-copy slices otherwise.
    """
    if isinstance(buf, memoryview):
        # array.frombytes and int.from_bytes want byte-shaped input;
        # a cast is zero-copy, a non-contiguous view must be copied.
        buf = buf.cast("B") if buf.c_contiguous else buf.tobytes()
    nbytes = buf.nbytes if isinstance(buf, memoryview) else len(buf)
    count, rem = divmod(nbytes, itemsize)
    if rem:
        raise DecodeError(
            f"trailing partial value: {nbytes} bytes is not a multiple "
            f"of the {itemsize}-byte encoding")
    tc = _TYPECODE_BY_SIZE.get(itemsize)
    if tc is not None:
        a = array(tc)
        a.frombytes(buf)
        return a.tolist()
    mv = buf if isinstance(buf, memoryview) else memoryview(buf)
    fb = int.from_bytes
    bo = sys.byteorder
    return [fb(mv[i:i + itemsize], bo) for i in range(0, nbytes, itemsize)]


def bits_from_buffer(data, fmt: FloatFormat = BINARY64) -> List[int]:
    """Bit patterns of a packed column exposed through the buffer
    protocol (``bytes``, ``bytearray``, ``memoryview``, ``array``,
    numpy arrays, ...).

    Three view shapes are accepted:

    * **typed float views** (``'e'``/``'f'``/``'d'``: ``array('d')``,
      numpy ``float16/32/64``) — the item width must match ``fmt`` or
      the call raises :class:`DecodeError` rather than reinterpret;
    * **unsigned integer views** of the format's width (numpy
      ``uint64`` bit columns, ``array('Q')``) — taken as already
      decoded bit patterns;
    * **raw byte streams** (``bytes``/``bytearray``/byte views) —
      native-order packed encodings; a trailing partial value raises
      :class:`DecodeError`.
    """
    itemsize = _itemsize(fmt)
    try:
        mv = memoryview(data)
    except TypeError:
        raise DecodeError(
            f"{type(data).__name__!r} does not support the buffer "
            "protocol") from None
    vfmt = mv.format
    if vfmt in _FLOAT_VIEW_FORMATS:
        if mv.itemsize != itemsize:
            raise DecodeError(
                f"{mv.itemsize * 8}-bit float column fed to {fmt.name} "
                f"(expected {itemsize}-byte items)")
        return _bits_from_bytes(
            mv if mv.c_contiguous else mv.tobytes(), itemsize)
    if vfmt in _UINT_VIEW_FORMATS and mv.itemsize == itemsize \
            and vfmt not in _BYTE_VIEW_FORMATS:
        if mv.ndim != 1:
            mv = mv.cast("B").cast(vfmt)
        out = mv.tolist()
        limit = 1 << fmt.total_bits
        for b in out:
            if b >= limit:  # pragma: no cover - width-matched views fit
                raise DecodeError(f"bit pattern {b:#x} exceeds "
                                  f"{fmt.total_bits} bits")
        return out
    if vfmt in _BYTE_VIEW_FORMATS:
        return _bits_from_bytes(mv, itemsize)
    raise DecodeError(f"unsupported buffer item format {vfmt!r} "
                      f"for {fmt.name}")


def ingest_bits(data, fmt: FloatFormat = BINARY64) -> List[int]:
    """Normalize any supported column representation to bit patterns.

    Buffer-protocol objects go through :func:`bits_from_buffer`.  Plain
    sequences are accepted too: ``float`` elements (binary64 only —
    they carry no narrower encoding) are packed with one ``array('d')``
    pass so NaN payloads and signed zeros survive; ``int`` elements are
    taken as bit patterns and range-checked; :class:`Flonum` elements
    are encoded with :meth:`Flonum.to_bits`.
    """
    if isinstance(data, (bytes, bytearray, memoryview, array)):
        return bits_from_buffer(data, fmt)
    if not isinstance(data, (list, tuple)):
        try:
            return bits_from_buffer(data, fmt)
        except DecodeError:
            try:
                data = list(data)
            except TypeError as exc:
                raise DecodeError(
                    f"cannot ingest a column from "
                    f"{type(data).__name__!r}") from exc
    if not data:
        return []
    itemsize = _itemsize(fmt)
    first = data[0]
    if isinstance(first, float):
        if fmt is not BINARY64:
            raise DecodeError(
                "python floats are binary64; pass bit patterns or a "
                f"typed buffer for {fmt.name}")
        try:
            return _bits_from_bytes(array("d", data).tobytes(), itemsize)
        except TypeError as exc:
            raise DecodeError(
                "mixed column: float elements alongside "
                "non-floats") from exc
    if isinstance(first, int) and not isinstance(first, bool):
        limit = 1 << fmt.total_bits
        for b in data:
            if not isinstance(b, int) or b < 0 or b >= limit:
                raise DecodeError(
                    f"{b!r} is not a {fmt.total_bits}-bit pattern")
        return list(data)
    if isinstance(first, Flonum):
        return [v.to_bits() for v in data]
    raise DecodeError(
        f"cannot ingest a column of {type(first).__name__!r} elements")


def pack_bits(bits: Sequence[int], fmt: FloatFormat = BINARY64) -> bytes:
    """Pack bit patterns into a native-order byte column — the inverse
    of :func:`bits_from_buffer` (the result round-trips through
    :func:`ingest_bits`).  Shard transport and archival both use this:
    one ``array`` constructor for the whole column when the platform
    has a matching unsigned typecode.
    """
    itemsize = _itemsize(fmt)
    tc = _TYPECODE_BY_SIZE.get(itemsize)
    try:
        if tc is not None:
            return array(tc, bits).tobytes()
        bo = sys.byteorder  # pragma: no cover - every CPython has 2/4/8
        return b"".join(b.to_bytes(itemsize, bo) for b in bits)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DecodeError(
            f"cannot pack column as {fmt.name}: {exc}") from None


def _plane_bytes(data) -> bytes:
    """Normalize a payload to ``bytes``; :class:`DecodeError` otherwise.

    ``str`` is accepted too (encoded as ASCII); anything without the
    buffer protocol is a decode error, not a ``TypeError`` — malformed
    payloads are data errors.
    """
    if isinstance(data, bytes):
        return data
    if isinstance(data, (bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, str):
        try:
            return data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise DecodeError(f"non-ASCII payload: {exc}") from None
    try:
        return bytes(memoryview(data))
    except TypeError:
        raise DecodeError(
            f"expected a delimited byte payload, got "
            f"{type(data).__name__!r}") from None


def _delim_bytes(delimiter: Union[bytes, str]) -> bytes:
    if isinstance(delimiter, str):
        delim = delimiter.encode("ascii")
    elif isinstance(delimiter, (bytes, bytearray, memoryview)):
        delim = bytes(delimiter)
    else:
        raise DecodeError(f"delimiter must be bytes or str, got "
                          f"{type(delimiter).__name__!r}")
    if not delim:
        raise RangeError("delimiter must be non-empty")
    return delim


def split_plane(data, delimiter: Union[bytes, str] = b"\n"
                ) -> Tuple[bytes, array, array]:
    """Token offsets/lengths of a delimited plane: ``(plane, starts,
    lengths)``.

    No per-row object outlives the call — the result is the normalized
    plane plus two index arrays (``array('q')``), which is what shard
    splitting consumes.  One trailing terminator is
    allowed (no phantom empty row); a trailing *unterminated* token is
    still a token.  CRLF and other multi-byte delimiters are handled;
    non-bytes input raises :class:`DecodeError`.

    One C-level ``split`` finds the tokens; their lengths and a running
    sum over ``length + len(delimiter)`` give the offsets.  Callers that
    only need the row count use :func:`_row_count` instead.
    """
    plane = _plane_bytes(data)
    delim = _delim_bytes(delimiter)
    if not plane:
        return plane, array("q"), array("q")
    tokens = plane.split(delim)
    if not tokens[-1]:  # trailing terminator: no phantom row
        tokens.pop()
    lengths = array("q", map(len, tokens))
    starts = array("q", accumulate(map(len(delim).__add__, lengths),
                                   initial=0))
    starts.pop()  # the offset one past the last token
    return plane, starts, lengths


def _row_count(plane: bytes, delim: bytes) -> int:
    """The number of tokens :func:`split_plane` finds in ``plane``: one
    per terminator, plus one for an unterminated tail."""
    return plane.count(delim) + (bool(plane) and not plane.endswith(delim))


def _tokens(data, delimiter: Union[bytes, str]) -> List[bytes]:
    """The plane's rows as *bytes* tokens (one C split, never str)."""
    plane = _plane_bytes(data)
    delim = _delim_bytes(delimiter)
    if not plane:
        return []
    tokens = plane.split(delim)
    if tokens and not tokens[-1]:
        tokens.pop()
    return tokens


def _reader_of(engine) -> ReadEngine:
    if engine is None:
        from repro.engine.reader import default_read_engine

        return default_read_engine()
    if isinstance(engine, ReadEngine):
        return engine
    return engine.reader  # an Engine: its attached read engine


def _ascii_texts(tokens: List[bytes]) -> List[str]:
    """Byte tokens as ``str``, decoded in one pass over the batch; a
    non-ASCII token raises :class:`ParseError`."""
    try:
        texts = b"\n".join(tokens).decode("ascii").split("\n")
    except UnicodeDecodeError:
        bad = next(t for t in tokens if not t.isascii())
        raise ParseError(f"non-ASCII literal: {bad[:32]!r}") from None
    if len(texts) != len(tokens):  # a token holds the joiner itself
        texts = [t.decode("ascii") for t in tokens]
    return texts


def parse_buffer(data, fmt: FloatFormat = BINARY64, *,
                 delimiter: Union[bytes, str] = b"\n",
                 mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                 out: str = "bits", engine=None):
    """Parse a whole delimited byte plane without per-row strings.

    The read mirror of :func:`format_buffer`: tokenize with one C-level
    split (tokens stay ``bytes``), strip them, decode them to text in
    one pass and convert them through the read engine's batch loop.
    ``out="bits"`` (default) returns bit-pattern ints — the columnar
    form — ``out="flonums"`` the :class:`Flonum` values.

    The batch loop is :meth:`~repro.engine.reader.ReadEngine.read_many`'s:
    the same lanes, counters and memo, so a repeated literal is a memo
    hit (installed by its first occurrence, in this call or an earlier
    one) and the memo is the one ``read_many`` and, through
    :attr:`Engine.reader`, the write side share.  A ``cache_size=0``
    engine converts every duplicate row, and a memo in sampled
    admission every duplicate whose first occurrence it did not
    install.  Results are bit-identical to ``read_many`` on the same rows
    (the ``--buffer`` verify battery enforces it); malformed rows raise
    the same :class:`ParseError`.
    """
    if out not in ("bits", "flonums"):
        raise RangeError(f"out must be 'bits' or 'flonums', got {out!r}")
    reader = _reader_of(engine)
    tokens = _tokens(data, delimiter)
    if not tokens:
        return []
    values = reader._read_batch(
        _ascii_texts([t.strip() for t in tokens]), fmt, mode, False)[0]
    if out == "flonums":
        from_bits = Flonum.from_bits
        return [from_bits(b, fmt) for b in values]
    return values


def format_buffer(data, fmt: FloatFormat = BINARY64, *,
                  delimiter: Union[bytes, str] = b"\n",
                  mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                  tie: TieBreak = TieBreak.UP, engine=None) -> bytes:
    """Serialize a column straight into one delimited byte payload.

    ``data`` is anything :func:`ingest_bits` takes.  The whole column
    goes through the write engine's batch loop
    (:meth:`~repro.engine.engine.Engine._write_batch`), whose memo maps
    signed bit patterns to text, so a repeated pattern is a memo hit; a
    ``cache_size=0`` engine converts every duplicate row, and a memo in
    sampled admission every duplicate whose first occurrence it did
    not install.  The rows are joined once and encoded once.
    Output is byte-identical to :meth:`Engine.format` under the default
    options, row by row.  A ragged packed column raises
    :class:`DecodeError`.
    """
    delim = _delim_bytes(delimiter)
    eng = engine
    if eng is None:
        from repro.engine.engine import default_engine

        eng = default_engine()
    bits = ingest_bits(data, fmt)
    if not bits:
        return b""
    # Rows must be ASCII; latin-1 carries any other delimiter byte
    # through the str join unchanged.
    codec = "ascii" if delim.isascii() else "latin-1"
    d = delim.decode(codec)
    return (d.join(eng._write_batch(bits, fmt, mode, tie)) + d).encode(codec)
