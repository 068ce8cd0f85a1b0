"""Vectorized byte-plane pipeline: whole-buffer parsing and formatting.

The bulk layer (:mod:`repro.engine.bulk`) dedups values but still moves
one Python ``str`` per row — splitting a payload materializes a string
per literal, and re-reading packs a :class:`~repro.floats.model.Flonum`
per row just to call ``to_bits`` on it.  At serving scale that churn,
not conversion, is the bottleneck.  This module operates on whole
delimited byte *planes* instead, in the style of Lemire's
"Number Parsing at a Gigabyte per Second":

* :func:`split_plane` — a delimited splitter that reports token
  *offsets and lengths* (``array`` / numpy-through-buffer-protocol when
  available) so shard boundaries never materialize per-row strings;
* :func:`parse_buffer` — tokenize, dedup on *bytes* tokens, decode the
  distinct ones to text in one pass and run them through the read
  engine's batch loop for bit patterns — the same loop, lanes and memo
  as :meth:`~repro.engine.reader.ReadEngine.read_many`, but never a
  per-row ``str`` or ``Flonum``;
* :func:`format_buffer` — the mirror image: dedup bit patterns, format
  each distinct value once, and emit pre-terminated byte rows straight
  into one payload (optionally a :class:`~repro.serve.DelimitedWriter`
  buffer) instead of building a list of strings.

Everything is byte/bit-identical to the scalar engines — enforced by
``python -m repro.verify --buffer`` — the pipeline only changes *how*
the same results are produced.  numpy is optional and reached purely
through the buffer protocol; every path has a stdlib fallback.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple, Union

from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.bulk import (
    _format_bits,
    _itemsize,
    ingest_bits,
)
from repro.engine.reader import ReadEngine
from repro.errors import DecodeError, ParseError, RangeError
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.format.notation import NotationOptions

try:  # optional: reached through the buffer protocol only
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

__all__ = ["split_plane", "split_rows", "parse_buffer", "format_buffer"]

#: numpy dtype name per unsigned itemsize (the vectorized dedup leg).
_NP_UINT_BY_SIZE = {2: "uint16", 4: "uint32", 8: "uint64"}


def _plane_bytes(data) -> bytes:
    """Normalize a payload to ``bytes``; :class:`DecodeError` otherwise.

    ``str`` is accepted for parity with the legacy row APIs (encoded as
    ASCII); anything without the buffer protocol is a decode error, not
    a ``TypeError`` — malformed payloads are data errors.
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

    No per-row object is materialized — the result is the normalized
    plane plus two index arrays (``array('q')``), which is what shard
    splitting consumes.  One trailing terminator is
    allowed (no phantom empty row); a trailing *unterminated* token is
    still a token.  CRLF and other multi-byte delimiters are handled;
    non-bytes input raises :class:`DecodeError`.

    With numpy present and a single-byte delimiter, the delimiter scan
    is one vectorized compare over a zero-copy view of the plane;
    otherwise a C-level ``find`` walk computes the same arrays.
    """
    plane = _plane_bytes(data)
    delim = _delim_bytes(delimiter)
    starts = array("q")
    lengths = array("q")
    n = len(plane)
    if not n:
        return plane, starts, lengths
    dlen = len(delim)
    if _np is not None and dlen == 1 and n >= 64:
        arr = _np.frombuffer(plane, dtype=_np.uint8)
        hits = _np.flatnonzero(arr == delim[0])
        starts.frombytes(memoryview(
            _np.concatenate(([0], hits[:-1] + 1, hits[-1:] + 1))
            .astype(_np.int64).tobytes()) if hits.size
            else array("q", [0]).tobytes())
        if starts[-1] >= n:  # trailing terminator: no phantom row
            starts.pop()
        ends = hits.tolist()
        for i, a in enumerate(starts):
            lengths.append((ends[i] if i < len(ends) else n) - a)
        return plane, starts, lengths
    find = plane.find
    pos = 0
    while pos < n:
        hit = find(delim, pos)
        if hit < 0:
            starts.append(pos)
            lengths.append(n - pos)
            break
        starts.append(pos)
        lengths.append(hit - pos)
        pos = hit + dlen
    return plane, starts, lengths


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


def split_rows(data, delimiter: Union[bytes, str] = b"\n") -> List[str]:
    """Rows of a delimited payload as strings — the compatibility
    surface the row-at-a-time APIs keep using.

    Fixes the historical ``_split_rows`` edge cases: one trailing
    terminator never yields a phantom empty row, CRLF and other
    multi-byte delimiters split correctly, and non-bytes/non-str input
    raises :class:`DecodeError` instead of ``TypeError``.
    """
    tokens = _tokens(data, delimiter)
    try:
        return [t.decode("ascii") for t in tokens]
    except UnicodeDecodeError as exc:
        raise DecodeError(f"non-ASCII payload: {exc}") from None


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
                 out: str = "bits", engine=None, dedup: bool = True):
    """Parse a whole delimited byte plane without per-row strings.

    The read mirror of :func:`format_buffer`: tokenize with one C-level
    split (tokens stay ``bytes``), dedup on the byte tokens, decode only
    the distinct ones and convert them through the read engine's batch
    loop for bit patterns, and fan those back out in row order.
    ``out="bits"`` (default) returns bit-pattern ints — the columnar
    form — ``out="flonums"`` the :class:`Flonum` values.

    The batch loop is :meth:`~repro.engine.reader.ReadEngine.read_many`'s:
    the same lanes, counters and memo, so a plane's distinct tokens
    are served from (and installed into) the memo that ``read_many``
    and, through :attr:`Engine.reader`, the write side share.  Results
    are bit-identical to ``read_many`` on the same rows (the
    ``--buffer`` verify battery enforces it); malformed rows raise the
    same :class:`ParseError`.
    """
    if out not in ("bits", "flonums"):
        raise RangeError(f"out must be 'bits' or 'flonums', got {out!r}")
    reader = _reader_of(engine)
    tokens = _tokens(data, delimiter)
    if not tokens:
        return []
    stripped = [t.strip() for t in tokens]
    interned = dict.fromkeys(stripped) if dedup else None
    uniques = list(interned) if dedup else stripped
    values = reader._read_batch(_ascii_texts(uniques), fmt, mode,
                                False)[0]
    if out == "flonums":
        from_bits = Flonum.from_bits
        values = [from_bits(b, fmt) for b in values]
    if not dedup:
        return values
    interned.update(zip(uniques, values))
    return list(map(interned.__getitem__, stripped))


def format_buffer(data, fmt: FloatFormat = BINARY64, *,
                  delimiter: Union[bytes, str] = b"\n",
                  mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                  tie: TieBreak = TieBreak.UP,
                  options: Optional[NotationOptions] = None,
                  engine=None, dedup: bool = True, writer=None) -> bytes:
    """Serialize a column straight into one delimited byte payload.

    Byte-identical to :func:`repro.engine.bulk.format_bulk` on the same
    column, but the fan-out stage maps interned *pre-encoded,
    pre-terminated* byte rows and joins them once — no per-row string
    list, no whole-payload re-encode.  With numpy present and a packed
    byte column in, the dedup itself is vectorized (``np.unique`` over
    a zero-copy view, fan-out by inverse index).  ``writer`` may be a
    prepared :class:`~repro.serve.DelimitedWriter`; its buffer receives
    the payload (its delimiter wins) and its accumulated value is
    returned.
    """
    if writer is not None:
        delim = writer.delimiter
    else:
        delim = _delim_bytes(delimiter)
    eng = engine
    if eng is None:
        from repro.engine.engine import default_engine

        eng = default_engine()
    payload = b""
    inverse = None
    if (dedup and _np is not None
            and isinstance(data, (bytes, bytearray, memoryview))):
        dtype = _NP_UINT_BY_SIZE.get(_itemsize(fmt))
        if dtype is not None and len(data) >= _itemsize(fmt):
            arr = _np.frombuffer(data, dtype=dtype)
            uniq, inverse = _np.unique(arr, return_inverse=True)
            uniques = uniq.tolist()
    if inverse is not None:
        texts = _format_bits(eng, uniques, fmt, mode, tie, options)
        rows = [s.encode("ascii") + delim for s in texts]
        payload = b"".join(map(rows.__getitem__, inverse.tolist()))
    else:
        bits = ingest_bits(data, fmt)
        if bits and dedup:
            interned = dict.fromkeys(bits)
            uniques = list(interned)
            texts = _format_bits(eng, uniques, fmt, mode, tie, options)
            for b, s in zip(uniques, texts):
                interned[b] = s.encode("ascii") + delim
            payload = b"".join(map(interned.__getitem__, bits))
        elif bits:
            texts = _format_bits(eng, bits, fmt, mode, tie, options)
            payload = delim.join(s.encode("ascii") for s in texts) + delim
    if writer is not None:
        writer.write_bytes(payload)
        return writer.getvalue()
    return payload
