"""Vectorized byte-plane pipeline: whole-buffer parsing and formatting.

The bulk layer (:mod:`repro.engine.bulk`) dedups values but still moves
one Python ``str`` per row — splitting a payload materializes a string
per literal, and re-reading packs a :class:`~repro.floats.model.Flonum`
per row just to call ``to_bits`` on it.  At serving scale that churn,
not conversion, is the bottleneck.  This module operates on whole
delimited byte *planes* instead, in the style of Lemire's
"Number Parsing at a Gigabyte per Second":

* :func:`split_plane` — a delimited splitter that reports token
  *offsets and lengths* (two ``array('q')`` columns) so shard
  boundaries are cut on the plane, never on per-row strings;
* :func:`parse_buffer` — tokenize, dedup on *bytes* tokens, decode the
  distinct ones to text in one pass and run them through the read
  engine's batch loop for bit patterns — the same loop, lanes and memo
  as :meth:`~repro.engine.reader.ReadEngine.read_many`, but never a
  per-row ``str`` or ``Flonum``;
* :func:`format_buffer` — the mirror image: dedup bit patterns, pass
  the distinct ones straight into the write engine's batch loop
  (:meth:`~repro.engine.engine.Engine._write_batch`, whose memo maps
  bit patterns to text), and fan the rows out with one ``join`` and
  one ``encode`` (optionally into a
  :class:`~repro.serve.DelimitedWriter` buffer).

Everything is byte/bit-identical to the scalar engines — enforced by
``python -m repro.verify --buffer`` — the pipeline only changes *how*
the same results are produced.  Every stage is one stdlib path built
from C-level ``bytes``/``str`` methods; no array library is imported.
Packed columns from one (numpy arrays included) arrive through the
buffer protocol in :func:`~repro.engine.bulk.bits_from_buffer`.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import List, Optional, Tuple, Union

from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.bulk import _format_bits, ingest_bits
from repro.engine.reader import ReadEngine
from repro.errors import DecodeError, ParseError, RangeError
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.format.notation import NotationOptions

__all__ = ["split_plane", "split_rows", "parse_buffer", "format_buffer"]


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
    column.  Each distinct bit pattern is formatted once, and the
    fan-out is all C-level: the rows are mapped to their ``str`` in
    input order, joined once and encoded once.  ``writer`` may be a
    prepared :class:`~repro.serve.DelimitedWriter`; its buffer receives
    the payload (its delimiter wins) and its accumulated value is
    returned.  A ragged packed column raises :class:`DecodeError`.
    """
    if writer is not None:
        delim = writer.delimiter
    else:
        delim = _delim_bytes(delimiter)
    eng = engine
    if eng is None:
        from repro.engine.engine import default_engine

        eng = default_engine()
    bits = ingest_bits(data, fmt)
    payload = b""
    if bits:
        # Rows must be ASCII; latin-1 carries any other delimiter byte
        # through the str join unchanged.
        codec = "ascii" if delim.isascii() else "latin-1"
        d = delim.decode(codec)
        if dedup:
            interned = dict.fromkeys(bits)
            uniques = list(interned)
            interned = dict(zip(uniques, _format_bits(
                eng, uniques, fmt, mode, tie, options)))
            texts = map(interned.__getitem__, bits)
        else:
            texts = _format_bits(eng, bits, fmt, mode, tie, options)
        payload = (d.join(texts) + d).encode(codec)
    if writer is not None:
        writer.write_bytes(payload)
        return writer.getvalue()
    return payload
