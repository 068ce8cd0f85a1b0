"""Bulk columnar serialization and parsing over the tiered engines.

The scalar engines already make the conversion kernel cheap; at serving
scale the remaining costs are ingestion (unpacking values one
``struct.unpack`` at a time), duplicate traffic (real telemetry columns
repeat a small working set), and per-call dispatch.  This module
attacks all three:

* **Zero-copy columnar ingestion** — :func:`ingest_bits` normalizes any
  packed representation of a column (``bytes``/``bytearray``/
  ``memoryview`` of native-order IEEE encodings, ``array('d')``/
  ``array('f')``, numpy arrays via the buffer protocol — no numpy
  import needed — unsigned-integer views of raw bit patterns, or plain
  Python sequences) into a list of bit-pattern integers with one
  ``array.frombytes`` call over the whole buffer instead of a per-value
  ``struct.unpack``.
* **Dedup interning** — :func:`format_column` collapses the column to
  its distinct bit patterns first (``dict.fromkeys``, one C pass), runs
  the conversion kernel once per distinct value, and fans the results
  back out.  Keys are *bit patterns*, never float values: ``-0.0 ==
  0.0`` and ``nan != nan`` make float keys incorrect.
* **Batch emit** — :func:`format_bulk` renders into a reusable
  delimiter-terminated byte buffer
  (:class:`repro.serve.DelimitedWriter`), and ``jobs > 1`` shards the
  column across a :class:`repro.serve.BulkPool`.

Import discipline: :mod:`repro.serve` builds on this module, never the
reverse — the pool and writer are imported lazily inside the two entry
points that dispatch to them.
"""

from __future__ import annotations

import sys
from array import array
from typing import Iterable, List, Optional, Sequence, Union

from repro.core.rounding import ReaderMode, TieBreak
from repro.errors import DecodeError, RangeError
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.format.notation import DEFAULT_OPTIONS, NotationOptions

__all__ = [
    "ingest_bits",
    "bits_from_buffer",
    "pack_bits",
    "floats_from_bits64",
    "format_column",
    "format_bulk",
    "read_column",
    "read_bulk",
]

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


def floats_from_bits64(bits: Sequence[int]) -> List[float]:
    """Bit patterns → Python floats, one buffer cast for the batch."""
    tc = _TYPECODE_BY_SIZE.get(8)
    if tc is not None:
        return memoryview(array(tc, bits).tobytes()).cast("d").tolist()
    from_bits = Flonum.from_bits  # pragma: no cover - no 8-byte typecode
    return [from_bits(b, BINARY64).to_float() for b in bits]


def _default_engine():
    from repro.engine.engine import default_engine

    return default_engine()


def _serial_engine(engine, snapshot):
    """The engine for a ``jobs == 1`` call: the caller's, or a fresh
    one when a snapshot was given (warming the shared default engine
    would leak one call's configuration into every later caller)."""
    if engine is not None or snapshot is None:
        return engine
    from repro.engine.engine import Engine

    return Engine(snapshot=snapshot)


def _format_bits(eng, bits: List[int], fmt: FloatFormat, mode: ReaderMode,
                 tie: TieBreak, options: Optional[NotationOptions]
                 ) -> List[str]:
    """Format a list of bit patterns through the engine: under the
    default options, straight into its bit-keyed write batch loop."""
    if options is None or options is DEFAULT_OPTIONS:
        return eng._write_batch(bits, fmt, mode, tie)
    from_bits = Flonum.from_bits
    fm = eng.format
    return [fm(from_bits(b, fmt), mode=mode, tie=tie, options=options,
               fmt=fmt) for b in bits]


def format_column(data, fmt: FloatFormat = BINARY64, *, engine=None,
                  mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                  tie: TieBreak = TieBreak.UP,
                  options: Optional[NotationOptions] = None,
                  dedup: bool = True) -> List[str]:
    """Shortest strings for a whole column, in input order.

    ``dedup=True`` (the default) collapses the column to its distinct
    bit patterns before touching the conversion kernel — on real
    telemetry-shaped corpora (heavily duplicated) this is the dominant
    throughput lever; on all-distinct data the two passes cost a few
    percent.  Output is byte-identical either way (and to the scalar
    engine), which ``repro.verify --bulk`` enforces.
    """
    eng = engine if engine is not None else _default_engine()
    bits = ingest_bits(data, fmt)
    if not bits:
        return []
    if dedup:
        interned = dict.fromkeys(bits)
        uniques = list(interned)
        for b, s in zip(uniques,
                        _format_bits(eng, uniques, fmt, mode, tie, options)):
            interned[b] = s
        return [interned[b] for b in bits]
    return _format_bits(eng, bits, fmt, mode, tie, options)


def format_bulk(data, fmt: FloatFormat = BINARY64, *, jobs: int = 1,
                delimiter: Union[bytes, str] = b"\n", engine=None,
                mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                tie: TieBreak = TieBreak.UP, dedup: bool = True,
                writer=None, deadline: Optional[float] = None,
                budget: Optional[float] = None, retries: int = 2,
                on_error: str = "degrade", snapshot=None) -> bytes:
    """Serialize a column to delimiter-terminated ASCII bytes.

    With ``jobs > 1`` the column is sharded across a
    :class:`repro.serve.BulkPool` (order-preserving; one engine per
    process worker) and ``deadline``/``budget``/``retries``/``on_error``
    configure its fault tolerance (see :class:`repro.serve.BulkPool`).
    ``writer`` may be a prepared :class:`repro.serve.DelimitedWriter`
    to reuse its buffer; its delimiter wins over ``delimiter``.
    ``snapshot`` (a path or :class:`repro.engine.snapshot.Snapshot`)
    warm-starts the workers — or, at ``jobs == 1`` with no ``engine``,
    the serial engine; a rejected snapshot degrades to a cold start and
    never changes output bytes.
    """
    if jobs > 1:
        from repro.serve.pool import BulkPool

        with BulkPool(jobs=jobs, fmt=fmt, mode=mode, tie=tie, dedup=dedup,
                      delimiter=delimiter, deadline=deadline,
                      budget=budget, retries=retries,
                      on_error=on_error, snapshot=snapshot) as pool:
            payload = pool.format_bulk(data)
        if writer is not None:
            writer.write_bytes(payload)
            return writer.getvalue()
        return payload
    engine = _serial_engine(engine, snapshot)
    from repro.engine.buffer import format_buffer

    return format_buffer(data, fmt, delimiter=delimiter, mode=mode,
                         tie=tie, engine=engine, dedup=dedup,
                         writer=writer)


def _split_rows(data, delimiter: Union[bytes, str]) -> List[str]:
    """Rows of a delimited payload (one trailing terminator allowed).

    Thin wrapper over :func:`repro.engine.buffer.split_rows`, kept for
    the callers that still want ``str`` rows; the buffer pipeline
    itself never goes through here.  (Lazy import: :mod:`.buffer`
    builds on this module, never the reverse.)
    """
    from repro.engine.buffer import split_rows

    return split_rows(data, delimiter)


def read_column(texts, fmt: FloatFormat = BINARY64, *, engine=None,
                mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                delimiter: Union[bytes, str] = b"\n",
                dedup: bool = True) -> List[Flonum]:
    """Correctly rounded values for a column of literals, in order.

    ``texts`` may be a sequence of strings or a delimited ASCII payload
    (``bytes``/``str``, e.g. one produced by :func:`format_bulk`).
    ``dedup=True`` reads each distinct literal once.
    """
    eng = engine if engine is not None else _default_engine()
    if isinstance(texts, (bytes, bytearray, memoryview)):
        texts = _split_rows(texts, delimiter)
    elif isinstance(texts, str):
        texts = _split_rows(texts, delimiter)
    elif not isinstance(texts, list):
        texts = list(texts)
    if not texts:
        return []
    if dedup:
        interned = dict.fromkeys(texts)
        uniques = list(interned)
        for t, v in zip(uniques, eng.read_many(uniques, fmt, mode)):
            interned[t] = v
        return [interned[t] for t in texts]
    return eng.read_many(texts, fmt, mode)


def read_bulk(data, fmt: FloatFormat = BINARY64, *, out: str = "bits",
              jobs: int = 1, delimiter: Union[bytes, str] = b"\n",
              engine=None, mode: ReaderMode = ReaderMode.NEAREST_EVEN,
              dedup: bool = True, deadline: Optional[float] = None,
              budget: Optional[float] = None, retries: int = 2,
              on_error: str = "degrade", snapshot=None):
    """Parse a delimited payload (or sequence of literals) in bulk.

    ``out="bits"`` returns the packed result as bit-pattern ints —
    the columnar form ready for :func:`ingest_bits` round trips —
    ``out="flonums"`` the :class:`Flonum` values.  ``jobs > 1`` shards
    across a :class:`repro.serve.BulkPool`, with
    ``deadline``/``budget``/``retries``/``on_error`` configuring its
    fault tolerance.  ``snapshot`` warm-starts the workers (or the
    serial engine), exactly as in :func:`format_bulk`.
    """
    if out not in ("bits", "flonums"):
        raise RangeError(f"out must be 'bits' or 'flonums', got {out!r}")
    if jobs > 1:
        from repro.serve.pool import BulkPool

        with BulkPool(jobs=jobs, fmt=fmt, mode=mode, dedup=dedup,
                      delimiter=delimiter, deadline=deadline,
                      budget=budget, retries=retries,
                      on_error=on_error, snapshot=snapshot) as pool:
            return pool.read_bulk(data, out=out)
    engine = _serial_engine(engine, snapshot)
    if isinstance(data, (bytes, bytearray, memoryview, str)):
        # Delimited payloads take the byte-plane pipeline: no per-row
        # str, no per-row Flonum/to_bits when out="bits".
        from repro.engine.buffer import parse_buffer

        return parse_buffer(data, fmt, delimiter=delimiter, mode=mode,
                            out=out, engine=engine, dedup=dedup)
    values = read_column(data, fmt, engine=engine, mode=mode,
                         delimiter=delimiter, dedup=dedup)
    if out == "flonums":
        return values
    return [v.to_bits() for v in values]
