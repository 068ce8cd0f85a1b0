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
  available) so shard boundaries and classification never materialize
  per-row strings;
* :func:`classify_tokens` — a vectorized classify sweep (sign, digit
  purity, digit count, exact-power window) that partitions a column of
  byte tokens into per-tier sub-batches in one pass, with a
  pure-python fallback when numpy is absent;
* :func:`parse_buffer` — tokenize, dedup on *bytes* tokens, scan each
  distinct token with a bytes-level :func:`_scan_decimal` equivalent,
  convert the host-window sub-batch with one ``array('d')`` pass and
  everything else through :meth:`ReadEngine._convert` directly —
  pow-table lookups and the stats-lock acquisition hoisted out of the
  per-value loop, and never a per-row ``str`` or ``Flonum``;
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

from repro import faults as _faults
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.bulk import (
    _format_bits,
    _itemsize,
    ingest_bits,
)
from repro.engine.reader import (
    _HOST_POW10_MAX,
    _HOST_POW10_MIN,
    _NEAREST,
    ReadEngine,
)
from repro.engine.tables import tables_for
from repro.errors import DecodeError, ParseError, RangeError
from repro.floats.formats import BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.format.notation import NotationOptions
from repro.reader.bellerophon import _try_fast
from repro.reader.parse import parse_decimal

try:  # optional: reached through the buffer protocol only
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

__all__ = ["split_plane", "split_rows", "classify_tokens",
           "parse_buffer", "format_buffer"]

#: numpy dtype name per unsigned itemsize (the vectorized dedup leg).
_NP_UINT_BY_SIZE = {2: "uint16", 4: "uint32", 8: "uint64"}

#: Tier codes :func:`classify_tokens` assigns.
TIER_FAST = 0    #: host/exact-power window candidate (sub-batchable)
TIER_CONVERT = 1  #: finite literal for the interval/exact tiers
TIER_SLOW = 2    #: specials, malformed, oversized — full parser

#: ASCII digit byte lookup (the classify sweep's purity test).
_DIGITS = frozenset(b"0123456789")


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
    splitting and classification consume.  One trailing terminator is
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


def _scan_token(tok: bytes):
    """Bytes-level :func:`repro.reader.parse._scan_decimal` equivalent.

    Same acceptance and the same normalized ``(sign, digits, exponent)``
    fields, over a bytes token — ``bytes.isdigit`` is ASCII-only, so no
    ``isascii`` gate is needed.  Returns None for anything the full
    parser must see (specials, ``#`` marks, malformed, oversized).
    """
    body = tok
    c = tok[:1]
    if c == b"-":
        sign = 1
        body = tok[1:]
    else:
        sign = 0
        if c == b"+":
            body = tok[1:]
    mant, sep, exp_part = body.partition(b"e")
    if not sep:
        mant, sep, exp_part = body.partition(b"E")
    if sep:
        ec = exp_part[:1]
        if ec == b"-":
            exp_part = exp_part[1:]
            if not exp_part.isdigit():
                return None
            exponent = -int(exp_part)
        else:
            if ec == b"+":
                exp_part = exp_part[1:]
            if not exp_part.isdigit():
                return None
            exponent = int(exp_part)
    else:
        exponent = 0
    int_part, _, frac_part = mant.partition(b".")
    if int_part and not int_part.isdigit():
        return None
    if frac_part:
        if not frac_part.isdigit():
            return None
        exponent -= len(frac_part)
        digits_str = int_part + frac_part
    else:
        digits_str = int_part
    if not digits_str or len(digits_str) > 4000:
        return None
    digits = int(digits_str)
    if digits:
        while digits % 10 == 0:
            digits //= 10
            exponent += 1
    else:
        exponent = 0
    return sign, digits, exponent


def _plain_digit_mask(tokens: List[bytes]) -> Optional[list]:
    """Vectorized purity test: which tokens are bare ASCII digit runs.

    Builds one terminated plane from the tokens and runs a 256-entry
    lookup table plus a segmented reduction over a zero-copy view —
    the numpy-through-buffer-protocol leg of the classify pass.  The
    mask only *routes* tokens to the cheap ``int()`` scan; a token it
    marks scans identically through :func:`_scan_token`, so the result
    cannot depend on this pass.  None when numpy is absent or the
    batch is too small to matter.
    """
    if _np is None or len(tokens) < 512:
        return None
    plane = b"\n".join(tokens) + b"\n"
    arr = _np.frombuffer(plane, dtype=_np.uint8)
    lut = _np.ones(256, dtype=bool)
    lut[ord("0"):ord("9") + 1] = False  # True marks a non-digit byte
    starts = _np.empty(len(tokens), dtype=_np.int64)
    starts[0] = 0
    lens = _np.fromiter(map(len, tokens), dtype=_np.int64,
                        count=len(tokens))
    _np.cumsum(lens[:-1] + 1, out=starts[1:])
    # Each segment spans the token plus its terminator, so a pure digit
    # run counts exactly one non-digit byte (the terminator itself).
    bad = _np.add.reduceat(lut[arr], starts)
    return ((bad == 1) & (lens >= 1) & (lens <= 19)).tolist()


def classify_tokens(tokens: List[bytes], fmt: FloatFormat = BINARY64,
                    tables=None) -> Tuple[list, array]:
    """One sweep over a token column: ``(scans, tiers)``.

    ``scans[i]`` is the normalized ``(sign, digits, exponent)`` triple
    (or None for tokens only the full parser can judge) and
    ``tiers[i]`` the sub-batch the token belongs to: :data:`TIER_FAST`
    for significands that fit the format inside its exact-power window
    (digit count and window test against
    :class:`~repro.engine.tables.FormatTables`), :data:`TIER_CONVERT`
    for other finite literals, :data:`TIER_SLOW` for specials and
    malformed input.  The digit-purity/sign pre-pass is vectorized
    through the buffer protocol when numpy is available
    (:func:`_plain_digit_mask`); the fallback runs the same sweep in
    pure python with identical results.
    """
    if tables is None:
        tables = tables_for(fmt, 10)
    if tables.read_host_float:
        win_lo, win_hi = _HOST_POW10_MIN, _HOST_POW10_MAX
    else:
        win_lo, win_hi = -tables.read_max_pow10, tables.read_max_pow10
    mantissa_limit = tables.mantissa_limit
    scans: list = []
    append = scans.append
    tiers = array("b", bytes(len(tokens)))
    plain = _plain_digit_mask(tokens)
    scan = _scan_token
    for i, tok in enumerate(tokens):
        if plain is not None and plain[i]:
            # Vector-classified digit run: sign 0, exponent 0, with the
            # scanner's trailing-zero normalization replicated.
            d = int(tok)
            q = 0
            if d:
                while d % 10 == 0:
                    d //= 10
                    q += 1
            sc = (0, d, q)
        else:
            sc = scan(tok)
        append(sc)
        if sc is None:
            tiers[i] = TIER_SLOW
        elif sc[1] < mantissa_limit and win_lo <= sc[2] <= win_hi:
            tiers[i] = TIER_FAST
        else:
            tiers[i] = TIER_CONVERT
    return scans, tiers


def _reader_of(engine) -> ReadEngine:
    if engine is None:
        from repro.engine.reader import default_read_engine

        return default_read_engine()
    if isinstance(engine, ReadEngine):
        return engine
    return engine.reader  # an Engine: its attached read engine


def _parse_tokens(uniques: List[bytes], fmt: FloatFormat,
                  mode: ReaderMode, reader: ReadEngine) -> List[int]:
    """Bit patterns of distinct byte tokens, per-tier sub-batched.

    The hot core of :func:`parse_buffer`.  Tables, the window test and
    the conversion entry point are hoisted out of the loop; the memo is
    deliberately skipped (the caller's dedup already collapses the
    batch, and memo traffic per token is exactly the churn this path
    removes); stats are tallied locally and flushed under one lock.

    The :data:`TIER_FAST` sub-batch for host-float formats (binary64)
    runs Clinger's exact-power multiply per token but converts the
    accumulated results to bit patterns with *one* ``array('d')``
    buffer cast for the whole sub-batch — no per-value Flonum, no
    per-value ``to_bits``.  Everything else funnels through
    :meth:`ReadEngine._convert`, the same counter-free core the scalar
    reader uses, so results are bit-identical by construction.
    """
    tables = reader._context(fmt, mode)[1]
    scans, tiers = classify_tokens(uniques, fmt, tables)
    out = [0] * len(uniques)
    sign_shift = fmt.total_bits - 1
    # The inline host sub-batch replicates _convert's tier-0 outcome
    # exactly; it must stand aside whenever _convert would behave
    # differently: an exact-only reader, non-nearest mode, no
    # host-float tables, or an armed fault plan (whose tier sites fire
    # inside _convert).
    host_batch = (tables.read_host_float and tables.read_fast_ok
                  and not reader.exact_only
                  and mode in _NEAREST
                  and _faults._PLAN is None)
    convert = reader._convert
    to_parsed = reader._convert_parsed
    host_f: List[float] = []
    host_sign: List[int] = []
    host_idx: List[int] = []
    t0 = t1 = t1b = t2 = sp = tf = 0
    for i, sc in enumerate(scans):
        if sc is None:
            tok = uniques[i]
            try:
                text = tok.decode("ascii")
            except UnicodeDecodeError:
                raise ParseError(
                    f"non-ASCII literal: {tok[:32]!r}") from None
            value, tier, bailed, faulted = to_parsed(
                parse_decimal(text), fmt, mode, tables)
        else:
            sign, d, q = sc
            if d == 0:
                out[i] = sign << sign_shift
                sp += 1
                continue
            if host_batch and tiers[i] == TIER_FAST:
                fast = _try_fast(d, q)
                if fast is not None:
                    host_idx.append(i)
                    host_sign.append(sign)
                    host_f.append(fast)
                    t0 += 1
                    continue
            value, tier, bailed, faulted = convert(sign, d, q, fmt,
                                                   mode, tables)
        if bailed:
            t1b += 1
        if faulted:
            tf += 1
        if tier == "tier0":
            t0 += 1
        elif tier == "tier1":
            t1 += 1
        elif tier == "tier2":
            t2 += 1
        else:
            sp += 1
        out[i] = value.to_bits()
    if host_f:
        # One buffer cast converts the whole sub-batch of host-float
        # results to bit patterns; the sign is OR-ed in afterwards
        # (_try_fast works on magnitudes, exactly like _convert).
        host_bits = array("Q")
        host_bits.frombytes(array("d", host_f).tobytes())
        for i, s, b in zip(host_idx, host_sign, host_bits):
            out[i] = b | (s << 63)
    with reader._lock:
        reader._tier0_hits += t0
        reader._tier1_hits += t1
        reader._tier1_bailouts += t1b
        reader._tier2_calls += t2
        reader._specials += sp
        reader._tier_faults += tf
    return out


def parse_buffer(data, fmt: FloatFormat = BINARY64, *,
                 delimiter: Union[bytes, str] = b"\n",
                 mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                 out: str = "bits", engine=None, dedup: bool = True):
    """Parse a whole delimited byte plane without per-row strings.

    The read mirror of :func:`format_buffer`: tokenize with one C-level
    split (tokens stay ``bytes``), dedup on the byte tokens, classify
    and convert only the distinct ones (:func:`_parse_tokens`), and fan
    the bit patterns back out in row order.  ``out="bits"`` (default)
    returns bit-pattern ints — the columnar form — ``out="flonums"``
    the :class:`Flonum` values.

    Results are bit-identical to the scalar
    :meth:`~repro.engine.reader.ReadEngine.read_many` on the same rows
    (the ``--buffer`` verify battery enforces it); malformed rows raise
    the same :class:`ParseError`.  The engine memo is not consulted:
    within a plane the dedup pass replaces it, and skipping the probe
    per row is a large part of the speedup.
    """
    if out not in ("bits", "flonums"):
        raise RangeError(f"out must be 'bits' or 'flonums', got {out!r}")
    reader = _reader_of(engine)
    tokens = _tokens(data, delimiter)
    if not tokens:
        return []
    stripped = [t.strip() for t in tokens]
    if dedup:
        interned = dict.fromkeys(stripped)
        uniques = list(interned)
        for t, b in zip(uniques,
                        _parse_tokens(uniques, fmt, mode, reader)):
            interned[t] = b
        bits = list(map(interned.__getitem__, stripped))
    else:
        bits = _parse_tokens(stripped, fmt, mode, reader)
    if out == "bits":
        return bits
    from_bits = Flonum.from_bits
    return [from_bits(b, fmt) for b in bits]


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
