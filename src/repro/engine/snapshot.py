"""Warm-start snapshots: persisted tables, memo contents and hot values.

Production fleets don't start cold.  A snapshot captures the three
things a fresh process would otherwise re-derive before its first fast
conversion:

* the expensive portion of the per-format :class:`FormatTables` (the
  per-binary-exponent Grisu power list — one correctly rounded 64-bit
  power of ten per normalized exponent, ~2100 entries for binary64);
* selected memo contents from a donor engine (both directions:
  signed bit pattern -> shortest text and text -> value read
  results), re-keyed on *stable* identities — format name, base,
  reader-mode value, tie value — never on process-local ``id()``s or
  arrival-order context ints;
* a **hot-values dictionary**: precomputed shortest-repr results for
  the top-N keys of a zipf corpus, consulted after the memo and before
  the lanes, never evicted (built offline by ``tools/warm_snapshot.py``).

Container format (little-endian)::

    magic    8 bytes   b"RPRSNAP\\x00"
    version  u16       SNAPSHOT_VERSION
    reserved u16       0
    length   u32       payload byte count
    crc      u32       zlib.crc32 of the payload
    payload  length    zlib-compressed JSON

Robustness contract: any defect — missing file, short read, flipped
CRC bit, unknown version, a payload naming formats this build does not
know or whose parameters differ — raises :class:`SnapshotError`, and
every consumer (``Engine``, ``ReadEngine``, ``BulkPool``) treats that
as *fall back to cold build and count the fault*, never as wrong bytes
and never as a crash.

The shared-memory hot plane (:class:`HotPlane`) is the cross-process
face of the hot dictionary: one read-only open-addressed hash table in
a ``multiprocessing.shared_memory`` segment, written once by the pool
parent and probed lock-free by every worker.  Keys are the exact bit
patterns of the format (never ambiguous across formats — a binary32
pattern cannot satisfy a binary64 probe because the plane carries its
format name and each engine context gets its own plane); a CRC over
the whole plane is validated once at attach, so a worker that maps a
segment mid-rewrite rejects it instead of serving torn entries.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.rounding import ReaderMode, TieBreak
from repro.errors import ReproError, SnapshotError
from repro.floats.formats import STANDARD_FORMATS, FloatFormat
from repro.floats.model import Flonum
from repro.engine.reader import _bits_layout
from repro.engine.tables import (
    GRISU_MAX_PRECISION,
    FormatTables,
    install_tables,
    tables_for,
)

__all__ = [
    "SNAPSHOT_VERSION",
    "Snapshot",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "save_snapshot",
    "load_snapshot",
    "build_snapshot",
    "apply_snapshot",
    "apply_read_snapshot",
    "HotPlane",
    "bits_encoder",
]

#: Version 2: write-memo rows carry ``(bits, text)``, the bit-keyed
#: write memo's entries; version 1 carried ``(f, e, k, body)``.
SNAPSHOT_VERSION = 2

_MAGIC = b"RPRSNAP\x00"
_HEADER = struct.Struct("<8sHHII")

#: Finite flonum kinds as stored in the read-memo section.
_KIND_FINITE, _KIND_INF, _KIND_NAN = "f", "i", "n"


def _fingerprint(fmt: FloatFormat) -> dict:
    """Stable identity of a format *and* of the table build that
    depends on it — two builds agreeing on this produce identical
    tables, so a snapshot matching it can never be stale."""
    return {
        "radix": fmt.radix,
        "precision": fmt.precision,
        "exponent_width": fmt.exponent_width,
        "emin": fmt.emin,
        "emax": fmt.emax,
        "explicit_leading_bit": fmt.explicit_leading_bit,
        "grisu_max_precision": GRISU_MAX_PRECISION,
    }


class Snapshot:
    """In-memory form of one warm-start snapshot (plain data).

    Attributes:
        base: Output base the tables and memo entries were built for.
        formats: Format names covered, in order.
        tables: ``{name: {"fingerprint", "grisu_e_min", "grisu_powers"}}``.
        write_memo: ``[name, mode, tie, bits, text]`` rows (the default
            write route's entries: a signed bit pattern of the format
            and its shortest text, base 10, default options; the
            ``old`` generation first, then ``new``).
        read_memo: ``[name, mode, text, kind, sign, f, e, tier]`` rows
            (``tier`` is written as ``"memo"`` and ignored on load).
        hot: ``[name, mode, tie, f, e, k, body]`` rows — the
            never-evicted hot-values dictionary of magnitudes and their
            ``(k, digits)``.
        meta: free-form provenance (corpus parameters, counts).
    """

    __slots__ = ("base", "formats", "tables", "write_memo", "read_memo",
                 "hot", "meta")

    def __init__(self, base: int = 10,
                 formats: Optional[List[str]] = None,
                 tables: Optional[dict] = None,
                 write_memo: Optional[list] = None,
                 read_memo: Optional[list] = None,
                 hot: Optional[list] = None,
                 meta: Optional[dict] = None):
        self.base = base
        self.formats = list(formats or [])
        self.tables = dict(tables or {})
        self.write_memo = list(write_memo or [])
        self.read_memo = list(read_memo or [])
        self.hot = list(hot or [])
        self.meta = dict(meta or {})

    def payload(self) -> dict:
        return {
            "base": self.base,
            "formats": self.formats,
            "tables": self.tables,
            "write_memo": self.write_memo,
            "read_memo": self.read_memo,
            "hot": self.hot,
            "meta": self.meta,
        }


# ----------------------------------------------------------------------
# Container encode / decode.
# ----------------------------------------------------------------------


def snapshot_to_bytes(snap: Snapshot) -> bytes:
    """Serialize to the versioned, CRC-checksummed container."""
    payload = zlib.compress(
        json.dumps(snap.payload(), separators=(",", ":")).encode("ascii"))
    header = _HEADER.pack(_MAGIC, SNAPSHOT_VERSION, 0, len(payload),
                          zlib.crc32(payload))
    return header + payload


def snapshot_from_bytes(data: bytes) -> Snapshot:
    """Parse and validate a container; :class:`SnapshotError` on any
    defect (truncation, bad magic, unknown version, CRC mismatch,
    malformed payload)."""
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"snapshot truncated: {len(data)} bytes < {_HEADER.size}-byte"
            f" header")
    magic, version, _reserved, length, crc = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} != supported {SNAPSHOT_VERSION}")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotError(
            f"snapshot truncated: payload {len(payload)} bytes, header"
            f" says {length}")
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot CRC mismatch (corrupt or torn write)")
    try:
        doc = json.loads(zlib.decompress(payload))
        snap = Snapshot(base=int(doc["base"]),
                        formats=list(doc["formats"]),
                        tables=dict(doc["tables"]),
                        write_memo=list(doc["write_memo"]),
                        read_memo=list(doc["read_memo"]),
                        hot=list(doc["hot"]),
                        meta=dict(doc.get("meta", {})))
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc!r}") from exc
    return snap


def save_snapshot(snap: Snapshot, path: "os.PathLike") -> int:
    """Write atomically (temp file + rename, so a reader never sees a
    half-written snapshot at the final path); returns the byte count."""
    data = snapshot_to_bytes(snap)
    path = os.fspath(path)
    tmp = path + ".tmp." + str(os.getpid())
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return len(data)


def load_snapshot(path: "os.PathLike") -> Snapshot:
    """Read and validate a snapshot file; :class:`SnapshotError` if it
    is missing, unreadable or fails validation."""
    try:
        with open(os.fspath(path), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot: {exc}") from exc
    return snapshot_from_bytes(data)


# ----------------------------------------------------------------------
# Building snapshots.
# ----------------------------------------------------------------------


def _resolve_format(name: str) -> FloatFormat:
    fmt = STANDARD_FORMATS.get(name)
    if fmt is None:
        raise SnapshotError(f"snapshot names unknown format {name!r}"
                            f" (different format set)")
    return fmt


def _check_fingerprint(name: str, stored: dict) -> FloatFormat:
    fmt = _resolve_format(name)
    want = _fingerprint(fmt)
    if stored != want:
        raise SnapshotError(
            f"snapshot tables for {name!r} were built by a different"
            f" format set: {stored} != {want}")
    return fmt


def hot_entries(values: Iterable[Flonum], engine=None,
                mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                tie: TieBreak = TieBreak.UP, base: int = 10) -> list:
    """Precompute hot-dictionary rows for finite non-zero values.

    Magnitude-level: signs are dropped (nearest modes are
    mirror-symmetric, so one entry serves both signs) and duplicates
    keep the first occurrence.  Rows are
    ``[fmt_name, mode, tie, f, e, k, body]``.  The conversions bypass
    ``engine``'s memo, so building rows from a donor evicts none of the
    entries a snapshot of it exports.
    """
    if engine is None:
        from repro.engine.engine import Engine
        engine = Engine()
    rows: list = []
    seen = set()
    for v in values:
        if not v.is_finite or v.is_zero:
            continue
        fmt = v.fmt
        if fmt.name not in STANDARD_FORMATS \
                or STANDARD_FORMATS[fmt.name] is not fmt:
            continue
        dedup = (fmt.name, v.f, v.e)
        if dedup in seen:
            continue
        seen.add(dedup)
        k, body = engine._convert(v.f, v.e, fmt, base, mode, tie,
                                  tables_for(fmt, base))[0]
        rows.append([fmt.name, mode.value, tie.value, v.f, v.e, k, body])
    return rows


def build_snapshot(formats: Iterable[str] = ("binary64",), base: int = 10,
                   engine=None, hot: Optional[list] = None,
                   meta: Optional[dict] = None) -> Snapshot:
    """Capture a snapshot of the named formats' tables plus, when a
    donor ``engine`` is given, its current memo contents (write and
    read directions, standard formats only), plus prebuilt ``hot``
    rows from :func:`hot_entries`."""
    names = [str(n) for n in formats]
    tables: dict = {}
    for name in names:
        fmt = _resolve_format(name)
        t = tables_for(fmt, base)
        e_min, powers = t.grisu_state()
        tables[name] = {
            "fingerprint": _fingerprint(fmt),
            "grisu_e_min": e_min,
            "grisu_powers": [list(p) for p in powers],
        }
    write_memo: list = []
    read_memo: list = []
    if engine is not None:
        write_memo, read_memo = _capture_memo(engine, names, base)
    return Snapshot(base=base, formats=names, tables=tables,
                    write_memo=write_memo, read_memo=read_memo,
                    hot=list(hot or []), meta=meta)


def _capture_memo(engine, names: List[str], base: int
                  ) -> Tuple[list, list]:
    """Export a donor engine's memo on stable keys.

    The in-memory memo keys on interned context ints derived from
    ``id(fmt)`` — process-local and meaningless on disk — so every
    exported row is re-keyed on ``(format name, mode value, tie
    value)``.  Entries are told apart by key shape:

    * ``(text, read_ctx)``, a ``str`` first: a read entry;
    * ``(bits, ctx)``, an ``int`` first: a default-route write entry;
    * ``(f, e, ctx)``: a ``(k, digits)`` entry of a non-default route
      (other options or bases, :meth:`Engine.shortest_digits`),
      skipped — no default-route call reads it;
    * ``(f, e, n, ctx)``: a fixed-format entry, skipped.

    Only entries of standard formats in the requested set survive.
    Rows keep the memo's iteration order, ``old`` then ``new``, and a
    restore installs them in that order.
    """
    wanted = set(names)
    with engine._lock:
        ctx_rev: Dict[int, tuple] = {}
        for (fmt_id, b, mode, tie), ctx in engine._ctx_ids.items():
            if b != base or not isinstance(mode, ReaderMode):
                continue
            ctx_rev[ctx] = (fmt_id, mode, tie)
        fmt_names = {id(STANDARD_FORMATS[n]): n for n in wanted}
        write_rows: list = []
        read_rows: list = []
        reader = engine._reader
        read_rev: Dict[int, tuple] = {}
        if reader is not None:
            for ctx_id, tabs, _, mode in reader._contexts.values():
                name = fmt_names.get(id(tabs.fmt))
                if name is not None:
                    read_rev[ctx_id] = (name, mode, tabs.fmt)
        for key, val in engine._cache.items():
            if len(key) != 2:
                continue  # (f, e, ctx) and fixed-format entries
            if isinstance(key[0], str):
                # Read entry: (text, read_ctx) -> (bits, Flonum or
                # None); formats without an encoding memoize no bits.
                text, ctx = key
                got = read_rev.get(ctx)
                if got is None:
                    continue
                name, mode, fmt = got
                bits, flonum = val
                if bits is not None:
                    flonum = Flonum.from_bits(bits, fmt)
                if flonum.is_nan:
                    kind, sign, f, e = _KIND_NAN, 0, 0, 0
                elif flonum.is_infinite:
                    kind, sign, f, e = _KIND_INF, flonum.sign, 0, 0
                else:
                    kind, sign, f, e = (_KIND_FINITE, flonum.sign,
                                        flonum.f, flonum.e)
                read_rows.append([name, mode.value, text, kind, sign,
                                  f, e, "memo"])
                continue
            bits, ctx = key
            got = ctx_rev.get(ctx)
            if got is None:
                continue
            fmt_id, mode, tie = got
            name = fmt_names.get(fmt_id)
            if name is None:
                continue
            write_rows.append([name, mode.value, tie.value, bits, val])
    return write_rows, read_rows


# ----------------------------------------------------------------------
# Applying snapshots.
# ----------------------------------------------------------------------


def restore_tables(snap: Snapshot) -> Dict[str, FormatTables]:
    """Validate and publish every table set in the snapshot.

    All-or-nothing: every fingerprint and state is validated before the
    first install, so a stale snapshot cannot leave a half-warm table
    cache behind.  Returns the restored tables by format name (whether
    freshly installed or already present).
    """
    restored: Dict[str, FormatTables] = {}
    for name in snap.formats:
        entry = snap.tables.get(name)
        if entry is None:
            raise SnapshotError(f"snapshot missing tables for {name!r}")
        fmt = _check_fingerprint(name, entry.get("fingerprint"))
        try:
            tabs = FormatTables.from_grisu_state(
                fmt, snap.base, int(entry["grisu_e_min"]),
                [tuple(p) for p in entry["grisu_powers"]])
        except ReproError as exc:
            raise SnapshotError(
                f"snapshot tables for {name!r} are stale: {exc}") from exc
        except Exception as exc:
            raise SnapshotError(
                f"snapshot tables for {name!r} are malformed:"
                f" {exc!r}") from exc
        restored[name] = tabs
    for tabs in restored.values():
        install_tables(tabs)
    return restored


def _decode_mode(value) -> ReaderMode:
    try:
        return ReaderMode(value)
    except ValueError as exc:
        raise SnapshotError(f"unknown reader mode {value!r}") from exc


def _decode_tie(value) -> TieBreak:
    try:
        return TieBreak(value)
    except ValueError as exc:
        raise SnapshotError(f"unknown tie strategy {value!r}") from exc


def _decode_flonum(kind: str, sign: int, f: int, e: int,
                   fmt: FloatFormat) -> Flonum:
    if kind == _KIND_NAN:
        return Flonum.nan(fmt)
    if kind == _KIND_INF:
        return Flonum.infinity(fmt, sign)
    if kind == _KIND_FINITE:
        if f == 0:
            return Flonum.zero(fmt, sign)
        return Flonum.finite(sign, int(f), int(e), fmt)
    raise SnapshotError(f"unknown flonum kind {kind!r} in read memo")


def _decode_read_row(name, mode, text, kind, sign, f, e) -> tuple:
    """One read-memo row as ``(fmt, mode, text, (bits, Flonum))``; the
    tier column is ignored (older snapshots carry real tier names)."""
    fmt = _resolve_format(name)
    value = _decode_flonum(kind, int(sign), f, e, fmt)
    bits = value.to_bits() if fmt.has_encoding else None
    return fmt, _decode_mode(mode), str(text), (bits, value)


def apply_snapshot(engine, snap: Snapshot) -> dict:
    """Warm an :class:`~repro.engine.engine.Engine` from a snapshot.

    Restores tables, installs write-memo rows into the memo as
    ``(bits, ctx) -> text`` entries (in row order, capped at the
    engine's ``cache_size``), fills the hot
    dictionary, and — when the snapshot has read rows — builds the read
    engine and installs those too.  Returns restore counts.  Raises
    :class:`SnapshotError` without touching the engine if validation
    fails (the engine's constructor translates that into a counted
    fault and a cold build).
    """
    restore_tables(snap)
    # Rows cluster on a handful of (format, mode, tie) triples, so the
    # enum/format decode — and later the context interning — is
    # memoized per triple rather than paid per row (restore speed is
    # the whole point of a warm start).
    triples: dict = {}

    def _triple(name, mode, tie):
        tri = triples.get((name, mode, tie))
        if tri is None:
            tri = triples[(name, mode, tie)] = (
                _resolve_format(name), _decode_mode(mode),
                _decode_tie(tie))
        return tri

    decoded_w = []
    for row in snap.write_memo:
        try:
            name, mode, tie, bits, text = row
            fmt, m, t = _triple(name, mode, tie)
            if (type(bits) is not int or not 0 <= bits < 1 << fmt.total_bits
                    or type(text) is not str):
                raise ValueError("bits not a pattern of the format or "
                                 "text not a string")
            decoded_w.append((fmt, m, t, bits, text))
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"malformed write-memo row: {row!r}") from exc
    decoded_h = []
    for row in snap.hot:
        try:
            name, mode, tie, f, e, k, body = row
            fmt, m, t = _triple(name, mode, tie)
            decoded_h.append((fmt, m, t, f + 0, e + 0, (k + 0, str(body))))
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(f"malformed hot row: {row!r}") from exc
    decoded_r = []
    for row in snap.read_memo:
        try:
            name, mode, text, kind, sign, f, e, _tier = row
        except Exception as exc:
            raise SnapshotError(f"malformed read-memo row: {row!r}") from exc
        decoded_r.append(_decode_read_row(name, mode, text, kind, sign,
                                          f, e))
    counts = {"formats": len(snap.formats), "write": 0, "read": 0, "hot": 0}
    ctxs: dict = {}

    def _ctx(fmt, mode, tie):
        c = ctxs.get((fmt.name, mode, tie))
        if c is None:
            c = ctxs[(fmt.name, mode, tie)] = engine._ctx_id(
                fmt, snap.base, mode, tie)
        return c

    if decoded_w and engine.cache_size:
        keyed = [((bits, _ctx(fmt, mode, tie)), text)
                 for fmt, mode, tie, bits, text in decoded_w]
        with engine._lock:
            counts["write"] = engine._cache.install(keyed)
    hot = engine._hot
    for fmt, mode, tie, f, e, kb in decoded_h:
        hot[(f, e, _ctx(fmt, mode, tie))] = kb
    counts["hot"] = len(decoded_h)
    if decoded_r and engine.cache_size:
        reader = engine.reader
        counts["read"] = _install_read_rows(reader, decoded_r)
    return counts


def apply_read_snapshot(reader, snap: Snapshot) -> dict:
    """Warm a standalone :class:`~repro.engine.reader.ReadEngine`:
    tables plus the read-memo rows (the write/hot sections do not apply
    to the read direction)."""
    restore_tables(snap)
    decoded = []
    for row in snap.read_memo:
        try:
            name, mode, text, kind, sign, f, e, _tier = row
        except Exception as exc:
            raise SnapshotError(f"malformed read-memo row: {row!r}") from exc
        decoded.append(_decode_read_row(name, mode, text, kind, sign, f, e))
    count = _install_read_rows(reader, decoded) if reader.cache_size else 0
    return {"formats": len(snap.formats), "write": 0, "read": count,
            "hot": 0}


def _install_read_rows(reader, decoded: list) -> int:
    ctxs: dict = {}

    def _ctx(fmt, mode):
        c = ctxs.get((fmt.name, mode))
        if c is None:
            c = ctxs[(fmt.name, mode)] = reader._context(fmt, mode)[0]
        return c

    keyed = [((text, _ctx(fmt, mode)), val)
             for fmt, mode, text, val in decoded]
    with reader._lock:
        return reader._cache.install(keyed)


# ----------------------------------------------------------------------
# The shared-memory hot plane.
# ----------------------------------------------------------------------

_PLANE_MAGIC = b"RPRHOTP\x00"
#: magic, crc, nslots, base, fmt_name, mode, tie, values_len
_PLANE_HEADER = struct.Struct("<8sIII32s16s8sI")
_SLOT = struct.Struct("<QII")
_VAL_K = struct.Struct("<i")


def bits_encoder(fmt: FloatFormat):
    """Closure mapping canonical positive finite ``(f, e)`` to the
    format's bit pattern — the plane's key function, built from the
    read batch loop's encoder constants
    (:func:`repro.engine.reader._bits_layout`)."""
    hidden, shift, offset = _bits_layout(fmt)[:3]

    def to_bits(f: int, e: int) -> int:
        return (e << shift) + f + offset if f >= hidden else f
    return to_bits


def _mix(bits: int) -> int:
    """Fibonacci hash: spread nearby bit patterns across the table."""
    return (bits * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF


class HotPlane:
    """A read-only open-addressed hot-values table over a flat buffer.

    Layout: the header above, ``nslots`` 16-byte slots (key ``u64``,
    value offset ``u32``, value length ``u32``; key 0 = empty — bit
    pattern 0 is +0.0, which never reaches digit generation), then the
    packed values (``i32`` k + ASCII digit body).  The CRC covers
    everything after the magic+crc prefix and is verified once in the
    constructor: a reader attaching mid-rewrite sees a checksum
    mismatch, not torn entries.  Probes are lock-free reads.
    """

    __slots__ = ("_buf", "_mask", "_shift", "_slots_off", "_values_off",
                 "fmt_name", "mode", "tie", "base", "nslots")

    def __init__(self, buf):
        if len(buf) < _PLANE_HEADER.size:
            raise SnapshotError(
                f"hot plane truncated: {len(buf)} bytes")
        (magic, crc, nslots, base, fmt_name, mode, tie,
         values_len) = _PLANE_HEADER.unpack_from(buf, 0)
        if magic != _PLANE_MAGIC:
            raise SnapshotError(f"bad hot-plane magic {magic!r}")
        slots_off = _PLANE_HEADER.size
        total = slots_off + nslots * _SLOT.size + values_len
        if nslots == 0 or nslots & (nslots - 1):
            raise SnapshotError(f"hot-plane slot count {nslots} not a"
                                f" power of two")
        if len(buf) < total:
            raise SnapshotError(
                f"hot plane truncated: {len(buf)} bytes < {total}")
        if zlib.crc32(bytes(buf[12:total])) != crc:
            raise SnapshotError("hot-plane CRC mismatch (torn write?)")
        self._buf = buf
        self.nslots = nslots
        self._mask = nslots - 1
        self._shift = 64 - nslots.bit_length() + 1
        self._slots_off = slots_off
        self._values_off = slots_off + nslots * _SLOT.size
        self.fmt_name = fmt_name.rstrip(b"\x00").decode("ascii")
        self.mode = mode.rstrip(b"\x00").decode("ascii")
        self.tie = tie.rstrip(b"\x00").decode("ascii")
        self.base = base

    @staticmethod
    def build(entries: Iterable[Tuple[int, int, str]], fmt_name: str,
              mode: str, tie: str, base: int = 10) -> bytes:
        """Serialize ``(bits, k, body)`` entries into a plane buffer."""
        items = [(b, k, body) for b, k, body in entries if b != 0]
        nslots = 8
        while nslots * 3 < len(items) * 5:  # load factor <= 0.6
            nslots *= 2
        shift = 64 - nslots.bit_length() + 1
        mask = nslots - 1
        slots = [(0, 0, 0)] * nslots
        values = bytearray()
        for bits, k, body in items:
            payload = _VAL_K.pack(k) + body.encode("ascii")
            idx = _mix(bits) >> shift
            while slots[idx][0] != 0:
                if slots[idx][0] == bits:
                    break  # duplicate key: first entry wins
                idx = (idx + 1) & mask
            else:
                slots[idx] = (bits, len(values), len(payload))
                values += payload
        body_bytes = b"".join(_SLOT.pack(*s) for s in slots) + bytes(values)
        header_tail = struct.pack(
            "<II32s16s8sI", nslots, base, fmt_name.encode("ascii"),
            mode.encode("ascii"), tie.encode("ascii"), len(values))
        crc = zlib.crc32(header_tail + body_bytes)
        return _PLANE_MAGIC + struct.pack("<I", crc) + header_tail \
            + body_bytes

    @staticmethod
    def from_snapshot(snap: Snapshot, fmt_name: str,
                      mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                      tie: TieBreak = TieBreak.UP) -> Optional[bytes]:
        """Plane bytes for one format's hot rows, or None if the
        snapshot has none for that ``(format, mode, tie)`` or the
        format has no bit-level encoding."""
        fmt = STANDARD_FORMATS.get(fmt_name)
        if fmt is None or not fmt.has_encoding:
            return None
        to_bits = bits_encoder(fmt)
        entries = [(to_bits(int(f), int(e)), int(k), str(body))
                   for name, m, t, f, e, k, body in snap.hot
                   if name == fmt_name and m == mode.value
                   and t == tie.value]
        if not entries:
            return None
        return HotPlane.build(entries, fmt_name, mode.value, tie.value,
                              snap.base)

    def get(self, bits: int) -> Optional[Tuple[int, str]]:
        """``(k, body)`` for an exact bit pattern, or None."""
        buf = self._buf
        mask = self._mask
        idx = _mix(bits) >> self._shift
        slots_off = self._slots_off
        while True:
            key, off, length = _SLOT.unpack_from(buf,
                                                 slots_off + idx * 16)
            if key == bits:
                start = self._values_off + off
                k, = _VAL_K.unpack_from(buf, start)
                body = bytes(buf[start + 4:start + length]).decode("ascii")
                return k, body
            if key == 0:
                return None
            idx = (idx + 1) & mask
