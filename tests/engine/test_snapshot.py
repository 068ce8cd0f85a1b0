"""Warm-start snapshots: container robustness, memo/hot restore
correctness, the shared-memory hot plane, and the cross-format
memo-key regression the snapshot work surfaced.

The contract under test: a valid snapshot makes a fresh engine serve
byte-identical results faster; ANY defective snapshot — truncated,
bit-flipped, wrong version, foreign format set, torn mid-rewrite —
produces a counted fault and a cold (still correct) engine, never
wrong bytes and never a crash.
"""

import gc
import struct

import pytest

from repro.core.rounding import ReaderMode, TieBreak
from repro.engine import Engine, ReadEngine
from repro.engine.buffer import parse_buffer
from repro.engine.snapshot import (
    _HEADER,
    SNAPSHOT_VERSION,
    HotPlane,
    Snapshot,
    apply_snapshot,
    bits_encoder,
    build_snapshot,
    hot_entries,
    load_snapshot,
    restore_tables,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.errors import SnapshotError
from repro.floats.formats import BINARY32, BINARY64, FloatFormat
from repro.floats.model import Flonum
from repro.reader.exact import read_decimal
from repro.workloads.corpus import uniform_random

CORPUS = [v.to_float() for v in uniform_random(120, seed=7, signed=True)] \
    + [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, 0.1]


def donor_engine():
    """An engine whose memo holds CORPUS in both directions."""
    eng = Engine()
    texts = eng.format_many(CORPUS)
    eng.read_many(texts)
    return eng, texts


def make_snapshot(with_hot=True):
    eng, texts = donor_engine()
    hot = None
    if with_hot:
        flos = [Flonum.from_float(x) for x in CORPUS
                if x == x and abs(x) not in (0.0, float("inf"))]
        hot = hot_entries(flos, engine=eng)
    return build_snapshot(["binary64"], engine=eng, hot=hot), texts


class TestContainer:
    def test_bytes_round_trip(self):
        snap, _ = make_snapshot()
        blob = snapshot_to_bytes(snap)
        back = snapshot_from_bytes(blob)
        assert back.payload() == snap.payload()
        assert back.formats == ["binary64"]
        assert back.write_memo and back.read_memo and back.hot

    def test_file_round_trip(self, tmp_path):
        snap, _ = make_snapshot()
        path = tmp_path / "warm.snap"
        n = save_snapshot(snap, path)
        assert path.stat().st_size == n
        assert load_snapshot(path).payload() == snap.payload()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.snap")

    def test_truncated_header(self):
        snap, _ = make_snapshot(with_hot=False)
        blob = snapshot_to_bytes(snap)
        with pytest.raises(SnapshotError, match="truncated"):
            snapshot_from_bytes(blob[:_HEADER.size - 3])

    def test_truncated_payload(self):
        snap, _ = make_snapshot(with_hot=False)
        blob = snapshot_to_bytes(snap)
        with pytest.raises(SnapshotError, match="truncated"):
            snapshot_from_bytes(blob[:-5])

    def test_every_flipped_bit_in_payload_is_caught(self):
        # CRC32 catches any single-bit flip; sample a spread of them.
        snap, _ = make_snapshot(with_hot=False)
        blob = snapshot_to_bytes(snap)
        for pos in range(_HEADER.size, len(blob),
                         max(1, (len(blob) - _HEADER.size) // 16)):
            bad = bytearray(blob)
            bad[pos] ^= 0x10
            with pytest.raises(SnapshotError, match="CRC"):
                snapshot_from_bytes(bytes(bad))

    def test_bad_magic(self):
        snap, _ = make_snapshot(with_hot=False)
        bad = bytearray(snapshot_to_bytes(snap))
        bad[0] ^= 0xFF
        with pytest.raises(SnapshotError, match="magic"):
            snapshot_from_bytes(bytes(bad))

    def test_version_mismatch(self):
        snap, _ = make_snapshot(with_hot=False)
        blob = snapshot_to_bytes(snap)
        magic, _version, res, length, crc = _HEADER.unpack_from(blob)
        bad = _HEADER.pack(magic, SNAPSHOT_VERSION + 1, res, length, crc) \
            + blob[_HEADER.size:]
        with pytest.raises(SnapshotError, match="version"):
            snapshot_from_bytes(bad)

    def test_garbage_payload_with_valid_crc(self):
        # A CRC-consistent container whose payload is not our JSON must
        # still fail typed, not crash in json/zlib.
        payload = b"not zlib at all"
        import zlib
        blob = _HEADER.pack(b"RPRSNAP\x00", SNAPSHOT_VERSION, 0,
                            len(payload), zlib.crc32(payload)) + payload
        with pytest.raises(SnapshotError, match="malformed"):
            snapshot_from_bytes(blob)


class TestStaleness:
    def test_foreign_format_set_rejected(self):
        snap, _ = make_snapshot(with_hot=False)
        snap.tables["binary64"]["fingerprint"]["precision"] += 1
        with pytest.raises(SnapshotError, match="different format set"):
            restore_tables(snap)

    def test_unknown_format_name_rejected(self):
        snap, _ = make_snapshot(with_hot=False)
        snap.formats[0] = "binary61"
        snap.tables["binary61"] = snap.tables.pop("binary64")
        with pytest.raises(SnapshotError, match="unknown format"):
            restore_tables(snap)

    def test_rejection_is_all_or_nothing(self):
        # Validation happens before the first install: an engine fed a
        # stale snapshot is exactly as correct as a cold one.
        snap, _ = make_snapshot(with_hot=False)
        snap.tables["binary64"]["grisu_powers"].pop()  # wrong span
        eng = Engine(snapshot=snap)
        assert eng.stats()["snapshot_faults"] == 1
        assert eng.snapshot_restored is None
        assert eng.format_many(CORPUS) == Engine().format_many(CORPUS)

    def test_malformed_memo_row_rejected(self):
        snap, _ = make_snapshot(with_hot=False)
        snap.write_memo[0] = ["binary64", "nearest-even"]  # short row
        with pytest.raises(SnapshotError, match="write-memo row"):
            apply_snapshot(Engine(), snap)


class TestColdFallback:
    """Engine/ReadEngine constructors never propagate snapshot defects."""

    def test_corrupt_file_counts_fault_and_stays_correct(self, tmp_path):
        snap, _ = make_snapshot()
        path = tmp_path / "warm.snap"
        save_snapshot(snap, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        path.write_bytes(bytes(blob))
        eng = Engine(snapshot=path)
        assert eng.stats()["snapshot_faults"] == 1
        assert eng.snapshot_restored is None
        assert eng.format_many(CORPUS) == Engine().format_many(CORPUS)

    def test_mid_rewrite_partial_file(self, tmp_path):
        # A non-atomic writer torn halfway: the prefix parses as a
        # truncation, the fault is counted, output is cold-correct.
        snap, _ = make_snapshot()
        path = tmp_path / "warm.snap"
        save_snapshot(snap, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        eng = Engine(snapshot=path)
        assert eng.stats()["snapshot_faults"] == 1
        assert eng.format_many(CORPUS) == Engine().format_many(CORPUS)

    def test_missing_file_counts_fault(self, tmp_path):
        eng = Engine(snapshot=tmp_path / "never-written.snap")
        assert eng.stats()["snapshot_faults"] == 1
        assert eng.format(0.1) == "0.1"

    def test_save_is_atomic_under_valid_path(self, tmp_path):
        # save_snapshot goes through tmp+rename: the final path never
        # holds a partial container, and no temp litter survives.
        snap, _ = make_snapshot(with_hot=False)
        path = tmp_path / "warm.snap"
        save_snapshot(snap, path)
        save_snapshot(snap, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["warm.snap"]
        load_snapshot(path)


class TestRestore:
    def test_write_memo_restores_as_cache_hits(self):
        snap, _ = make_snapshot(with_hot=False)
        warm = Engine(snapshot=snap)
        assert warm.snapshot_restored["write"] > 0
        warm.reset_stats()
        got = warm.format_many(CORPUS)
        assert got == Engine().format_many(CORPUS)
        stats = warm.stats()
        # Every finite non-zero magnitude was restored: no tier ran.
        assert stats["tier2_calls"] == 0
        assert stats["cache_hits"] > 0

    def test_read_memo_restores_as_read_cache_hits(self):
        snap, texts = make_snapshot(with_hot=False)
        warm = Engine(snapshot=snap)
        assert warm.snapshot_restored["read"] > 0
        cold_bits = [v.to_bits() for v in Engine().read_many(texts)]
        warm.reset_stats()
        assert [v.to_bits() for v in warm.read_many(texts)] == cold_bits
        assert warm.stats()["read_cache_hits"] > 0

    def test_restore_respects_cache_cap(self):
        snap, _ = make_snapshot(with_hot=False)
        small = Engine(cache_size=16, snapshot=snap)
        assert small.snapshot_restored["write"] <= 16
        assert len(small._cache) <= 16
        assert small.format_many(CORPUS) == Engine().format_many(CORPUS)

    def test_hot_dictionary_serves_without_memo(self):
        snap, _ = make_snapshot(with_hot=True)
        warm = Engine(cache_size=0, snapshot=snap)
        assert warm.snapshot_restored["hot"] > 0
        warm.reset_stats()
        assert warm.format_many(CORPUS) == Engine().format_many(CORPUS)
        assert warm.stats()["hot_hits"] > 0

    def test_hot_rows_are_magnitude_level(self):
        flos = [Flonum.from_float(0.1), Flonum.from_float(-0.1),
                Flonum.from_float(0.1)]
        rows = hot_entries(flos)
        assert len(rows) == 1  # sign dropped, duplicate dropped
        assert rows[0][0] == "binary64"


class TestWriteMemoRows:
    """Write-memo rows carry the bit-keyed entries: ``[name, mode, tie,
    bits, text]``, signed patterns, entries of the other routes left
    out."""

    def test_rows_are_signed_patterns_and_texts(self):
        donor = Engine()
        texts = donor.format_many([1.5, -1.5, 0.1])
        donor.shortest_digits(2.5)  # an (f, e, ctx) entry, same ctx
        donor.format(3.5, base=16)  # an (f, e, ctx) entry, base 16
        donor.counted_digits(4.5, ndigits=3)  # a fixed-format entry
        rows = build_snapshot(["binary64"], engine=donor).write_memo
        want = [[name, "nearest-even", "up",
                 Flonum.from_float(x).to_bits(), t]
                for name, x, t in zip(["binary64"] * 3, [1.5, -1.5, 0.1],
                                      texts)]
        assert rows == want

    def test_version_1_file_starts_cold(self, tmp_path):
        snap, _ = make_snapshot(with_hot=False)
        blob = snapshot_to_bytes(snap)
        magic, _version, res, length, crc = _HEADER.unpack_from(blob)
        path = tmp_path / "v1.snap"
        path.write_bytes(_HEADER.pack(magic, 1, res, length, crc)
                         + blob[_HEADER.size:])
        eng = Engine(snapshot=path)
        assert eng.stats()["snapshot_faults"] == 1
        assert eng.snapshot_restored is None
        assert len(eng._cache) == 0

    @pytest.mark.parametrize("row", [
        ["binary64", "nearest-even", "up", 1 << 64, "1"],
        ["binary64", "nearest-even", "up", -1, "1"],
        ["binary64", "nearest-even", "up", 1.5, "1.5"],
        ["binary64", "nearest-even", "up", 4609434218613702656, 1.5],
        ["binary64", "nearest-even", "up", 6755399441055744, -52, 2, "15"],
    ], ids=["bits-too-wide", "bits-negative", "bits-not-int",
            "text-not-str", "v1-shape"])
    def test_malformed_rows_rejected(self, row):
        snap, _ = make_snapshot(with_hot=False)
        snap.write_memo[0] = row
        with pytest.raises(SnapshotError, match="write-memo row"):
            apply_snapshot(Engine(), snap)


#: Read-memo rows as the ``(Flonum, tier)`` memo wrote them, before
#: read entries held bit patterns: real tier names in the last column.
TIERED_ROWS = [
    ["binary64", "nearest-even", "1.5", "f", 0, 6755399441055744, -52,
     "tier0"],
    ["binary64", "nearest-even", "0.1", "f", 0, 7205759403792794, -56,
     "tier0"],
    ["binary64", "nearest-even", "9007199254740993", "f", 0,
     4503599627370496, 1, "tier1"],
    ["binary64", "nearest-even", "-0", "f", 1, 0, -1074, "special"],
    ["binary64", "nearest-even", "nan", "n", 0, 0, 0, "special"],
    ["binary64", "nearest-even", "-inf", "i", 1, 0, 0, "special"],
    ["binary64", "nearest-even", "1e400", "i", 0, 0, 0, "tier0"],
    ["binary64", "nearest-even", "5e-324", "f", 0, 1, -1074, "tier1"],
    ["binary32", "nearest-even", "3.25", "f", 0, 13631488, -22, "tier0"],
    ["binary32", "nearest-even", "1e39", "i", 0, 0, 0, "tier0"],
]


def _plane(texts) -> bytes:
    return ("\n".join(texts) + "\n").encode("ascii")


class TestReadMemoSurfaces:
    def test_parse_buffer_entries_round_trip(self):
        donor = Engine()
        texts = donor.format_many(CORPUS)
        half = len(texts) // 2
        parse_buffer(_plane(texts[:half]), engine=donor)  # bits only
        donor.read_many(texts[half:])  # bits and Flonum
        snap = snapshot_from_bytes(snapshot_to_bytes(
            build_snapshot(["binary64"], engine=donor)))
        distinct = set(texts)
        assert len(snap.read_memo) == len(distinct)
        assert {row[7] for row in snap.read_memo} == {"memo"}
        want = [read_decimal(t).to_bits() for t in texts]
        warm = Engine(snapshot=snap)
        assert warm.snapshot_restored["read"] == len(distinct)
        warm.reset_stats()
        assert parse_buffer(_plane(texts), engine=warm) == want
        assert [v.to_bits() for v in warm.read_many(texts)] == want
        stats = warm.stats()
        assert stats["read_cache_misses"] == 0
        assert stats["read_cache_hits"] == len(distinct) + len(texts)

    def test_tiered_rows_still_load(self):
        snap = snapshot_from_bytes(snapshot_to_bytes(
            Snapshot(read_memo=TIERED_ROWS)))
        by_fmt = {"binary64": BINARY64, "binary32": BINARY32}
        for warm in (Engine(snapshot=snap), ReadEngine(snapshot=snap)):
            assert warm.snapshot_restored["read"] == len(TIERED_ROWS)
            for name, _mode, text, *_ in TIERED_ROWS:
                fmt = by_fmt[name]
                want = read_decimal(text, fmt)
                got = warm.read_result(text, fmt)
                assert got.tier == "memo", text
                assert got.value.to_bits() == want.to_bits(), text
                assert parse_buffer(_plane([text]), fmt,
                                    engine=warm) == [want.to_bits()]
            assert warm.stats()["read_cache_misses"] == 0


class TestHotPlane:
    def plane_for(self, snap):
        blob = HotPlane.from_snapshot(snap, "binary64")
        assert blob is not None
        return blob

    def test_probe_hits_and_misses(self):
        snap, _ = make_snapshot(with_hot=True)
        plane = HotPlane(memoryview(self.plane_for(snap)))
        to_bits = bits_encoder(BINARY64)
        hits = 0
        for name, mode, tie, f, e, k, body in snap.hot:
            got = plane.get(to_bits(f, e))
            assert got == (k, body)
            hits += 1
        assert hits == len(snap.hot)
        assert plane.get(to_bits(*_fe(9.25))) is None

    def test_attached_plane_serves_formats(self):
        snap, _ = make_snapshot(with_hot=True)
        eng = Engine(cache_size=0)
        eng.attach_hot_plane(HotPlane(memoryview(self.plane_for(snap))))
        assert eng.format_many(CORPUS) == Engine().format_many(CORPUS)
        assert eng.stats()["hot_hits"] > 0

    def test_faulting_plane_detached_for_good_by_the_batch_loop(self):
        snap, _ = make_snapshot(with_hot=True)
        eng = Engine(cache_size=0)
        eng.attach_hot_plane(HotPlane(memoryview(self.plane_for(snap))))
        (ctx, (_, to_bits)), = eng._planes.items()

        class Faulting:
            def get(self, bits):
                raise OSError("segment unmapped")

        eng._planes[ctx] = (Faulting(), to_bits)
        for _ in range(3):
            assert eng.format_many([1.5, 2.5]) == ["1.5", "2.5"]
        assert eng.stats()["snapshot_faults"] == 1
        assert ctx not in eng._planes

    def test_torn_plane_rejected_at_attach(self):
        snap, _ = make_snapshot(with_hot=True)
        blob = bytearray(self.plane_for(snap))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(SnapshotError, match="CRC"):
            HotPlane(memoryview(bytes(blob)))

    def test_truncated_plane_rejected(self):
        snap, _ = make_snapshot(with_hot=True)
        blob = self.plane_for(snap)
        with pytest.raises(SnapshotError, match="truncated"):
            HotPlane(memoryview(blob[:len(blob) // 2]))

    def test_bits_encoder_matches_flonum_to_bits(self):
        for fmt in (BINARY32, BINARY64):
            to_bits = bits_encoder(fmt)
            vals = [v.abs() for v in uniform_random(300, fmt=fmt, seed=3)]
            vals += [Flonum.from_bits(1, fmt),  # smallest subnormal
                     Flonum.from_bits(fmt.hidden_limit - 1, fmt)]
            for v in vals:
                assert to_bits(v.f, v.e) == v.to_bits()


class TestMemoKeyIsolation:
    """Regression: 0.1's binary32 pattern (f=13421773, e=-27) must not
    cross-serve between formats through one engine's memo."""

    F32, E32 = 13421773, -27

    def test_same_value_under_two_formats(self):
        # The identical real number 13421773 * 2**-27, presented as a
        # binary32 flonum and as a binary64 float, must round-trip to
        # each format's own shortest string no matter which the engine
        # memoized first.
        v32 = Flonum.finite(0, self.F32, self.E32, BINARY32)
        v64 = self.F32 * 2.0**self.E32
        for order in ((32, 64), (64, 32)):
            eng = Engine()
            out = {}
            for which in order:
                if which == 32:
                    out[32] = eng.format(v32, fmt=BINARY32)
                else:
                    out[64] = eng.format(v64)
            assert out[32] == "0.1"
            assert out[64] == "0.10000000149011612"

    def test_interned_formats_are_pinned_across_gc(self):
        # id(fmt) keys the context intern table; a collected format
        # whose id is recycled must never alias an old context.  The
        # pin list makes that impossible: every interned format stays
        # alive as long as the engine does.
        eng = Engine()
        baseline = len(eng._ctx_ids)
        for i in range(8):
            toy = FloatFormat(name=f"toy{i}", radix=2, precision=11,
                              exponent_width=0, emin=-14, emax=15)
            text = eng.format(Flonum.finite(0, 1029, -10, toy), fmt=toy)
            assert text == eng.format(
                Flonum.finite(0, 1029, -10, toy), fmt=toy)
            del toy
            gc.collect()
        # Eight structurally identical formats, eight distinct contexts.
        assert len(eng._ctx_ids) == baseline + 8
        assert len(eng._ctx_pins) == len(eng._ctx_ids)


def _fe(x):
    v = Flonum.from_float(x)
    return v.f, v.e
