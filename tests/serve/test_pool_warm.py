"""Warm-started :class:`BulkPool`: snapshot transport to workers, the
shared-memory hot plane, and every degradation path.

Invariant throughout: a warm pool's payload is byte-identical to a cold
pool's, whatever happens to the snapshot or the shared-memory segment
on the way — defects cost warmth (and count ``snapshot_faults``), never
correctness.
"""

import pytest

from repro.engine import Engine, build_snapshot, hot_entries, save_snapshot
from repro.engine.buffer import format_buffer, parse_buffer
from repro.floats.model import Flonum
from repro.serve import BulkPool
from repro.serve.pool import (
    _attach_shm,
    _build_warm_engine,
    _consume_warm_faults,
)
from repro.workloads.corpus import zipf_random

CORPUS = [v.to_float() for v in zipf_random(600, 80, seed=21, signed=True)] \
    + [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]

WANT = format_buffer(CORPUS, engine=Engine())


def _snapshot():
    donor = Engine()
    texts = donor.format_many(CORPUS)
    donor.read_many([t for t in texts if t not in ("nan", "inf", "-inf")])
    hot = hot_entries(
        [Flonum.from_float(x) for x in CORPUS
         if x == x and abs(x) not in (0.0, float("inf"))],
        engine=donor)
    return build_snapshot(["binary64"], engine=donor, hot=hot)


@pytest.fixture(scope="module")
def snap_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("warm") / "warm.snap"
    save_snapshot(_snapshot(), path)
    return path


class TestWarmIdentity:
    @pytest.mark.parametrize("route", ["process", "inline"])
    def test_pool_format_bytes_identical(self, snap_path, route):
        jobs = 2 if route == "process" else 1
        with BulkPool(jobs=jobs, snapshot=snap_path) as pool:
            got = pool.format_bulk(CORPUS)
            stats = pool.stats()
        assert got == WANT
        assert stats["snapshot_faults"] == 0

    @pytest.mark.parametrize("route", ["process", "inline"])
    def test_pool_read_bits_identical(self, snap_path, route):
        jobs = 2 if route == "process" else 1
        with BulkPool(jobs=jobs) as cold:
            want_bits = cold.read_bulk(WANT)
        with BulkPool(jobs=jobs, snapshot=snap_path) as pool:
            got = pool.read_bulk(WANT)
            stats = pool.stats()
        assert got == want_bits
        assert stats["snapshot_faults"] == 0

    def test_serial_path_through_module_function(self, snap_path):
        # A jobs=1 pool warms the engine it builds (the snapshot's
        # write-memo rows serve every format row); both legs inline.
        with BulkPool(jobs=1, snapshot=snap_path) as pool:
            assert pool.format_bulk(CORPUS) == WANT
            got = pool.read_bulk(WANT)
            assert pool.stats()["cache_misses"] == 0
        assert got == parse_buffer(WANT, engine=Engine())

    def test_jobs2_module_function(self, snap_path):
        with BulkPool(jobs=2, snapshot=snap_path) as pool:
            assert pool.format_bulk(CORPUS) == WANT


class TestDegradation:
    def test_corrupt_snapshot_counts_parent_fault(self, snap_path,
                                                  tmp_path):
        blob = bytearray(snap_path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(blob))
        with BulkPool(jobs=2, snapshot=bad) as pool:
            got = pool.format_bulk(CORPUS)
            stats = pool.stats()
        assert got == WANT
        assert stats["snapshot_faults"] >= 1

    def test_mid_rewrite_truncation_counts_parent_fault(self, snap_path,
                                                        tmp_path):
        blob = snap_path.read_bytes()
        torn = tmp_path / "torn.snap"
        torn.write_bytes(blob[:len(blob) // 3])
        with BulkPool(jobs=2, snapshot=torn) as pool:
            assert pool.format_bulk(CORPUS) == WANT
            assert pool.stats()["snapshot_faults"] >= 1

    def test_no_shared_memory_falls_back_to_plane_bytes(self, snap_path):
        # A host without POSIX shared memory still warms every worker
        # through the serialized plane copy in the initargs.
        import multiprocessing.shared_memory as shm_mod

        def _unavailable(*a, **kw):
            raise OSError("shared memory disabled for test")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shm_mod, "SharedMemory", _unavailable)
            pool = BulkPool(jobs=2, snapshot=snap_path)
        try:
            assert pool._shm is None
            assert pool._warm is not None
            assert pool._warm["plane_shm"] is None
            assert pool._warm["plane_bytes"] is not None
            assert pool.format_bulk(CORPUS) == WANT
            assert pool.stats()["snapshot_faults"] == 0
        finally:
            pool.close()

    def test_vanished_segment_degrades_silently(self, snap_path):
        # Workers that cannot attach the named segment fall back to
        # their private plane copy: warm, correct, no fault (losing a
        # shared mapping is not a data defect).
        pool = BulkPool(jobs=2, snapshot=snap_path)
        try:
            assert pool._warm is not None
            if pool._shm is not None:
                pool._warm["plane_shm"] = "repro-gone-" + pool._shm.name
            assert pool.format_bulk(CORPUS) == WANT
            assert pool.stats()["snapshot_faults"] == 0
        finally:
            pool.close()

    def test_worker_side_corrupt_snapshot_reports_once(self, snap_path,
                                                       tmp_path):
        # Chaos: the file is replaced with garbage between parent
        # validation and worker start (the parent already restored its
        # tables, so only the workers see the defect).  Each worker
        # counts exactly one fault, folded into pool stats.
        bad = tmp_path / "swapped.snap"
        blob = bytearray(snap_path.read_bytes())
        blob[-1] ^= 0xFF
        bad.write_bytes(bytes(blob))
        pool = BulkPool(jobs=2, snapshot=snap_path)
        try:
            assert pool._warm is not None
            pool._warm["snapshot"] = bad
            got = pool.format_bulk(CORPUS)
            stats = pool.stats()
        finally:
            pool.close()
        assert got == WANT
        assert 1 <= stats["snapshot_faults"] <= 2  # once per worker

    def test_close_releases_segment_but_keeps_serving(self, snap_path):
        pool = BulkPool(jobs=2, snapshot=snap_path)
        try:
            assert pool.format_bulk(CORPUS) == WANT
            pool.close()
            # Rebuilt workers warm from the plane-bytes copy.
            assert pool._shm is None
            assert pool.format_bulk(CORPUS) == WANT
            assert pool.stats()["snapshot_faults"] == 0
        finally:
            pool.close()


class TestWorkerWarmup:
    """The worker-side warm-up helpers, exercised in-process."""

    def test_build_warm_engine_serves_hot(self, snap_path):
        from repro.engine.snapshot import HotPlane, load_snapshot

        _consume_warm_faults()  # isolate the module tally
        plane_bytes = HotPlane.from_snapshot(load_snapshot(snap_path),
                                             "binary64")
        eng = _build_warm_engine({"snapshot": snap_path,
                                  "plane_shm": None,
                                  "plane_bytes": plane_bytes})
        assert _consume_warm_faults() == 0
        assert eng.format_many(CORPUS) == Engine().format_many(CORPUS)
        stats = eng.stats()
        assert stats["snapshot_faults"] == 0
        assert stats["cache_hits"] + stats["hot_hits"] > 0

    def test_build_warm_engine_tallies_faults(self, tmp_path):
        _consume_warm_faults()
        eng = _build_warm_engine({"snapshot": tmp_path / "absent.snap",
                                  "plane_shm": None,
                                  "plane_bytes": b"garbage plane"})
        # One fault for the missing snapshot, one for the bad plane —
        # tallied for the next shard delta, zeroed on the engine.
        assert _consume_warm_faults() == 2
        assert _consume_warm_faults() == 0
        assert eng.stats()["snapshot_faults"] == 0
        assert eng.format_many(CORPUS) == Engine().format_many(CORPUS)

    def test_attach_shm_does_not_own_the_segment(self):
        from multiprocessing import shared_memory

        owner = shared_memory.SharedMemory(create=True, size=64)
        try:
            owner.buf[:4] = b"warm"
            seen = _attach_shm(owner.name)
            assert bytes(seen.buf[:4]) == b"warm"
            seen.close()
            # The attachment never unlinks: the owner's mapping (and a
            # fresh attach) still works after the reader goes away.
            again = _attach_shm(owner.name)
            assert bytes(again.buf[:4]) == b"warm"
            again.close()
        finally:
            owner.close()
            owner.unlink()
