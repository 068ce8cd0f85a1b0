"""The self-healing control plane: AIMD admission, traffic
observation, hedged dispatch on an offline pool, client reconnect and
the HEALTH opcode.

The controller is driven by fed latencies — no sleeps, every transition
deterministic.  The invariant under test throughout: the control plane
may *shed or reroute, never change a byte*.
"""

import os
import shutil
import threading
import time

import pytest

from repro import faults
from repro.engine import Engine
from repro.engine.buffer import format_buffer, ingest_bits, pack_bits
from repro.errors import ProtocolError, ServeOverloadError
from repro.floats.formats import BINARY64
from repro.serve import BulkPool
from repro.serve.client import ServeClient
from repro.serve.control import AdmissionController, TrafficObserver
from repro.serve.daemon import serving
from repro.serve.pool import INLINE_ROWS

VALUES = [1.5, 2.5, 3.0, -0.0, 5e-324, 1e308]
PACKED = pack_bits(ingest_bits(VALUES, BINARY64), BINARY64)
PLANE = format_buffer(PACKED, BINARY64, engine=Engine())
# The hedging tests send at least INLINE_ROWS rows, so the pool call
# shards (smaller calls convert inline, where no pool site fires).
WIDE_PACKED = PACKED * -(-INLINE_ROWS // len(VALUES))
WIDE_PLANE = PLANE * -(-INLINE_ROWS // len(VALUES))


@pytest.fixture(autouse=True)
def _disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# AIMD admission controller
# ----------------------------------------------------------------------

class TestAdmissionController:
    def test_decreases_to_floor_then_recovers_to_ceiling(self):
        ctl = AdmissionController(target_p99_ms=10.0,
                                  ceiling_bytes=1 << 20,
                                  floor_bytes=1 << 16,
                                  step_bytes=1 << 18,
                                  window=64, adjust_every=16)
        for _ in range(16 * 8):
            ctl.observe(0.050)  # 50ms >> 10ms target
        assert ctl.limit_bytes == ctl.floor_bytes
        assert ctl.decreases >= 1
        for _ in range(16 * 16):
            ctl.observe(0.001)  # 1ms << target
        assert ctl.limit_bytes == ctl.ceiling_bytes
        assert ctl.increases >= 1

    def test_limit_never_leaves_the_bounds(self):
        ctl = AdmissionController(target_p99_ms=10.0,
                                  ceiling_bytes=1 << 18,
                                  floor_bytes=1 << 16,
                                  adjust_every=4, window=8)
        for _ in range(200):
            ctl.observe(0.050)
            assert ctl.floor_bytes <= ctl.limit_bytes \
                <= ctl.ceiling_bytes
        for _ in range(200):
            ctl.observe(0.0001)
            assert ctl.floor_bytes <= ctl.limit_bytes \
                <= ctl.ceiling_bytes

    def test_shed_error_is_typed(self):
        ctl = AdmissionController(target_p99_ms=1.0)
        err = ctl.shed_error(100, 200)
        assert isinstance(err, ServeOverloadError)
        assert "adaptive limit" in str(err)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(target_p99_ms=0.0)
        with pytest.raises(ValueError):
            AdmissionController(target_p99_ms=1.0, floor_bytes=2,
                                ceiling_bytes=1)


# ----------------------------------------------------------------------
# Traffic observation
# ----------------------------------------------------------------------

class TestTrafficObserver:
    def test_flat_until_min_rows_sampled(self):
        obs = TrafficObserver(min_rows=256)
        obs.observe_format("binary64", BINARY64, PACKED)
        assert obs.classify() == "flat"

    def test_zipf_corpus_detected_by_dup_factor(self):
        obs = TrafficObserver(sample_rows=64, min_rows=64)
        hot = pack_bits(ingest_bits([1.5] * 64, BINARY64), BINARY64)
        obs.observe_format("binary64", BINARY64, hot)
        obs.observe_format("binary64", BINARY64, hot)
        assert obs.classify() == "zipf"

    def test_specials_corpus_detected_by_fraction(self):
        obs = TrafficObserver(sample_rows=64, min_rows=64)
        mixed = [float(i) for i in range(1, 60)] \
            + [float("inf"), float("-inf"), float("nan")] * 2
        payload = pack_bits(ingest_bits(mixed, BINARY64), BINARY64)
        obs.observe_format("binary64", BINARY64, payload)
        obs.observe_format("binary64", BINARY64, payload)
        assert obs.classify() == "specials"

    def test_flat_corpus_keeps_contender_winners(self):
        obs = TrafficObserver(sample_rows=256, min_rows=64)
        distinct = [1.0 + i / 7.0 for i in range(300)]
        payload = pack_bits(ingest_bits(distinct, BINARY64), BINARY64)
        obs.observe_format("binary64", BINARY64, payload)
        assert obs.classify() == "flat"
        assert obs.summary()["corpus"] == "flat"

    def test_hot_values_ranked_finite_nonzero(self):
        obs = TrafficObserver(sample_rows=128)
        vals = [1.5] * 10 + [2.5] * 3 + [0.0, float("inf"),
                                         float("nan")]
        payload = pack_bits(ingest_bits(vals, BINARY64), BINARY64)
        obs.observe_format("binary64", BINARY64, payload)
        hot = obs.hot_values()
        assert hot[0].to_float() == 1.5
        assert all(v.is_finite and not v.is_zero for v in hot)

    def test_read_plane_digit_histogram(self):
        obs = TrafficObserver()
        obs.observe_read(b"1.5\n22.25\n1e308\n", b"\n")
        summary = obs.summary()
        assert summary["rows"] == 3
        assert summary["digit_len_hist"][3] == 1  # "1.5"

    def test_rotation_counter_resets(self):
        obs = TrafficObserver(sample_rows=64)
        obs.observe_format("binary64", BINARY64, PACKED)
        assert obs.rows_since_rotation == len(VALUES)
        obs.rotation_done()
        assert obs.rows_since_rotation == 0


# ----------------------------------------------------------------------
# Hedged shard dispatch
# ----------------------------------------------------------------------

class TestHedgedDispatch:
    def test_hedge_beats_a_stalled_shard_byte_identically(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "stall", shard=0,
                             attempt=0, stall=0.4)])
        with BulkPool(jobs=2, hedge=True, hedge_min=0.05,
                      hedge_with_faults=True) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(WIDE_PACKED)
            stats = pool.stats()
        assert got == WIDE_PLANE
        assert stats["hedges"] >= 1
        assert stats["hedge_wins"] >= 1

    def test_hedging_suppressed_under_armed_plans_by_default(self):
        # Determinism contract: unless a chaos leg opts in, hedge legs
        # never race a scripted fault plan — the retry path heals.
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", shard=1)])
        with BulkPool(jobs=2, hedge=True, hedge_min=0.01) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(WIDE_PACKED)
            stats = pool.stats()
        assert got == WIDE_PLANE
        assert stats["hedges"] == 0
        assert stats["shard_retries"] == 1

    def test_bad_hedge_min_rejected(self):
        from repro.errors import RangeError
        with pytest.raises(RangeError, match="hedge_min"):
            BulkPool(jobs=2, hedge=True, hedge_min=0.0)


# ----------------------------------------------------------------------
# The daemon's control plane on the wire
# ----------------------------------------------------------------------

class TestDaemonControl:
    def test_health_opcode_returns_control_summary(self):
        with serving(slo_target_ms=100.0, observe_stride=1) as d:
            with ServeClient(d.host, d.port) as c:
                assert c.format(PACKED) == PLANE
                health = c.health()
            stats = d.stats()
        assert "breakers" not in health
        assert health["admission"]["target_p99_ms"] == 100.0
        assert "limit_bytes" in health["admission"]
        assert isinstance(health["observer"], dict)
        assert health["observer"]["requests"] >= 1
        assert stats["health_requests"] == 1

    def test_idle_daemon_admits_a_request_past_the_aimd_window(self):
        # An unreachable SLO drives the window down to its floor; a
        # request larger than the floor must still be admitted when
        # nothing is in flight, or such traffic could never reopen it.
        single = pack_bits(ingest_bits([1.5], BINARY64), BINARY64)
        plane = b"1.5\n" * 30000  # 120 kB
        with serving(slo_target_ms=0.001) as d:
            with ServeClient(d.host, d.port) as c:
                for _ in range(300):
                    assert c.format(single) == b"1.5\n"
                floor = c.health()["admission"]["floor_bytes"]
                assert c.health()["admission"]["limit_bytes"] == floor
                assert len(plane) > floor
                got = c.read(plane)
            stats = d.stats()
        assert got == pack_bits(ingest_bits([1.5] * 30000, BINARY64),
                                BINARY64)
        assert stats["admission_sheds"] == 0

    def test_observer_counted_in_stats(self):
        with serving(observe_stride=1) as d:
            with ServeClient(d.host, d.port) as c:
                c.format(PACKED)
                c.format(PACKED)
            assert d.stats()["observed_requests"] >= 1

    def test_close_waits_for_an_inflight_rotation(self, tmp_path,
                                                  monkeypatch):
        # The save is slowed so that close always meets the rotation
        # mid-flight; close must wait for it, leaving the snapshot
        # directory holding only the finished file, free to remove.
        from repro.engine import snapshot as snapshot_mod

        real_save = snapshot_mod.save_snapshot
        started = threading.Event()

        def slow_save(snap, path):
            started.set()
            time.sleep(0.5)
            return real_save(snap, path)

        monkeypatch.setattr(snapshot_mod, "save_snapshot", slow_save)
        root = tmp_path / "snapdir"
        root.mkdir()
        with serving(rotate_snapshot=str(root / "rotated.snap"),
                     rotate_every=1, observe_stride=1) as d:
            with ServeClient(d.host, d.port) as c:
                assert c.format(PACKED) == PLANE
            assert started.wait(10)
        assert d.stats()["snapshot_rotations"] == 1
        assert os.listdir(root) == ["rotated.snap"]
        shutil.rmtree(root)


# ----------------------------------------------------------------------
# Client reconnect-and-retry (idempotent ops only)
# ----------------------------------------------------------------------

class TestClientReconnect:
    def test_reconnects_once_across_daemon_restart(self):
        with serving() as d1:
            client = ServeClient(d1.host, d1.port)
            assert client.format(PACKED) == PLANE
            port = d1.port
        try:
            # The daemon restarted on the same port: the next
            # idempotent request reconnects transparently, once.
            with serving(port=port) as d2:
                assert client.format(PACKED) == PLANE
                assert client.reconnects == 1
                assert client.ping()
                assert client.reconnects == 1  # live socket reused
        finally:
            client.close()

    def test_reconnect_failure_surfaces_typed(self):
        with serving() as d:
            client = ServeClient(d.host, d.port)
            assert client.format(PACKED) == PLANE
        try:
            with pytest.raises(ProtocolError,
                               match="reconnect failed"):
                client.format(PACKED)
            assert client.reconnects == 0  # no half-counted retry
        finally:
            client.close()
