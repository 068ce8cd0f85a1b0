"""The self-healing control plane: circuit breakers, AIMD admission,
traffic observation, hedged dispatch, client reconnect and the HEALTH
opcode.

Breaker and controller state machines are driven on injected fake
clocks — no sleeps, every transition deterministic.  The invariant
under test throughout: the control plane may *shed or reroute, never
change a byte*.
"""

import os
import shutil
import threading
import time

import pytest

from repro import faults
from repro.engine import Engine
from repro.engine.bulk import format_bulk, ingest_bits, pack_bits
from repro.errors import (
    DeadlineExceededError,
    DecodeError,
    ParseError,
    PoolBrokenError,
    ProtocolError,
    ReproError,
    ServeOverloadError,
    ShardError,
)
from repro.floats.formats import BINARY64
from repro.serve import BulkPool
from repro.serve.client import ServeClient
from repro.serve.control import (
    ADMIT,
    CANARY,
    SHED,
    AdmissionController,
    CircuitBreaker,
    TrafficObserver,
)
from repro.serve.daemon import serving
from repro.serve.pool import INLINE_ROWS

VALUES = [1.5, 2.5, 3.0, -0.0, 5e-324, 1e308]
PACKED = pack_bits(ingest_bits(VALUES, BINARY64), BINARY64)
PLANE = format_bulk(PACKED, BINARY64, engine=Engine())
# Tests aimed at a pool rung send at least INLINE_ROWS rows, so the
# call shards (smaller calls convert inline, where no pool site fires).
WIDE_PACKED = PACKED * -(-INLINE_ROWS // len(VALUES))
WIDE_PLANE = PLANE * -(-INLINE_ROWS // len(VALUES))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture(autouse=True)
def _disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    yield
    faults.disarm()


# ----------------------------------------------------------------------
# Circuit breaker state machine (clock-injected, no sleeps)
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = FakeClock()
        kw.setdefault("threshold", 3)
        kw.setdefault("reset_timeout", 1.0)
        return CircuitBreaker(clock=clock, **kw), clock

    def test_trips_after_threshold_consecutive_failures(self):
        brk, _ = self._breaker()
        for _ in range(2):
            assert brk.admit() == ADMIT
            brk.record(False)
        assert brk.state == "closed"
        assert brk.admit() == ADMIT
        brk.record(False)
        assert brk.state == "open"
        assert brk.trips == 1

    def test_success_resets_the_consecutive_counter(self):
        brk, _ = self._breaker()
        for _ in range(5):  # fail, fail, success — never 3 in a row
            brk.record(False)
            brk.record(False)
            brk.record(True)
        assert brk.state == "closed"
        assert brk.trips == 0

    def test_open_sheds_until_reset_timeout(self):
        brk, clock = self._breaker()
        for _ in range(3):
            brk.record(False)
        assert brk.admit() == SHED
        clock.advance(0.99)
        assert brk.admit() == SHED
        clock.advance(0.01)
        assert brk.admit() == CANARY

    def test_half_open_admits_single_canary_concurrents_shed(self):
        brk, clock = self._breaker()
        for _ in range(3):
            brk.record(False)
        clock.advance(1.0)
        assert brk.admit() == CANARY
        # Concurrent arrivals while the canary is outstanding are shed
        # immediately — never queued behind the probe.
        assert brk.admit() == SHED
        assert brk.admit() == SHED
        assert brk.sheds >= 2
        assert brk.canaries == 1

    def test_canary_success_closes_and_resets_backoff(self):
        brk, clock = self._breaker()
        for _ in range(3):
            brk.record(False)
        clock.advance(1.0)
        assert brk.admit() == CANARY
        brk.record(True, canary=True)
        assert brk.state == "closed"
        assert brk.closes == 1
        assert brk.admit() == ADMIT
        # The backoff reset: a later trip waits reset_timeout again,
        # not a remembered multiple.
        for _ in range(3):
            brk.record(False)
        clock.advance(1.0)
        assert brk.admit() == CANARY

    def test_canary_failure_reopens_with_full_doubled_backoff(self):
        brk, clock = self._breaker()
        for _ in range(3):
            brk.record(False)
        clock.advance(1.0)
        assert brk.admit() == CANARY
        brk.record(False, canary=True)
        assert brk.state == "open"
        assert brk.reopens == 1
        # The next probe waits the whole doubled window from *now* —
        # not the remainder of the old one.
        clock.advance(1.99)
        assert brk.admit() == SHED
        clock.advance(0.01)
        assert brk.admit() == CANARY

    def test_backoff_caps_at_max_reset_timeout(self):
        brk, clock = self._breaker(max_reset_timeout=3.0)
        for _ in range(3):
            brk.record(False)
        for _ in range(5):  # 1 -> 2 -> 3 -> 3 -> 3
            clock.advance(100.0)
            assert brk.admit() == CANARY
            brk.record(False, canary=True)
        assert brk.snapshot()["reset_timeout"] == 3.0

    def test_late_results_do_not_perturb_the_open_machine(self):
        # A request admitted before the trip, finishing after it, must
        # not close or re-trip the breaker — only the canary decides.
        brk, clock = self._breaker()
        for _ in range(3):
            brk.record(False)
        brk.record(True)
        assert brk.state == "open"
        brk.record(False)
        assert brk.trips == 1

    def test_data_errors_are_not_infrastructure_failures(self):
        assert CircuitBreaker.is_failure(ShardError(0, 1, ValueError()))
        assert CircuitBreaker.is_failure(PoolBrokenError("gone"))
        assert CircuitBreaker.is_failure(
            DeadlineExceededError("late", shard=0))
        assert not CircuitBreaker.is_failure(ParseError("bad literal"))
        assert not CircuitBreaker.is_failure(DecodeError("bad payload"))
        assert not CircuitBreaker.is_failure(None)

    def test_shed_error_is_typed_overload(self):
        brk, _ = self._breaker()
        err = brk.shed_error("binary64")
        assert isinstance(err, ServeOverloadError)
        assert "binary64" in str(err)

    def test_snapshot_accounts_every_transition(self):
        brk, clock = self._breaker()
        for _ in range(3):
            brk.record(False)
        brk.admit()  # shed
        clock.advance(1.0)
        brk.admit()  # canary
        brk.record(False, canary=True)
        clock.advance(2.0)
        brk.admit()  # canary again
        brk.record(True, canary=True)
        snap = brk.snapshot()
        assert snap["state"] == "closed"
        assert snap["trips"] == 1
        assert snap["reopens"] == 1
        assert snap["closes"] == 1
        assert snap["sheds"] == 1
        assert snap["canaries"] == 2
        # The healing canary resets the doubled backoff.
        assert snap["reset_timeout"] == 1.0


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
        with BulkPool(jobs=2, kind="thread", hedge=True,
                      hedge_min=0.05, hedge_with_faults=True) as pool:
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
        with BulkPool(jobs=2, kind="thread", hedge=True,
                      hedge_min=0.01) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(WIDE_PACKED)
            stats = pool.stats()
        assert got == WIDE_PLANE
        assert stats["hedges"] == 0
        assert stats["shard_retries"] == 1

    def test_bad_hedge_min_rejected(self):
        from repro.errors import RangeError
        with pytest.raises(RangeError, match="hedge_min"):
            BulkPool(jobs=2, kind="thread", hedge=True, hedge_min=0.0)


# ----------------------------------------------------------------------
# The daemon's control plane on the wire
# ----------------------------------------------------------------------

class TestDaemonControl:
    def test_breaker_trips_sheds_and_heals_on_fake_clock(self):
        clock = FakeClock()
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise",
                             attempt=None, limit=None)])
        with serving(jobs=1, kind="thread", batch_window=0.0,
                     on_error="raise", retries=0, breaker_threshold=2,
                     breaker_reset=1.0, clock=clock) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    for _ in range(2):
                        # ShardError's structured signature degrades
                        # to the base class on the wire; the name
                        # travels in the message.
                        with pytest.raises(ReproError,
                                           match="ShardError"):
                            c.format(WIDE_PACKED)
                    with pytest.raises(ServeOverloadError,
                                       match="circuit breaker open"):
                        c.format(WIDE_PACKED)
                # Plan disarmed, clock past the backoff: the canary
                # request heals the key byte-identically.
                clock.advance(1.5)
                assert c.format(WIDE_PACKED) == WIDE_PLANE
            stats = d.stats()
        assert stats["breaker_trips"] == 1
        assert stats["breaker_sheds"] >= 1
        assert stats["breaker_canaries"] == 1
        assert stats["breaker_closes"] == 1

    def test_health_opcode_returns_control_summary(self):
        with serving(breaker_threshold=3, slo_target_ms=100.0,
                     observe_stride=1) as d:
            with ServeClient(d.host, d.port) as c:
                assert c.format(PACKED) == PLANE
                health = c.health()
            stats = d.stats()
        assert isinstance(health["breakers"], dict)
        assert health["admission"]["target_p99_ms"] == 100.0
        assert "limit_bytes" in health["admission"]
        assert isinstance(health["observer"], dict)
        assert health["observer"]["requests"] >= 1
        assert stats["health_requests"] == 1

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
        with serving(jobs=1, kind="thread", batch_window=0.0,
                     rotate_snapshot=str(root / "rotated.snap"),
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
