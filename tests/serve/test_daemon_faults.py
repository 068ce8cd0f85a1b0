"""Wire-level chaos: fault plans armed under live loopback traffic.

The daemon's conversions run through :class:`~repro.serve.BulkPool`,
so PR 5's deterministic fault machinery applies on the wire.  The
contracts under test: the degradation ladder keeps the daemon serving,
recovery counters account for every fired fault, responses stay
byte-identical to the fault-free oracle, and unrecoverable failures
come back as the documented typed error response — the connection is
never hung or crashed by an injected fault.
"""

import pytest

from repro import faults
from repro.engine import Engine
from repro.engine.buffer import (
    format_buffer,
    ingest_bits,
    pack_bits,
    parse_buffer,
)
from repro.errors import ReproError, ShardError
from repro.floats.formats import BINARY64
from repro.serve.client import ServeClient
from repro.serve.daemon import serving
from repro.serve.pool import INLINE_ROWS
from repro.workloads.corpus import uniform_random

# At least INLINE_ROWS rows per request, so every batch on a jobs=2
# daemon shards to the worker processes (smaller batches convert
# inline, out of the pool sites' reach).
VALUES = [v.to_float()
          for v in uniform_random(INLINE_ROWS, seed=23, signed=True)] \
    + [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324]
PACKED = pack_bits(ingest_bits(VALUES, BINARY64), BINARY64)
PLANE = format_buffer(PACKED, BINARY64, engine=Engine())
WANT_BITS = pack_bits(parse_buffer(PLANE, BINARY64, engine=Engine()),
                      BINARY64)


@pytest.fixture(autouse=True)
def _disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    yield
    faults.disarm()


def fired_pool_faults(plan):
    with plan._lock:
        return sum(plan.fired.get(s, 0) for s in faults.POOL_SITES)


class TestHealing:
    def test_crashed_shard_heals_byte_identically(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=0)])
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    got = c.format(PACKED)
                assert got == PLANE
                # And again, fault-free, on the same connection.
                assert c.format(PACKED) == PLANE
            stats = d.pool_stats()
        assert plan.fired["pool.format_shard"] == 1
        assert stats["shard_failures"] >= 1
        assert stats["pool_rebuilds"] >= 1

    def test_corrupt_shard_caught_and_retried(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "corrupt", shard=0)])
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
            stats = d.pool_stats()
        assert stats["corrupt_shards"] >= 1

    def test_stalled_read_shard_misses_deadline_then_heals(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.read_shard", "stall", shard=0,
                             stall=0.6)])
        with serving(jobs=2, deadline=0.2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.read(PLANE) == WANT_BITS
            stats = d.pool_stats()
        assert stats["deadline_hits"] >= 1

    def test_tier_raises_heal_in_process_workers(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.tier0", at=(0, 3, 7)),
            faults.FaultSpec("engine.schubfach", at=(1, 4)),
        ])
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
            stats = d.pool_stats()
        assert stats.get("tier_faults", 0) >= 1
        # Every spec fired, the write lane's included.
        assert all(plan.spec_fired())

    def test_mixed_plan_under_sustained_traffic(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", rate=0.2,
                             attempt=0, limit=3),
            faults.FaultSpec("pool.read_shard", "corrupt", rate=0.2,
                             attempt=0, limit=3),
        ], seed=5)
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    for _ in range(12):
                        assert c.format(PACKED) == PLANE
                        assert c.read(PLANE) == WANT_BITS
            stats = d.pool_stats()
            serve_stats = d.stats()
        fired = fired_pool_faults(plan)
        assert fired >= 1, "dead chaos leg: the plan never fired"
        recovered = (stats["shard_failures"] + stats["corrupt_shards"]
                     + stats["deadline_hits"])
        assert recovered >= fired
        assert serve_stats["error_responses"] == 0


class TestDegradation:
    def test_ladder_keeps_daemon_serving(self):
        # Crash every shard attempt: the pool must step down to inline
        # conversion and the daemon must keep answering, bytes intact.
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", attempt=None,
                             limit=None)])
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
                    assert c.format(PACKED) == PLANE  # sticky level
            stats = d.pool_stats()
        assert stats["degradations"] >= 1

    def test_unrecoverable_fault_is_typed_response_not_hang(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", attempt=None,
                             limit=None)])
        with serving(jobs=2, on_error="raise", retries=1) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    with pytest.raises(ReproError, match="ShardError"):
                        c.format(PACKED)
                # The connection survives the typed failure...
                assert c.ping()
                # ...and the daemon serves fault-free afterwards.
                assert c.format(PACKED) == PLANE
            assert d.stats()["error_responses"] == 1

    def test_shard_error_type_travels_by_name(self):
        # ShardError has a structured __init__, so the client degrades
        # it to the ReproError base — but the name must survive.
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.read_shard", "raise", attempt=None,
                             limit=None)])
        with serving(jobs=2, on_error="raise", retries=1) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    try:
                        c.read(PLANE)
                        raised = None
                    except ReproError as exc:
                        raised = exc
        assert raised is not None
        assert not isinstance(raised, ShardError)  # degraded, by design
        assert "ShardError" in str(raised)


class TestAccounting:
    def test_every_fired_fault_is_counted(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=1),
            faults.FaultSpec("pool.format_shard", "corrupt", shard=0,
                             attempt=0, limit=1),
        ])
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
            stats = d.pool_stats()
        fired = fired_pool_faults(plan)
        assert fired >= 2
        recovered = (stats["shard_failures"] + stats["corrupt_shards"]
                     + stats["deadline_hits"])
        assert recovered >= fired

    def test_smoke_plan_over_the_wire(self):
        plan = faults.smoke_plan(seed=11)
        with serving(jobs=2) as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
                    assert c.read(PLANE) == WANT_BITS
            serve_stats = d.stats()
        assert serve_stats["error_responses"] == 0
