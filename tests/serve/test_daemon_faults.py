"""Wire-level chaos: engine fault plans armed under live loopback
traffic.

The daemon converts every batch on its one engine, so the faults that
reach the wire are the engine's call sites (a fast lane raising
mid-certification).  The contracts under test: the engine's guard rails
heal every fired fault invisibly, the engine counters account for each
one, responses stay byte-identical to the fault-free oracle across
sliced batches, and a failure the engine does not heal (a strict
engine) comes back as a typed error response — the connection is never
hung or crashed by an injected fault.  No worker process exists, so no
pool site ever fires.
"""

import multiprocessing

import pytest

from repro import faults
from repro.engine import Engine
from repro.engine.buffer import (
    format_buffer,
    ingest_bits,
    pack_bits,
    parse_buffer,
)
from repro.errors import ReproError
from repro.floats.formats import BINARY64
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import serving
from repro.serve.pool import INLINE_ROWS
from repro.workloads.corpus import uniform_random

SPECIALS = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324]


def corpus(seed):
    """Two slices' worth of signed values plus the specials: the packed
    column, its plane and the plane's bits."""
    values = [v.to_float() for v in uniform_random(
        2 * INLINE_ROWS, seed=seed, signed=True)] + SPECIALS
    packed = pack_bits(ingest_bits(values, BINARY64), BINARY64)
    plane = format_buffer(packed, BINARY64, engine=Engine())
    bits = pack_bits(parse_buffer(plane, BINARY64, engine=Engine()),
                     BINARY64)
    return packed, plane, bits


PACKED, PLANE, WANT_BITS = corpus(23)


@pytest.fixture(autouse=True)
def _disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    yield
    faults.disarm()


def read_request(plane):
    return protocol.encode_request(protocol.OP_READ, plane, "binary64",
                                   b"\n")


def healed(stats):
    return stats["tier_faults"] + stats["read_tier_faults"]


def fired_pool_faults(plan):
    with plan._lock:
        return sum(plan.fired.get(s, 0) for s in faults.POOL_SITES)


class TestHealing:
    def test_tier_raises_heal_on_the_wire(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.tier0", at=(0, 3, 700), limit=None),
            faults.FaultSpec("engine.schubfach", at=(1, 4, 600),
                             limit=None),
            faults.FaultSpec("reader.tier1", at=(2, 5, 800), limit=None),
        ])
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
                    assert c.read(PLANE) == WANT_BITS
                # And again, fault-free, on the same connection.
                assert c.format(PACKED) == PLANE
            stats = d.pool_stats()
        # Every spec fired, late calls (past the first slice) included,
        # and the engine healed each one.
        assert plan.spec_fired() == [3, 3, 3]
        assert stats["tier_faults"] == 6
        assert stats["read_tier_faults"] == 3

    def test_mixed_plan_under_sustained_traffic(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.tier0", rate=0.2, limit=16),
            faults.FaultSpec("engine.schubfach", rate=0.2, limit=16),
            faults.FaultSpec("reader.tier1", rate=0.2, limit=16),
        ], seed=5)
        rounds = [corpus(100 + i) for i in range(6)]
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    for packed, plane, bits in rounds:
                        assert c.format(packed) == plane
                        assert c.read(plane) == bits
            stats = d.pool_stats()
            serve_stats = d.stats()
        assert all(plan.spec_fired()), "dead chaos leg: a spec never fired"
        assert healed(stats) == plan.total_fired()
        assert serve_stats["error_responses"] == 0


class TestDegradation:
    def test_ladder_keeps_daemon_serving(self):
        # Every fast lane raises on every call: the engine's guard rails
        # step each row down to the exact tier, and the daemon keeps
        # answering, bytes intact.
        plan = faults.FaultPlan([
            faults.FaultSpec(site, limit=None)
            for site in ("engine.tier0", "engine.schubfach",
                         "reader.tier1")])
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
                    assert c.read(PLANE) == WANT_BITS
            stats = d.pool_stats()
            serve_stats = d.stats()
        assert stats["tier_faults"] >= 2 * INLINE_ROWS
        assert stats["read_tier_faults"] >= 2 * INLINE_ROWS
        assert serve_stats["error_responses"] == 0

    def test_unrecoverable_fault_is_typed_response_not_hang(self):
        # A strict engine re-raises an injected lane fault instead of
        # healing it.  That untyped escape must come back as a typed
        # error response naming it, in both directions, on a sliced
        # batch.
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.schubfach", limit=None),
            faults.FaultSpec("reader.tier1", limit=None)])
        with serving() as d:
            d._engine.strict = True
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    for call, payload in ((c.format, PACKED),
                                          (c.read, PLANE)):
                        with pytest.raises(ReproError) as err:
                            call(payload)
                        assert type(err.value) is ReproError
                        assert "InjectedFault" in str(err.value)
                # The connection survives the typed failure...
                assert c.ping()
                # ...and the daemon serves fault-free afterwards.
                assert c.format(PACKED) == PLANE
                assert c.read(PLANE) == WANT_BITS
            assert d.stats()["error_responses"] == 2

    def test_parse_error_under_faults_lands_on_its_request(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("reader.tier1", rate=0.3, limit=None)], seed=3)
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    frames = c.pipeline([
                        read_request(PLANE),
                        read_request(PLANE + b"zzz\n"),
                        read_request(PLANE)])
            stats = d.pool_stats()
        ok = (protocol.STATUS_OK, WANT_BITS)
        assert frames[0] == ok and frames[2] == ok
        assert frames[1][0] == protocol.STATUS_ERROR
        assert b"ParseError" in frames[1][1]
        assert stats["read_tier_faults"] == plan.total_fired() > 0


class TestAccounting:
    def test_every_fired_fault_is_counted(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.tier0", rate=0.1, limit=None),
            faults.FaultSpec("engine.schubfach", rate=0.1, limit=None),
            faults.FaultSpec("reader.tier1", rate=0.1, limit=None),
        ], seed=11)
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
                    assert c.read(PLANE) == WANT_BITS
            stats = d.pool_stats()
        fired = plan.spec_fired()
        assert all(fired)
        assert stats["tier_faults"] == fired[0] + fired[1]
        assert stats["read_tier_faults"] == fired[2]

    def test_smoke_plan_over_the_wire(self):
        # Its pool specs never fire: nothing on the wire shards or forks.
        plan = faults.smoke_plan(seed=11)
        with serving() as d:
            with ServeClient(d.host, d.port) as c:
                with faults.armed(plan):
                    assert c.format(PACKED) == PLANE
                    assert c.read(PLANE) == WANT_BITS
                assert multiprocessing.active_children() == []
            stats = d.pool_stats()
            serve_stats = d.stats()
        assert fired_pool_faults(plan) == 0
        assert healed(stats) == plan.total_fired() > 0
        assert serve_stats["error_responses"] == 0
