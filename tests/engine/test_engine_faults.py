"""Engine guard rails: an unexpected exception in a fast tier falls
back to the exact tier (counted in ``tier_faults``), byte-identically;
``strict=True`` re-raises it for CI."""

import contextlib

import pytest

from repro import faults
from repro.engine.buffer import parse_buffer
from repro.engine.engine import Engine
from repro.engine.reader import ReadEngine
from repro.errors import ParseError
from repro.floats.formats import BINARY64
from repro.reader.exact import read_decimal
from repro.workloads.corpus import uniform_random

VALUES = [v for v in uniform_random(300, seed=17, signed=True)
          if v.is_finite and not v.is_zero]
#: The same values as host floats: format_many's inlined batch loop
#: only takes floats (Flonums go through the scalar route).
FLOATS = [v.to_float() for v in VALUES]
ORACLE = Engine(tier_order=(), cache_size=0)
WANT = [ORACLE.format(v, fmt=BINARY64) for v in VALUES]


@pytest.fixture(autouse=True)
def _disarmed():
    yield
    faults.disarm()


class TestFormatGuardRails:
    @pytest.mark.parametrize("site", ["engine.tier0", "engine.schubfach"])
    def test_tier_fault_heals_byte_identically(self, site):
        eng = Engine()
        plan = faults.FaultPlan(
            [faults.FaultSpec(site, rate=0.2, limit=None)], seed=3)
        with faults.armed(plan):
            got = [eng.format(v, fmt=BINARY64) for v in VALUES]
        assert got == WANT
        fired = plan.fired.get(site, 0)
        assert fired > 0
        assert eng.stats()["tier_faults"] == fired

    def test_batch_path_heals(self):
        eng = Engine()
        plan = faults.FaultPlan(
            [faults.FaultSpec("engine.schubfach", rate=0.2, limit=None)],
            seed=5)
        with faults.armed(plan):
            got = eng.format_many(FLOATS)
        assert got == WANT
        fired = plan.fired.get("engine.schubfach", 0)
        assert fired > 0
        s = eng.stats()
        assert s["tier_faults"] == fired
        # Each healed fault is one exact-tier conversion, nothing else.
        assert s["tier2_calls"] == fired

    @pytest.mark.parametrize("batch", [False, True])
    def test_schubfach_site_fires_and_heals(self, batch):
        eng = Engine(cache_size=0)
        plan = faults.FaultPlan(
            [faults.FaultSpec("engine.schubfach", "raise", rate=0.5)],
            seed=11)
        with faults.armed(plan):
            if batch:
                got = eng.format_many(FLOATS)
            else:
                got = [eng.format(x) for x in FLOATS]
        assert got == WANT
        assert plan.spec_fired() == [1]  # limit=1 by default
        assert eng.stats()["tier_faults"] == 1

    @pytest.mark.parametrize("batch", [False, True])
    def test_schubfach_site_strict_reraises(self, batch):
        eng = Engine(strict=True)
        plan = faults.FaultPlan(
            [faults.FaultSpec("engine.schubfach", at=(0,))])
        with faults.armed(plan):
            with pytest.raises(faults.InjectedFault):
                if batch:
                    eng.format_many(FLOATS)
                else:
                    for x in FLOATS:
                        eng.format(x)
        assert plan.fired == {"engine.schubfach": 1}

    def test_retired_grisu_site_is_unknown(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("engine.tier1")

    def test_retired_read_tier0_site_is_unknown(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("reader.tier0")

    def test_counted_path_heals(self):
        eng = Engine()
        want = [eng.format_fixed(v, ndigits=8) for v in VALUES]
        eng = Engine()
        plan = faults.FaultPlan(
            [faults.FaultSpec("engine.counted", rate=0.2, limit=None)],
            seed=7)
        with faults.armed(plan):
            got = [eng.format_fixed(v, ndigits=8) for v in VALUES]
        assert got == want
        fired = plan.fired.get("engine.counted", 0)
        assert fired > 0
        assert eng.stats()["tier_faults"] == fired

    def test_strict_engine_reraises(self):
        eng = Engine(strict=True)
        plan = faults.FaultPlan(
            [faults.FaultSpec("engine.tier0", at=(0,)),
             faults.FaultSpec("engine.schubfach", at=(0,))])
        with faults.armed(plan):
            with pytest.raises(faults.InjectedFault):
                for v in VALUES:
                    eng.format(v, fmt=BINARY64)

    def test_disarmed_engine_counts_no_faults(self):
        eng = Engine()
        for v in VALUES[:32]:
            eng.format(v, fmt=BINARY64)
        assert eng.stats()["tier_faults"] == 0


class TestReaderGuardRails:
    def test_read_fault_heals_byte_identically(self):
        eng = ReadEngine()
        want = [eng.read(t, BINARY64).to_bits() for t in WANT]
        eng = ReadEngine()
        plan = faults.FaultPlan(
            [faults.FaultSpec("reader.tier1", rate=0.1, limit=None),
             faults.FaultSpec("reader.tier1", rate=0.1, limit=None)],
            seed=9)
        with faults.armed(plan):
            got = [eng.read(t, BINARY64).to_bits() for t in WANT]
        assert got == want
        fired = sum(plan.fired.values())
        assert fired > 0
        assert eng.stats()["read_tier_faults"] == fired

    def test_read_many_heals(self):
        eng = ReadEngine()
        want = [v.to_bits() for v in eng.read_many(WANT, BINARY64)]
        eng = ReadEngine()
        plan = faults.FaultPlan(
            [faults.FaultSpec("reader.tier1", rate=0.2, limit=None)],
            seed=13)
        with faults.armed(plan):
            got = [v.to_bits() for v in eng.read_many(WANT, BINARY64)]
        assert got == want
        assert eng.stats()["read_tier_faults"] == \
            plan.fired.get("reader.tier1", 0)

    def test_strict_reader_reraises(self):
        eng = ReadEngine(strict=True)
        plan = faults.FaultPlan(
            [faults.FaultSpec("reader.tier1", at=(0,)),
             faults.FaultSpec("reader.tier1", at=(0,))])
        with faults.armed(plan):
            with pytest.raises(faults.InjectedFault):
                for t in WANT:
                    eng.read(t, BINARY64)

    def test_parse_error_is_not_healed(self):
        # ReproError is a deliberate signal, not a fault: the guard
        # rail must let it through even with a plan armed.
        eng = ReadEngine()
        plan = faults.FaultPlan([
            faults.FaultSpec("reader.tier1", rate=0.0, limit=None)])
        with faults.armed(plan):
            with pytest.raises(ParseError):
                eng.read("not-a-number", BINARY64)
        assert eng.stats()["read_tier_faults"] == 0


class TestBytePlaneFaults:
    """``parse_buffer`` runs the scalar readers' batch loop, so an armed
    plan fires its read sites there too."""

    #: WANT's full-precision literals and the short ones all reach the
    #: window tier, the one read lane.
    TEXTS = WANT + ["1.5", "-0.25", "123", "7e22", "3.0e-5", "65504"]
    PLANE = ("\n".join(TEXTS) + "\n").encode("ascii")

    def test_read_sites_fire_and_heal(self):
        want = [read_decimal(t).to_bits() for t in self.TEXTS]
        reader = ReadEngine()
        plan = faults.FaultPlan(
            [faults.FaultSpec("reader.tier1", rate=0.3, limit=None),
             faults.FaultSpec("reader.tier1", rate=0.3, limit=None)],
            seed=21)
        with faults.armed(plan):
            got = parse_buffer(self.PLANE, BINARY64, engine=reader)
        assert got == want
        assert all(plan.spec_fired()), plan.spec_fired()
        assert reader.stats()["read_tier_faults"] == \
            sum(plan.fired.values())

    @pytest.mark.parametrize("site", ["reader.tier1"])
    def test_strict_reraises(self, site):
        reader = ReadEngine(strict=True)
        plan = faults.FaultPlan([faults.FaultSpec(site, at=(0,))])
        with faults.armed(plan):
            with pytest.raises(faults.InjectedFault):
                parse_buffer(self.PLANE, BINARY64, engine=reader)


class TestFaultPlanDeterminism:
    def test_same_seed_fires_identically(self):
        def run(seed):
            eng = Engine()
            plan = faults.FaultPlan(
                [faults.FaultSpec("engine.schubfach", rate=0.15,
                                  limit=None)],
                seed=seed)
            with faults.armed(plan):
                for v in VALUES:
                    eng.format(v, fmt=BINARY64)
            return plan.fired.get("engine.schubfach", 0)

        assert run(21) == run(21)

    def test_pool_rate_rolls_once_per_dispatch(self):
        # Binomial(1000, 0.25): mean 250, standard deviation 13.7.
        plan = faults.FaultPlan([faults.FaultSpec(
            "pool.format_shard", "crash", shard=0, rate=0.25, limit=None)])
        fired = sum(plan.pool_action("pool.format_shard", 0, 0) is not None
                    for _ in range(1000))
        assert fired == 249
        assert abs(fired - 250) < 4 * 13.7

    def test_pool_rate_specs_of_one_site_draw_independently(self):
        # Two read-shard rate specs (corrupt at 2 %, stall at 1 %) each
        # spend their limit of 5; the format-shard specs never roll.
        FaultSpec = faults.FaultSpec
        plan = faults.FaultPlan([
            FaultSpec("pool.format_shard", "crash", shard=0, attempt=0,
                      limit=1),
            FaultSpec("pool.format_shard", "crash", rate=0.02, attempt=0,
                      limit=5),
            FaultSpec("pool.read_shard", "corrupt", rate=0.02, attempt=0,
                      limit=5),
            FaultSpec("pool.read_shard", "stall", rate=0.01, attempt=0,
                      stall=0.05, limit=5),
        ], seed=0)
        for i in range(1000):
            plan.pool_action("pool.read_shard", i % 2, 0)
        assert plan.spec_fired() == [0, 0, 5, 5]

    def test_call_rate_specs_of_one_site_draw_independently(self):
        # The first spec fires on Binomial(1000, 0.2) calls (mean 200,
        # sd 12.6); the second rolls only on the calls the first let
        # through: Binomial(~800, 0.1) (mean 80, sd 8.5).
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.tier0", rate=0.2, limit=None),
            faults.FaultSpec("engine.tier0", rate=0.1, limit=None)])
        for _ in range(1000):
            with contextlib.suppress(faults.InjectedFault):
                plan.fire("engine.tier0")
        assert plan.spec_fired() == [205, 75]
        assert abs(205 - 200) < 4 * 12.6 and abs(75 - 80) < 4 * 8.5

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("engine.tier0", kind="crash")
        with pytest.raises(ValueError):
            faults.FaultSpec("pool.format_shard", kind="meltdown")
        with pytest.raises(ValueError):
            faults.FaultSpec("no.such.site")

    def test_limit_caps_firings(self):
        plan = faults.FaultPlan(
            [faults.FaultSpec("engine.tier0", at=None, rate=0.0, limit=2)])
        hits = 0
        for _ in range(10):
            try:
                plan.fire("engine.tier0")
            except faults.InjectedFault:
                hits += 1
        assert hits == 2
        assert plan.total_fired() == 2

    def test_armed_restores_previous_plan(self):
        outer = faults.FaultPlan([])
        inner = faults.FaultPlan([])
        with faults.armed(outer):
            with faults.armed(inner):
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None
