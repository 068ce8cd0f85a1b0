"""Extension — the tiered conversion engine vs the exact algorithm.

Where ``bench_ablation_fastpath.py`` compares the readable Grisu
reference against exact digit generation, this file measures the
production-shaped stack: the :class:`repro.engine.Engine` route
(memo -> exact-decimal tier -> Schubfach -> exact fallback)
through its string-level APIs, on the uniform-random corpus the
fast-path literature reports on.
"""

import os

import pytest

from repro.baselines.naive_fixed import exact_fixed_digits
from repro.core.api import format_shortest
from repro.engine import Engine
from repro.workloads.corpus import torture_floats, uniform_random

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "400"))

#: Significant digits of the timed fixed-format requests (%.6e-shaped,
#: the dominant real-world precision).
FIXED_BENCH_NDIGITS = 7


@pytest.fixture(scope="module")
def uniform_floats():
    return [v.to_float() for v in uniform_random(BENCH_N, seed=2024)]


@pytest.fixture(scope="module")
def uniform_flonums():
    return uniform_random(BENCH_N)


@pytest.fixture(scope="module")
def warm_engine(uniform_floats):
    eng = Engine()
    eng.format_many(uniform_floats[:32])  # build the per-format tables
    return eng


@pytest.mark.benchmark(group="engine-strings")
def test_bench_exact_only_strings(benchmark, uniform_floats):
    benchmark(lambda: [format_shortest(x, engine=None)
                       for x in uniform_floats])


@pytest.mark.benchmark(group="engine-strings")
def test_bench_engine_format(benchmark, uniform_floats, warm_engine):
    fmt_one = warm_engine.format

    def run():
        warm_engine.clear_cache()  # measure conversion, not memoization
        return [fmt_one(x) for x in uniform_floats]

    benchmark(run)


@pytest.mark.benchmark(group="engine-strings")
def test_bench_engine_format_many(benchmark, uniform_floats, warm_engine):
    def run():
        warm_engine.clear_cache()
        return warm_engine.format_many(uniform_floats)

    benchmark(run)


@pytest.mark.benchmark(group="engine-strings")
def test_bench_engine_memo_hot(benchmark, uniform_floats, warm_engine):
    """The repeated-values regime every memo entry hits."""
    warm_engine.format_many(uniform_floats)  # populate
    benchmark(lambda: warm_engine.format_many(uniform_floats))


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_tier2_only(benchmark, uniform_floats):
    eng = Engine(tier_order=(), cache_size=0)
    eng.format_many(uniform_floats[:8])
    benchmark(lambda: eng.format_many(uniform_floats))


@pytest.mark.benchmark(group="engine-tiers")
def test_bench_route_no_memo(benchmark, uniform_floats):
    eng = Engine(cache_size=0)
    eng.format_many(uniform_floats[:8])
    benchmark(lambda: eng.format_many(uniform_floats))


@pytest.mark.benchmark(group="engine-fixed")
def test_bench_fixed_exact_only(benchmark, uniform_flonums):
    benchmark(lambda: [exact_fixed_digits(v, ndigits=FIXED_BENCH_NDIGITS)
                       for v in uniform_flonums])


@pytest.mark.benchmark(group="engine-fixed")
def test_bench_fixed_engine_counted(benchmark, uniform_flonums):
    eng = Engine()
    for v in uniform_flonums[:32]:  # build the per-format tables
        eng.counted_digits(v, ndigits=FIXED_BENCH_NDIGITS)

    def run():
        eng.clear_cache()  # measure conversion, not memoization
        counted = eng.counted_digits
        return [counted(v, ndigits=FIXED_BENCH_NDIGITS)
                for v in uniform_flonums]

    benchmark(run)


@pytest.mark.benchmark(group="engine-fixed")
def test_bench_fixed_engine_memo_hot(benchmark, uniform_flonums):
    """The repeated-values regime every fixed memo entry hits."""
    eng = Engine()
    counted = eng.counted_digits
    for v in uniform_flonums:  # populate
        counted(v, ndigits=FIXED_BENCH_NDIGITS)
    benchmark(lambda: [counted(v, ndigits=FIXED_BENCH_NDIGITS)
                       for v in uniform_flonums])


def test_engine_fixed_tier_profile(uniform_flonums, capsys):
    """Not a timing: print the fixed-format resolution profile."""
    eng = Engine()
    for nd in (3, 7, 13):
        for v in uniform_flonums:
            eng.counted_digits(v, ndigits=nd)
        for v in uniform_flonums:
            eng.fixed_digits(v, ndigits=nd)
    s = eng.stats()
    fast = s["fixed_tier1_hits"] + s["cache_hits"]
    with capsys.disabled():
        print(f"\n[engine-fixed] {s['conversions']} conversions: "
              f"tier1={s['fixed_tier1_hits']} "
              f"bailouts={s['fixed_tier1_bailouts']} "
              f"tier2={s['fixed_tier2_calls']} memo={s['cache_hits']} "
              f"fast-resolved={fast / s['conversions']:.4f}")
    assert fast / s["conversions"] >= 0.95


def test_engine_tier_profile(uniform_floats, capsys):
    """Not a timing: print the resolution profile for the report."""
    eng = Engine()
    eng.format_many(uniform_floats)
    eng.format_many([f.to_float() for f in torture_floats()])
    s = eng.stats()
    with capsys.disabled():
        fast = s["tier0_hits"] + s["schubfach_hits"] + s["cache_hits"]
        print(f"\n[engine] {s['conversions']} conversions: "
              f"tier0={s['tier0_hits']} schubfach={s['schubfach_hits']} "
              f"tier2={s['tier2_calls']} memo={s['cache_hits']} "
              f"fast-resolved={fast / s['conversions']:.4f}")
    assert fast / s["conversions"] >= 0.99
