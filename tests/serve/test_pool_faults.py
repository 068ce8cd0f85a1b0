"""Fault tolerance of :class:`BulkPool`: injected crashes, stalls,
corruption and raises must heal byte-identically or surface as typed
errors — never as silent partial results."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro import faults
from repro.engine import Engine
from repro.engine.buffer import format_buffer, ingest_bits
from repro.errors import (
    DeadlineExceededError,
    ParseError,
    PoolBrokenError,
    ReproError,
    ShardError,
)
from repro.floats.formats import BINARY64
from repro.serve import BulkPool
from repro.serve.pool import FAULT_STAT_KEYS, INLINE_ROWS
from repro.workloads.corpus import uniform_random

# At least INLINE_ROWS rows, so every call on a jobs>1 pool shards to
# the worker processes (smaller calls convert inline).
CORPUS = [v.to_float()
          for v in uniform_random(INLINE_ROWS, seed=11, signed=True)] \
    + [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]

WANT = format_buffer(CORPUS, engine=Engine())


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        if os.path.isdir("/proc"):
            return False
    try:  # no procfs: signal 0 probes existence (zombies included)
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_gone(pids, timeout: float) -> set:
    """The subset of ``pids`` still alive after up to ``timeout`` s."""
    stop = time.monotonic() + timeout
    while True:
        multiprocessing.active_children()  # reap our own exited workers
        live = {p for p in pids if _alive(p)}
        if not live or time.monotonic() >= stop:
            return live
        time.sleep(0.05)


def _worker_pids() -> set:
    return {p.pid for p in multiprocessing.active_children()}


@pytest.fixture(autouse=True)
def _disarmed():
    """No test may leak an armed plan into the rest of the suite."""
    yield
    faults.disarm()


class TestHealing:
    def test_killed_worker_heals_byte_identically(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=1)])
        with BulkPool(jobs=2, shards_per_job=2) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(CORPUS)
            stats = pool.stats()
        assert got == WANT
        assert plan.fired["pool.format_shard"] == 1
        assert stats["pool_rebuilds"] >= 1
        assert stats["shard_failures"] >= 1

    def test_corrupt_shard_caught_and_retried(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "corrupt", shard=0)])
        with BulkPool(jobs=2, shards_per_job=2) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(CORPUS)
            stats = pool.stats()
        assert got == WANT
        assert stats["corrupt_shards"] == 1

    def test_stalled_shard_misses_deadline_then_heals(self):
        # The stall outlasts the whole test: healing must not wait for
        # it, and abandoning the executor must kill the stalled worker.
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "stall", shard=0,
                             stall=30.0)])
        before = _worker_pids()
        with BulkPool(jobs=2, shards_per_job=1, deadline=0.25) as pool:
            assert pool.format_bulk(CORPUS) == WANT
            stalled = _worker_pids() - before
            with faults.armed(plan):
                got = pool.format_bulk(CORPUS)
            stats = pool.stats()
            assert len(stalled) == 2
            assert _wait_gone(stalled, 5.0) == set()
        assert got == WANT
        assert stats["deadline_hits"] >= 1

    def test_stall_with_large_shards_still_meets_the_deadline(self):
        # Shards far larger than a pipe's buffer: dispatching a stalled
        # worker's second shard must not block the call until the stall
        # ends, so the deadline still cuts it short.
        big = CORPUS * 600
        want = format_buffer(big, engine=Engine())
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "stall", shard=0,
                             stall=30.0)])
        with BulkPool(jobs=2, shards_per_job=2, deadline=1.0) as pool:
            assert pool.format_bulk(big) == want
            with faults.armed(plan):
                t0 = time.monotonic()
                got = pool.format_bulk(big)
                elapsed = time.monotonic() - t0
            stats = pool.stats()
        assert got == want
        assert stats["deadline_hits"] >= 1
        assert elapsed < 6.0  # one missed deadline plus one clean retry

    def test_read_side_crash_heals(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.read_shard", "crash", shard=0)])
        with BulkPool(jobs=2, shards_per_job=2) as pool:
            want_bits = pool.read_bulk(WANT)
        with BulkPool(jobs=2, shards_per_job=2) as pool:
            with faults.armed(plan):
                assert pool.read_bulk(WANT) == want_bits
        assert plan.fired["pool.read_shard"] == 1

    def test_worker_lane_firings_are_reported_to_the_plan(self):
        # Call sites fire inside the forked workers; each shard reports
        # its worker's firings back, so the arming plan accounts for
        # every spec and every firing is a counted healing.
        plan = faults.FaultPlan([
            faults.FaultSpec("engine.schubfach", rate=0.1, limit=None),
            faults.FaultSpec("engine.tier0", rate=0.1, limit=None),
        ], seed=3)
        with BulkPool(jobs=2, shards_per_job=2) as pool:
            with faults.armed(plan):
                assert pool.format_bulk(CORPUS) == WANT
            stats = pool.stats()
        fired = plan.spec_fired()
        assert all(fired)
        assert plan.fired == {"engine.schubfach": fired[0],
                              "engine.tier0": fired[1]}
        assert stats["tier_faults"] == sum(fired)

    def test_process_pool_injected_raise_heals(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", shard=1)])
        with BulkPool(jobs=2) as pool:
            with faults.armed(plan):
                assert pool.format_bulk(CORPUS) == WANT
            assert pool.stats()["shard_retries"] == 1


class TestDegradationLadder:
    def test_persistent_crash_degrades_to_working_level(self):
        # Crash every attempt of shard 0: retries exhaust, the ladder
        # steps down, output is still identical.
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=0,
                             attempt=None, limit=None)])
        with BulkPool(jobs=2, shards_per_job=1, retries=1,
                      max_rebuilds=1) as pool:
            with faults.armed(plan):
                got = pool.format_bulk(CORPUS)
            assert got == WANT
            assert pool.level == "inline"
            assert pool.stats()["degradations"] >= 1
            # The degraded pool keeps serving.
            assert pool.format_bulk(CORPUS) == WANT

    def test_degraded_level_is_sticky(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=0,
                             attempt=None, limit=None)])
        pool = BulkPool(jobs=2, shards_per_job=1, retries=0,
                        max_rebuilds=0)
        try:
            with faults.armed(plan):
                pool.format_bulk(CORPUS)
            level = pool.level
            pool.format_bulk(CORPUS)
            assert pool.level == level
        finally:
            pool.close()

    def test_on_error_raise_disables_ladder(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", shard=1,
                             attempt=None, limit=None)])
        with BulkPool(jobs=2, on_error="raise", retries=1) as pool:
            with faults.armed(plan):
                with pytest.raises(ShardError) as info:
                    pool.format_bulk(CORPUS)
        assert info.value.shard == 1
        assert info.value.attempts == 2
        assert isinstance(info.value.cause, faults.InjectedFault)
        assert isinstance(info.value.__cause__, faults.InjectedFault)


class TestDegradedRungs:
    def test_inline_rung_converts_on_the_parent_engine(self):
        # Every process attempt crashes, so the call ends on the
        # inline rung.  That rung converts on the parent engine: a
        # repeat is served from its memo, and stats() counts each
        # conversion once.
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", attempt=None,
                             limit=None)])
        with BulkPool(jobs=2, retries=0, max_rebuilds=0) as pool:
            with faults.armed(plan):
                assert pool.format_bulk(CORPUS) == WANT
            assert pool.level == "inline"
            first = pool.stats()
            assert pool.format_bulk(CORPUS) == WANT
            stats = pool.stats()
            parent = pool._engine.stats()
        assert all(plan.spec_fired())
        assert stats["degradations"] == 1
        assert first["conversions"] > 0
        assert stats["conversions"] == parent["conversions"] \
            == 2 * first["conversions"]
        assert stats["cache_misses"] == first["cache_misses"]
        assert stats["cache_hits"] - first["cache_hits"] \
            == first["conversions"]


class TestInlineRoute:
    def test_armed_pool_plan_never_fires_on_an_inline_call(self):
        # An inline call has no shard: crash specs on every dispatch of
        # both pool sites never fire, no worker starts and the parent
        # survives.
        small = CORPUS[:INLINE_ROWS - 1]
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", attempt=None,
                             limit=None),
            faults.FaultSpec("pool.read_shard", "crash", attempt=None,
                             limit=None)])
        with BulkPool(jobs=2) as pool:
            with faults.armed(plan):
                payload = pool.format_bulk(small)
                bits = pool.read_bulk(payload)
            assert multiprocessing.active_children() == []
            level = pool.level
            stats = pool.stats()
        assert payload == format_buffer(small, engine=Engine())
        assert bits == ingest_bits(small, BINARY64)
        assert plan.spec_fired() == [0, 0]
        assert level == "process"
        for key in FAULT_STAT_KEYS:
            assert stats[key] == 0

    def test_jobs_1_pool_converts_large_calls_inline(self):
        # A jobs=1 pool has no worker to shard to: a call of any size
        # converts inline, so no worker starts and no pool spec fires.
        big = CORPUS[:INLINE_ROWS] * 4
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", attempt=None,
                             limit=None),
            faults.FaultSpec("pool.read_shard", "crash", attempt=None,
                             limit=None)])
        with BulkPool(jobs=1) as pool:
            with faults.armed(plan):
                payload = pool.format_bulk(big)
                bits = pool.read_bulk(payload)
            assert multiprocessing.active_children() == []
            level = pool.level
            stats = pool.stats()
        assert payload == format_buffer(big, engine=Engine())
        assert bits == ingest_bits(big, BINARY64)
        assert plan.spec_fired() == [0, 0]
        assert level == "inline"
        for key in FAULT_STAT_KEYS:
            assert stats[key] == 0


class TestTypedErrors:
    def test_deadline_error_carries_shard_attribution(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "stall", shard=1,
                             attempt=None, stall=0.6, limit=None)])
        with BulkPool(jobs=2, shards_per_job=1, deadline=0.15, retries=0,
                      on_error="raise") as pool:
            with faults.armed(plan):
                with pytest.raises(DeadlineExceededError) as info:
                    pool.format_bulk(CORPUS)
        assert info.value.shard == 1
        assert info.value.limit == 0.15
        assert info.value.elapsed >= 0.15

    def test_budget_exhaustion_raises(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "stall", attempt=None,
                             stall=0.4, limit=None)])
        with BulkPool(jobs=2, budget=0.5) as pool:
            with faults.armed(plan):
                with pytest.raises(DeadlineExceededError) as info:
                    pool.format_bulk(CORPUS)
        assert info.value.limit == 0.5

    def test_repro_error_propagates_without_retry(self):
        # A malformed literal is a deterministic data error, not a
        # fault: no retries are burned on it, a worker process hands it
        # back typed, and the inline route raises it as it is.
        for jobs in (2, 1):
            with BulkPool(jobs=jobs, retries=2) as pool:
                with pytest.raises(ParseError):
                    pool.read_bulk(["1.5", "not-a-number"]
                                   + ["2.5"] * INLINE_ROWS)
                stats = pool.stats()
            assert stats["shard_retries"] == 0
            assert stats["pool_rebuilds"] == 0

    def test_all_fault_errors_are_repro_errors(self):
        assert issubclass(ShardError, ReproError)
        assert issubclass(DeadlineExceededError, ReproError)
        assert issubclass(PoolBrokenError, ReproError)


class TestLifecycle:
    def test_close_leaves_no_worker_processes(self):
        before = _worker_pids()
        with BulkPool(jobs=2) as pool:
            assert pool.format_bulk(CORPUS) == WANT
            workers = _worker_pids() - before
            assert len(workers) == 2
        assert _worker_pids() & workers == set()

    def test_workers_exit_when_the_parent_is_killed(self):
        # A SIGKILLed parent runs no cleanup: its workers must notice
        # on their own (EOF on their pipe) and exit.
        code = textwrap.dedent("""
            import multiprocessing, time
            from repro.serve import BulkPool
            from repro.serve.pool import INLINE_ROWS
            pool = BulkPool(jobs=2)
            pool.format_bulk([1.5, 2.5, 3.5, 4.5] * INLINE_ROWS)
            print(*(p.pid for p in multiprocessing.active_children()),
                  flush=True)
            time.sleep(60)
        """)
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True)
        try:
            pids = {int(x) for x in proc.stdout.readline().split()}
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        assert len(pids) == 2
        assert _wait_gone(pids, 5.0) == set()

    def test_close_is_idempotent(self):
        pool = BulkPool(jobs=2)
        pool.format_bulk(CORPUS)
        pool.close()
        pool.close()
        pool.close()

    def test_pool_serves_after_close(self):
        pool = BulkPool(jobs=2)
        pool.close()
        assert pool.format_bulk(CORPUS) == WANT
        pool.close()

    def test_exit_shuts_down_on_error_path(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", shard=0,
                             attempt=None, limit=None)])
        with pytest.raises(ShardError):
            with BulkPool(jobs=2, on_error="raise", retries=0) as pool:
                with faults.armed(plan):
                    pool.format_bulk(CORPUS)
        assert pool._executor is None

    def test_run_shards_failure_does_not_leak_executor(self):
        pool = BulkPool(jobs=2, on_error="raise", retries=0)
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", shard=0,
                             attempt=None, limit=None)])
        try:
            with faults.armed(plan):
                with pytest.raises(ShardError):
                    pool.format_bulk(CORPUS)
            # Healthy again once the plan is gone.
            assert pool.format_bulk(CORPUS) == WANT
        finally:
            pool.close()
        assert pool._executor is None


class TestConcurrentCalls:
    def test_calls_survive_a_peer_breaking_the_shared_pool(self):
        # One call's injected crash breaks the shared process executor
        # and its recovery abandons it while the other threads are
        # mid-submit: every call must take the rebuild path and return
        # the fault-free bytes, never an untyped executor error.
        errors = []
        for _ in range(6):
            plan = faults.FaultPlan([
                faults.FaultSpec("pool.format_shard", "crash", shard=0,
                                 limit=2)])
            with BulkPool(jobs=2) as pool:
                def calls():
                    for _ in range(40):
                        try:
                            if pool.format_bulk(CORPUS) != WANT:
                                errors.append("payload mismatch")
                        except Exception as exc:
                            errors.append(repr(exc))

                with faults.armed(plan):
                    threads = [threading.Thread(target=calls)
                               for _ in range(4)]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                    assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_concurrent_calls_count_one_rebuild_per_executor(self,
                                                              monkeypatch):
        # Four threads share one executor; each crash breaks it under
        # every call in flight, and each of them abandons it.  Only the
        # call that clears the live handle counts the rebuild, so the
        # counter equals the executors built after the first.
        from repro.serve import pool as pool_mod

        built = []

        class Counting(pool_mod.PipeExecutor):
            def __init__(self, *args, **kw):
                built.append(self)
                super().__init__(*args, **kw)

        monkeypatch.setattr(pool_mod, "PipeExecutor", Counting)
        errors = []
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=0,
                             limit=3)])
        with BulkPool(jobs=2) as pool:
            def calls():
                for _ in range(20):
                    try:
                        if pool.format_bulk(CORPUS) != WANT:
                            errors.append("payload mismatch")
                    except Exception as exc:
                        errors.append(repr(exc))

            with faults.armed(plan):
                threads = [threading.Thread(target=calls)
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            stats = pool.stats()
        assert errors == []
        assert plan.fired["pool.format_shard"] == 3
        assert stats["pool_rebuilds"] == len(built) - 1 >= 1

    def test_concurrent_degradations_step_down_once(self):
        # Every attempt of shard 0 crashes, so each of the four threads
        # exhausts its attempts on the process rung and asks to
        # degrade.  The ladder must step down once: later requests come
        # from calls that failed on the old rung, and once inline the
        # pool must hold no executor.
        errors = []
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "crash", shard=0,
                             attempt=None, limit=None)])
        with BulkPool(jobs=2, retries=0, max_rebuilds=0,
                      on_error="degrade") as pool:
            def calls():
                for _ in range(10):
                    try:
                        if pool.format_bulk(CORPUS) != WANT:
                            errors.append("payload mismatch")
                    except Exception as exc:
                        errors.append(repr(exc))

            with faults.armed(plan):
                threads = [threading.Thread(target=calls)
                           for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert pool.level == "inline"
            assert pool.stats()["degradations"] == 1
            assert pool._executor is None


class TestStats:
    def test_fault_stat_keys_always_present(self):
        with BulkPool(jobs=1) as pool:
            stats = pool.stats()
        for key in FAULT_STAT_KEYS:
            assert stats[key] == 0

    def test_fault_stat_keys_pinned(self):
        assert frozenset(FAULT_STAT_KEYS) == frozenset({
            "shard_retries", "shard_failures", "deadline_hits",
            "pool_rebuilds", "degradations", "corrupt_shards",
            "snapshot_faults", "hedges", "hedge_wins"})

    def test_stats_exact_under_concurrent_calls(self):
        # Every thread injects exactly one raise into its own call;
        # the recovery counters must sum exactly, no torn updates.
        calls = 8
        plan = faults.FaultPlan([
            faults.FaultSpec("pool.format_shard", "raise", shard=0,
                             attempt=0, limit=calls)])
        errors = []
        with BulkPool(jobs=2) as pool:
            def one_call():
                try:
                    if pool.format_bulk(CORPUS) != WANT:
                        errors.append("payload mismatch")
                except Exception as exc:  # pragma: no cover - debug aid
                    errors.append(repr(exc))

            with faults.armed(plan):
                threads = [threading.Thread(target=one_call)
                           for _ in range(calls)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            stats = pool.stats()
        assert errors == []
        assert plan.fired["pool.format_shard"] == calls
        assert stats["shard_failures"] == calls
        assert stats["shard_retries"] == calls
