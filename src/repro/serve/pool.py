"""Sharded multi-worker bulk pipelines over the tiered engines.

A :class:`BulkPool` has two routes.  A call converts *inline* — one
:func:`~repro.engine.buffer.format_buffer` or
:func:`~repro.engine.buffer.parse_buffer` in the calling thread, on the
pool's one parent engine — when it has fewer than :data:`INLINE_ROWS`
rows, when the pool has one job, and after the pool degraded.  A
free-format conversion costs microseconds, so a small call finishes
before it could be cut into shards, shipped to a worker and merged
back.  Every other call cuts the column into shards, runs them on
worker processes and merges the results in input order.

Each worker gives its shards its own engine in a forked interpreter.
The conversion is CPU-bound work the GIL would serialize, so threads in
the parent would convert no faster than the calling thread does
inline.  Shards reach the workers through
:class:`~repro.serve.workers.PipeExecutor`: one duplex pipe per worker,
each worker holding one shard at a time.  The submitting thread writes
a shard to an idle worker; further shards wait in that worker's
backlog, and the single reader thread writes the next one as it takes
each reply.  A shard costs one pipe round trip, and no write waits on a
busy or stalled worker.  The parent warms the per-format
:class:`~repro.engine.tables.FormatTables` *before* the workers start,
so forked workers inherit the precomputed powers instead of rebuilding
them, and each worker re-warms on init for spawn-style start methods.

Shard payloads cross the process boundary as flat bytes — packed
native-order bit patterns on the format side (one ``array.tobytes``
per shard), delimited byte-plane slices cut on token boundaries on the
read side — never as Python object lists, and formats travel by *name*
so workers resolve the canonical
:data:`~repro.floats.formats.STANDARD_FORMATS` instances — engine fast
paths key on format identity.

The threshold is a module constant, not a knob (no argument, flag or
environment variable sets it).  It was measured on memo-cold columns,
where every row is a new value: the inline route against two worker
processes (``docs/benchmarks.md``).  A memo hit only makes the inline
route cheaper, so the cold crossover is the bound for every hit rate.

Fault tolerance
---------------

Everything below concerns sharded calls.  An inline call has no shard,
transport, checksum or executor, so the ``pool.*`` fault sites,
deadlines, budgets, retries and hedging do not apply to it; the
engine's own fault sites and guard rails still do, and a
:class:`~repro.errors.ReproError` propagates as from a shard.

Workers die, shards stall, payloads get mangled in transit.  The pool
treats every such failure as an input with a defined outcome — either
the failure **heals invisibly** (the merged output is byte-identical to
a fault-free run) or it surfaces as a typed
:class:`~repro.errors.ReproError`; a silent partial result is never an
outcome.  The machinery, all of it exercised deterministically by
``python -m repro.verify --chaos``:

* **Integrity** — every shard result carries a CRC-32 taken where the
  bytes were produced; the parent re-checksums on receipt and treats a
  mismatch as a failed attempt (counted in ``corrupt_shards``).
* **Deadlines** — ``deadline`` bounds one shard attempt, ``budget``
  bounds the whole call.  A missed shard deadline abandons the attempt
  (stalled worker processes are terminated with the executor) and
  retries; an exhausted budget raises
  :class:`~repro.errors.DeadlineExceededError` — a stall can heal, but
  never by silently blowing the caller's latency envelope.
* **Bounded retries** — each shard gets ``retries`` extra attempts,
  spaced by exponential backoff with deterministic
  jitter (seeded per round, so chaos runs replay exactly).
* **Broken-pool recovery** — a dead worker (its process sentinel fires
  or its pipe reaches EOF) breaks the whole process pool: every
  outstanding shard fails with ``BrokenProcessPool``, the parent
  terminates the stragglers, rebuilds the executor (``pool_rebuilds``)
  and retries the unfinished shards, up to ``max_rebuilds`` per call.
  A call that finds the pool already broken or abandoned by a
  concurrent call takes the same path.
* **Degradation ladder** — when the process pool keeps failing, the
  pool steps down ``process → inline`` (``degradations``, counted once
  however many concurrent calls ask) and the call converts its whole
  column inline, discarding any shard results it already had.  The
  inline route runs in-process and cannot crash-loop, and from then on
  every call takes it: the level is sticky, and a degraded pool keeps
  the parent engine's memo.  ``on_error="raise"`` disables the ladder
  and surfaces the first exhausted shard instead:
  :class:`~repro.errors.DeadlineExceededError` for deadline causes,
  :class:`~repro.errors.ShardError` (shard index, attempt count, cause
  chain) for everything else.

Deterministic data errors are not faults: a shard raising a
:class:`~repro.errors.ReproError` (malformed literal, bad payload)
propagates immediately — retrying it cannot change the outcome.

Results are merged by concatenating delimiter-terminated payloads;
:meth:`BulkPool.stats` adds the parent engine's live counters to the
per-shard engine counter deltas the workers report and folds in the
recovery counters (``shard_retries``, ``shard_failures``,
``deadline_hits``, ``pool_rebuilds``, ``degradations``,
``corrupt_shards``), every mutation under one lock so concurrent
callers read exact totals.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import random
import threading
import time
import zlib
from typing import List, Optional, Union

from repro import faults as _faults
from repro.core.rounding import ReaderMode, TieBreak
from repro.engine.buffer import (
    _plane_bytes,
    _row_count,
    format_buffer,
    parse_buffer,
    split_plane,
)
from repro.engine.bulk import (
    _bits_from_bytes,
    _itemsize,
    _split_rows,
    ingest_bits,
    pack_bits,
)
from repro.engine.engine import Engine
from repro.errors import (
    DeadlineExceededError,
    PoolBrokenError,
    RangeError,
    ReproError,
    ShardError,
)
from repro.floats.formats import BINARY64, FloatFormat, STANDARD_FORMATS
from repro.floats.model import Flonum
from repro.serve.workers import PipeExecutor

__all__ = ["BulkPool", "FAULT_STAT_KEYS", "INLINE_ROWS"]

#: Recovery counters :meth:`BulkPool.stats` always includes.
#: ``snapshot_faults`` also exists as an engine counter; the pool folds
#: the two additively (parent-side snapshot rejections plus any
#: worker-side ones), so the key never reports fewer faults than
#: happened.
FAULT_STAT_KEYS = ("shard_retries", "shard_failures", "deadline_hits",
                   "pool_rebuilds", "degradations", "corrupt_shards",
                   "snapshot_faults", "hedges", "hedge_wins")

#: Calls with fewer rows convert inline on the parent engine; calls
#: with at least this many shard to the worker processes.  On a
#: memo-cold column the inline route was no slower than a two-worker
#: process pool up to 384 rows, and slower on reads at 512
#: (``docs/benchmarks.md``); memo hits only make inline cheaper.
INLINE_ROWS = 512

#: The worker-private engine for process pools (one per interpreter,
#: built by the initializer, reused across shards).
_WORKER_ENGINE = None

#: Warm-start directions shipped by the parent through the initializer:
#: ``{"snapshot": path-or-Snapshot, "plane_shm": name-or-None,
#: "plane_bytes": bytes-or-None}``, or None for a cold pool.
_WORKER_WARM = None

#: Worker-side snapshot faults not yet reported to the parent (the
#: worker engine's counters are reset per shard, so construction-time
#: faults are carried here and folded into the next shard's delta).
_WORKER_WARM_FAULTS = 0

#: The attached shared-memory segment, pinned for the worker's
#: lifetime (the hot plane probes read straight from its buffer).
_WORKER_SHM = None


class _CorruptShard(Exception):
    """Parent-side checksum mismatch on a received shard payload.

    Deliberately not a :class:`ReproError`: corruption is transient
    infrastructure failure, so the pool retries it like a crash (and
    wraps it in :class:`ShardError` only once retries are exhausted).
    """


def _worker_engine():
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        warm = _WORKER_WARM
        if warm is None:
            _WORKER_ENGINE = Engine()
        else:
            _WORKER_ENGINE = _build_warm_engine(warm)
    return _WORKER_ENGINE


def _attach_shm(name):
    """Attach to an existing shared-memory segment without registering
    it with this process's resource tracker.

    The parent owns the segment's lifetime.  If every attaching worker
    also registered it, the tracker's bookkeeping would go unbalanced
    (two workers register the same name once — the set dedups — and the
    first unregister strands the second, which surfaces as a noisy
    ``KeyError`` at interpreter exit).  Python 3.13 grew ``track=False``
    for exactly this; on older interpreters the registration hook is
    suppressed around the attach instead.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pre-3.13: no ``track`` parameter
        pass
    from multiprocessing import resource_tracker

    orig = resource_tracker.register

    def _no_track(res_name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            orig(res_name, rtype)

    resource_tracker.register = _no_track
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = orig


def _build_warm_engine(warm):
    """A worker engine warmed per the parent's directions.

    Every failure mode — unreadable/corrupt/stale snapshot, missing or
    torn shared-memory plane — degrades to a colder configuration and
    is tallied in :data:`_WORKER_WARM_FAULTS` (folded into the next
    shard's stats delta); the engine always comes up serving correct
    bytes.
    """
    global _WORKER_WARM_FAULTS, _WORKER_SHM
    eng = Engine(snapshot=warm.get("snapshot"))
    faults = eng.stats()["snapshot_faults"]
    plane = None
    shm_name = warm.get("plane_shm")
    if shm_name is not None:
        try:
            shm = _attach_shm(shm_name)
            from repro.engine.snapshot import HotPlane

            plane = HotPlane(shm.buf)
            _WORKER_SHM = shm  # keep the mapping alive for probes
        except Exception:
            plane = None  # degrade to the serialized copy below
    if plane is None and warm.get("plane_bytes") is not None:
        try:
            from repro.engine.snapshot import HotPlane

            plane = HotPlane(warm["plane_bytes"])
        except Exception:
            plane = None
            faults += 1
    if plane is not None:
        try:
            eng.attach_hot_plane(plane)
        except Exception:
            faults += 1
    if faults:
        _WORKER_WARM_FAULTS += faults
        eng.reset_stats()
    return eng


def _consume_warm_faults() -> int:
    """Report-once accessor for worker-side warm-up faults."""
    global _WORKER_WARM_FAULTS
    n = _WORKER_WARM_FAULTS
    _WORKER_WARM_FAULTS = 0
    return n


def _init_worker(fmt_names, warm=None) -> None:
    """Process-pool initializer: build the engine, warm the tables
    (from the parent's snapshot when given)."""
    global _WORKER_WARM
    from repro.engine.tables import tables_for

    _WORKER_WARM = warm
    if _faults._PLAN is not None:
        # Firings inherited at fork are the parent's to count: start
        # this worker's reports from zero.
        _faults._PLAN.take_call_firings()
    eng = _worker_engine()
    for name in fmt_names:
        tables_for(STANDARD_FORMATS[name], 10)
    del eng


def _shard_engine():
    """The worker's engine, its counters reset so that after the shard
    they read as the shard's delta."""
    eng = _worker_engine()
    eng.reset_stats()
    return eng


def _shard_delta(eng) -> dict:
    """The stats delta a shard reports to the parent: the per-shard
    engine counters plus any not-yet-reported worker warm-up faults
    (reported exactly once per worker) and, under an armed plan, the
    worker's call-site firings for the parent's accounting."""
    out = eng.stats()
    warm = _consume_warm_faults()
    if warm:
        out["snapshot_faults"] = out.get("snapshot_faults", 0) + warm
    plan = _faults._PLAN
    if plan is not None:
        fired = plan.take_call_firings()
        if fired:
            out["fault_fired"] = (plan.token, fired)
    return out


def _apply_pre_fault(fault) -> None:
    """Execute an injected fault tag before the shard's real work."""
    if fault is None:
        return
    kind, stall = fault
    if kind == "stall":
        time.sleep(stall)
    elif kind == "crash":
        os._exit(23)
    elif kind == "raise":
        raise _faults.InjectedFault("injected shard failure")


def _apply_post_fault(fault, body: bytes) -> bytes:
    """Mangle the payload *after* its checksum was taken — the transit
    corruption the parent's integrity check must catch."""
    if fault is not None and fault[0] == "corrupt" and body:
        return bytes([body[0] ^ 0xFF]) + body[1:]
    return body


def _format_shard(payload) -> tuple:
    """Format one shard: ``(delimited_ascii, stats_delta, crc32)``.

    The shard body is produced by the byte-plane pipeline
    (:func:`~repro.engine.buffer.format_buffer`): interned
    pre-terminated byte rows joined once — no per-row string list
    between the engine and the wire.
    """
    fmt_name, raw, mode, tie, dedup, delim, fault = payload
    _apply_pre_fault(fault)
    fmt = STANDARD_FORMATS[fmt_name]
    eng = _shard_engine()
    body = format_buffer(raw, fmt, delimiter=delim, mode=mode, tie=tie,
                         engine=eng, dedup=dedup)
    crc = zlib.crc32(body)
    return _apply_post_fault(fault, body), _shard_delta(eng), crc


def _read_shard(payload) -> tuple:
    """Parse one delimited shard: ``(packed_bits, stats_delta, crc32)``.

    ``raw`` arrives as a byte plane (a slice of the caller's payload
    cut on token boundaries) and is parsed by
    :func:`~repro.engine.buffer.parse_buffer` straight to bit patterns
    — no per-row ``str`` or ``Flonum`` is ever materialized in the
    worker.
    """
    fmt_name, raw, mode, dedup, delim, fault = payload
    _apply_pre_fault(fault)
    fmt = STANDARD_FORMATS[fmt_name]
    eng = _shard_engine()
    bits = parse_buffer(raw, fmt, delimiter=delim, mode=mode,
                        engine=eng, dedup=dedup)
    body = pack_bits(bits, fmt)
    crc = zlib.crc32(body)
    return _apply_post_fault(fault, body), _shard_delta(eng), crc


def _chunk_slices(n: int, shards: int) -> List[tuple]:
    """``shards`` near-equal ``(start, stop)`` spans covering ``n``."""
    shards = max(1, min(shards, n))
    base, extra = divmod(n, shards)
    spans = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


class BulkPool:
    """An order-preserving, fault-tolerant sharded format/read pipeline.

    Calls with fewer than :data:`INLINE_ROWS` rows, every call of a
    ``jobs=1`` pool and every call after a degradation convert inline
    on the parent engine; ``deadline`` and ``budget`` cannot interrupt
    them.

    Args:
        jobs: Worker processes (default: ``os.cpu_count()``); 1 runs
            every call inline and starts no worker.
        fmt: The column's float format — must be a standard
            byte-encoded format (it travels by name).
        mode / tie: Reader assumption and tie strategy for formatting.
        dedup: Intern duplicate values inside each shard.
        delimiter: Row terminator for bulk payloads.
        shards_per_job: Shards dispatched per worker (smaller shards
            smooth stragglers; each shard pays one transport).
        engine: The parent engine (default: a new
            :class:`~repro.engine.engine.Engine`).  Inline calls
            convert on it.
        deadline: Seconds one shard attempt may take, measured from its
            dispatch round (None: unbounded).  A miss abandons the
            attempt and retries.
        budget: Wall-clock seconds one ``format_bulk``/``read_bulk``
            call may take across all retries and degradations; past it
            the call raises :class:`DeadlineExceededError` (None:
            unbounded).
        retries: Extra attempts per shard.
        backoff: Base of the exponential retry backoff (seconds); the
            actual sleep is jittered deterministically per round.
        on_error: ``"degrade"`` (default) steps down from the process
            pool to inline conversion when the workers keep failing;
            ``"raise"`` surfaces the first exhausted shard as a typed
            error instead.
        max_rebuilds: Broken-pool rebuilds tolerated per call before
            degrading (or raising :class:`PoolBrokenError`).
        snapshot: Optional warm-start source (path or
            :class:`repro.engine.snapshot.Snapshot`).  The parent
            validates it once, restores the tables pre-fork, publishes
            the hot plane to shared memory (with a per-process copy as
            the degradation path) and ships the snapshot to each worker
            so no process starts cold.  Rejected snapshots (corrupt,
            stale, torn mid-rewrite) count ``snapshot_faults`` in
            :meth:`stats` and the affected processes run cold — output
            bytes are identical either way.  It warms the parent engine
            only when the pool built that engine: a caller passing
            ``engine`` warms it itself.
    """

    def __init__(self, jobs: Optional[int] = None,
                 fmt: FloatFormat = BINARY64,
                 mode: ReaderMode = ReaderMode.NEAREST_EVEN,
                 tie: TieBreak = TieBreak.UP, dedup: bool = True,
                 delimiter: Union[bytes, str] = b"\n",
                 shards_per_job: int = 2, engine=None,
                 deadline: Optional[float] = None,
                 budget: Optional[float] = None,
                 retries: int = 2, backoff: float = 0.05,
                 on_error: str = "degrade", max_rebuilds: int = 2,
                 snapshot=None, hedge: bool = False,
                 hedge_min: float = 0.05, hedge_multiplier: float = 2.0,
                 hedge_with_faults: bool = False):
        if on_error not in ("raise", "degrade"):
            raise RangeError(f"on_error must be 'raise' or 'degrade', "
                             f"got {on_error!r}")
        if fmt.name not in STANDARD_FORMATS \
                or STANDARD_FORMATS[fmt.name] is not fmt:
            raise RangeError(
                f"BulkPool requires a standard format, got {fmt!r}")
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise RangeError("jobs must be >= 1")
        if retries < 0:
            raise RangeError("retries must be >= 0")
        for name, limit in (("deadline", deadline), ("budget", budget)):
            if limit is not None and limit <= 0:
                raise RangeError(f"{name} must be positive, got {limit}")
        self.fmt = fmt
        self.mode = mode
        self.tie = tie
        self.dedup = dedup
        if isinstance(delimiter, str):
            delimiter = delimiter.encode("ascii")
        else:
            delimiter = bytes(delimiter)
        if not delimiter:
            raise RangeError("delimiter must be non-empty")
        self.delimiter = delimiter
        self.shards_per_job = max(1, shards_per_job)
        self.deadline = deadline
        self.budget = budget
        self.retries = retries
        self.backoff = backoff
        self.on_error = on_error
        self.max_rebuilds = max_rebuilds
        if hedge_min <= 0:
            raise RangeError(f"hedge_min must be positive, got {hedge_min}")
        #: Hedged dispatch: when a shard's wait exceeds a threshold
        #: derived from the rolling shard-latency distribution, its
        #: byte-plane payload is re-dispatched (untagged — hedge legs
        #: never consume injected-fault decisions) and the first
        #: CRC-valid answer wins.  Byte identity is guaranteed by the
        #: shard CRC contract: both legs compute the same pure function
        #: of the same payload.  Suppressed while a fault plan is armed
        #: unless ``hedge_with_faults`` opts in (the dedicated hedge
        #: verify rows), so chaos determinism tests see exactly
        #: the dispatches their plans scripted.
        self.hedge = bool(hedge)
        self.hedge_min = float(hedge_min)
        self.hedge_multiplier = float(hedge_multiplier)
        self.hedge_with_faults = bool(hedge_with_faults)
        self._hedge_lat: List[float] = []  # recent shard latencies (s)
        self._stats: dict = {}
        self._fstats = dict.fromkeys(FAULT_STAT_KEYS, 0)
        self._executor = None
        #: Current ladder rung, ``"process"`` or ``"inline"``; sticky —
        #: once degraded, later calls stay inline rather than
        #: re-probing a broken pool.
        self._level = "process" if self.jobs > 1 else "inline"
        #: Guards the executor handle, both counter dicts and the
        #: ladder level — calls may run concurrently from many threads.
        self._lock = threading.Lock()
        #: The parent engine: inline calls convert on it.
        self._engine = engine if engine is not None else Engine()
        if self.jobs > 1:
            # Warm the per-format tables before any fork so workers
            # inherit the precomputed powers copy-on-write.
            from repro.engine.tables import tables_for

            tables_for(fmt, 10)
        #: Warm-start directions shipped to process workers (None for a
        #: cold pool or after a parent-side snapshot rejection).
        self._warm: Optional[dict] = None
        self._shm = None
        if snapshot is not None:
            self._setup_warm(snapshot, warm_engine=engine is None)

    def _setup_warm(self, snapshot, warm_engine: bool) -> None:
        """Validate the snapshot once in the parent and stage the warm
        fabric: the parent engine warmed (when ``warm_engine``), tables
        restored pre-fork (inherited copy-on-write), the hot plane
        published to a shared-memory segment (with an in-initargs byte
        copy as the degradation path), and the snapshot itself shipped
        so each worker restores its own memo.

        A snapshot that fails validation counts one parent-side
        ``snapshot_faults`` and the whole pool runs cold — never an
        exception, never wrong bytes.
        """
        if self.jobs == 1 and not warm_engine:
            return  # no engine to warm, no workers to ship it to
        from repro.errors import SnapshotError
        from repro.engine import snapshot as _snapshot_mod

        try:
            snap = (snapshot
                    if isinstance(snapshot, _snapshot_mod.Snapshot)
                    else _snapshot_mod.load_snapshot(snapshot))
            _snapshot_mod.restore_tables(snap)
            plane_bytes = _snapshot_mod.HotPlane.from_snapshot(
                snap, self.fmt.name, self.mode, self.tie)
        except SnapshotError:
            with self._lock:
                self._fstats["snapshot_faults"] += 1
            return
        if warm_engine:
            try:
                _snapshot_mod.apply_snapshot(self._engine, snap)
                if plane_bytes is not None:
                    self._engine.attach_hot_plane(
                        _snapshot_mod.HotPlane(plane_bytes))
            except SnapshotError:
                with self._lock:
                    self._fstats["snapshot_faults"] += 1
        if self.jobs == 1:
            return  # no workers to ship it to
        warm = {"snapshot": snapshot, "plane_shm": None,
                "plane_bytes": plane_bytes}
        if plane_bytes is not None:
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(create=True,
                                                 size=len(plane_bytes))
                shm.buf[:len(plane_bytes)] = plane_bytes
                self._shm = shm
                warm["plane_shm"] = shm.name
            except Exception:
                # No shared memory on this host: workers fall back to
                # the per-process plane copy in the initargs.
                self._shm = None
        self._warm = warm

    # ------------------------------------------------------------------
    # Executor management
    # ------------------------------------------------------------------

    def _pool(self) -> Optional[PipeExecutor]:
        """The live worker pool (built lazily), or None once the pool
        converts inline."""
        with self._lock:
            if self._level == "inline":
                return None
            if self._executor is None:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # pragma: no cover - non-POSIX
                    ctx = multiprocessing.get_context()
                self._executor = PipeExecutor(
                    self.jobs, ctx, _init_worker,
                    ((self.fmt.name,), self._warm))
            return self._executor

    def _abandon_executor(self, ex: PipeExecutor) -> None:
        """Drop ``ex`` without waiting: terminate its worker processes,
        stalled or crashed ones included.  The pool's handle is cleared
        only if it still points at ``ex`` — a concurrent call may
        already have built the replacement.  The next :meth:`_pool`
        call rebuilds."""
        with self._lock:
            if self._executor is ex:
                self._executor = None
        ex.terminate()

    def close(self) -> None:
        """Shut the worker pool down.  Idempotent: safe to call any
        number of times, from ``__exit__`` (error paths included) or
        directly, and the pool can keep serving afterwards — the next
        call simply builds a fresh executor.  The shared-memory hot
        plane (if any) is released here; workers built after a close
        warm from the per-process plane copy instead."""
        with self._lock:
            ex = self._executor
            self._executor = None
            shm = self._shm
            self._shm = None
            if shm is not None and self._warm is not None:
                self._warm = dict(self._warm, plane_shm=None)
        if ex is not None:
            try:
                ex.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - broken executor
                pass
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except Exception:  # pragma: no cover - already released
                pass

    def __enter__(self) -> "BulkPool":
        return self

    def __exit__(self, *exc) -> None:
        # Error path included: a shard failure mid-call must not leak
        # a live executor.
        self.close()

    # ------------------------------------------------------------------
    # Fault-tolerant shard execution
    # ------------------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._fstats[key] += n

    def _merge_stats(self, delta: dict) -> None:
        fired = delta.pop("fault_fired", None)
        if fired is not None:
            plan = _faults._PLAN
            if plan is not None and plan.token == fired[0]:
                plan.absorb(fired[1])
        with self._lock:
            for k, v in delta.items():
                self._stats[k] = self._stats.get(k, 0) + v

    def _check_budget(self, start: float) -> None:
        if self.budget is not None:
            elapsed = time.monotonic() - start
            if elapsed > self.budget:
                raise DeadlineExceededError(
                    f"bulk call exceeded its {self.budget}s budget "
                    f"({elapsed:.3f}s elapsed)",
                    shard=None, elapsed=elapsed, limit=self.budget)

    def _tagged(self, payload: tuple, shard: int, attempt: int,
                site: str) -> tuple:
        """Payload with its injected-fault tag (usually None) filled
        in; the fault decision is made here, in the parent, so firing
        is deterministic and accounted for where recovery happens."""
        plan = _faults._PLAN
        spec = None if plan is None \
            else plan.pool_action(site, shard, attempt)
        tag = None if spec is None else (spec.kind, spec.stall)
        return payload[:-1] + (tag,)

    def _degrade(self, pool: PipeExecutor) -> None:
        """Abandon ``pool`` and step down to inline conversion.  Only
        the first of several concurrent calls to ask counts the
        degradation.  Any executor a concurrent call built meanwhile is
        abandoned too: once inline, the pool holds no executor."""
        with self._lock:
            if self._level == "process":
                self._level = "inline"
                self._fstats["degradations"] += 1
            stale, self._executor = self._executor, None
        self._abandon_executor(pool)
        if stale is not None and stale is not pool:
            self._abandon_executor(stale)

    def _give_up(self, shard: int, attempts: int, cause: BaseException):
        """Typed surfacing of an exhausted shard under
        ``on_error="raise"``."""
        if isinstance(cause, DeadlineExceededError):
            raise cause
        raise ShardError(shard, attempts, cause) from cause

    @staticmethod
    def _verify_crc(got: tuple, shard: int) -> tuple:
        body, delta, crc = got
        if zlib.crc32(body) != crc:
            raise _CorruptShard(
                f"shard {shard} payload failed its integrity check")
        return body, delta

    def _note_latency(self, seconds: float) -> None:
        with self._lock:
            self._hedge_lat.append(seconds)
            if len(self._hedge_lat) > 128:
                del self._hedge_lat[:len(self._hedge_lat) - 128]

    def _hedge_threshold(self) -> float:
        """Seconds a shard may lag before its hedge is dispatched:
        ``hedge_multiplier`` x the rolling ~p95 shard latency, floored
        at ``hedge_min`` (which also covers the cold start)."""
        with self._lock:
            xs = sorted(self._hedge_lat)
        if len(xs) >= 8:
            k = min(len(xs) - 1, int(round(0.95 * (len(xs) - 1))))
            return max(self.hedge_min, self.hedge_multiplier * xs[k])
        return self.hedge_min

    def _await_shard(self, pool, fn, clean: tuple, shard: int, fut,
                     timeout: Optional[float], dispatched: float) -> tuple:
        """One shard attempt's raw ``(body, delta, crc)`` result.

        ``clean`` is the shard's payload with no fault tag: what a
        hedge leg dispatches.

        With hedging enabled (and no armed fault plan, unless
        ``hedge_with_faults``), a shard that exceeds the hedge
        threshold gets a clean duplicate dispatch and the first
        CRC-valid answer wins — both legs are the same pure function of
        the same byte plane, so the winner's bytes are the loser's
        bytes.  Raises exactly what the plain wait would: the caller's
        timeout/broken-pool/corrupt classification stays unchanged.
        """
        hedging = (self.hedge
                   and (self.hedge_with_faults or _faults._PLAN is None))
        if not hedging:
            got = fut.result() if timeout is None \
                else fut.result(timeout=max(0.0, timeout))
            self._note_latency(time.monotonic() - dispatched)
            return got
        deadline_ts = None if timeout is None \
            else time.monotonic() + max(0.0, timeout)
        thr = self._hedge_threshold()
        first_wait = thr if timeout is None else min(thr, max(0.0, timeout))
        try:
            got = fut.result(timeout=first_wait)
            self._note_latency(time.monotonic() - dispatched)
            return got
        except concurrent.futures.TimeoutError:
            if deadline_ts is not None \
                    and time.monotonic() >= deadline_ts:
                raise  # the shard deadline itself expired, not the hedge
        try:
            # Untagged duplicate: a hedge leg never consumes a fault
            # plan's scripted decisions.
            hfut = pool.submit(fn, clean)
        except Exception:
            # Executor refused (broken/shutting down): fall back to the
            # plain wait and let the caller classify the outcome.
            remaining = None if deadline_ts is None \
                else max(0.0, deadline_ts - time.monotonic())
            got = fut.result(timeout=remaining)
            self._note_latency(time.monotonic() - dispatched)
            return got
        self._bump("hedges")
        candidates = {fut: False, hfut: True}  # future -> is the hedge
        last_exc: BaseException = concurrent.futures.TimeoutError()
        while candidates:
            remaining = None if deadline_ts is None \
                else deadline_ts - time.monotonic()
            if remaining is not None and remaining <= 0:
                for other in candidates:
                    other.cancel()
                raise concurrent.futures.TimeoutError()
            done, _ = concurrent.futures.wait(
                list(candidates), timeout=remaining,
                return_when=concurrent.futures.FIRST_COMPLETED)
            if not done:
                for other in candidates:
                    other.cancel()
                raise concurrent.futures.TimeoutError()
            for d in done:
                is_hedge = candidates.pop(d)
                try:
                    got = d.result()
                    body, _delta, crc = got
                    if zlib.crc32(body) != crc:
                        raise _CorruptShard(
                            f"shard {shard} payload failed its "
                            f"integrity check")
                except concurrent.futures.CancelledError:
                    last_exc = concurrent.futures.TimeoutError()
                    continue
                except BaseException as exc:
                    if isinstance(exc, _CorruptShard) and candidates:
                        # The other leg may still deliver clean bytes;
                        # this one is accounted here since the caller
                        # only sees the final outcome.
                        self._bump("corrupt_shards")
                    last_exc = exc
                    continue
                for other in candidates:
                    other.cancel()
                if is_hedge:
                    self._bump("hedge_wins")
                self._note_latency(time.monotonic() - dispatched)
                return got
        raise last_exc

    def _run_parallel(self, pool, fn, payloads, site, results, pending,
                      attempts, start) -> List[tuple]:
        """One executor round over ``pending``: ``(shard, cause)``
        failures.  Detects broken pools and missed deadlines; either
        abandons the executor so the next round starts clean."""
        futs = []
        for i in pending:
            try:
                fut = pool.submit(fn, self._tagged(payloads[i], i,
                                                   attempts[i], site))
            except RuntimeError as exc:
                # A concurrent call broke, abandoned or closed this
                # executor (BrokenExecutor is a RuntimeError too): a
                # failed attempt on a broken pool, so the rebuild path
                # runs.
                fut = concurrent.futures.Future()
                fut.set_exception(concurrent.futures.BrokenExecutor(
                    f"submit refused: {exc!r}"))
            futs.append((i, fut))
        dispatched = time.monotonic()
        failed = []
        abandon = False
        broken = None
        for i, fut in futs:
            if broken is not None:
                fut.cancel()
                failed.append((i, broken))
                continue
            timeout = None
            if self.deadline is not None:
                timeout = dispatched + self.deadline - time.monotonic()
            if self.budget is not None:
                remaining = self.budget - (time.monotonic() - start)
                timeout = remaining if timeout is None \
                    else min(timeout, remaining)
            try:
                got = self._await_shard(pool, fn, payloads[i], i, fut,
                                        timeout, dispatched)
                results[i] = self._verify_crc(got, i)
            except concurrent.futures.TimeoutError:
                fut.cancel()
                self._check_budget(start)  # budget exhaustion raises
                if self.deadline is None:
                    # Only the budget bounded this wait; charge it even
                    # if the clock says a few microseconds remain.
                    elapsed = time.monotonic() - start
                    raise DeadlineExceededError(
                        f"bulk call exceeded its {self.budget}s budget "
                        f"({elapsed:.3f}s elapsed)",
                        shard=None, elapsed=elapsed, limit=self.budget)
                self._bump("deadline_hits")
                elapsed = time.monotonic() - dispatched
                failed.append((i, DeadlineExceededError(
                    f"shard {i} missed its {self.deadline}s deadline "
                    f"({elapsed:.3f}s elapsed)",
                    shard=i, elapsed=elapsed, limit=self.deadline)))
                abandon = True  # a worker may still be wedged
            except concurrent.futures.BrokenExecutor as exc:
                broken = PoolBrokenError(f"worker pool broke: {exc!r}")
                broken.__cause__ = exc
                failed.append((i, broken))
                abandon = True
            except ReproError:
                for j, other in futs:
                    other.cancel()
                raise
            except _CorruptShard as exc:
                self._bump("corrupt_shards")
                failed.append((i, exc))
            except Exception as exc:
                failed.append((i, exc))
        if abandon:
            self._abandon_executor(pool)
            self._bump("pool_rebuilds")
        return failed

    def _run_shards(self, fn, payloads: List[tuple],
                    site: str) -> Optional[List[bytes]]:
        """Run every shard to completion (or a typed error), in order.

        The core recovery loop: rounds of dispatch on the worker pool,
        per-shard retry budgets, deadline/budget enforcement,
        broken-pool rebuilds, and — under ``on_error="degrade"`` — the
        step down to inline conversion.  Returns the shard bodies in
        input order and merges their stats deltas, or None once the
        pool converts inline (this call or a concurrent one degraded
        it): the caller then converts the whole column inline, and the
        shard results and their deltas are dropped.  On any raise, no
        partial results escape (the exception is the only outcome).
        """
        n = len(payloads)
        results: List[Optional[tuple]] = [None] * n
        pending = list(range(n))
        attempts = [0] * n
        start = time.monotonic()
        rebuilds = 0
        round_no = 0
        while pending:
            self._check_budget(start)
            pool = self._pool()
            if pool is None:
                return None
            failed = self._run_parallel(pool, fn, payloads, site, results,
                                        pending, attempts, start)
            if not failed:
                break
            rebuilt_now = any(isinstance(c, PoolBrokenError)
                              for _, c in failed)
            if rebuilt_now:
                rebuilds += 1
            with self._lock:
                self._fstats["shard_failures"] += len(failed)
            exhausted = None
            for i, cause in failed:
                attempts[i] += 1
                if attempts[i] > self.retries and exhausted is None:
                    exhausted = (i, cause)
            pending = [i for i, _ in failed]
            if exhausted is not None or rebuilds > self.max_rebuilds:
                if self.on_error == "raise":
                    if exhausted is not None:
                        self._give_up(exhausted[0],
                                      attempts[exhausted[0]], exhausted[1])
                    raise PoolBrokenError(
                        f"worker pool broke {rebuilds} times "
                        f"(max_rebuilds={self.max_rebuilds})")
                self._degrade(pool)
                return None
            self._bump("shard_retries", len(pending))
            round_no += 1
            if self.backoff:
                # Deterministic jitter: chaos replays sleep the same
                # spans run after run.
                jitter = random.Random(f"bulkpool:{round_no}").random()
                time.sleep(self.backoff * (2 ** min(round_no - 1, 4))
                           * (0.5 + 0.5 * jitter))
        out = []
        for body, delta in results:  # type: ignore[misc]
            if delta:
                self._merge_stats(delta)
            out.append(body)
        return out

    # ------------------------------------------------------------------
    # Pipelines
    # ------------------------------------------------------------------

    def rows(self, payload: bytes, read: bool = False) -> int:
        """Rows in one byte payload: a packed column, or (``read``) a
        delimited plane, where an unterminated tail is one more row."""
        if read:
            return _row_count(payload, self.delimiter)
        return len(payload) // _itemsize(self.fmt)

    @staticmethod
    def inline(rows: int) -> bool:
        """True when a call of ``rows`` rows converts inline on every
        pool, in the calling thread, with no executor.  A ``jobs=1`` or
        degraded pool converts larger calls inline too."""
        return rows < INLINE_ROWS

    def _sharded(self, rows: int) -> bool:
        """True when a call of ``rows`` rows goes to the worker
        processes."""
        return not self.inline(rows) and self.level == "process"

    def format_bulk(self, data) -> bytes:
        """Serialize a column to delimiter-terminated ASCII bytes."""
        bits = ingest_bits(data, self.fmt)
        if self._sharded(len(bits)):
            spans = _chunk_slices(len(bits), self.jobs * self.shards_per_job)
            payloads = [(self.fmt.name, pack_bits(bits[a:b], self.fmt),
                         self.mode, self.tie, self.dedup, self.delimiter,
                         None) for a, b in spans]
            bodies = self._run_shards(_format_shard, payloads,
                                      "pool.format_shard")
            if bodies is not None:
                return b"".join(bodies)
        return format_buffer(bits, self.fmt, delimiter=self.delimiter,
                             mode=self.mode, tie=self.tie,
                             engine=self._engine, dedup=self.dedup)

    def format_column(self, data) -> List[str]:
        """Shortest strings for a column, in input order."""
        payload = self.format_bulk(data)
        return _split_rows(payload, self.delimiter)

    def read_bulk(self, data, out: str = "bits"):
        """Parse a delimited payload (or sequence of literals)."""
        if out not in ("bits", "flonums"):
            raise RangeError(f"out must be 'bits' or 'flonums', "
                             f"got {out!r}")
        delim = self.delimiter
        if isinstance(data, (bytes, bytearray, memoryview, str)):
            plane = _plane_bytes(data)
        else:
            d = delim.decode("ascii")
            texts = data if isinstance(data, list) else list(data)
            plane = _plane_bytes(d.join(texts) + d) if texts else b""
        rows = self.rows(plane, read=True)
        if not rows:
            return []
        bits = None
        if self._sharded(rows):
            # Each shard payload is a *slice* of the plane cut on a
            # token boundary — no row strings, no re-join, no re-encode.
            starts = split_plane(plane, delim)[1].tolist()
            starts.append(len(plane))
            payloads = [(self.fmt.name, plane[starts[a]:starts[b]],
                         self.mode, self.dedup, delim, None)
                        for a, b in _chunk_slices(
                            rows, self.jobs * self.shards_per_job)]
            bodies = self._run_shards(_read_shard, payloads,
                                      "pool.read_shard")
            if bodies is not None:
                itemsize = _itemsize(self.fmt)
                bits = []
                for packed in bodies:
                    bits.extend(_bits_from_bytes(packed, itemsize))
        if bits is None:
            bits = parse_buffer(plane, self.fmt, delimiter=delim,
                                mode=self.mode, engine=self._engine,
                                dedup=self.dedup)
        if out == "bits":
            return bits
        from_bits = Flonum.from_bits
        fmt = self.fmt
        return [from_bits(b, fmt) for b in bits]

    @property
    def level(self) -> str:
        """The current degradation-ladder rung: ``"process"`` while
        calls of :data:`INLINE_ROWS` rows or more shard to the worker
        processes, ``"inline"`` once every call converts inline (a
        ``jobs=1`` pool from the start, any other after a
        degradation)."""
        with self._lock:
            return self._level

    def _own_stats(self) -> dict:
        """The worker deltas plus the recovery counters: everything in
        :meth:`stats` except the parent engine's live counters (a daemon
        whose pools share one engine counts that engine once)."""
        with self._lock:
            out = dict(self._stats)
            for k, v in self._fstats.items():
                out[k] = out.get(k, 0) + v
        return out

    def stats(self) -> dict:
        """Engine counters for every conversion so far, plus the
        recovery counters (:data:`FAULT_STAT_KEYS`).

        Each conversion is counted once: inline calls in the parent
        engine's live :meth:`~repro.engine.engine.Engine.stats`, process
        shards in the per-shard deltas the workers report
        (``cache_entries`` therefore totals entries across the parent's
        and the workers' memos).
        Every pool counter mutation happens under the pool lock, so
        totals are exact even with calls running concurrently.

        Recovery counters are folded *additively*: ``snapshot_faults``
        exists on both sides (engine-level rejections, parent-side
        rejections in the pool's own tally) and the merge must never
        let one overwrite the other.
        """
        out = dict(self._engine.stats())
        for k, v in self._own_stats().items():
            out[k] = out.get(k, 0) + v
        return out
