"""Deterministic, seeded fault injection for the serving stack.

The paper's guarantee is correctness; the engines and the bulk pool
wrap that guarantee in fast tiers and worker processes, none of which
may trade it away when something breaks.  This module makes failure a
first-class, *reproducible* input: a :class:`FaultPlan` names exactly
which injection sites misbehave, when, and how, so the chaos battery
(``python -m repro.verify --chaos``) can replay the same faults under
the same seed and assert the output never changes by a byte.

Injection sites
---------------

Two families of sites exist, distinguished by who evaluates them:

**Call sites** fire in the process that armed the plan, counted per
call in arrival order.  They model a fast tier raising mid-
certification; the engines' guard rails must heal them invisibly (or
re-raise under ``strict=True``):

========================  ============================================
site                      fires inside
========================  ============================================
``engine.tier0``          :class:`~repro.engine.engine.Engine`'s
                          inline integer test, in front of Schubfach
``engine.schubfach``      the Schubfach shortest-write lane (scalar
                          and ``format_many`` batch paths)
``engine.counted``        the counted/fixed fast path
``reader.tier1``          the read engine's window tier (interval
                          certification)
========================  ============================================

**Pool sites** are *decided in the parent* when a
:class:`~repro.serve.pool.BulkPool` dispatches a shard attempt — the
decision travels to the worker as a payload tag, so firing is
deterministic for any start method and every injected fault is
accounted for where the recovery happens:

========================  ============================================
site                      dispatch of
========================  ============================================
``pool.format_shard``     one format shard attempt
``pool.read_shard``       one read shard attempt
========================  ============================================

Pool sites fire only on sharded calls, which run in worker processes;
an inline call never consults them.  Pool faults support four kinds:
``crash`` (the worker process dies via ``os._exit``), ``stall`` (the
worker sleeps past the shard deadline), ``corrupt`` (the shard payload
is mangled after its checksum is taken, simulating transit corruption)
and ``raise`` (the shard attempt raises :class:`InjectedFault`).  Call
sites support ``raise`` only.

Arming
------

No plan is armed by default, and every site compiles down to a single
module-global ``is None`` test on the hot path — the disarmed cost is
one load per conversion::

    plan = FaultPlan([FaultSpec("pool.format_shard", "crash", shard=1)])
    with faults.armed(plan):
        payload = pool.format_bulk(column)   # heals via rebuild+retry
    assert plan.fired["pool.format_shard"] == 1

Forked pool workers inherit the armed plan, so call-site specs keep
firing inside worker engines too.  Their healings come back in the
per-shard ``tier_faults`` stats deltas, and each shard also reports
the worker's call-site firings (:meth:`FaultPlan.take_call_firings`),
which the parent folds into the armed plan (:meth:`FaultPlan.absorb`)
— so :meth:`FaultPlan.spec_fired` accounts for every spec, wherever it
fired (a worker that crashes loses its unreported firings).
"""

from __future__ import annotations

import itertools
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FaultPlan", "FaultSpec", "InjectedFault", "arm", "disarm",
           "armed", "active", "smoke_plan", "CALL_SITES", "POOL_SITES"]

#: Call sites: evaluated in-process, ``raise`` kind only.
CALL_SITES = frozenset({
    "engine.tier0", "engine.schubfach", "engine.counted", "reader.tier1",
})

#: Pool sites: decided in the dispatching parent, executed in workers.
POOL_SITES = frozenset({"pool.format_shard", "pool.read_shard"})

_POOL_KINDS = frozenset({"crash", "stall", "corrupt", "raise"})

#: Plan tokens: a forked copy keeps its parent's token, so a worker's
#: firing report is folded only into the plan it was forked from.
_TOKENS = itertools.count(1)


class InjectedFault(Exception):
    """An artificial failure fired by an armed :class:`FaultPlan`.

    Deliberately **not** a :class:`~repro.errors.ReproError`: the guard
    rails must treat it exactly like an unforeseen bug — catch it at a
    tier boundary and fall back, or retry the shard — and a strict
    engine must re-raise it unchanged.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic misbehaviour at one named injection site.

    Args:
        site: A :data:`CALL_SITES` or :data:`POOL_SITES` name.
        kind: ``raise`` (call and pool sites), or ``crash`` / ``stall``
            / ``corrupt`` (pool sites only).
        shard: Pool sites — match only this shard index (None: any).
        attempt: Pool sites — match only this 0-based attempt
            (None: every attempt; default 0, so one retry heals).
        at: Call sites — fire on these 0-based call indices.
        rate: Per-call (or per-dispatch) firing probability, decided by
            a seeded RNG keyed on the plan seed, site and call (or
            dispatch) index — the same plan fires at the same calls in
            any run.
        stall: Seconds a ``stall`` fault sleeps.
        limit: Cap on total firings of this spec (None: unbounded).
            With neither ``at`` nor ``rate`` given, the spec fires on
            every match until the limit is spent.
    """

    site: str
    kind: str = "raise"
    shard: Optional[int] = None
    attempt: Optional[int] = 0
    at: Optional[Tuple[int, ...]] = None
    rate: float = 0.0
    stall: float = 0.25
    limit: Optional[int] = 1

    def __post_init__(self):
        if self.site in CALL_SITES:
            if self.kind != "raise":
                raise ValueError(
                    f"call site {self.site!r} only supports kind='raise', "
                    f"got {self.kind!r}")
        elif self.site in POOL_SITES:
            if self.kind not in _POOL_KINDS:
                raise ValueError(f"unknown pool fault kind {self.kind!r}")
        else:
            raise ValueError(f"unknown injection site {self.site!r}")
        if self.at is not None:
            object.__setattr__(self, "at", tuple(self.at))


class FaultPlan:
    """A seeded set of :class:`FaultSpec` with exact firing accounting.

    Instances are reusable but stateful: :attr:`fired` counts firings
    per site and per-spec limits are consumed as they fire, so a fresh
    comparison run should build a fresh plan.  All bookkeeping is
    lock-protected — pools dispatch shards from multiple threads.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0):
        self.seed = int(seed)
        self.specs: List[FaultSpec] = list(specs)
        self._by_site: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for j, spec in enumerate(self.specs):
            self._by_site.setdefault(spec.site, []).append((j, spec))
        self._spec_fired = [0] * len(self.specs)
        self._reported = [0] * len(self.specs)
        self._calls: Dict[str, int] = {}
        #: site -> number of faults this plan has fired (in this
        #: process, plus the call-site firings pool workers reported).
        self.fired: Dict[str, int] = {}
        self.token = next(_TOKENS)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def _roll(self, spec_key: str, rate: float) -> bool:
        # String seeding hashes with SHA-512 under seed version 2 —
        # stable across processes and PYTHONHASHSEED values.
        return random.Random(f"{self.seed}:{spec_key}").random() < rate

    def _spec_matches_budget(self, j: int, spec: FaultSpec) -> bool:
        return spec.limit is None or self._spec_fired[j] < spec.limit

    def fire(self, site: str) -> None:
        """Evaluate one call site; raises :class:`InjectedFault` when a
        spec fires.  Engines call this inside their guard-railed tier
        regions, so a firing exercises the fallback path."""
        with self._lock:
            idx = self._calls.get(site, 0)
            self._calls[site] = idx + 1
            for j, spec in self._by_site.get(site, ()):
                if not self._spec_matches_budget(j, spec):
                    continue
                if spec.at is not None:
                    hit = idx in spec.at
                elif spec.rate:
                    hit = self._roll(f"{site}:{j}:{idx}", spec.rate)
                else:
                    hit = True
                if hit:
                    self._spec_fired[j] += 1
                    self.fired[site] = self.fired.get(site, 0) + 1
                    raise InjectedFault(
                        f"injected raise at {site} (call {idx})")

    def pool_action(self, site: str, shard: int,
                    attempt: int) -> Optional[FaultSpec]:
        """Decide whether this shard dispatch misbehaves.

        Called by the pool parent before submitting shard ``shard`` on
        attempt ``attempt``; the returned spec (or None) is
        deterministic for a given plan state.  A rate-drawn spec rolls
        once per dispatch, keyed on the site's dispatch index (as
        :meth:`fire` keys on the call index) and the spec's position,
        so two rate specs of one site draw independently.
        """
        with self._lock:
            idx = self._calls.get(site, 0)
            self._calls[site] = idx + 1
            for j, spec in self._by_site.get(site, ()):
                if not self._spec_matches_budget(j, spec):
                    continue
                if spec.shard is not None and spec.shard != shard:
                    continue
                if spec.attempt is not None and spec.attempt != attempt:
                    continue
                if spec.rate and not self._roll(
                        f"{site}:{j}:{idx}", spec.rate):
                    continue
                self._spec_fired[j] += 1
                self.fired[site] = self.fired.get(site, 0) + 1
                return spec
        return None

    def spec_fired(self) -> List[int]:
        """Firings per spec, in :attr:`specs` order (this process plus
        every absorbed worker report)."""
        with self._lock:
            return list(self._spec_fired)

    def take_call_firings(self) -> Dict[int, int]:
        """Call-site firings since the last take, by spec index — what
        a forked pool worker reports back with each shard.  A worker
        takes once at start-up and discards the result, so firings it
        inherited from its parent are never reported twice."""
        with self._lock:
            out = {}
            for j, spec in enumerate(self.specs):
                n = self._spec_fired[j] - self._reported[j]
                if n and spec.site in CALL_SITES:
                    out[j] = n
                    self._reported[j] = self._spec_fired[j]
            return out

    def absorb(self, firings: Dict[int, int]) -> None:
        """Fold a worker's :meth:`take_call_firings` report into this
        plan's accounting (:attr:`fired` and :meth:`spec_fired`)."""
        with self._lock:
            for j, n in firings.items():
                self._spec_fired[j] += n
                site = self.specs[j].site
                self.fired[site] = self.fired.get(site, 0) + n

    def total_fired(self) -> int:
        """Faults fired so far, across every site (this process plus
        every absorbed worker report)."""
        with self._lock:
            return sum(self.fired.values())


# ----------------------------------------------------------------------
# Arming (module-global so disarmed sites cost one load + None test)
# ----------------------------------------------------------------------

_PLAN: Optional[FaultPlan] = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (replacing any armed plan)."""
    global _PLAN
    _PLAN = plan
    return plan


def disarm() -> None:
    """Return every injection site to its no-op state."""
    global _PLAN
    _PLAN = None


def active() -> Optional[FaultPlan]:
    """The armed plan, or None."""
    return _PLAN


@contextmanager
def armed(plan: FaultPlan):
    """Arm ``plan`` for the duration of a with-block (restores the
    previously armed plan, if any, on the way out)."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def smoke_plan(seed: int = 0) -> FaultPlan:
    """A small mixed plan for ops smoke tests (``repro-print --bulk
    --chaos-seed N``): one worker crash, one corrupted shard, and
    low-rate fast-tier raises on both engine sides.  Every fault must
    heal invisibly — the CLI output stays byte-identical."""
    return FaultPlan([
        FaultSpec("pool.format_shard", "crash", shard=1),
        FaultSpec("pool.read_shard", "corrupt", shard=0),
        FaultSpec("engine.schubfach", "raise", rate=0.1, limit=32),
        FaultSpec("reader.tier1", "raise", rate=0.1, limit=32),
    ], seed=seed)
