"""In-memory span tracing around the layers' public entry points.

The benchmark patches each layer's entry points from its own files (it
never edits ``src/``): :meth:`Tracer.install` replaces a function or
method with a timing wrapper and :meth:`Tracer.uninstall` puts the
original back, so an untraced pass runs the unmodified code.

Two kinds of wrapper share one per-thread call stack:

* *recorded* wrappers keep a span ``(id, name, start, end, parent,
  rid, folded)`` in memory — batch-level calls such as
  ``Engine.format_many`` or ``BulkPool.format_bulk``;
* *folded* wrappers sit on per-value paths (the conversion lanes),
  where one span per call would cost more memory than the run has.
  They only add their duration to per-name totals and to the
  ``folded`` field of the nearest recorded ancestor, so that
  ancestor's self time still excludes them.

A span's self time is its duration minus the part of its interval its
recorded children cover, minus its folded time (:func:`self_times`).
Timestamps come from ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so spans from different processes line up.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: One entry point to wrap: ``(module or class path, attribute, span
#: name, recorded)``.  Paths resolve lazily, so an entry point a later
#: version of the program removes is skipped, not an error.
Hook = Tuple[str, str, str, bool]

#: Conversion lanes and the batch calls around them (both directions).
ENGINE_HOOKS: Tuple[Hook, ...] = (
    ("repro.engine.engine:Engine", "format_many", "engine.format_many", True),
    ("repro.engine.engine", "tier0_digits", "engine.tier0", False),
    ("repro.engine.engine", "tier1_digits", "engine.grisu3", False),
    ("repro.engine.engine", "schubfach_digits", "engine.schubfach", False),
    ("repro.engine.engine", "shortest_digits_scaled", "engine.exact", False),
    ("repro.engine.reader:ReadEngine", "read_many", "reader.read_many", True),
    ("repro.engine.reader:ReadEngine", "_convert", "reader.lanes", False),
    ("repro.engine.reader", "_try_fast", "reader.tier0", False),
    ("repro.engine.reader", "lemire_parse", "reader.lemire", False),
    ("repro.engine.reader", "round_rational", "reader.exact", False),
    ("repro.engine.buffer", "_try_fast", "reader.tier0", False),
)

#: The byte-plane pipeline: split, classify, ingest, intern and emit.
BUFFER_HOOKS: Tuple[Hook, ...] = (
    ("repro.engine.buffer", "format_buffer", "buffer.format", True),
    ("repro.engine.buffer", "parse_buffer", "buffer.parse", True),
    ("repro.engine.buffer", "_tokens", "buffer.split", False),
    ("repro.engine.buffer", "split_plane", "buffer.split", False),
    ("repro.engine.buffer", "classify_tokens", "buffer.classify", False),
    ("repro.engine.buffer", "ingest_bits", "bulk.ingest", False),
    # Pool workers reach the pipeline through the pool module's own
    # imported names.
    ("repro.serve.pool", "format_buffer", "buffer.format", True),
    ("repro.serve.pool", "parse_buffer", "buffer.parse", True),
)

#: Daemon-side serving layers: framing, admission, batching, the pool.
SERVE_HOOKS: Tuple[Hook, ...] = (
    ("repro.serve.protocol", "parse_request", "protocol.decode", False),
    ("repro.serve.protocol", "encode_response", "protocol.encode", False),
    ("repro.serve.protocol", "encode_error", "protocol.encode", False),
    ("repro.serve.daemon:ReproDaemon", "_admit", "daemon.admit", False),
    ("repro.serve.daemon:ReproDaemon", "_convert", "daemon.convert", True),
    ("repro.serve.pool:BulkPool", "format_bulk", "pool.call", True),
    ("repro.serve.pool:BulkPool", "read_bulk", "pool.call", True),
    ("repro.serve.pool", "_format_shard", "worker.shard", True),
    ("repro.serve.pool", "_read_shard", "worker.shard", True),
)


def _resolve(path: str):
    """The module or class a hook path names (None when absent)."""
    import importlib

    mod_name, _, cls_name = path.partition(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    if cls_name:
        obj = getattr(obj, cls_name, None)
    return obj


class Tracer:
    """Spans and per-name totals, kept in memory until :meth:`dump`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Recorded spans: ``[id, name, start, end, parent, rid, folded]``.
        self.spans: List[list] = []
        #: ``name -> [total seconds, self seconds, calls]`` for every
        #: wrapped call, recorded or folded.
        self.totals: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._patches: List[tuple] = []
        #: Called with no arguments whenever a thread's outermost span
        #: ends (process-pool workers flush their totals there).
        self.on_idle = None

    # -- recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_total(self, name: str, total: float, own: float) -> None:
        with self._lock:
            row = self.totals.get(name)
            if row is None:
                row = self.totals[name] = [0.0, 0.0, 0]
            row[0] += total
            row[1] += own
            row[2] += 1

    def _enter(self, recorded: bool) -> list:
        # frame: [span id (None when folded), child s, folded s, start]
        sid = None
        if recorded:
            with self._lock:
                self._ids += 1
                sid = self._ids
        frame = [sid, 0.0, 0.0, 0.0]
        self._stack().append(frame)
        frame[3] = self.clock()
        return frame

    def _exit(self, name: str, frame: list) -> None:
        t1 = self.clock()
        stack = self._stack()
        stack.pop()
        sid, child, folded, t0 = frame
        dt = t1 - t0
        if stack:
            parent = stack[-1]
            parent[1] += dt
            # Folded time matters only to a recorded parent; a folded
            # parent hands its whole duration up when it ends.
            if sid is None and parent[0] is not None:
                parent[2] += dt
        self._add_total(name, dt, dt - child)
        if sid is not None:
            parent_id = next((f[0] for f in reversed(stack)
                              if f[0] is not None), None)
            with self._lock:
                self.spans.append([sid, name, t0, t1, parent_id, None,
                                   folded])
        if not stack and self.on_idle is not None:
            self.on_idle()

    def call(self, name: str, recorded: bool, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        Folded spans must be leaves with respect to recorded ones: a
        recorded call under a folded one would be subtracted from its
        recorded ancestor twice.
        """
        frame = self._enter(recorded)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._exit(name, frame)

    def record(self, name: str, start: float, end: float, rid) -> None:
        """Keep a span measured elsewhere, such as a client request
        timed from its scheduled send to its response; ``rid`` is the
        request id the client sees."""
        with self._lock:
            self._ids += 1
            self.spans.append([self._ids, name, start, end, None, rid, 0.0])
        self._add_total(name, end - start, end - start)

    def reset(self) -> None:
        """Forget every span and total; patches stay installed.  Meant
        for a freshly forked child, so the lock is replaced too (the
        parent may have held it at the fork)."""
        self._lock = threading.Lock()
        self.spans = []
        self.totals = {}
        self._local = threading.local()

    # -- patching ----------------------------------------------------

    def install(self, hooks: Iterable[Hook], gate=None) -> List[str]:
        """Wrap every resolvable hook; returns the span names wrapped.

        ``gate``, when given, is a zero-argument callable consulted per
        call: a false result runs the original without a span (used
        where workers must inherit the wrappers before tracing starts).
        """
        wrapped = []
        for path, attr, name, recorded in hooks:
            owner = _resolve(path)
            if owner is None:
                continue
            try:
                static = inspect.getattr_static(owner, attr)
            except AttributeError:
                continue
            orig = getattr(owner, attr)
            if not callable(orig):
                continue
            is_static = isinstance(static, staticmethod)
            wrapper = self._wrapper(orig, name, recorded, gate)
            setattr(owner, attr,
                    staticmethod(wrapper) if is_static else wrapper)
            self._patches.append((owner, attr, static))
            wrapped.append(name)
        return wrapped

    def _wrapper(self, orig, name: str, recorded: bool, gate):
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if gate is not None and not gate():
                return orig(*args, **kwargs)
            return tracer.call(name, recorded, orig, args, kwargs)

        return traced

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)

    # -- output ------------------------------------------------------

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write the spans (one JSON object a line) and the totals."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"totals": self.totals,
                                 "extra": extra or {}}) + "\n")
            for sid, name, t0, t1, parent, rid, folded in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "rid": rid, "folded": folded}) + "\n")


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self seconds per span name over recorded spans.

    A span's self time is its duration, minus the length of the union
    of its children's intervals clipped to its own, minus its folded
    (unrecorded child) time.  Children may overlap each other — spans
    from worker threads, say — and are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, name, t0, t1, parent, rid, folded in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out: Dict[str, float] = {}
    for sid, name, t0, t1, parent, rid, folded in spans:
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, ())
                if min(b, t1) > max(a, t0)]
        own = (t1 - t0) - _union_length(kids) - folded
        out[name] = out.get(name, 0.0) + max(0.0, own)
    return out


def percentile(sorted_xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 if empty)."""
    if not sorted_xs:
        return 0.0
    k = min(len(sorted_xs) - 1, max(0, -(-len(sorted_xs) * q // 100) - 1))
    return sorted_xs[int(k)]
