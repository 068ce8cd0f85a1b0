"""Pieces every workload shares: the exact oracle, metric units, the
per-layer report and small statistics helpers."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from perfbench.tracing import percentile, self_times

#: End-to-end metrics every workload reports, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "write_values_per_s": "values/s",
    "read_values_per_s": "values/s",
    "format_mb_per_s": "MB/s",
    "parse_mb_per_s": "MB/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "capacity_rps": "req/s",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics whose tracing overhead the traced run reports.
OVERHEAD_METRICS = ("write_values_per_s", "read_values_per_s",
                    "format_mb_per_s", "parse_mb_per_s", "p50_ms",
                    "p99_ms", "capacity_rps")

#: Layer -> span names whose self time it owns.  ``lanes.*`` are the
#: conversion lanes of ``engine.engine`` / ``engine.reader``;
#: ``engine.batch`` is the rest of those modules (memo, routing,
#: rendering, literal scanning around the lanes).
LAYERS = {
    "lanes_write": ("engine.tier0", "engine.grisu3", "engine.schubfach"),
    "lanes_read": ("reader.lanes", "reader.tier0", "reader.lemire"),
    "exact": ("engine.exact", "reader.exact"),
    "engine_batch": ("engine.format_many", "reader.read_many"),
    "buffer": ("buffer.format", "buffer.parse", "buffer.split",
               "buffer.classify", "bulk.ingest"),
    "protocol": ("protocol.decode", "protocol.encode"),
    "daemon": ("daemon.admit", "daemon.convert"),
    "pool": ("pool.call",),
    "worker": ("worker.shard",),
}

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "engine.conversions": "count", "engine.cache_hits": "count",
    "engine.tier0_hits": "count", "engine.grisu3_hits": "count",
    "engine.grisu3_bailouts": "count", "engine.schubfach_hits": "count",
    "engine.exact_calls": "count", "engine.exact_share": "fraction",
    "engine.format_many_s": "s", "engine.tier0_s": "s",
    "engine.grisu3_s": "s", "engine.schubfach_s": "s",
    "engine.exact_s": "s",
    "reader.conversions": "count", "reader.cache_hits": "count",
    "reader.tier0_hits": "count", "reader.window_hits": "count",
    "reader.window_bailouts": "count", "reader.lemire_hits": "count",
    "reader.exact_calls": "count", "reader.exact_share": "fraction",
    "reader.read_many_s": "s", "reader.lemire_s": "s",
    "reader.exact_s": "s",
    "tables.build_s": "s",
    "buffer.rows": "count", "buffer.unique_share": "fraction",
    "buffer.split_s": "s", "buffer.classify_s": "s", "bulk.ingest_s": "s",
    "buffer.format_self_s": "s", "buffer.parse_self_s": "s",
    "daemon.batches": "count", "daemon.batch_size_mean": "count",
    "daemon.max_batch": "count", "daemon.overloads": "count",
    "daemon.error_responses": "count",
    "protocol.decode_us": "us", "protocol.encode_us": "us",
    "pool.call_ms_p50": "ms", "pool.call_ms_p99": "ms",
    "pool.shard_retries": "count", "pool.shard_failures": "count",
    "pool.pool_rebuilds": "count", "pool.degradations": "count",
    "pool.corrupt_shards": "count", "pool.deadline_hits": "count",
    "loadgen.sent": "count", "loadgen.late_ms_p99": "ms",
    "serve.residual_ms_p50": "ms",
}
PER_LAYER_UNITS.update({f"share.{name}": "fraction" for name in LAYERS})
PER_LAYER_UNITS.update({f"overhead.{name}": "fraction"
                        for name in OVERHEAD_METRICS})

#: Metrics where a larger value is better (the overhead sign follows).
HIGHER_IS_BETTER = {"write_values_per_s", "read_values_per_s",
                    "format_mb_per_s", "parse_mb_per_s", "capacity_rps",
                    "ok_share"}


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env() -> dict:
    """Environment for child processes: the program's ``src`` and the
    benchmark package on the path."""
    root = repo_root()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def out_dir() -> str:
    """Where traced runs write their spans (ignored by git)."""
    return os.path.join(repo_root(), ".perfbench")


# ----------------------------------------------------------------------
# The oracle: core.dragon plus reader.exact, through an exact-only engine
# ----------------------------------------------------------------------

def exact_engine():
    from repro.engine import Engine

    return Engine(tier_order=(), read_tier_order=(), cache_size=0)


def oracle_texts64(bits: Sequence[int]) -> List[str]:
    """Shortest strings of binary64 bit patterns, exact tier only."""
    from perfbench.inputs import bits_to_float

    return exact_engine().format_many([bits_to_float(b) for b in bits])


def oracle_texts32(bits: Sequence[int]) -> List[str]:
    from repro.floats.formats import BINARY32
    from repro.floats.model import Flonum

    return exact_engine().format_many(
        [Flonum.from_bits(b, BINARY32) for b in bits], fmt=BINARY32)


def oracle_bits64(texts: Sequence[str]) -> List[int]:
    """Correctly rounded binary64 bit patterns of literals, exact tier
    only."""
    return [v.to_bits() for v in exact_engine().read_many(list(texts))]


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

#: Seconds one :func:`calibration_slice` takes at the reference host
#: speed (CPython 3.11 on a 2-vCPU x86-64 cloud VM).
CALIBRATION_REF_S = 400e-6


def calibration_slice(clock=time.perf_counter) -> float:
    """Seconds one fixed slice of interpreter work takes now.

    The host shares its cores with other machines' work, and the same
    code runs up to half again slower for stretches of a fraction of a
    second to tens of seconds.  The workloads interleave these slices
    with the measured calls and rescale each measured time by the
    reference slice time over the slices taken beside it, which turns
    a spread of a fifth between runs into a few percent.  The slice
    mixes 64-bit and big-integer arithmetic, ``str`` conversion and
    dict traffic, the operations the conversion paths spend their time
    on, so it slows down with the host the way they do.
    """
    t0 = clock()
    x = 0x9E3779B97F4A7C15
    seen: Dict[str, int] = {}
    for _ in range(300):
        x = (x * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
        q, r = divmod(x << 64, 100000000000000003)
        key = str(q)[:5]
        seen[key] = seen.get(key, 0) + (r & 255)
    return clock() - t0


#: Calibration slices on each side of a timed set-up.
SETUP_SLICES = 10


def host_speed(slices: int = SETUP_SLICES) -> float:
    """Host speed now relative to the reference: the reference slice
    time over the mean of ``slices`` slices, timed in this thread's CPU
    time so that waiting for a core does not count."""
    took = sum(calibration_slice(time.thread_time) for _ in range(slices))
    return CALIBRATION_REF_S * slices / took


def setup_time(seconds: float, before: float, after: float) -> float:
    """A set-up's wall time rescaled to the reference host speed, given
    the speeds measured just before and just after it.

    A fresh process's start-up follows the host's speed at about the
    square root, not in proportion: over 100 spawns the log-log slope of
    set-up time on the speed around it was 0.42-0.52.  Rescaling by the
    square root took the spread of 60 spawns from 0.29 to 0.08; rescaling
    in proportion left it at 0.21.
    """
    return seconds * ((before + after) / 2) ** 0.5


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole host so far, from
    ``/proc/stat``; ``(0, 0)`` where the kernel does not report them.
    Steal is time the hypervisor ran other machines on this one's
    virtual CPUs."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(code: str, repeats: int) -> float:
    """Median seconds from spawning ``python -c code`` until it prints
    ``ready`` (its set-up: interpreter, imports, tables, first
    conversions), over ``repeats`` fresh processes, each rescaled by
    :func:`setup_time`."""
    times = []
    for _ in range(repeats):
        before = host_speed()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True,
                                env=child_env(), cwd=repo_root())
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {rc}): {line!r}")
        times.append(setup_time(t1 - t0, before, host_speed()))
    return statistics.median(times)


def overhead(untraced: Dict[str, float], traced: Dict[str, float]
             ) -> Dict[str, float]:
    """The traced run's loss per metric, as a fraction of the untraced
    value (positive: tracing made it worse)."""
    out = {}
    for name in OVERHEAD_METRICS:
        base = untraced.get(name)
        got = traced.get(name)
        if not base or got is None:
            out[f"overhead.{name}"] = 0.0
        elif name in HIGHER_IS_BETTER:
            out[f"overhead.{name}"] = (base - got) / base
        else:
            out[f"overhead.{name}"] = (got - base) / base
    return out


def layer_times(totals: Dict[str, List[float]], spans: Iterable[Sequence]
                ) -> Dict[str, float]:
    """Self seconds per span name: from the recorded spans where the
    name was recorded, else from the folded totals."""
    own = self_times(list(spans))
    out = {name: row[1] for name, row in totals.items()}
    out.update(own)
    return out


def layer_shares(self_s: Dict[str, float], busy_s: float
                 ) -> Dict[str, float]:
    """Each layer's self time as a share of the workload's busy time."""
    return {f"share.{layer}":
            (sum(self_s.get(n, 0.0) for n in names) / busy_s
             if busy_s > 0 else 0.0)
            for layer, names in LAYERS.items()}


def engine_counts(stats: Dict[str, int]) -> Dict[str, float]:
    """Per-layer counters from an ``Engine.stats()``-shaped dict."""
    g = stats.get
    write_routed = (g("tier0_hits", 0) + g("tier1_hits", 0)
                    + g("schubfach_hits", 0) + g("tier2_calls", 0))
    read_routed = (g("read_tier0_hits", 0) + g("read_tier1_hits", 0)
                   + g("read_lemire_hits", 0) + g("read_tier2_calls", 0))
    return {
        "engine.conversions": g("conversions", 0),
        "engine.cache_hits": g("cache_hits", 0),
        "engine.tier0_hits": g("tier0_hits", 0),
        "engine.grisu3_hits": g("tier1_hits", 0),
        "engine.grisu3_bailouts": g("tier1_bailouts", 0),
        "engine.schubfach_hits": g("schubfach_hits", 0),
        "engine.exact_calls": g("tier2_calls", 0),
        "engine.exact_share": (g("tier2_calls", 0) / write_routed
                               if write_routed else 0.0),
        "reader.conversions": g("read_conversions", 0) or read_routed,
        "reader.cache_hits": g("read_cache_hits", 0),
        "reader.tier0_hits": g("read_tier0_hits", 0),
        "reader.window_hits": g("read_tier1_hits", 0),
        "reader.window_bailouts": g("read_tier1_bailouts", 0),
        "reader.lemire_hits": g("read_lemire_hits", 0),
        "reader.exact_calls": g("read_tier2_calls", 0),
        "reader.exact_share": (g("read_tier2_calls", 0) / read_routed
                               if read_routed else 0.0),
    }


def add_counts(acc: Dict[str, int], stats: Dict[str, object]) -> None:
    """Sum counter dicts, skipping derived (dict-valued) entries."""
    for k, v in stats.items():
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            acc[k] = acc.get(k, 0) + v


def time_metrics(self_s: Dict[str, float]) -> Dict[str, float]:
    """The traced per-layer timings named in the metric table."""
    g = self_s.get
    return {
        "engine.format_many_s": g("engine.format_many", 0.0),
        "engine.tier0_s": g("engine.tier0", 0.0),
        "engine.grisu3_s": g("engine.grisu3", 0.0),
        "engine.schubfach_s": g("engine.schubfach", 0.0),
        "engine.exact_s": g("engine.exact", 0.0),
        "reader.read_many_s": g("reader.read_many", 0.0),
        "reader.lemire_s": g("reader.lemire", 0.0),
        "reader.exact_s": g("reader.exact", 0.0),
        "buffer.split_s": g("buffer.split", 0.0),
        "buffer.classify_s": g("buffer.classify", 0.0),
        "bulk.ingest_s": g("bulk.ingest", 0.0),
        "buffer.format_self_s": g("buffer.format", 0.0),
        "buffer.parse_self_s": g("buffer.parse", 0.0),
    }


def measure_tables_build() -> float:
    """Seconds to build binary64's tables cold: ``tables_for`` plus the
    Schubfach and Lemire power tables."""
    from repro.engine.tables import clear_tables, tables_for
    from repro.floats.formats import BINARY64

    clear_tables()
    t0 = time.perf_counter()
    tables = tables_for(BINARY64, 10)
    for name in ("ensure_schub", "ensure_lemire"):
        build = getattr(tables, name, None)
        if build is not None:
            build()
    return time.perf_counter() - t0


def print_breakdown(workload: str, shares: Dict[str, float], busy_s: float,
                    over: Dict[str, float]) -> None:
    """The human-readable per-layer table of a traced run."""
    print(f"# per-layer self time on {workload} "
          f"(busy {busy_s:.3f} s of traced work)")
    for layer in LAYERS:
        share = shares[f"share.{layer}"]
        print(f"#   {layer:<14} {share * 100:6.1f} %  "
              f"{share * busy_s:9.4f} s")
    print("# tracing overhead (traced loss vs untraced):")
    for name in OVERHEAD_METRICS:
        print(f"#   {name:<20} {over[f'overhead.{name}'] * 100:+7.2f} %")


def zero_per_layer() -> Dict[str, float]:
    return {name: 0 for name in PER_LAYER_UNITS}


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def percentile_ms(xs_s: List[float], q: float) -> float:
    return percentile(sorted(xs_s), q) * 1e3
