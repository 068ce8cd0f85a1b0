"""Regenerate BENCH_serve.json — the serving daemon's latency SLOs.

Run:  PYTHONPATH=src python tools/bench_serve.py [--quick] [-o PATH]

An open-loop load generator against a loopback
:class:`~repro.serve.daemon.ReproDaemon`: request arrivals are Poisson
(``--rate`` per second, arrival times drawn up front, latency measured
from the *scheduled* arrival so queueing is charged to the daemon, not
hidden by a closed feedback loop), payloads carry zipf key-skewed
columns from :mod:`repro.workloads.corpus`, and every response is
checked byte for byte against the in-process
``format_bulk``/``read_bulk`` oracle.

Two legs land in the JSON:

* **baseline** — fault-free traffic; gates on p50/p95/p99 latency,
  throughput, zero typed errors and zero byte mismatches;
* **chaos** (skipped by ``--no-chaos``) — open-loop traffic with a
  :class:`~repro.faults.FaultPlan` armed that crashes, stalls and
  corrupts pool shards mid-flight (one guaranteed crash plus
  rate-drawn faults).  Its requests carry at least
  :data:`~repro.serve.pool.INLINE_ROWS` rows, so every one shards to
  the pool's rung (smaller batches convert inline, where no pool fault
  site fires); the rate shrinks to keep the baseline's rows per
  second.  Gates: at least one fault fired, recovery
  counters account for every fired fault, zero byte mismatches, and
  p99 degradation stays within the documented bound
  (``chaos p99 <= max(P99_RATIO_BOUND x baseline p99,
  P99_ABS_FLOOR_MS)`` — see docs/serving.md);

* **controlled** (with the chaos leg) — the *same* fault plan replayed
  against a daemon with the self-healing control plane armed: circuit
  breakers, the AIMD admission controller and hedged shard dispatch
  (``hedge_under_faults`` so the hedge legs dodge the armed stalls —
  exactly the production story).  Gates: zero byte mismatches, a
  bounded shed rate, and on full runs the controlled chaos p99 must
  not exceed ``CONTROLLED_P99_BOUND`` x the uncontrolled chaos p99 —
  the control plane has to pay for itself.

Timing gates are skipped on ``--quick`` so loaded CI machines cannot
flake the smoke lane; identity/accounting gates always apply.  The
output schema is pinned by :data:`BENCH_SERVE_SCHEMA` and covered by
``tests/test_tools.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import faults  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.bulk import (  # noqa: E402
    format_bulk,
    ingest_bits,
    pack_bits,
    read_bulk,
)
from repro.errors import ReproError  # noqa: E402
from repro.floats.formats import STANDARD_FORMATS  # noqa: E402
from repro.serve.client import AsyncServeClient  # noqa: E402
from repro.serve.daemon import serving  # noqa: E402
from repro.serve.pool import INLINE_ROWS  # noqa: E402
from repro.workloads.corpus import zipf_random  # noqa: E402

#: Chaos p99 may be at most this multiple of the baseline p99 ...
P99_RATIO_BOUND = 20.0
#: ... or this absolute floor, whichever is larger (retry/rebuild cost
#: on a short, fast baseline would otherwise dominate the ratio).
P99_ABS_FLOOR_MS = 500.0
#: The controlled leg's p99 may be at most this multiple of the
#: uncontrolled chaos p99 (full runs only) — the control plane must
#: improve tail latency under faults, not merely add machinery.
CONTROLLED_P99_BOUND = 1.0
#: The controlled leg may shed at most this fraction of its requests.
CONTROLLED_SHED_BOUND = 0.2

#: Required keys of BENCH_serve.json.  A value of ``dict`` means "any
#: mapping"; a tuple lists required sub-keys.  Schema changes must
#: update this and tests/test_tools.py.
BENCH_SERVE_SCHEMA = {
    "config": ("rate", "duration", "connections", "rows_per_request",
               "formats", "zipf_s", "distinct", "seed", "jobs", "quick"),
    "baseline": {
        "requests": int,
        "responses": int,
        "errors": int,
        "mismatches": int,
        "latency_ms": ("p50", "p95", "p99", "mean", "max"),
        "throughput": ("requests_per_s", "mb_per_s"),
        "stats": dict,
        "pool_stats": dict,
    },
    "chaos": {
        "requests": int,
        "responses": int,
        "errors": int,
        "mismatches": int,
        "faults_fired": int,
        "recovered": int,
        "p99_ratio": float,
        "latency_ms": ("p50", "p95", "p99", "mean", "max"),
        "throughput": ("requests_per_s", "mb_per_s"),
        "stats": dict,
        "pool_stats": dict,
    },
    "controlled": {
        "requests": int,
        "responses": int,
        "errors": int,
        "mismatches": int,
        "faults_fired": int,
        "p99_vs_chaos": float,
        "control": ("breaker_trips", "breaker_sheds", "admission_sheds",
                    "admission_increases", "admission_decreases",
                    "hedges", "hedge_wins"),
        "latency_ms": ("p50", "p95", "p99", "mean", "max"),
        "throughput": ("requests_per_s", "mb_per_s"),
        "stats": dict,
        "pool_stats": dict,
    },
    "gates": ("p99_ratio_bound", "p99_abs_floor_ms",
              "controlled_p99_bound", "controlled_shed_bound"),
}


def validate_bench_schema(result: dict, schema: dict = None,
                          path: str = "") -> list:
    """Return a list of schema violations (empty when conformant)."""
    schema = BENCH_SERVE_SCHEMA if schema is None else schema
    problems = []
    for key, spec in schema.items():
        where = f"{path}{key}"
        if key not in result:
            problems.append(f"missing key: {where}")
            continue
        value = result[key]
        if isinstance(spec, dict):
            if not isinstance(value, dict):
                problems.append(f"not a mapping: {where}")
            else:
                problems.extend(
                    validate_bench_schema(value, spec, f"{where}."))
        elif isinstance(spec, tuple):
            if not isinstance(value, dict):
                problems.append(f"not a mapping: {where}")
            else:
                for sub in spec:
                    if sub not in value:
                        problems.append(f"missing key: {where}.{sub}")
        elif spec is float:
            if not isinstance(value, (int, float)):
                problems.append(f"not a number: {where}")
        elif spec is int:
            if not isinstance(value, int):
                problems.append(f"not an int: {where}")
        elif spec is list:
            if not isinstance(value, list):
                problems.append(f"not a list: {where}")
        elif spec is dict:
            if not isinstance(value, dict):
                problems.append(f"not a mapping: {where}")
    return problems


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile of a sorted list (0.0 when empty)."""
    if not xs:
        return 0.0
    k = min(len(xs) - 1, max(0, math.ceil(q / 100.0 * len(xs)) - 1))
    return xs[k]


# ----------------------------------------------------------------------
# Workload templates: zipf key-skewed byte planes with oracles
# ----------------------------------------------------------------------

def build_templates(formats, rows_per_request: int, distinct: int,
                    zipf_s: float, seed: int, templates_per_fmt: int):
    """Pre-draw request payloads and their in-process oracle responses.

    Each template is ``(op, fmt_name, payload, want, bytes_moved)``;
    the zipf skew lives in the *values* (hot keys repeat across and
    within requests, exactly the dedup-friendly traffic the interning
    layer is built for).
    """
    eng = Engine()
    templates = []
    for fmt_name in formats:
        fmt = STANDARD_FORMATS[fmt_name]
        values = zipf_random(rows_per_request * templates_per_fmt,
                             distinct=distinct, s=zipf_s, fmt=fmt,
                             seed=seed, signed=True)
        bits = [v.to_bits() for v in values]
        for t in range(templates_per_fmt):
            chunk = bits[t * rows_per_request:(t + 1) * rows_per_request]
            packed = pack_bits(chunk, fmt)
            plane = format_bulk(packed, fmt, engine=eng)
            want_bits = pack_bits(read_bulk(plane, fmt, engine=eng), fmt)
            templates.append(("format", fmt_name, packed, plane,
                              len(packed) + len(plane)))
            templates.append(("read", fmt_name, plane, want_bits,
                              len(plane) + len(want_bits)))
    return templates


# ----------------------------------------------------------------------
# The open-loop driver
# ----------------------------------------------------------------------

async def _drive(daemon, templates, rate: float, duration: float,
                 connections: int, seed: int) -> dict:
    loop = asyncio.get_running_loop()
    rng = random.Random(seed ^ 0xA221)
    clients = [await AsyncServeClient.connect(daemon.host, daemon.port)
               for _ in range(connections)]
    # Draw the whole arrival schedule up front: open-loop means the
    # generator never waits for a response before sending the next
    # request, so server-side queueing shows up as latency.
    arrivals = []
    t = 0.0
    while t < duration:
        t += rng.expovariate(rate)
        arrivals.append(t)
    picks = [rng.randrange(len(templates)) for _ in arrivals]

    latencies = []
    errors = 0
    mismatches = 0
    bytes_moved = 0

    async def fire(at: float, template, client) -> None:
        nonlocal errors, mismatches, bytes_moved
        delay = at - (loop.time() - t0)
        if delay > 0:
            await asyncio.sleep(delay)
        op, fmt_name, payload, want, moved = template
        sched = t0 + at
        try:
            if op == "format":
                got = await client.format(payload, fmt_name)
            else:
                got = await client.read(payload, fmt_name)
        except ReproError:
            errors += 1
            latencies.append(loop.time() - sched)
            return
        latencies.append(loop.time() - sched)
        bytes_moved += moved
        if got != want:
            mismatches += 1

    t0 = loop.time()
    tasks = [asyncio.ensure_future(
        fire(at, templates[pick], clients[i % connections]))
        for i, (at, pick) in enumerate(zip(arrivals, picks))]
    await asyncio.gather(*tasks)
    elapsed = loop.time() - t0
    for c in clients:
        await c.close()

    latencies.sort()
    ms = [x * 1000.0 for x in latencies]
    return {
        "requests": len(arrivals),
        "responses": len(latencies) - errors,
        "errors": errors,
        "mismatches": mismatches,
        "latency_ms": {
            "p50": round(percentile(ms, 50), 3),
            "p95": round(percentile(ms, 95), 3),
            "p99": round(percentile(ms, 99), 3),
            "mean": round(sum(ms) / len(ms), 3) if ms else 0.0,
            "max": round(ms[-1], 3) if ms else 0.0,
        },
        "throughput": {
            "requests_per_s": round(len(latencies) / elapsed, 1),
            "mb_per_s": round(bytes_moved / elapsed / 1e6, 2),
        },
    }


def run_leg(templates, *, rate, duration, connections, seed, jobs,
            plan=None, **daemon_kw) -> dict:
    """One serving leg: boot a daemon, drive open-loop traffic at it,
    return the measured section (with daemon counters attached).
    Extra keyword arguments reach the daemon — the controlled leg uses
    them to arm the control plane."""
    with serving(jobs=jobs, retries=3, **daemon_kw) as daemon:
        ctx = faults.armed(plan) if plan is not None else None
        try:
            if ctx is not None:
                ctx.__enter__()
            section = asyncio.run(_drive(daemon, templates, rate,
                                         duration, connections, seed))
        finally:
            if ctx is not None:
                ctx.__exit__(None, None, None)
        section["stats"] = daemon.stats()
        section["pool_stats"] = daemon.pool_stats()
    return section


def chaos_plan(seed: int) -> faults.FaultPlan:
    """The chaos leg's plan: one guaranteed worker crash, then
    rate-drawn crashes, stalls and corruptions for the whole run."""
    return faults.FaultPlan([
        faults.FaultSpec("pool.format_shard", "crash", shard=0,
                         attempt=0, limit=1),
        faults.FaultSpec("pool.format_shard", "crash", rate=0.02,
                         attempt=0, limit=5),
        faults.FaultSpec("pool.read_shard", "corrupt", rate=0.02,
                         attempt=0, limit=5),
        faults.FaultSpec("pool.read_shard", "stall", rate=0.01,
                         attempt=0, stall=0.05, limit=5),
    ], seed=seed)


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------

def _check_baseline_gates(base: dict, quick: bool) -> int:
    """Identity and accounting always; latency only on full runs."""
    status = 0
    if base["mismatches"]:
        print("FAIL: baseline responses mismatch the in-process oracle",
              file=sys.stderr)
        status = 1
    if base["errors"]:
        print(f"FAIL: {base['errors']} typed errors under fault-free "
              "traffic", file=sys.stderr)
        status = 1
    if base["responses"] + base["errors"] != base["requests"]:
        print("FAIL: baseline responses unaccounted for",
              file=sys.stderr)
        status = 1
    if not quick and base["latency_ms"]["p99"] > 250.0:
        print(f"FAIL: baseline p99 {base['latency_ms']['p99']}ms "
              "over the 250ms SLO", file=sys.stderr)
        status = 1
    return status


def _check_chaos_gates(chaos: dict, base: dict, quick: bool) -> int:
    """Chaos must fire, heal byte-identically, account for every
    fault, and keep p99 degradation inside the documented bound."""
    status = 0
    if chaos["mismatches"]:
        print("FAIL: chaos responses mismatch the fault-free oracle",
              file=sys.stderr)
        status = 1
    if chaos["faults_fired"] < 1:
        print("FAIL: dead chaos leg — no fault fired", file=sys.stderr)
        status = 1
    if chaos["recovered"] < chaos["faults_fired"]:
        print(f"FAIL: {chaos['faults_fired']} faults fired but only "
              f"{chaos['recovered']} recoveries counted",
              file=sys.stderr)
        status = 1
    if chaos["responses"] + chaos["errors"] != chaos["requests"]:
        print("FAIL: chaos responses unaccounted for", file=sys.stderr)
        status = 1
    if not quick:
        bound = max(P99_RATIO_BOUND * base["latency_ms"]["p99"],
                    P99_ABS_FLOOR_MS)
        if chaos["latency_ms"]["p99"] > bound:
            print(f"FAIL: chaos p99 {chaos['latency_ms']['p99']}ms "
                  f"exceeds the degradation bound {bound:.0f}ms",
                  file=sys.stderr)
            status = 1
    return status


def _check_controlled_gates(ctl: dict, chaos: dict, quick: bool) -> int:
    """The control plane may shed or reroute, never change a byte —
    and on full runs it must improve the chaos tail, not just exist."""
    status = 0
    if ctl["mismatches"]:
        print("FAIL: controlled responses mismatch the fault-free "
              "oracle", file=sys.stderr)
        status = 1
    if ctl["responses"] + ctl["errors"] != ctl["requests"]:
        print("FAIL: controlled responses unaccounted for",
              file=sys.stderr)
        status = 1
    if ctl["errors"] > ctl["requests"] * CONTROLLED_SHED_BOUND:
        print(f"FAIL: controlled leg shed {ctl['errors']} of "
              f"{ctl['requests']} requests (bound "
              f"{CONTROLLED_SHED_BOUND:.0%})", file=sys.stderr)
        status = 1
    if not quick:
        bound = CONTROLLED_P99_BOUND * chaos["latency_ms"]["p99"]
        if ctl["latency_ms"]["p99"] > bound:
            print(f"FAIL: controlled p99 {ctl['latency_ms']['p99']}ms "
                  f"does not beat the uncontrolled chaos p99 "
                  f"{chaos['latency_ms']['p99']}ms "
                  f"(bound {bound:.0f}ms)", file=sys.stderr)
            status = 1
    return status


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=400.0,
                        help="open-loop arrival rate, requests/s")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="seconds of traffic per leg")
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--rows", type=int, default=64, metavar="N",
                        help="rows per request payload")
    parser.add_argument("--formats", nargs="*",
                        default=["binary16", "binary32", "binary64"],
                        choices=sorted(STANDARD_FORMATS))
    parser.add_argument("--zipf-s", type=float, default=1.3)
    parser.add_argument("--distinct", type=int, default=512,
                        help="distinct keys under the zipf skew")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--jobs", type=int, default=2,
                        help="BulkPool workers per (format, delimiter)")
    parser.add_argument("--quick", action="store_true",
                        help="short legs, identity gates only (CI smoke)")
    parser.add_argument("--no-chaos", action="store_true",
                        help="skip the chaos leg")
    parser.add_argument("--chaos", action="store_true",
                        help="accepted for symmetry; the chaos leg runs "
                             "by default")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the JSON here (default: print only)")
    args = parser.parse_args(argv)

    rate = 150.0 if args.quick else args.rate
    duration = 2.0 if args.quick else args.duration
    templates = build_templates(
        args.formats, args.rows, args.distinct, args.zipf_s, args.seed,
        templates_per_fmt=4 if args.quick else 16)

    # The fault legs target the pool's rung: requests of at least
    # INLINE_ROWS rows, at the baseline's rows per second.
    chaos_rows = max(args.rows, INLINE_ROWS)
    chaos_rate = rate * args.rows / chaos_rows
    chaos_templates = templates if chaos_rows == args.rows \
        else build_templates(args.formats, chaos_rows, args.distinct,
                             args.zipf_s, args.seed,
                             templates_per_fmt=4 if args.quick else 16)

    result = {
        "generated_by": "tools/bench_serve.py",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": {
            "rate": rate, "duration": duration,
            "connections": args.connections,
            "rows_per_request": args.rows, "formats": args.formats,
            "zipf_s": args.zipf_s, "distinct": args.distinct,
            "seed": args.seed, "jobs": args.jobs,
            "quick": args.quick, "chaos_rows_per_request": chaos_rows,
            "chaos_rate": chaos_rate,
        },
        "gates": {"p99_ratio_bound": P99_RATIO_BOUND,
                  "p99_abs_floor_ms": P99_ABS_FLOOR_MS,
                  "controlled_p99_bound": CONTROLLED_P99_BOUND,
                  "controlled_shed_bound": CONTROLLED_SHED_BOUND},
    }

    base = run_leg(templates, rate=rate, duration=duration,
                   connections=args.connections, seed=args.seed,
                   jobs=args.jobs)
    result["baseline"] = base
    status = _check_baseline_gates(base, quick=args.quick)

    if not args.no_chaos:
        plan = chaos_plan(args.seed)
        chaos = run_leg(chaos_templates, rate=chaos_rate,
                        duration=duration,
                        connections=args.connections, seed=args.seed + 1,
                        jobs=args.jobs, plan=plan)
        with plan._lock:
            fired = sum(plan.fired.get(s, 0) for s in faults.POOL_SITES)
        pool = chaos["pool_stats"]
        chaos["faults_fired"] = fired
        chaos["recovered"] = (pool.get("shard_failures", 0)
                              + pool.get("corrupt_shards", 0)
                              + pool.get("deadline_hits", 0))
        p99 = base["latency_ms"]["p99"]
        chaos["p99_ratio"] = (round(chaos["latency_ms"]["p99"] / p99, 2)
                              if p99 else 0.0)
        result["chaos"] = chaos
        status = _check_chaos_gates(chaos, base,
                                    quick=args.quick) or status

        # The controlled leg: the same fault plan (fresh instance, same
        # seed and arrival schedule) with the control plane armed.
        cplan = chaos_plan(args.seed)
        ctl = run_leg(chaos_templates, rate=chaos_rate,
                      duration=duration,
                      connections=args.connections, seed=args.seed + 1,
                      jobs=args.jobs, plan=cplan,
                      breaker_threshold=8, slo_target_ms=60.0,
                      hedge=True, hedge_min=0.05,
                      hedge_under_faults=True)
        with cplan._lock:
            cfired = sum(cplan.fired.get(s, 0)
                         for s in faults.POOL_SITES)
        ctl["faults_fired"] = cfired
        cstats, cpool = ctl["stats"], ctl["pool_stats"]
        ctl["control"] = {
            "breaker_trips": cstats.get("breaker_trips", 0),
            "breaker_sheds": cstats.get("breaker_sheds", 0),
            "admission_sheds": cstats.get("admission_sheds", 0),
            "admission_increases": cstats.get("admission_increases", 0),
            "admission_decreases": cstats.get("admission_decreases", 0),
            "hedges": cpool.get("hedges", 0),
            "hedge_wins": cpool.get("hedge_wins", 0),
        }
        cp99 = chaos["latency_ms"]["p99"]
        ctl["p99_vs_chaos"] = (round(ctl["latency_ms"]["p99"] / cp99, 2)
                               if cp99 else 0.0)
        result["controlled"] = ctl
        status = _check_controlled_gates(ctl, chaos,
                                         quick=args.quick) or status

    problems = validate_bench_schema(result) if not args.no_chaos else []
    for p in problems:
        print(f"FAIL: schema violation: {p}", file=sys.stderr)
        status = 1

    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    for leg in ("baseline", "chaos", "controlled"):
        if leg in result:
            lat = result[leg]["latency_ms"]
            thr = result[leg]["throughput"]
            print(f"{leg}: p50={lat['p50']}ms p95={lat['p95']}ms "
                  f"p99={lat['p99']}ms "
                  f"{thr['requests_per_s']} req/s "
                  f"{thr['mb_per_s']} MB/s "
                  f"mismatches={result[leg]['mismatches']}",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
