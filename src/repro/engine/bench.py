"""Measurement harness for the tiered engine.

Shared by ``benchmarks/bench_engine_tiers.py`` (pytest-benchmark views)
and ``tools/bench_engine.py`` (the ``BENCH_engine.json`` writer) so both
report the same quantities from the same corpora:

* wall time per value for the exact-only ``format_shortest`` path, for
  ``Engine.format`` singles, and for ``Engine.format_many`` batches;
* the same three quantities for fixed-format (counted-digit) requests —
  exact big-integer division vs :meth:`Engine.counted_digits` (the
  ``fixed`` section of the result);
* the read direction — exact ``read_decimal`` vs the tiered
  :class:`ReadEngine` (singles, ``read_many`` batches, memo-hot), with
  a bit-strict agreement audit that adds exact decimal midpoints, the
  forced-bailout worst case (the ``reader`` section of the result);
* the tier resolution profiles (what fraction of conversions the fast
  tiers settled);
* byte-equality audits of every engine output against the exact paths,
  for fixed format at several digit counts over uniform + Schryer.

Corpus: uniform random finite non-zero binary64 bit patterns (the
fast-path literature's standard workload) plus the Schryer set for the
agreement audits; the reader corpus is the shortest output of the same
populations plus deterministic human-style literals.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from repro.baselines.naive_fixed import exact_fixed_digits
from repro.core.api import format_shortest
from repro.core.fixed import fixed_digits as paper_fixed_digits
from repro.engine.engine import Engine
from repro.engine.reader import ReadEngine
from repro.floats.formats import BINARY16, BINARY32
from repro.floats.model import Flonum
from repro.reader.exact import read_decimal
from repro.workloads.corpus import (
    duplicated_random,
    uniform_random,
    zipf_random,
)
from repro.workloads.schryer import corpus as schryer_corpus

__all__ = ["engine_corpus", "reader_corpus", "run_engine_bench",
           "FIXED_BENCH_NDIGITS", "BULK_ZIPF_S", "BULK_DUP_FACTOR"]

#: Zipf skew of the bulk bench's head-heavy corpus (telemetry-shaped).
BULK_ZIPF_S = 1.3

#: Universe size divisor of the bulk corpora: ``n`` draws over
#: ``n // BULK_DUP_FACTOR`` distinct values (~25 repeats per value on
#: the flat draw, far more on the zipf head — telemetry columns repeat
#: a small working set heavily).
BULK_DUP_FACTOR = 25

#: Values per request in the warm-start bench's first-10k leg (the
#: serving shape: many small calls, not one giant batch — a giant
#: batch's intra-batch interning would hide the warm/cold difference).
WARM_REQUEST_SIZE = 100

#: Significant digits for the timed fixed-format comparison (%.6e-shaped
#: requests — the dominant real-world precision per the experimental
#: literature).
FIXED_BENCH_NDIGITS = 7

#: Digit counts the fixed agreement audit sweeps (short, typical, and
#: the 17-digit boundary where the 64-bit tier starts bailing).
FIXED_AUDIT_NDIGITS = (3, 7, 17)


def engine_corpus(n: int, seed: int = 2024) -> List[float]:
    """``n`` uniform random finite non-zero positive doubles."""
    return [v.to_float() for v in uniform_random(n, seed=seed)]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_engine_bench(n: int = 20000, seed: int = 2024,
                     repeats: int = 3) -> Dict:
    """Measure the engine against the exact-only path.

    Returns the dictionary ``tools/bench_engine.py`` serializes to
    ``BENCH_engine.json``.  ``mismatches`` must be 0 and
    ``fast_resolved`` at least 0.99 for the run to be meaningful; the
    caller decides what speedup to require.
    """
    values = engine_corpus(n, seed)
    audit = values + [v.to_float() for v in schryer_corpus(min(n, 2000))]

    # Exact-only reference (engine=None pins the pure algorithm).
    exact = lambda: [format_shortest(x, engine=None) for x in values]
    exact()  # warm the power caches
    t_exact = _best_of(exact, repeats)

    bench_engine = Engine()
    bench_engine.format_many(values[:64])  # build tables before timing

    def run_many():
        bench_engine.clear_cache()  # time conversions, not memo hits
        bench_engine.format_many(values)

    def run_singles():
        bench_engine.clear_cache()
        fmt_one = bench_engine.format
        for x in values:
            fmt_one(x)

    t_many = _best_of(run_many, repeats)
    t_single = _best_of(run_singles, repeats)

    # The repeated-values regime, measured honestly: a slice that fits
    # the memo, converted once, then timed on pure hits.
    hot = values[: min(len(values), bench_engine.cache_size // 2)]
    bench_engine.format_many(hot)
    t_hot = _best_of(lambda: bench_engine.format_many(hot), repeats)

    # Agreement audit on a fresh engine (empty memo) with fresh stats.
    audit_engine = Engine()
    expected = [format_shortest(x, engine=None) for x in audit]
    got = audit_engine.format_many(audit)
    mismatches = [
        {"value": repr(x), "exact": a, "engine": b}
        for x, a, b in zip(audit, expected, got) if a != b
    ]
    got_single = [audit_engine.format(x) for x in audit]
    mismatches += [
        {"value": repr(x), "exact": a, "engine": b, "api": "format"}
        for x, a, b in zip(audit, expected, got_single) if a != b
    ]

    stats = audit_engine.stats()
    resolved_fast = (stats["tier0_hits"] + stats["schubfach_hits"]
                     + stats["cache_hits"])
    return {
        "fixed": _run_fixed_bench(n, seed, repeats),
        "reader": _run_reader_bench(n, seed, repeats),
        "bulk": _run_bulk_bench(n, seed, repeats),
        "buffer": _run_buffer_bench(n, seed, repeats),
        "binary32": _run_binary32_bench(n, seed, repeats),
        "warm": _run_warm_bench(n, seed, repeats),
        "contenders": _run_contenders_bench(n, seed, repeats),
        "corpus": {"kind": "uniform-random-bits+schryer", "n": n,
                   "seed": seed, "audit_n": len(audit),
                   "mix": "uniform"},
        "us_per_value": {
            "exact_only": t_exact * 1e6 / n,
            "engine_format": t_single * 1e6 / n,
            "engine_format_many": t_many * 1e6 / n,
            "engine_memo_hot": t_hot * 1e6 / len(hot),
        },
        "speedup": {
            "format": t_exact / t_single,
            "format_many": t_exact / t_many,
            "memo_hot": (t_exact / n) / (t_hot / len(hot)),
        },
        "fast_resolved": resolved_fast / stats["conversions"],
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": stats,
    }


def _run_fixed_bench(n: int, seed: int, repeats: int) -> Dict:
    """The fixed-format (counted-digit) side of the engine bench."""
    flos = uniform_random(n, seed=seed)
    nd = FIXED_BENCH_NDIGITS

    exact = lambda: [exact_fixed_digits(v, ndigits=nd) for v in flos]
    exact()  # warm the power caches
    t_exact = _best_of(exact, repeats)

    bench_engine = Engine()
    for v in flos[:64]:  # build tables before timing
        bench_engine.counted_digits(v, ndigits=nd)

    def run_engine():
        bench_engine.clear_cache()  # time conversions, not memo hits
        counted = bench_engine.counted_digits
        for v in flos:
            counted(v, ndigits=nd)

    t_engine = _best_of(run_engine, repeats)

    # The repeated-values regime: a slice that fits the memo, timed hot.
    hot = flos[: min(len(flos), bench_engine.cache_size // 2)]
    counted = bench_engine.counted_digits
    for v in hot:
        counted(v, ndigits=nd)

    def run_hot():
        for v in hot:
            counted(v, ndigits=nd)

    t_hot = _best_of(run_hot, repeats)

    # Agreement audit on a fresh engine: counted (printf) and paper
    # (Section 4, hashes included) semantics at several digit counts,
    # uniform + Schryer.  Capped so the full run stays interactive; the
    # cap is recorded as audit_n.
    audit_vals = flos[: min(n, 4000)] + schryer_corpus(min(n, 2000))
    audit_engine = Engine()
    mismatches = []
    for audit_nd in FIXED_AUDIT_NDIGITS:
        for v in audit_vals:
            a = exact_fixed_digits(v, ndigits=audit_nd)
            b = audit_engine.counted_digits(v, ndigits=audit_nd)
            if (a.k, a.digits) != (b.k, b.digits):
                mismatches.append({"value": repr(v), "ndigits": audit_nd,
                                   "kind": "counted", "exact": str(a),
                                   "engine": str(b)})
            pa = paper_fixed_digits(v, ndigits=audit_nd)
            pb = audit_engine.fixed_digits(v, ndigits=audit_nd)
            if (pa.k, pa.digits, pa.hashes, pa.position) != (
                    pb.k, pb.digits, pb.hashes, pb.position):
                mismatches.append({"value": repr(v), "ndigits": audit_nd,
                                   "kind": "paper", "exact": str(pa),
                                   "engine": str(pb)})

    # Resolution profile of the *timed* workload (the bench engine) —
    # the audit engine's profile is reported separately: its sweep
    # deliberately includes paper-fixed requests deep in #-mark
    # territory, where bailing out is the correct behaviour.
    bench_stats = bench_engine.stats()
    resolved_fast = bench_stats["fixed_tier1_hits"] + bench_stats["cache_hits"]
    audit_stats = audit_engine.stats()
    audit_fast = audit_stats["fixed_tier1_hits"] + audit_stats["cache_hits"]
    return {
        "ndigits": nd,
        "audit_ndigits": list(FIXED_AUDIT_NDIGITS),
        "corpus": {"kind": "uniform-random-bits+schryer", "n": n,
                   "seed": seed, "audit_n": len(audit_vals),
                   "mix": "uniform"},
        "us_per_value": {
            "exact_only": t_exact * 1e6 / n,
            "engine_counted": t_engine * 1e6 / n,
            "engine_memo_hot": t_hot * 1e6 / len(hot),
        },
        "speedup": {
            "counted": t_exact / t_engine,
            "memo_hot": (t_exact / n) / (t_hot / len(hot)),
        },
        "fast_resolved": resolved_fast / bench_stats["conversions"],
        "audit_fast_resolved": audit_fast / audit_stats["conversions"],
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": audit_stats,
    }


# ----------------------------------------------------------------------
# The bulk serving layer
# ----------------------------------------------------------------------

def _run_bulk_bench(n: int, seed: int, repeats: int) -> Dict:
    """The bulk layer against scalar ``format_many``/``read_many``.

    Two duplicate-bearing corpora over the same ``n // BULK_DUP_FACTOR``
    distinct-value universe: a flat draw (every distinct value equally
    likely, ~``BULK_DUP_FACTOR`` repeats each) and a zipfian draw
    (``s = BULK_ZIPF_S``, telemetry-shaped head).  The dedup-interning
    win is the ratio against the scalar batch API on the *same* column;
    the zipf speedup should exceed the flat one — more of the column
    collapses into the interning dict.  ``bulk_nodedup`` isolates the
    ingestion/emit overhead with interning off.
    """
    from repro.engine.bulk import (format_column, ingest_bits, pack_bits,
                                   read_column)

    distinct = max(1, n // BULK_DUP_FACTOR)
    flat = [v.to_float() for v in duplicated_random(n, distinct, seed=seed)]
    zipf = [v.to_float() for v in zipf_random(n, distinct, s=BULK_ZIPF_S,
                                              seed=seed)]

    scalar_engine = Engine()
    bulk_engine = Engine()
    scalar_engine.format_many(flat[:64])  # build tables before timing
    bulk_engine.format_many(flat[:64])

    def scalar_run(xs):
        scalar_engine.clear_cache()  # time conversions, not memo hits
        scalar_engine.format_many(xs)

    def bulk_run(xs, dedup=True):
        bulk_engine.clear_cache()
        format_column(xs, engine=bulk_engine, dedup=dedup)

    t_scalar_flat = _best_of(lambda: scalar_run(flat), repeats)
    t_bulk_flat = _best_of(lambda: bulk_run(flat), repeats)
    t_nodedup_flat = _best_of(lambda: bulk_run(flat, dedup=False), repeats)
    t_scalar_zipf = _best_of(lambda: scalar_run(zipf), repeats)
    t_bulk_zipf = _best_of(lambda: bulk_run(zipf), repeats)

    # The read direction on the payload the format side just produced.
    payload = "\n".join(scalar_engine.format_many(flat)) + "\n"
    texts = payload.split("\n")[:-1]
    reader = ReadEngine()
    reader.read_many(texts[:64])

    def scalar_read():
        reader.clear_cache()
        reader.read_many(texts)

    def bulk_read():
        reader.clear_cache()
        read_column(texts, engine=reader)

    t_scalar_read = _best_of(scalar_read, repeats)
    t_bulk_read = _best_of(bulk_read, repeats)

    # Byte-identity audit: every bulk route against the scalar engine,
    # both corpora plus the special population, and the narrow formats
    # through the generic per-bit path.
    audit_engine = Engine()
    specials = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                5e-324]
    mismatches = []
    for mix, xs in (("flat", flat[: min(n, 4000)] + specials),
                    ("zipf", zipf[: min(n, 4000)] + specials)):
        want = audit_engine.format_many(xs)
        for dedup in (True, False):
            got = format_column(xs, engine=audit_engine, dedup=dedup)
            mismatches += [
                {"mix": mix, "dedup": dedup, "value": repr(x),
                 "scalar": a, "bulk": b}
                for x, a, b in zip(xs, want, got) if a != b]
    for fmt in (BINARY16, BINARY32):
        flos = uniform_random(min(n, 1500), fmt, seed=seed)
        bits = ingest_bits(flos, fmt)
        want = [audit_engine.format(v, fmt=fmt) for v in flos]
        got = format_column(pack_bits(bits, fmt), fmt,
                            engine=audit_engine)
        mismatches += [
            {"mix": fmt.name, "dedup": True, "value": repr(v),
             "scalar": a, "bulk": b}
            for v, a, b in zip(flos, want, got) if a != b]

    stats = bulk_engine.stats()
    return {
        "corpus": {"kind": "duplicated-random-bits", "n": n, "seed": seed,
                   "audit_n": 2 * (min(n, 4000) + len(specials)),
                   "distinct": distinct, "dup_factor": BULK_DUP_FACTOR,
                   "zipf_s": BULK_ZIPF_S,
                   "mix": {"flat": "uniform draw over the universe",
                           "zipf": f"zipf s={BULK_ZIPF_S} over the "
                                   "universe"}},
        "us_per_value": {
            "scalar_format_many_flat": t_scalar_flat * 1e6 / n,
            "bulk_flat": t_bulk_flat * 1e6 / n,
            "bulk_nodedup_flat": t_nodedup_flat * 1e6 / n,
            "scalar_format_many_zipf": t_scalar_zipf * 1e6 / n,
            "bulk_zipf": t_bulk_zipf * 1e6 / n,
            "scalar_read_many": t_scalar_read * 1e6 / n,
            "bulk_read": t_bulk_read * 1e6 / n,
        },
        "speedup": {
            "uniform": t_scalar_flat / t_bulk_flat,
            "zipf": t_scalar_zipf / t_bulk_zipf,
            "nodedup": t_scalar_flat / t_nodedup_flat,
            "read": t_scalar_read / t_bulk_read,
        },
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": stats,
    }


def _run_binary32_bench(n: int, seed: int, repeats: int) -> Dict:
    """The engine on binary32: the narrow-format acceptance numbers.

    Same shape as the top-level free-format section — exact-only
    baseline vs ``Engine.format`` — on uniform random finite non-zero
    binary32 values, with a byte-equality audit and the tier resolution
    profile.
    """
    flos = uniform_random(n, BINARY32, seed=seed)

    exact = lambda: [format_shortest(v, engine=None) for v in flos]
    exact()  # warm the power caches
    t_exact = _best_of(exact, repeats)

    bench_engine = Engine()
    for v in flos[:64]:  # build tables before timing
        bench_engine.format(v, fmt=BINARY32)

    def run_engine():
        bench_engine.clear_cache()
        fmt_one = bench_engine.format
        for v in flos:
            fmt_one(v, fmt=BINARY32)

    t_engine = _best_of(run_engine, repeats)

    audit_engine = Engine()
    expected = [format_shortest(v, engine=None) for v in flos]
    got = [audit_engine.format(v, fmt=BINARY32) for v in flos]
    mismatches = [
        {"value": repr(v), "exact": a, "engine": b}
        for v, a, b in zip(flos, expected, got) if a != b]

    stats = audit_engine.stats()
    resolved_fast = (stats["tier0_hits"] + stats["schubfach_hits"]
                     + stats["cache_hits"])
    return {
        "corpus": {"kind": "uniform-random-bits", "n": n, "seed": seed,
                   "audit_n": n, "mix": "uniform"},
        "us_per_value": {
            "exact_only": t_exact * 1e6 / n,
            "engine_format": t_engine * 1e6 / n,
        },
        "speedup": {"format": t_exact / t_engine},
        "fast_resolved": resolved_fast / stats["conversions"],
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": stats,
    }


# ----------------------------------------------------------------------
# The byte-plane pipeline
# ----------------------------------------------------------------------

def _run_buffer_bench(n: int, seed: int, repeats: int) -> Dict:
    """The byte-plane pipeline against the row-at-a-time bulk path.

    Same duplicate-bearing corpora as the bulk section (flat and zipf
    draws over ``n // BULK_DUP_FACTOR`` distinct values).  Contenders:

    * **parse** — :func:`~repro.engine.buffer.parse_buffer` of the
      delimited payload vs the row path (split to ``str`` rows,
      ``read_column``, per-row ``to_bits`` — what ``read_bulk`` did
      before the plane pipeline);
    * **format** — :func:`~repro.engine.buffer.format_buffer` of the
      packed column vs ``format_column`` + ``DelimitedWriter.extend``.

    Throughput is reported in MB/s over the *text plane* (the
    delimited payload each side consumes or produces — plane bytes /
    best wall time), the framing the Lemire number-parsing literature
    uses.  The parse side is where the strings used to be made, so
    that's where the plane pipeline wins big; the format side was
    already conversion-bound after dedup (see ``docs/benchmarks.md``),
    so the acceptance gate is on the parse leg and the combined
    parse+format pipeline.  The byte/bit-identity audit (flat, zipf,
    a specials plane with NaN/infinity payload texts and denormals,
    and the binary16/32 narrow formats) must always be clean.
    """
    from repro.engine.buffer import format_buffer, parse_buffer
    from repro.engine.bulk import (format_column, ingest_bits, pack_bits,
                                   read_column)
    from repro.serve.writer import DelimitedWriter

    distinct = max(1, n // BULK_DUP_FACTOR)
    flat = [v.to_float() for v in duplicated_random(n, distinct, seed=seed)]
    zipf = [v.to_float() for v in zipf_random(n, distinct, s=BULK_ZIPF_S,
                                              seed=seed)]

    row_eng = Engine()
    buf_eng = Engine()
    row_reader = ReadEngine()
    buf_reader = ReadEngine()
    row_eng.format_many(flat[:64])  # build tables before timing
    buf_eng.format_many(flat[:64])

    def row_format(packed):
        row_eng.clear_cache()  # time conversions, not memo hits
        texts = format_column(packed, engine=row_eng)
        return DelimitedWriter().extend(texts).getvalue()

    def buf_format(packed):
        buf_eng.clear_cache()
        return format_buffer(packed, engine=buf_eng)

    def row_parse(payload):
        row_reader.clear_cache()
        return [v.to_bits() for v in read_column(payload,
                                                 engine=row_reader)]

    def buf_parse(payload):
        buf_reader.clear_cache()
        return parse_buffer(payload, engine=buf_reader)

    out = {"us_per_value": {}, "mb_per_s": {}, "plane_bytes": {},
           "speedup": {}}
    pipe_row = pipe_buf = 0.0
    for mix, xs in (("flat", flat), ("zipf", zipf)):
        packed = pack_bits(ingest_bits(xs))
        payload = row_format(packed)
        t_row_fmt = _best_of(lambda: row_format(packed), repeats)
        t_buf_fmt = _best_of(lambda: buf_format(packed), repeats)
        t_row_parse = _best_of(lambda: row_parse(payload), repeats)
        t_buf_parse = _best_of(lambda: buf_parse(payload), repeats)
        plane = len(payload)
        out["plane_bytes"][f"parse_{mix}"] = plane
        out["plane_bytes"][f"format_{mix}"] = plane
        out["us_per_value"][f"row_format_{mix}"] = t_row_fmt * 1e6 / n
        out["us_per_value"][f"buffer_format_{mix}"] = t_buf_fmt * 1e6 / n
        out["us_per_value"][f"row_parse_{mix}"] = t_row_parse * 1e6 / n
        out["us_per_value"][f"buffer_parse_{mix}"] = t_buf_parse * 1e6 / n
        out["mb_per_s"][f"parse_{mix}"] = plane / t_buf_parse / 1e6
        out["mb_per_s"][f"format_{mix}"] = plane / t_buf_fmt / 1e6
        out["speedup"][f"parse_{mix}"] = t_row_parse / t_buf_parse
        out["speedup"][f"format_{mix}"] = t_row_fmt / t_buf_fmt
        out["speedup"][f"pipeline_{mix}"] = ((t_row_parse + t_row_fmt)
                                             / (t_buf_parse + t_buf_fmt))
        pipe_row += t_row_parse + t_row_fmt
        pipe_buf += t_buf_parse + t_buf_fmt

    # Byte/bit-identity audit: payloads and parsed bits must match the
    # row path exactly, on the timed corpora, a specials plane, and the
    # narrow formats.
    audit_eng = Engine()
    audit_reader = ReadEngine()
    mismatches = []
    specials = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                5e-324, -5e-324]
    special_rows = (b"nan\n-nan\ninf\n-inf\ninfinity\n+Infinity\n"
                    b"5e-324\n-4.9406564584124654e-324\n0\n-0.0\n")
    audit_n = 0
    for mix, xs in (("flat", flat[: min(n, 4000)] + specials),
                    ("zipf", zipf[: min(n, 4000)] + specials)):
        audit_n += len(xs)
        packed = pack_bits(ingest_bits(xs))
        texts = format_column(packed, engine=audit_eng)
        want_payload = DelimitedWriter().extend(texts).getvalue()
        got_payload = format_buffer(packed, engine=audit_eng)
        if got_payload != want_payload:
            mismatches.append({"mix": mix, "kind": "format-payload",
                               "want_bytes": len(want_payload),
                               "got_bytes": len(got_payload)})
        want_bits = [v.to_bits() for v in
                     read_column(want_payload, engine=audit_reader)]
        got_bits = parse_buffer(want_payload, engine=audit_reader)
        mismatches += [
            {"mix": mix, "kind": "parse-bits", "row": t,
             "want": f"{w:#x}", "got": f"{g:#x}"}
            for t, w, g in zip(texts, want_bits, got_bits) if w != g]
    got_special = parse_buffer(special_rows, engine=audit_reader)
    want_special = [v.to_bits() for v in
                    read_column(special_rows, engine=audit_reader)]
    audit_n += len(want_special)
    mismatches += [
        {"mix": "specials", "kind": "parse-bits", "row": i,
         "want": f"{w:#x}", "got": f"{g:#x}"}
        for i, (w, g) in enumerate(zip(want_special, got_special))
        if w != g]
    for fmt in (BINARY16, BINARY32):
        flos = uniform_random(min(n, 1500), fmt, seed=seed)
        audit_n += len(flos)
        packed = pack_bits(ingest_bits(flos, fmt), fmt)
        texts = format_column(packed, fmt, engine=audit_eng)
        want_payload = DelimitedWriter().extend(texts).getvalue()
        got_payload = format_buffer(packed, fmt, engine=audit_eng)
        if got_payload != want_payload:
            mismatches.append({"mix": fmt.name, "kind": "format-payload",
                               "want_bytes": len(want_payload),
                               "got_bytes": len(got_payload)})
        want_bits = [v.to_bits() for v in
                     read_column(want_payload, fmt, engine=audit_reader)]
        got_bits = parse_buffer(want_payload, fmt, engine=audit_reader)
        mismatches += [
            {"mix": fmt.name, "kind": "parse-bits", "row": t,
             "want": f"{w:#x}", "got": f"{g:#x}"}
            for t, w, g in zip(texts, want_bits, got_bits) if w != g]

    out["speedup"]["pipeline"] = pipe_row / pipe_buf
    return {
        "corpus": {"kind": "duplicated-random-bits", "n": n, "seed": seed,
                   "audit_n": audit_n, "distinct": distinct,
                   "dup_factor": BULK_DUP_FACTOR, "zipf_s": BULK_ZIPF_S,
                   "mix": {"flat": "uniform draw over the universe",
                           "zipf": f"zipf s={BULK_ZIPF_S} over the "
                                   "universe"}},
        "plane_bytes": out["plane_bytes"],
        "us_per_value": out["us_per_value"],
        "mb_per_s": out["mb_per_s"],
        "speedup": out["speedup"],
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": buf_reader.stats(),
    }


def _run_warm_bench(n: int, seed: int, repeats: int) -> Dict:
    """Warm start (snapshot restore) against cold start.

    Measures the two costs the snapshot fabric removes, on the
    telemetry-shaped zipf corpus:

    * **startup** — time from nothing (global table cache cleared) to
      the first conversion out of a fresh engine.  Cold pays the Grisu
      power-cache build; warm restores the serialized tables.
    * **first 10k requests** — the first ``min(n, 10000)`` values
      through the fresh engine in request-sized batches of
      ``WARM_REQUEST_SIZE`` (the serving shape: many small calls, not
      one giant batch).  Warm starts with the donor's memo and the hot
      dictionary already in place.

    The identity audit (warm output byte-equal to cold output over the
    whole corpus) is the gate that always applies; the timing ratios
    are advisory on ``--quick`` runs.
    """
    from repro.engine.snapshot import build_snapshot, hot_entries
    from repro.engine.tables import clear_tables
    from repro.fastpath.diyfp import clear_power_cache
    import collections as _collections

    distinct = max(1, n // BULK_DUP_FACTOR)
    flos = zipf_random(n, distinct, s=BULK_ZIPF_S, seed=seed, signed=True)
    values = [v.to_float() for v in flos]
    first = values[: min(n, 10000)]
    requests = [first[i:i + WARM_REQUEST_SIZE]
                for i in range(0, len(first), WARM_REQUEST_SIZE)]

    # Build the snapshot once, outside every timed region: a donor
    # engine plays the corpus, the head of the frequency distribution
    # becomes the hot dictionary (exactly tools/warm_snapshot.py).
    donor = Engine()
    donor.format_many(values)
    head = [v for v, _ in _collections.Counter(flos).most_common(512)]
    snap = build_snapshot(["binary64"], engine=donor,
                          hot=hot_entries(head, engine=donor))

    probe = values[0]

    def go_cold():
        # What a fresh process pays: no FormatTables, no cached powers
        # of ten (the table build's dominant cost).
        clear_tables()
        clear_power_cache()

    def cold_start():
        go_cold()
        Engine().format(probe)

    def warm_start():
        go_cold()
        Engine(snapshot=snap).format(probe)

    def cold_first():
        go_cold()
        eng = Engine()
        for req in requests:
            eng.format_many(req)

    def warm_first():
        go_cold()
        eng = Engine(snapshot=snap)
        for req in requests:
            eng.format_many(req)

    # Interleaved best-of: a machine slowdown mid-bench degrades both
    # contenders alike instead of skewing the reported ratios.
    t_cold_start = t_warm_start = float("inf")
    t_cold_first = t_warm_first = float("inf")
    for _ in range(repeats):
        t_cold_start = min(t_cold_start, _best_of(cold_start, 1))
        t_warm_start = min(t_warm_start, _best_of(warm_start, 1))
        t_cold_first = min(t_cold_first, _best_of(cold_first, 1))
        t_warm_first = min(t_warm_first, _best_of(warm_first, 1))

    # Identity audit: the warm engine's bytes over the whole corpus
    # (plus specials) against a cold engine's.
    clear_tables()
    cold_eng = Engine()
    warm_eng = Engine(snapshot=snap)
    specials = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                5e-324]
    audit = values + specials
    want = cold_eng.format_many(audit)
    got = warm_eng.format_many(audit)
    mismatches = [
        {"value": repr(x), "cold": a, "warm": b}
        for x, a, b in zip(audit, want, got) if a != b
    ]

    stats = warm_eng.stats()
    restored = warm_eng.snapshot_restored or {}
    return {
        "corpus": {"kind": "zipf-random-bits", "n": n, "seed": seed,
                   "audit_n": len(audit), "distinct": distinct,
                   "zipf_s": BULK_ZIPF_S,
                   "mix": f"zipf s={BULK_ZIPF_S} over the universe"},
        "snapshot": {
            "formats": restored.get("formats", 0),
            "write_memo": restored.get("write", 0),
            "read_memo": restored.get("read", 0),
            "hot": restored.get("hot", 0),
        },
        "startup_ms": {
            "cold": t_cold_start * 1e3,
            "warm": t_warm_start * 1e3,
        },
        "us_per_value": {
            "cold_first_10k": t_cold_first * 1e6 / len(first),
            "warm_first_10k": t_warm_first * 1e6 / len(first),
        },
        "speedup": {
            "startup": t_cold_start / t_warm_start,
            "first_10k": t_cold_first / t_warm_first,
        },
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": stats,
    }


# ----------------------------------------------------------------------
# The read direction
# ----------------------------------------------------------------------

def reader_corpus(n: int, seed: int = 2024) -> List[str]:
    """Mixed decimal literals: the round-trip workload.

    Shortest engine output of ``n`` uniform random doubles (the strings
    a round-tripping system actually re-reads) and of ``n // 2``
    Schryer hard cases, plus ``n // 4`` deterministic human-style
    literals (short decimals, integers, scientific notation), shuffled
    together.  The proportions are size-invariant so ``--quick`` and
    full runs measure the same mix.
    """
    eng = Engine()
    texts = eng.format_many(engine_corpus(n, seed))
    texts += [format_shortest(v) for v in schryer_corpus(n // 2)]
    rng = random.Random(seed ^ 0xBEEF)
    for _ in range(n // 4):
        kind = rng.randrange(3)
        if kind == 0:
            texts.append(f"{rng.randrange(10**6)}"
                         f".{rng.randrange(10**6):06d}")
        elif kind == 1:
            texts.append(f"{rng.randrange(1, 10**19)}"
                         f"e{rng.randrange(-300, 300)}")
        else:
            texts.append(str(rng.randrange(10**9)))
    rng.shuffle(texts)
    return texts


def _midpoint_literals(count: int, seed: int) -> List[str]:
    """Exact decimal midpoints between consecutive doubles.

    Every one is a genuine rounding tie: the interval tier must bail
    and the exact tier must apply ties-to-even — the reader audit's
    adversarial population.
    """
    out: List[str] = []
    for v in uniform_random(count, seed=seed ^ 1):
        d, e = (v.f << 1) + 1, v.e - 1  # midpoint = d * 2**e
        if e >= 0:
            out.append(str(d << e))
        else:
            out.append(f"{d * 5**-e}e{e}")
    return out


def _same_flonum(a: Flonum, b: Flonum) -> bool:
    """Bit-strict agreement (``Flonum.__eq__`` lets ``+0 == -0`` pass)."""
    if a.is_nan or b.is_nan:
        return a.is_nan and b.is_nan
    if not a.is_finite or not b.is_finite:
        return a.is_finite == b.is_finite and a.sign == b.sign
    return (a.sign, a.f, a.e) == (b.sign, b.f, b.e)


def _run_reader_bench(n: int, seed: int, repeats: int) -> Dict:
    """The read (decimal→binary) side of the engine bench."""
    texts = reader_corpus(n, seed)
    total = len(texts)

    exact = lambda: [read_decimal(t) for t in texts]
    exact()  # warm the power caches

    reader = ReadEngine()
    reader.read_many(texts[:64])  # build tables before timing

    def run_singles():
        reader.clear_cache()  # time conversions, not memo hits
        read_one = reader.read
        for t in texts:
            read_one(t)

    def run_many():
        reader.clear_cache()
        reader.read_many(texts)

    # Interleave the contenders within each repeat round so a machine
    # slowdown mid-bench degrades all of them alike instead of skewing
    # the reported ratios (best-of still taken per contender).
    t_exact = t_single = t_many = float("inf")
    for _ in range(repeats):
        t_exact = min(t_exact, _best_of(exact, 1))
        t_single = min(t_single, _best_of(run_singles, 1))
        t_many = min(t_many, _best_of(run_many, 1))

    # The repeated-literal regime: a slice that fits the memo, timed hot.
    hot = texts[: min(total, reader.cache_size // 2)]
    reader.read_many(hot)
    t_hot = _best_of(lambda: reader.read_many(hot), repeats)

    # Resolution profile of the timed workload: one cold pass, fresh
    # stats and memo.
    reader.reset_stats()
    reader.clear_cache()
    reader.read_many(texts)
    stats = reader.stats()
    resolved_fast = (stats["read_tier0_hits"] + stats["read_tier1_hits"]
                     + stats["read_specials"] + stats["read_cache_hits"])

    # Bit-strict agreement audit on a fresh engine; the corpus plus
    # exact decimal midpoints (forced tier bailouts, tie-to-even).
    audit_texts = texts + _midpoint_literals(min(n, 400), seed)
    audit_engine = ReadEngine()
    mismatches = []
    for t in audit_texts:
        a = read_decimal(t)
        b = audit_engine.read(t)
        if not _same_flonum(a, b):
            mismatches.append({"text": t, "exact": repr(a),
                               "engine": repr(b)})
    return {
        "corpus": {"kind": "engine-shortest+schryer+literals", "n": total,
                   "seed": seed, "audit_n": len(audit_texts),
                   "mix": "shortest+schryer+human"},
        "us_per_value": {
            "exact_only": t_exact * 1e6 / total,
            "engine_read": t_single * 1e6 / total,
            "engine_read_many": t_many * 1e6 / total,
            "engine_memo_hot": t_hot * 1e6 / len(hot),
        },
        "speedup": {
            "read": t_exact / t_single,
            "read_many": t_exact / t_many,
            "memo_hot": (t_exact / total) / (t_hot / len(hot)),
        },
        "fast_resolved": resolved_fast / stats["read_conversions"],
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": stats,
    }


def _contender_specials(n: int, seed: int) -> List[float]:
    """Denormals, power boundaries, decimal ties and torture values,
    tiled to ~``n`` — the corpus where fast tiers historically bail."""
    from repro.workloads.corpus import (
        decimal_ties,
        denormals,
        power_boundaries,
        torture_floats,
    )

    base = [v.to_float()
            for v in (denormals() + power_boundaries() + decimal_ties()
                      + torture_floats())]
    rng = random.Random(seed ^ 0xC0DE)
    out = list(base)
    while len(out) < n:
        out.append(rng.choice(base))
    return out[:n]


def _run_contenders_bench(n: int, seed: int, repeats: int) -> Dict:
    """The default write route (tier 0, then Schubfach) against the
    exact tier.

    Three corpora — ``flat`` (uniform random bits), ``zipf``
    (telemetry-shaped duplicates) and ``specials``
    (denormals/boundaries/ties/torture) — go through a memo-less
    default engine's ``format_many`` (the inlined route) and an
    exact-only one.  Every output is audited for byte identity, both
    are timed, and the route's write bail rate is recorded: Schubfach
    has no bail path, so the gates pin it at zero.
    """
    corpora = {
        "flat": engine_corpus(n, seed),
        "zipf": [v.to_float() for v in
                 zipf_random(n, max(n // BULK_DUP_FACTOR, 1),
                             BULK_ZIPF_S, seed=seed)],
        "specials": _contender_specials(min(n, 2000), seed),
    }
    exact_eng = Engine(tier_order=(), cache_size=0)
    mismatches: List[Dict] = []
    us: Dict[str, Dict[str, float]] = {}
    bail: Dict[str, float] = {}
    stats: Dict = {}
    audit_n = 0
    for mix, values in corpora.items():
        want = exact_eng.format_many(values)
        audit_n += len(values)
        eng = Engine(cache_size=0)
        got = eng.format_many(values)  # also builds the Schubfach table
        mismatches += [
            {"mix": mix, "value": repr(x), "exact": a, "engine": b}
            for x, a, b in zip(values, want, got) if a != b
        ]
        s = eng.stats()
        bail[mix] = s["bail_rate"]["write"]
        if mix == "flat":
            stats = s
        t_route = _best_of(lambda: eng.format_many(values), repeats)
        t_exact = _best_of(lambda: exact_eng.format_many(values), repeats)
        us[mix] = {"route": t_route * 1e6 / len(values),
                   "exact_only": t_exact * 1e6 / len(values)}
    return {
        "corpus": {"kind": "uniform+zipf+specials", "n": n, "seed": seed,
                   "audit_n": audit_n, "mix": "flat+zipf+specials"},
        "us_per_value": us,
        "bail_rate": bail,
        "mismatches": len(mismatches),
        "mismatch_samples": mismatches[:10],
        "stats": stats,
    }
