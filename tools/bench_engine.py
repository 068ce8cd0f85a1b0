"""Regenerate BENCH_engine.json — the tiered-engine acceptance numbers.

Run:  PYTHONPATH=src python tools/bench_engine.py [--quick] [-n N] [-o PATH]

Measures the tiered engine (repro.engine) against the exact-only paths —
``format_shortest`` for free format, ``exact_fixed_digits`` for
fixed/counted format, ``read_decimal`` for the read side — on a
uniform-random binary64 corpus, audits byte/bit-equality, and writes the
result as JSON.  ``--reader`` runs only the read-side section; ``--bulk``
only the bulk serving-layer section; ``--buffer`` only the byte-plane
pipeline section (``parse_buffer``/``format_buffer`` MB/s); ``--warm``
only the warm-start snapshot section (cold vs warm startup and
first-10k latency).  Exits
non-zero if any
output mismatches the exact algorithms or the fast tiers resolve too few
conversions — correctness gates, not timing gates, so the smoke run
stays meaningful on loaded CI machines.

The output schema is pinned by :data:`BENCH_SCHEMA` and covered by
``tests/test_tools.py`` — extend the schema there when adding fields so
downstream consumers of ``BENCH_engine.json`` can rely on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine.bench import run_engine_bench  # noqa: E402

#: Required keys of BENCH_engine.json, nested dicts spelled out.  A
#: value of ``dict`` means "any mapping"; a tuple lists required
#: sub-keys.  Schema changes must update this and the stability test.
BENCH_SCHEMA = {
    "corpus": ("kind", "n", "seed", "audit_n", "mix"),
    "us_per_value": ("exact_only", "engine_format", "engine_format_many",
                     "engine_memo_hot"),
    "speedup": ("format", "format_many", "memo_hot"),
    "fast_resolved": float,
    "mismatches": int,
    "mismatch_samples": list,
    "stats": dict,
    "fixed": {
        "ndigits": int,
        "audit_ndigits": list,
        "corpus": ("kind", "n", "seed", "audit_n", "mix"),
        "us_per_value": ("exact_only", "engine_counted", "engine_memo_hot"),
        "speedup": ("counted", "memo_hot"),
        "fast_resolved": float,
        "audit_fast_resolved": float,
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
    "reader": {
        "corpus": ("kind", "n", "seed", "audit_n", "mix"),
        "us_per_value": ("exact_only", "engine_read", "engine_read_many",
                         "engine_memo_hot"),
        "speedup": ("read", "read_many", "memo_hot"),
        "fast_resolved": float,
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
    "bulk": {
        "corpus": ("kind", "n", "seed", "audit_n", "mix", "distinct",
                   "dup_factor", "zipf_s"),
        "us_per_value": ("scalar_format_many_flat", "bulk_flat",
                         "bulk_nodedup_flat", "scalar_format_many_zipf",
                         "bulk_zipf", "scalar_read_many", "bulk_read"),
        "speedup": ("uniform", "zipf", "nodedup", "read"),
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
    "buffer": {
        "corpus": ("kind", "n", "seed", "audit_n", "mix", "distinct",
                   "dup_factor", "zipf_s"),
        "plane_bytes": ("parse_flat", "parse_zipf", "format_flat",
                        "format_zipf"),
        "us_per_value": ("row_parse_flat", "buffer_parse_flat",
                         "row_format_flat", "buffer_format_flat",
                         "row_parse_zipf", "buffer_parse_zipf",
                         "row_format_zipf", "buffer_format_zipf"),
        "mb_per_s": ("parse_flat", "parse_zipf", "format_flat",
                     "format_zipf"),
        "speedup": ("parse_flat", "parse_zipf", "format_flat",
                    "format_zipf", "pipeline_flat", "pipeline_zipf",
                    "pipeline"),
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
    "binary32": {
        "corpus": ("kind", "n", "seed", "audit_n", "mix"),
        "us_per_value": ("exact_only", "engine_format"),
        "speedup": ("format",),
        "fast_resolved": float,
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
    "warm": {
        "corpus": ("kind", "n", "seed", "audit_n", "mix", "distinct",
                   "zipf_s"),
        "snapshot": ("formats", "write_memo", "read_memo", "hot"),
        "startup_ms": ("cold", "warm"),
        "us_per_value": ("cold_first_10k", "warm_first_10k"),
        "speedup": ("startup", "first_10k"),
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
    "contenders": {
        "corpus": ("kind", "n", "seed", "audit_n", "mix"),
        "us_per_value": ("flat", "zipf", "specials"),
        "bail_rate": ("flat", "zipf", "specials"),
        "mismatches": int,
        "mismatch_samples": list,
        "stats": dict,
    },
}


def validate_bench_schema(result: dict, schema: dict = None,
                          path: str = "") -> list:
    """Return a list of schema violations (empty when conformant)."""
    schema = BENCH_SCHEMA if schema is None else schema
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
                problems += validate_bench_schema(value, spec, where + ".")
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
        elif not isinstance(value, spec):
            problems.append(f"not a {spec.__name__}: {where}")
    return problems


def _check_reader_gates(reader: dict, quick: bool) -> int:
    """Acceptance gates for the read-side bench section.

    Correctness gates always apply; the 2x timing gate is skipped on
    ``--quick`` runs so loaded CI machines cannot flake the smoke lane.
    """
    status = 0
    if reader["mismatches"]:
        print("FAIL: reader engine output mismatches the exact reader",
              file=sys.stderr)
        status = 1
    if reader["fast_resolved"] < 0.95:
        print("FAIL: reader fast tiers resolved under 95% of conversions",
              file=sys.stderr)
        status = 1
    if not quick and reader["speedup"]["read_many"] < 2.0:
        print("FAIL: tiered reader (read_many) under 2x over the exact "
              "fallback", file=sys.stderr)
        status = 1
    return status


def _check_bulk_gates(bulk: dict, quick: bool) -> int:
    """Acceptance gates for the bulk serving-layer section.

    Byte identity always applies.  The timing gates — dedup interning
    at least 2x over the scalar batch API on the flat duplicate-bearing
    corpus, and a *larger* win on the zipfian head — are skipped on
    ``--quick`` so loaded CI machines cannot flake the smoke lane.
    """
    status = 0
    if bulk["mismatches"]:
        print("FAIL: bulk layer output mismatches the scalar engine",
              file=sys.stderr)
        status = 1
    if not quick and bulk["speedup"]["uniform"] < 2.0:
        print("FAIL: bulk dedup pipeline under 2x over scalar "
              "format_many on the flat duplicate corpus", file=sys.stderr)
        status = 1
    if not quick and bulk["speedup"]["zipf"] <= bulk["speedup"]["uniform"]:
        print("FAIL: zipfian corpus should out-accelerate the flat one "
              "(interning collapses more of the column)", file=sys.stderr)
        status = 1
    return status


def _check_buffer_gates(buf: dict, quick: bool) -> int:
    """Acceptance gates for the byte-plane pipeline section.

    Byte/bit identity against the row-at-a-time path always applies.
    The timing gates are on the parse leg (where the plane pipeline
    removes the per-row string materialization) and on the combined
    parse+format pipeline — the format side alone is conversion-bound
    after dedup, so it only has to not regress the pipeline.  Skipped
    on ``--quick`` so loaded CI machines cannot flake the smoke lane.
    """
    status = 0
    if buf["mismatches"]:
        print("FAIL: byte-plane pipeline output mismatches the "
              "row-at-a-time path", file=sys.stderr)
        status = 1
    if not quick and buf["speedup"]["parse_flat"] < 1.3:
        print("FAIL: parse_buffer under 1.3x over the row-at-a-time "
              "read path on the flat corpus", file=sys.stderr)
        status = 1
    if not quick and buf["speedup"]["pipeline_flat"] < 1.3:
        print("FAIL: buffer pipeline (parse+format) under 1.3x over "
              "the row-at-a-time path on the flat corpus",
              file=sys.stderr)
        status = 1
    if not quick and buf["speedup"]["pipeline_zipf"] < 1.3:
        print("FAIL: buffer pipeline (parse+format) under 1.3x over "
              "the row-at-a-time path on the zipf corpus",
              file=sys.stderr)
        status = 1
    return status


def _check_warm_gates(warm: dict, quick: bool) -> int:
    """Acceptance gates for the warm-start (snapshot) section.

    Identity always applies — a snapshot may only skip work, never
    change bytes — as does a clean restore (``snapshot_faults == 0``
    on the snapshot the bench itself just built).  The timing gate
    (warm first-10k strictly below cold) is skipped on ``--quick`` so
    loaded CI machines cannot flake the smoke lane.
    """
    status = 0
    if warm["mismatches"]:
        print("FAIL: warm-start engine output mismatches the cold "
              "engine", file=sys.stderr)
        status = 1
    if warm["stats"].get("snapshot_faults"):
        print("FAIL: the bench's own snapshot was rejected on restore",
              file=sys.stderr)
        status = 1
    if not quick and warm["speedup"]["first_10k"] <= 1.0:
        print("FAIL: warm first-10k latency not below cold "
              f"({warm['speedup']['first_10k']:.2f}x)", file=sys.stderr)
        status = 1
    return status


def _check_contenders_gates(c: dict, quick: bool) -> int:
    """Acceptance gates for the default-route section.

    Both gates are correctness claims, not timing claims, so they apply
    on ``--quick`` too: the default engine must be byte-identical to
    the exact tier, and it must never bail to it (write bail rate 0 on
    the flat, zipf and specials corpora — Schubfach has no bail path).
    """
    status = 0
    if c["mismatches"]:
        print("FAIL: the default route mismatches the exact tier",
              file=sys.stderr)
        status = 1
    for mix, rate in c["bail_rate"].items():
        if rate != 0.0:
            print(f"FAIL: the default route bailed on the {mix} corpus "
                  f"(bail rate {rate:.4f}, expected 0)", file=sys.stderr)
            status = 1
    return status


def _check_binary32_gates(b32: dict, quick: bool) -> int:
    """Acceptance gates for the binary32 (narrow-format) section."""
    status = 0
    if b32["mismatches"]:
        print("FAIL: binary32 engine output mismatches the exact "
              "algorithm", file=sys.stderr)
        status = 1
    if b32["fast_resolved"] < 0.98:
        print("FAIL: binary32 fast tiers resolved under 98% of "
              "conversions", file=sys.stderr)
        status = 1
    if not quick and b32["speedup"]["format"] < 1.4:
        print("FAIL: binary32 engine under 1.4x over the exact path",
              file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=20000,
                        help="corpus size (default 20000)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="small corpus, single repeat (CI smoke)")
    parser.add_argument("--reader", action="store_true",
                        help="run only the read-side (decimal→binary) "
                             "bench and print it to stdout; the default "
                             "output file is not touched")
    parser.add_argument("--bulk", action="store_true",
                        help="run only the bulk serving-layer bench and "
                             "print it to stdout; the default output "
                             "file is not touched")
    parser.add_argument("--buffer", action="store_true",
                        help="run only the byte-plane pipeline bench "
                             "(parse_buffer/format_buffer MB/s) and "
                             "print it to stdout; the default output "
                             "file is not touched")
    parser.add_argument("--warm", action="store_true",
                        help="run only the warm-start (snapshot) bench "
                             "— cold vs warm startup and first-10k "
                             "latency — and print it to stdout; the "
                             "default output file is not touched")
    parser.add_argument("--contenders", action="store_true",
                        help="run only the default-route bench — tier "
                             "0 then Schubfach against the exact tier on "
                             "the flat, zipf and specials corpora — and "
                             "print it to stdout; the default output "
                             "file is not touched")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default BENCH_engine.json next "
                             "to the repo root; '-' for stdout only)")
    args = parser.parse_args(argv)

    n = 2000 if args.quick else args.n
    repeats = 1 if args.quick else args.repeats

    if args.contenders:
        from repro.engine.bench import _run_contenders_bench

        c = _run_contenders_bench(n=n, seed=args.seed, repeats=repeats)
        print(json.dumps(c, indent=2, sort_keys=True))
        print(f"contenders: bail rates {c['bail_rate']}, "
              f"mismatches: {c['mismatches']}", file=sys.stderr)
        return _check_contenders_gates(c, quick=args.quick)

    if args.bulk:
        from repro.engine.bench import _run_bulk_bench

        bulk = _run_bulk_bench(n=n, seed=args.seed, repeats=repeats)
        print(json.dumps(bulk, indent=2, sort_keys=True))
        print(f"bulk speedup (dedup vs format_many): "
              f"flat {bulk['speedup']['uniform']:.2f}x, "
              f"zipf {bulk['speedup']['zipf']:.2f}x, "
              f"mismatches: {bulk['mismatches']}", file=sys.stderr)
        return _check_bulk_gates(bulk, quick=args.quick)

    if args.buffer:
        from repro.engine.bench import _run_buffer_bench

        buf = _run_buffer_bench(n=n, seed=args.seed, repeats=repeats)
        print(json.dumps(buf, indent=2, sort_keys=True))
        print(f"buffer speedup (vs row-at-a-time): "
              f"parse flat {buf['speedup']['parse_flat']:.2f}x, "
              f"pipeline flat {buf['speedup']['pipeline_flat']:.2f}x / "
              f"zipf {buf['speedup']['pipeline_zipf']:.2f}x, "
              f"parse {buf['mb_per_s']['parse_flat']:.0f} MB/s, "
              f"mismatches: {buf['mismatches']}", file=sys.stderr)
        return _check_buffer_gates(buf, quick=args.quick)

    if args.warm:
        from repro.engine.bench import _run_warm_bench

        warm = _run_warm_bench(n=n, seed=args.seed, repeats=repeats)
        print(json.dumps(warm, indent=2, sort_keys=True))
        print(f"warm-start: startup "
              f"{warm['speedup']['startup']:.2f}x, "
              f"first-10k {warm['speedup']['first_10k']:.2f}x "
              f"({warm['us_per_value']['warm_first_10k']:.2f} vs "
              f"{warm['us_per_value']['cold_first_10k']:.2f} us/value), "
              f"mismatches: {warm['mismatches']}", file=sys.stderr)
        return _check_warm_gates(warm, quick=args.quick)

    if args.reader:
        from repro.engine.bench import _run_reader_bench

        reader = _run_reader_bench(n=n, seed=args.seed, repeats=repeats)
        print(json.dumps(reader, indent=2, sort_keys=True))
        print(f"reader speedup (read_many): "
              f"{reader['speedup']['read_many']:.2f}x, "
              f"fast-resolved: {reader['fast_resolved']:.4f}, "
              f"mismatches: {reader['mismatches']}", file=sys.stderr)
        return _check_reader_gates(reader, quick=args.quick)

    result = run_engine_bench(n=n, seed=args.seed, repeats=repeats)
    result["generated_by"] = "tools/bench_engine.py"
    result["quick"] = args.quick
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")

    problems = validate_bench_schema(result)
    if problems:  # pragma: no cover - guarded by the schema test
        for p in problems:
            print(f"SCHEMA: {p}", file=sys.stderr)
        return 1

    text = json.dumps(result, indent=2, sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        path = args.output or os.path.join(
            os.path.dirname(__file__), "..", "BENCH_engine.json")
        with open(path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {os.path.abspath(path)}")
        print(f"speedup (format_many): "
              f"{result['speedup']['format_many']:.2f}x, "
              f"fast-resolved: {result['fast_resolved']:.4f}, "
              f"mismatches: {result['mismatches']}")
        fixed = result["fixed"]
        print(f"fixed speedup (counted, ndigits={fixed['ndigits']}): "
              f"{fixed['speedup']['counted']:.2f}x, "
              f"fast-resolved: {fixed['fast_resolved']:.4f}, "
              f"mismatches: {fixed['mismatches']}")
        reader = result["reader"]
        print(f"reader speedup (read_many): "
              f"{reader['speedup']['read_many']:.2f}x, "
              f"fast-resolved: {reader['fast_resolved']:.4f}, "
              f"mismatches: {reader['mismatches']}")
        bulk = result["bulk"]
        print(f"bulk speedup (dedup vs format_many): "
              f"flat {bulk['speedup']['uniform']:.2f}x, "
              f"zipf {bulk['speedup']['zipf']:.2f}x, "
              f"mismatches: {bulk['mismatches']}")
        buf = result["buffer"]
        print(f"buffer speedup (vs row-at-a-time): "
              f"parse flat {buf['speedup']['parse_flat']:.2f}x, "
              f"pipeline flat {buf['speedup']['pipeline_flat']:.2f}x / "
              f"zipf {buf['speedup']['pipeline_zipf']:.2f}x, "
              f"parse {buf['mb_per_s']['parse_flat']:.0f} MB/s, "
              f"mismatches: {buf['mismatches']}")
        b32 = result["binary32"]
        print(f"binary32 speedup (format): "
              f"{b32['speedup']['format']:.2f}x, "
              f"fast-resolved: {b32['fast_resolved']:.4f}, "
              f"mismatches: {b32['mismatches']}")
        warm = result["warm"]
        print(f"warm-start: startup {warm['speedup']['startup']:.2f}x, "
              f"first-10k {warm['speedup']['first_10k']:.2f}x, "
              f"mismatches: {warm['mismatches']}")
        cont = result["contenders"]
        print(f"contenders: bail rates {cont['bail_rate']}, "
              f"mismatches: {cont['mismatches']}")

    if result["mismatches"]:
        print("FAIL: engine output mismatches the exact algorithm",
              file=sys.stderr)
        return 1
    if result["fast_resolved"] < 0.99:
        print("FAIL: fast tiers resolved under 99% of conversions",
              file=sys.stderr)
        return 1
    if result["fixed"]["mismatches"]:
        print("FAIL: fixed-format engine output mismatches the exact "
              "algorithms", file=sys.stderr)
        return 1
    if result["fixed"]["fast_resolved"] < 0.90:
        print("FAIL: fixed fast tier resolved under 90% of conversions",
              file=sys.stderr)
        return 1
    return (_check_reader_gates(result["reader"], quick=args.quick)
            or _check_bulk_gates(result["bulk"], quick=args.quick)
            or _check_buffer_gates(result["buffer"], quick=args.quick)
            or _check_binary32_gates(result["binary32"], quick=args.quick)
            or _check_warm_gates(result["warm"], quick=args.quick)
            or _check_contenders_gates(result["contenders"],
                                       quick=args.quick))


if __name__ == "__main__":
    raise SystemExit(main())
