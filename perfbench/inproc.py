"""The in-process workloads: ``engine_strata`` and ``plane_zipf``.

Both run one thread in the benchmark's own process, in passes over a
fixed seeded list of calls.  One untimed pass warms the process first.
Each call is timed alone; its output is compared with the exact oracle
after the clock stops.

A calibration slice (:func:`perfbench.common.calibration_slice`) runs
after every :data:`CAL_EVERY` calls.  Throughputs divide the work done
by the measured call time rescaled to the reference host speed (the
reference slice time over the mean slice of the run); each call's
latency is rescaled by the two slices around it.

A traced run alternates untraced and traced passes (ABAB): the untraced
passes give the end-to-end figures, the traced ones the per-layer times,
and the pair the tracing overhead.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from perfbench import common, inputs
from perfbench.tracing import BUFFER_HOOKS, ENGINE_HOOKS, Tracer, percentile

_SETUP_ENGINE = """
from repro.engine import Engine
from repro.floats.formats import BINARY32
from repro.floats.model import Flonum
eng = Engine()
eng.format_many([0.1, 5e-324, 123.0, 2.0 ** 70])
eng.format_many([Flonum.from_bits(0x3DCCCCCD, BINARY32)], fmt=BINARY32)
eng.read_many(["0.1", "1.2345678901234567890123e-200", "17"])
print("ready", flush=True)
"""

_SETUP_PLANE = """
import struct
from repro.engine import Engine, format_buffer, parse_buffer
from repro.floats.formats import BINARY64
eng = Engine()
plane = format_buffer(struct.pack("=3d", 0.1, 5e-324, 1e300), BINARY64,
                      engine=eng)
parse_buffer(plane, BINARY64, engine=eng)
print("ready", flush=True)
"""

#: Set-up probes per run; the median is reported.
SETUP_REPEATS = 7

#: One call of a pass: ``(is_write, values, text bytes)``.
CallSpec = Tuple[bool, int, int]


class Pass:
    """Per-call times, calibration slices and the outcome of one pass."""

    def __init__(self):
        self.times: List[float] = []
        #: ``slices[w]`` ran right after calls ``w*CAL_EVERY`` ..
        #: ``(w+1)*CAL_EVERY - 1``; ``slices[-1]`` closes the pass.
        self.slices: List[float] = []
        #: Calls whose output differs from the oracle's.
        self.failed = 0
        self.stats: Dict[str, int] = {}

    def timed(self, dt: float) -> None:
        self.times.append(dt)
        if len(self.times) % CAL_EVERY == 0:
            self.slices.append(common.calibration_slice())

    def close(self) -> None:
        if len(self.times) % CAL_EVERY:
            self.slices.append(common.calibration_slice())

    def local_speeds(self) -> List[float]:
        """Per call: reference over the mean of the slices around it."""
        ref = common.CALIBRATION_REF_S
        out = []
        for c in range(len(self.times)):
            w = c // CAL_EVERY
            around = self.slices[max(0, w - 1):w + 1]
            out.append(ref * len(around) / sum(around))
        return out


#: Calls between calibration slices (about a tenth of the run's time).
CAL_EVERY = 4


def summarize(passes: List[Pass], specs: List[CallSpec]
              ) -> Dict[str, float]:
    """End-to-end figures at the reference host speed."""
    slices = [x for p in passes for x in p.slices]
    speed = common.CALIBRATION_REF_S * len(slices) / sum(slices)
    write_s = sum(t for p in passes for t, (w, _, _) in zip(p.times, specs)
                  if w) * speed
    read_s = sum(t for p in passes for t, (w, _, _) in zip(p.times, specs)
                 if not w) * speed
    n = len(passes)
    write_v = n * sum(v for w, v, _ in specs if w)
    read_v = n * sum(v for w, v, _ in specs if not w)
    write_b = n * sum(b for w, _, b in specs if w)
    read_b = n * sum(b for w, _, b in specs if not w)
    lat = sorted(t * k for p in passes
                 for t, k in zip(p.times, p.local_speeds()))
    return {
        "write_values_per_s": write_v / write_s,
        "read_values_per_s": read_v / read_s,
        "format_mb_per_s": write_b / write_s / 1e6,
        "parse_mb_per_s": read_b / read_s / 1e6,
        "capacity_rps": n * len(specs) / (write_s + read_s),
        "p50_ms": percentile(lat, 50) * 1e3,
        "p99_ms": percentile(lat, 99) * 1e3,
    }


# ----------------------------------------------------------------------
# engine_strata
# ----------------------------------------------------------------------

def _prepare_strata(seed: int):
    from repro.floats.formats import BINARY32
    from repro.floats.model import Flonum

    calls = []
    specs: List[CallSpec] = []
    for kind, items in inputs.strata_batches(seed):
        if kind == "w64":
            args = [inputs.bits_to_float(b) for b in items]
            want = common.oracle_texts64(items)
        elif kind == "w32":
            args = [Flonum.from_bits(b, BINARY32) for b in items]
            want = common.oracle_texts32(items)
        else:
            args = list(items)
            want = common.oracle_bits64(items)
        texts = items if kind == "r" else want
        calls.append((kind, args, want))
        specs.append((kind != "r", len(items),
                      sum(len(s) + 1 for s in texts)))
    return calls, specs


def _strata_pass(calls) -> Pass:
    from repro.engine import Engine
    from repro.floats.formats import BINARY32

    # A fresh engine per pass: every value in a pass is distinct, so
    # the memo never hits, whatever its size or policy.
    eng = Engine()
    p = Pass()
    clock = time.perf_counter
    for kind, args, want in calls:
        t0 = clock()
        if kind == "r":
            out = eng.read_many(args)
        elif kind == "w64":
            out = eng.format_many(args)
        else:
            out = eng.format_many(args, fmt=BINARY32)
        p.timed(clock() - t0)
        if kind == "r":
            out = [v.to_bits() for v in out]
        p.failed += out != want
    p.close()
    p.stats = eng.stats()
    return p


# ----------------------------------------------------------------------
# plane_zipf
# ----------------------------------------------------------------------

def _prepare_plane(seed: int):
    universe = inputs.zipf_universe(seed)
    texts = common.oracle_texts64(universe)
    text_of = {b: t.encode("ascii") + b"\n" for b, t in zip(universe, texts)}
    bits_of = dict(zip(universe, common.oracle_bits64(texts)))
    n = inputs.PLANE_ROWS
    rows = inputs.zipf_rows(seed, "plane", universe,
                            n * inputs.PLANE_CHUNKS)
    calls = []
    specs: List[CallSpec] = []
    for c in range(inputs.PLANE_CHUNKS):
        chunk = rows[c * n:(c + 1) * n]
        plane = b"".join(map(text_of.__getitem__, chunk))
        calls.append((inputs.pack64(chunk), plane,
                      [bits_of[b] for b in chunk]))
        specs += [(True, n, len(plane)), (False, n, len(plane))]
    return calls, specs


def _plane_pass_fn(engine):
    from repro.engine import buffer
    from repro.floats.formats import BINARY64

    def run(calls) -> Pass:
        p = Pass()
        clock = time.perf_counter
        before = engine.stats()
        for packed, want_plane, want_bits in calls:
            t0 = clock()
            plane = buffer.format_buffer(packed, BINARY64, engine=engine)
            p.timed(clock() - t0)
            t0 = clock()
            bits = buffer.parse_buffer(plane, BINARY64, engine=engine)
            p.timed(clock() - t0)
            p.failed += (plane != want_plane) + (bits != want_bits)
        p.close()
        after = engine.stats()
        p.stats = {k: after[k] - before.get(k, 0) for k in after
                   if isinstance(after[k], int)}
        return p

    return run


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of an in-process workload; returns the result dict."""
    setup_s = common.timed_setup(
        _SETUP_ENGINE if workload == "engine_strata" else _SETUP_PLANE,
        SETUP_REPEATS)
    if workload == "engine_strata":
        calls, specs = _prepare_strata(seed)
        one_pass: Callable = _strata_pass
    else:
        from repro.engine import Engine

        calls, specs = _prepare_plane(seed)
        # One long-lived engine, as in a server: its memo carries the
        # zipf head from pass to pass while the tail keeps missing.
        one_pass = _plane_pass_fn(Engine())

    warm = one_pass(calls)
    failed = warm.failed
    untraced: List[Pass] = []
    traced: List[Pass] = []
    tracer = Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(untraced) < 2 \
            or (trace and len(traced) < 2):
        if trace and len(traced) < len(untraced):
            tracer.install(ENGINE_HOOKS + BUFFER_HOOKS)
            try:
                p = one_pass(calls)
            finally:
                tracer.uninstall()
            traced.append(p)
        else:
            p = one_pass(calls)
            untraced.append(p)
        failed += p.failed
    runs = 1 + len(untraced) + len(traced)
    attempted = len(specs) * runs

    metrics = summarize(untraced, specs)
    metrics["setup_s"] = setup_s
    metrics["ok_share"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = common.peak_rss_mb()
    samples = dict.fromkeys(common.E2E_UNITS, len(untraced))
    calls_timed = len(specs) * len(untraced)
    samples.update(setup_s=SETUP_REPEATS, p50_ms=calls_timed,
                   p99_ms=calls_timed, ok_share=attempted, peak_rss_mb=1)
    counts: Dict[str, int] = {}
    for p in untraced + traced:
        common.add_counts(counts, p.stats)
    layer = common.zero_per_layer()
    layer.update(common.engine_counts(counts))
    if workload == "plane_zipf":
        rows = sum(v for w, v, _ in specs if w) * (runs - 1)
        layer["buffer.rows"] = rows
        layer["buffer.unique_share"] = counts.get("conversions", 0) / rows
    result = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "samples": samples, "counts": layer}
    if trace:
        busy = sum(sum(p.times) for p in traced)
        self_s = common.layer_times(tracer.totals, tracer.spans)
        layer.update(common.time_metrics(self_s))
        layer.update(common.layer_shares(self_s, busy))
        over = common.overhead(metrics, summarize(traced, specs))
        layer.update(over)
        layer["tables.build_s"] = common.measure_tables_build()
        common.print_breakdown(workload, layer, busy, over)
        tracer.dump(f"{common.out_dir()}/spans-{workload}-{seed}.jsonl",
                    {"workload": workload, "seed": seed})
        result["per_layer"] = layer
    return result
