"""The serving workload: ``serve_open``.

The daemon runs in its own process (:mod:`perfbench.launcher`).  This
process is the load generator: one asyncio loop, two connections and an
open-loop Poisson schedule drawn up front.  Request frames are encoded
once per template with the public :mod:`repro.serve.protocol`, so the
generator spends little CPU per request.  Each latency is timed from the
request's scheduled send time, and every response is compared byte for
byte with the exact oracle.

A run is: set-up (spawn the daemon until the first format and the first
read are answered, :data:`SETUP_REPEATS` times), an untimed low-rate
warm-up followed by a short closed-loop one, windows at the nominal
rate, then closed-loop saturation windows that measure the capacity.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from perfbench import common, inputs
from perfbench.tracing import Tracer

#: The nominal offered rate (requests/s) behind ``p50_ms``/``p99_ms``.
NOMINAL_RPS = 500.0
#: Capacity: requests kept outstanding on each connection, in windows
#: whose median throughput is reported.  The p99-limit crossing of an
#: open-loop rate sweep swung by a third between consecutive sweeps of
#: one daemon on a shared host; the saturated throughput does not.
SATURATION_DEPTH = 32
SATURATION_WINDOWS = 8
#: Share of ``--seconds`` spent at the nominal rate, in windows of
#: ``NOMINAL_WINDOW_S`` whose median p50/p99 is reported.  A window's
#: p99 is set by the one or two stalls of 10-30 ms that fall in it, so
#: it swings by half from window to window; the median over many short
#: windows does not.
NOMINAL_SHARE = 0.7
NOMINAL_WINDOW_S = 1.0
#: A window during which the hypervisor stole more than this share of
#: the host's CPU time measured the neighbours more than the daemon:
#: each 10 ms tick of steal stalls the requests in flight, and stretches
#: of 10-25 % steal lasting tens of seconds raised a run's p99 by half
#: or more.  The generator runs windows until the wanted number were
#: stolen from less than this with the generator on time, or until it
#: ran ``EXTRA_SHARE`` more windows than wanted, and keeps the wanted
#: number on time and stolen from least.
STEAL_LIMIT = 0.03
EXTRA_SHARE = 0.5
#: A nominal window whose generator ran later than this at p99
#: measured the generator, not the daemon: it is set aside like a
#: stolen one, and a run left with one among those it keeps is invalid
#: (no result).
LATE_LIMIT_MS = 25.0
#: Calibration slices (:func:`perfbench.common.calibration_slice`) in
#: every window, timed in the generator thread's CPU time, so a slice
#: that waits for a core the daemon holds still times the core's speed,
#: not the wait.  The open loop runs at most one slice every
#: ``SLICE_EVERY_S``, and only where the next send is more than
#: ``SLICE_GAP_S`` away; the closed loop one every
#: ``SATURATED_SLICE_EVERY_S``.  Each latency is rescaled by the
#: reference slice time over the mean of the slices from
#: ``SLICE_AROUND_S`` before its send to ``SLICE_AROUND_S`` after its
#: answer, as the in-process workloads rescale each call by the slices
#: around it; a closed-loop window's throughput by the window's mean
#: slice.  The vCPUs change speed within a fraction of a second: over
#: eight runs, rescaling each latency by its own slices rather than
#: the window's took the spread of p99 from 0.12 to 0.07.
SLICE_EVERY_S = 0.01
SLICE_GAP_S = 0.0015
SATURATED_SLICE_EVERY_S = 0.02
SLICE_AROUND_S = 0.02
#: Untimed warm-up: rate and seconds, then ``WARM_S`` of the closed
#: loop, which sends every template several times.  Without it the
#: first nominal window, the first to meet most templates, ran at ten
#: times the p50 of the others.
WARM_RPS = 100.0
WARM_S = 1.0
#: Daemon spawns per run for ``setup_s`` (the median is reported; the
#: last one serves the run).
SETUP_REPEATS = 5
#: Seconds to wait for outstanding responses after a phase's last send.
DRAIN_S = 30.0


# ----------------------------------------------------------------------
# Templates and their oracle
# ----------------------------------------------------------------------

def build_templates(seed: int) -> List[Tuple[bytes, bytes, int]]:
    """``(request frame, expected response payload, plane bytes)`` per
    template, alternating format and read."""
    from repro.serve import protocol

    universe = inputs.zipf_universe(seed)
    texts = common.oracle_texts64(universe)
    text_of = {b: t.encode("ascii") + b"\n" for b, t in zip(universe, texts)}
    bits_of = dict(zip(universe, common.oracle_bits64(texts)))
    rows = inputs.zipf_rows(seed, "serve", universe,
                            inputs.REQUEST_ROWS * inputs.REQUEST_TEMPLATES)
    out = []
    n = inputs.REQUEST_ROWS
    for t in range(inputs.REQUEST_TEMPLATES):
        chunk = rows[t * n:(t + 1) * n]
        plane = b"".join(map(text_of.__getitem__, chunk))
        if t % 2 == 0:
            frame = protocol.encode_request(protocol.OP_FORMAT,
                                            inputs.pack64(chunk))
            out.append((frame, plane, len(plane)))
        else:
            frame = protocol.encode_request(protocol.OP_READ, plane)
            out.append((frame, inputs.pack64([bits_of[b] for b in chunk]),
                        len(plane)))
    return out


# ----------------------------------------------------------------------
# The connection and the open-loop driver
# ----------------------------------------------------------------------

class Phase:
    """Outcome of one stretch of traffic at one offered rate."""

    def __init__(self, rate: float, seconds: float):
        self.rate = rate
        self.seconds = seconds
        self.sent = 0
        self.latencies: List[float] = []
        #: When each answer arrived (event-loop clock).
        self.ends: List[float] = []
        self.late: List[float] = []
        self.errors = 0
        self.mismatches = 0
        self.timeouts = 0
        self.format_ok = 0
        self.read_ok = 0
        self.format_bytes = 0
        self.read_bytes = 0
        #: Share of the host's CPU time stolen during the phase.
        self.steal = 0.0
        #: When set, every request becomes a ``client.request`` span.
        self.tracer = None
        #: Closed-loop windows: responses per second while saturated.
        self.throughput = 0.0
        #: Calibration slices the generator ran during the window, and
        #: when each ended (event-loop clock).
        self.slices: List[float] = []
        self.slice_ends: List[float] = []

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches + self.timeouts

    def p(self, q: float) -> float:
        return common.percentile_ms(self.latencies, q)

    def late_p99_ms(self) -> float:
        return common.percentile_ms(self.late, 99)

    def speed(self, default: float = 1.0) -> float:
        """Host speed over the window relative to the reference: the
        reference slice time over the window's mean slice."""
        if not self.slices:
            return default
        return common.CALIBRATION_REF_S * len(self.slices) / sum(self.slices)

    def slice(self) -> None:
        self.slices.append(common.calibration_slice(time.thread_time))
        # The event loop's clock is time.monotonic().
        self.slice_ends.append(time.monotonic())

    def rescaled_p(self, q: float, default: float) -> float:
        """Percentile ``q`` of the latencies, in ms, each rescaled to
        the reference host speed by the slices around it
        (:data:`SLICE_AROUND_S`); by the window's mean slice, or
        ``default`` without one, where no slice ran near it."""
        window = self.speed(default)
        out = []
        for lat, end in zip(self.latencies, self.ends):
            i = bisect.bisect_left(self.slice_ends,
                                   end - lat - SLICE_AROUND_S)
            j = bisect.bisect_right(self.slice_ends, end + SLICE_AROUND_S)
            near = self.slices[i:j]
            out.append(lat * (common.CALIBRATION_REF_S * len(near)
                              / sum(near) if near else window))
        return common.percentile_ms(out, q)

    def goodput(self) -> Dict[str, float]:
        """Completed work per second at the offered rate (open loop, so
        it falls below the schedule only when requests fail), and the
        latencies."""
        scale = self.rate / self.sent if self.sent else 0.0
        return {"write_values_per_s":
                self.format_ok * inputs.REQUEST_ROWS * scale,
                "read_values_per_s":
                self.read_ok * inputs.REQUEST_ROWS * scale,
                "format_mb_per_s": self.format_bytes * scale / 1e6,
                "parse_mb_per_s": self.read_bytes * scale / 1e6,
                "capacity_rps": (self.format_ok + self.read_ok) * scale,
                "p50_ms": self.p(50), "p99_ms": self.p(99)}


class _Conn(asyncio.Protocol):
    """One pipelined connection; responses arrive in request order."""

    def __init__(self, loop):
        self.loop = loop
        self.buf = bytearray()
        self.fifo = collections.deque()
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport

    def send(self, frame: bytes, due: float, want: bytes, plane_len: int,
             is_read: bool, phase: Phase, rid: int = 0) -> None:
        self.fifo.append((due, want, plane_len, is_read, phase, rid))
        self.transport.write(frame)

    def data_received(self, data: bytes) -> None:
        from repro.serve import protocol

        self.buf += data
        while True:
            got = protocol.frame_and_body(self.buf)
            if got is None:
                return
            body, used = got
            del self.buf[:used]
            now = self.loop.time()
            due, want, plane_len, is_read, phase, rid = self.fifo.popleft()
            phase.latencies.append(now - due)
            phase.ends.append(now)
            if phase.tracer is not None:
                phase.tracer.record("client.request", due, now, rid)
            status, payload = protocol.parse_response(body)
            if status != protocol.STATUS_OK:
                phase.errors += 1
            elif payload != want:
                phase.mismatches += 1
            elif is_read:
                phase.read_ok += 1
                phase.read_bytes += plane_len
            else:
                phase.format_ok += 1
                phase.format_bytes += plane_len


async def _connect(port: int, n: int = 2) -> List[_Conn]:
    import socket

    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(n):
        transport, conn = await loop.create_connection(
            lambda: _Conn(loop), "127.0.0.1", port)
        sock = transport.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conns.append(conn)
    return conns


async def drive(conns: List[_Conn], templates, phase: Phase, rng,
                start: int) -> int:
    """Send ``phase.rate`` Poisson traffic for ``phase.seconds`` (the
    schedule is drawn before the first send), then wait for every
    response.  Returns the next template index."""
    loop = asyncio.get_running_loop()
    schedule = []
    t = rng.expovariate(phase.rate)
    while t < phase.seconds:
        schedule.append(t)
        t += rng.expovariate(phase.rate)
    t0 = loop.time() + 0.01
    n = len(templates)
    next_slice = t0
    for i, at in enumerate(schedule):
        due = t0 + at
        now = loop.time()
        if now >= next_slice and due - now > SLICE_GAP_S:
            phase.slice()
            next_slice = now + SLICE_EVERY_S
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late.append(max(0.0, loop.time() - due))
        k = (start + i) % n
        frame, want, plane_len = templates[k]
        conns[i % len(conns)].send(frame, due, want, plane_len, k % 2 == 1,
                                   phase, start + i)
    phase.sent = len(schedule)
    await _drain(conns, phase)
    return start + len(schedule)


async def saturate(conns: List[_Conn], templates, phase: Phase, rng,
                   start: int) -> int:
    """Closed loop for ``phase.seconds``: keep
    :data:`SATURATION_DEPTH` requests outstanding on every connection,
    then wait for every response.  ``phase.throughput`` is the
    responses that arrived within the window per second.  ``rng`` is
    unused: the closed loop has no schedule."""
    loop = asyncio.get_running_loop()
    n = len(templates)
    i = 0
    t0 = loop.time()
    end = t0 + phase.seconds
    done0 = len(phase.latencies)
    next_slice = t0
    while loop.time() < end:
        for c in conns:
            while len(c.fifo) < SATURATION_DEPTH:
                k = (start + i) % n
                frame, want, plane_len = templates[k]
                c.send(frame, loop.time(), want, plane_len, k % 2 == 1,
                       phase, start + i)
                i += 1
        if loop.time() >= next_slice:
            phase.slice()
            next_slice = loop.time() + SATURATED_SLICE_EVERY_S
        await asyncio.sleep(0.001)
    phase.throughput = (len(phase.latencies) - done0) / (loop.time() - t0)
    phase.sent = i
    await _drain(conns, phase)
    return start + i


async def _drain(conns: List[_Conn], phase: Phase) -> None:
    """Wait (up to :data:`DRAIN_S`) for every outstanding response; what
    is still missing then counts as timed out."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + DRAIN_S
    while any(c.fifo for c in conns) and loop.time() < deadline:
        await asyncio.sleep(0.002)
    phase.timeouts = sum(len(c.fifo) for c in conns)


def _steal(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of the host's CPU ticks stolen between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# The daemon process
# ----------------------------------------------------------------------

class Daemon:
    """A launched daemon process and its control channel."""

    def __init__(self, trace: bool, spans_path: str = os.devnull):
        args = [sys.executable, "-m", "perfbench.launcher",
                "--spans", spans_path] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=common.child_env(),
                                     cwd=common.repo_root())
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        """Drain the daemon and wait for its process to end."""
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _first_answers(port: int, templates) -> None:
    """Send one format and one read request and check both answers."""
    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        for frame, want, _plane_len in templates[:2]:
            client.send_raw(frame)
            body = client.recv_body()
            if body is None or body[2:] != want:
                raise RuntimeError("set-up request answered wrongly")


def launch(templates, trace: bool, repeats: int, spans_path: str
           ) -> Tuple[Daemon, float]:
    """Spawn the daemon ``repeats`` times, timing each from spawn until
    its first format and first read are answered (which also forks the
    lazy pool); keep the last one.  Returns it and the median time,
    rescaled by :func:`perfbench.common.setup_time` with the speeds
    measured before the spawn and after the first answers."""
    times = []
    daemon = None
    for i in range(repeats):
        before = common.host_speed()
        t0 = time.perf_counter()
        daemon = Daemon(trace, spans_path)
        try:
            _first_answers(daemon.port, templates)
        except BaseException:
            daemon.close()
            raise
        took = time.perf_counter() - t0
        times.append(common.setup_time(took, before, common.host_speed()))
        if i < repeats - 1:
            daemon.close()
    return daemon, statistics.median(times)


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    templates = build_templates(seed)
    spans = f"{common.out_dir()}/spans-{workload}-{seed}-daemon.jsonl"
    daemon, setup_s = launch(templates, trace,
                             1 if trace else SETUP_REPEATS, spans)
    try:
        return asyncio.run(_session(daemon, templates, workload, seed,
                                    seconds, trace, setup_s))
    finally:
        daemon.close()


async def _session(daemon: Daemon, templates, workload: str, seed: int,
                   seconds: float, trace: bool, setup_s: float) -> dict:
    rng = inputs.rng_for(seed, "arrivals")
    conns = await _connect(daemon.port)
    try:
        warm = [Phase(WARM_RPS, WARM_S), Phase(0.0, WARM_S)]
        nxt = await drive(conns, templates, warm[0], rng, 2)
        nxt = await saturate(conns, templates, warm[1], rng, nxt)
        nominal: List[Phase] = []
        saturated: List[Phase] = []
        unused: List[Phase] = []

        async def window(rate: float, length: float,
                         tracer: Tracer = None) -> Phase:
            """One window: open loop at ``rate``, or the closed loop
            when ``rate`` is 0."""
            nonlocal nxt
            p = Phase(rate, length)
            p.tracer = tracer
            ticks = common.host_ticks()
            nxt = await (drive if rate else saturate)(conns, templates, p,
                                                      rng, nxt)
            p.steal = _steal(ticks, common.host_ticks())
            return p

        async def cleanest(rate: float, length: float,
                           want: int) -> List[Phase]:
            """Windows until ``want`` of them were stolen from no more
            than :data:`STEAL_LIMIT` with the generator on time, or
            :data:`EXTRA_SHARE` more than ``want`` ran; returns the
            ``want`` on time and least stolen from, in the order they
            ran, and sets the others aside."""
            def late(p: Phase) -> bool:
                return p.late_p99_ms() > LATE_LIMIT_MS

            ran: List[Phase] = []
            while (sum(p.steal <= STEAL_LIMIT and not late(p)
                       for p in ran) < want
                   and len(ran) < int(want * (1 + EXTRA_SHARE))):
                ran.append(await window(rate, length))
            kept = sorted(ran, key=lambda p: (late(p), p.steal))[:want]
            unused.extend(p for p in ran if p not in kept)
            return [p for p in ran if p in kept]

        if trace:
            # Untraced and traced windows alternate (ABAB, so drift of
            # the host cancels): the traced ones give the per-layer
            # times, the two halves the tracing overhead.
            client = Tracer()
            for on in (0, 1, 0, 1):
                daemon.command(f"trace {on}")
                nominal.append(await window(NOMINAL_RPS, seconds / 4,
                                            client if on else None))
            client.dump(f"{common.out_dir()}/spans-{workload}-{seed}"
                        "-client.jsonl", {"workload": workload, "seed": seed})
        else:
            nominal = await cleanest(
                NOMINAL_RPS, NOMINAL_WINDOW_S,
                max(1, round(seconds * NOMINAL_SHARE / NOMINAL_WINDOW_S)))
            saturated = await cleanest(
                0.0, seconds * (1 - NOMINAL_SHARE) / SATURATION_WINDOWS,
                SATURATION_WINDOWS)
        report = daemon.command("stats")
    finally:
        for c in conns:
            c.transport.close()
    return _result(workload, trace, setup_s, warm, nominal, saturated,
                   unused, report,
                   sum(t[2] for t in templates) / len(templates))


def _result(workload: str, trace: bool, setup_s: float, warm: List[Phase],
            nominal: List[Phase], saturated: List[Phase],
            unused: List[Phase], report: dict, mean_plane: float) -> dict:
    all_phases = warm + nominal + saturated + unused
    attempted = sum(p.sent for p in all_phases)
    failed = sum(p.failed for p in all_phases)
    mismatches = sum(p.mismatches for p in all_phases)
    for p in all_phases:
        flag = " GENERATOR-LATE" if p.late_p99_ms() > LATE_LIMIT_MS else ""
        kept = " (unused)" if p in unused else ""
        load = (f"rate {p.rate:5.0f}/s" if p.rate
                else f"closed loop, {p.throughput:5.0f}/s")
        print(f"# {load}: sent {p.sent:6d} p50 "
              f"{p.p(50):8.2f} ms p99 {p.p(99):8.2f} ms "
              f"steal {p.steal:5.1%} late p99 "
              f"{p.late_p99_ms():6.2f} ms speed {p.speed(0.0):5.3f} "
              f"failed {p.failed}{flag}{kept}")
    late = max(p.late_p99_ms() for p in nominal)
    if not trace and late > LATE_LIMIT_MS:
        raise SystemExit(f"invalid run: the generator ran {late:.1f} ms "
                         "late at p99 on the nominal rate; it measured "
                         "itself, not the daemon")
    measured = nominal[0::2] if trace else nominal
    run = Phase(0.0, 0.0)
    run.slices = [x for p in nominal + saturated for x in p.slices]
    speed = run.speed()
    print(f"# host speed {speed:.3f} of the reference "
          f"({len(run.slices)} calibration slices)")
    if trace:
        cap = statistics.median(p.goodput()["capacity_rps"]
                                for p in measured)
    else:
        cap = statistics.median(p.throughput / p.speed(speed)
                                for p in saturated)
    metrics = {
        "setup_s": setup_s,
        "p50_ms": statistics.median(p.rescaled_p(50, speed)
                                    for p in measured),
        "p99_ms": statistics.median(p.rescaled_p(99, speed)
                                    for p in measured),
        "capacity_rps": cap,
        # Alternating format/read: half of the capacity each way.
        "write_values_per_s": cap / 2 * inputs.REQUEST_ROWS,
        "read_values_per_s": cap / 2 * inputs.REQUEST_ROWS,
        "format_mb_per_s": cap / 2 * mean_plane / 1e6,
        "parse_mb_per_s": cap / 2 * mean_plane / 1e6,
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    latency_samples = sum(len(p.latencies) for p in measured)
    samples = dict.fromkeys(common.E2E_UNITS, max(1, len(saturated)))
    samples.update(setup_s=1 if trace else SETUP_REPEATS,
                   p50_ms=latency_samples, p99_ms=latency_samples,
                   ok_share=attempted, peak_rss_mb=1)
    pool = report["pool_stats"]
    stats = report["stats"]
    layer = common.zero_per_layer()
    layer.update(common.engine_counts(pool))
    rows = sum(p.format_ok + p.read_ok for p in all_phases) \
        * inputs.REQUEST_ROWS
    layer.update({
        "buffer.rows": rows,
        "buffer.unique_share": (pool.get("conversions", 0)
                                + pool.get("read_conversions", 0))
        / rows if rows else 0.0,
        "daemon.batches": stats.get("batches", 0),
        "daemon.batch_size_mean": (stats.get("batched_requests", 0)
                                   / stats["batches"]
                                   if stats.get("batches") else 0.0),
        "daemon.max_batch": stats.get("max_batch", 0),
        "daemon.overloads": stats.get("overloads", 0),
        "daemon.error_responses": stats.get("error_responses", 0),
        "loadgen.sent": attempted,
        "loadgen.late_ms_p99": max(p.late_p99_ms() for p in nominal),
    })
    for key in ("shard_retries", "shard_failures", "pool_rebuilds",
                "degradations", "corrupt_shards", "deadline_hits"):
        layer[f"pool.{key}"] = pool.get(key, 0)
    result = {"metrics": metrics, "attempted": attempted, "failed": failed,
              "mismatches": mismatches, "samples": samples, "counts": layer}
    if trace:
        _traced_layers(workload, layer, report, nominal)
        layer["tables.build_s"] = common.measure_tables_build()
        result["per_layer"] = layer
    return result


def _traced_layers(workload: str, layer: dict, report: dict,
                   phases: List[Phase]) -> None:
    """Per-layer times from the traced phase, the overhead from the
    untraced/traced pair."""
    untraced, traced = phases[0::2], phases[1::2]
    self_s = dict(report["self_s"])
    workers = report["worker_totals"]
    for name, (_total, own, _calls) in workers.items():
        self_s[name] = self_s.get(name, 0.0) + own
    # The pool call's wall time includes waiting while both workers
    # convert; what is left after their shard time, spread over the
    # two workers, is dispatch, pickling, pipes, CRC and queueing.
    shard_s = workers.get("worker.shard", [0.0])[0]
    self_s["pool.call"] = max(0.0, self_s.get("pool.call", 0.0)
                              - shard_s / 2)
    busy = sum(self_s.get(n, 0.0) for names in common.LAYERS.values()
               for n in names)
    layer.update(common.time_metrics(self_s))
    layer.update(common.layer_shares(self_s, busy))
    calls, totals = report["calls"], report["totals_s"]
    for name in ("decode", "encode"):
        n = calls.get(f"protocol.{name}", 0)
        layer[f"protocol.{name}_us"] = (
            totals[f"protocol.{name}"] / n * 1e6 if n else 0.0)
    layer["pool.call_ms_p50"], layer["pool.call_ms_p99"] = \
        report["pool_call_ms"]
    layer["serve.residual_ms_p50"] = (
        statistics.median(p.p(50) for p in traced)
        - layer["pool.call_ms_p50"])
    over = common.overhead(_median_figures(untraced),
                           _median_figures(traced))
    layer.update(over)
    common.print_breakdown(workload, layer, busy, over)


def _median_figures(phases: List[Phase]) -> Dict[str, float]:
    figures = [p.goodput() for p in phases]
    return {k: statistics.median(f[k] for f in figures) for k in figures[0]}
