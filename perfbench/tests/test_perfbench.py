"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import common, inproc, inputs, loadgen  # noqa: E402
from perfbench.tracing import Tracer, self_times  # noqa: E402


# ----------------------------------------------------------------------
# Inputs: the seed alone decides every input byte
# ----------------------------------------------------------------------

def test_same_seed_same_inputs():
    assert inputs.strata_batches(7) == inputs.strata_batches(7)
    u = inputs.zipf_universe(7)
    assert u == inputs.zipf_universe(7)
    assert (inputs.zipf_rows(7, "plane", u, 1000)
            == inputs.zipf_rows(7, "plane", u, 1000))


def test_other_seed_other_inputs():
    assert inputs.strata_batches(7) != inputs.strata_batches(8)
    assert inputs.zipf_universe(7) != inputs.zipf_universe(8)


def test_strata_values_are_distinct_by_magnitude():
    strata = inputs.write_strata(3)
    mags = [b & ~(1 << 63) for name, bits in strata.items()
            if name != "uniform32" for b in bits]
    assert len(mags) == len(set(mags))
    for band in inputs.read_bands(3).values():
        assert len(band) == len(set(band)) == inputs.READ_BAND_SIZE


def test_serve_templates_repeat_byte_for_byte(monkeypatch):
    monkeypatch.setattr(inputs, "ZIPF_UNIVERSE", 300)
    monkeypatch.setattr(inputs, "REQUEST_TEMPLATES", 6)
    first = loadgen.build_templates(5)
    assert first == loadgen.build_templates(5)
    assert first != loadgen.build_templates(6)


# ----------------------------------------------------------------------
# The oracle catches a single wrong byte
# ----------------------------------------------------------------------

def _small_plane(monkeypatch):
    monkeypatch.setattr(inputs, "ZIPF_UNIVERSE", 300)
    monkeypatch.setattr(inputs, "PLANE_ROWS", 32)
    monkeypatch.setattr(inputs, "PLANE_CHUNKS", 3)
    return inproc._prepare_plane(9)


def test_plane_pass_is_clean(monkeypatch):
    from repro.engine import Engine

    calls, specs = _small_plane(monkeypatch)
    p = inproc._plane_pass_fn(Engine())(calls)
    assert p.failed == 0
    assert len(p.times) == len(specs) == 6


def test_wrong_byte_in_plane_output_is_a_mismatch(monkeypatch):
    from repro.engine import Engine, buffer

    calls, _ = _small_plane(monkeypatch)
    real = buffer.format_buffer

    def one_wrong_byte(*args, **kwargs):
        plane = bytearray(real(*args, **kwargs))
        plane[0] = ord("7") if plane[0] != ord("7") else ord("8")
        return bytes(plane)

    monkeypatch.setattr(buffer, "format_buffer", one_wrong_byte)
    p = inproc._plane_pass_fn(Engine())(calls)
    # Every format call is wrong; each read then parses a wrong plane.
    assert p.failed == 6


def test_wrong_byte_on_the_wire_is_a_mismatch():
    import asyncio

    from repro.serve import protocol

    async def scenario():
        loop = asyncio.get_running_loop()
        conn = loadgen._Conn(loop)

        class Sink:
            def write(self, data):
                pass

        conn.connection_made(Sink())
        phase = loadgen.Phase(100.0, 1.0)
        want = b"0.1\n2.5\n"
        for _ in range(2):
            conn.send(b"", loop.time(), want, len(want), False, phase)
        conn.data_received(protocol.encode_response(want))
        conn.data_received(protocol.encode_response(b"0.1\n2.6\n"))
        return phase

    phase = asyncio.run(scenario())
    assert phase.format_ok == 1
    assert phase.mismatches == 1
    assert phase.failed == 1


# ----------------------------------------------------------------------
# Rescaling to the reference host speed
# ----------------------------------------------------------------------

def test_window_speed_is_reference_over_mean_slice():
    phase = loadgen.Phase(500.0, 1.0)
    assert phase.speed(0.5) == 0.5
    ref = common.CALIBRATION_REF_S
    phase.slices = [ref / 2, ref / 2, ref]
    assert phase.speed() == pytest.approx(1.5)


def test_each_latency_is_rescaled_by_the_slices_around_it():
    ref = common.CALIBRATION_REF_S
    phase = loadgen.Phase(500.0, 1.0)
    phase.slices, phase.slice_ends = [ref / 2, ref], [10.0, 12.0]
    # The first answer has the fast slice beside it; no slice ran near
    # the second, which takes the window's mean speed (4/3).
    phase.latencies, phase.ends = [0.004, 0.004], [10.001, 11.0]
    assert phase.rescaled_p(100, 1.0) == pytest.approx(8.0)
    assert phase.rescaled_p(0, 1.0) == pytest.approx(4.0 * 4 / 3)


def test_setup_time_follows_the_square_root_of_speed():
    assert common.setup_time(0.4, 1.0, 1.0) == pytest.approx(0.4)
    assert common.setup_time(0.3, 1.5, 2.5) == pytest.approx(0.3 * 2 ** 0.5)


def test_oracle_is_the_exact_tier():
    from repro.engine import Engine

    eng = common.exact_engine()
    eng.format_many([0.1, 1e23, 5e-324])
    eng.read_many(["0.1", "1e23"])
    stats = eng.stats()
    assert stats["tier2_calls"] == 3
    assert stats["read_tier2_calls"] == 2
    assert stats["cache_hits"] == 0
    fast = Engine()
    assert common.oracle_texts64(
        [inputs.float_to_bits(x) for x in (0.1, 1e23)]) == \
        fast.format_many([0.1, 1e23])


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def test_self_times_on_a_hand_built_tree():
    # [id, name, start, end, parent, rid, folded]
    spans = [
        [1, "root", 0.0, 10.0, None, "r1", 0.5],
        # Two children overlapping each other on [3, 4]: the union
        # [2, 6] counts once.
        [2, "child", 2.0, 4.0, 1, "r1", 0.0],
        [3, "child", 3.0, 6.0, 1, "r1", 1.0],
        # A grandchild inside the second child.
        [4, "leaf", 4.0, 5.0, 3, "r1", 0.0],
        # A child running past its parent's end is clipped to it.
        [5, "late", 9.0, 12.0, 1, None, 0.0],
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - (4.0 + 1.0) - 0.5)
    assert got["child"] == pytest.approx(2.0 + (3.0 - 1.0 - 1.0))
    assert got["leaf"] == pytest.approx(1.0)
    assert got["late"] == pytest.approx(3.0)


def test_tracer_nesting_with_a_fake_clock():
    now = [0.0]

    def clock():
        return now[0]

    tracer = Tracer(clock=clock)

    def leaf():
        now[0] += 1.0

    def batch():
        now[0] += 2.0
        tracer.call("leaf", False, leaf)
        tracer.call("leaf", False, leaf)
        now[0] += 3.0

    tracer.call("batch", True, batch)
    total, own, calls = tracer.totals["batch"]
    assert (total, own, calls) == (7.0, 5.0, 1)
    assert tracer.totals["leaf"] == [2.0, 2.0, 2]
    (span,) = tracer.spans
    assert span[1] == "batch" and span[6] == 2.0
    assert self_times(tracer.spans) == {"batch": 5.0}


def test_install_and_uninstall_restore_the_original():
    from repro.engine import engine as engine_mod

    before = engine_mod.Engine.format_many
    tracer = Tracer()
    names = tracer.install([
        ("repro.engine.engine:Engine", "format_many", "f", True),
        ("repro.engine.engine", "no_such_lane", "g", False),
    ])
    assert names == ["f"]
    engine_mod.Engine().format_many([1.5])
    tracer.uninstall()
    assert engine_mod.Engine.format_many is before
    assert tracer.totals["f"][2] == 1


# ----------------------------------------------------------------------
# Metric helpers
# ----------------------------------------------------------------------

def test_overhead_sign_follows_better_direction():
    over = common.overhead({"write_values_per_s": 100.0, "p99_ms": 10.0},
                           {"write_values_per_s": 80.0, "p99_ms": 12.0})
    assert over["overhead.write_values_per_s"] == pytest.approx(0.2)
    assert over["overhead.p99_ms"] == pytest.approx(0.2)
