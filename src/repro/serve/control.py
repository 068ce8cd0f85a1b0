"""Self-healing control plane for the serving daemon.

Two pieces, both testable without sleeping:

``AdmissionController``
    AIMD on the admitted-inflight-bytes window.  A rolling latency
    reservoir yields a p99 estimate; every ``adjust_every`` completed
    requests the byte limit is halved (multiplicative decrease, with a
    floor) when p99 exceeds the SLO target and grown by one additive
    step (with a ceiling) otherwise.  The daemon's static caps remain
    hard ceilings — the controller can only shrink the window below
    them, so overload sheds early instead of queueing into SLO
    violation.

``TrafficObserver``
    Samples request corpus shape on the admission path: bit-pattern
    duplication factor, specials fraction, digit-length histogram for
    read planes.  Two consumers: the HEALTH opcode's corpus summary,
    and live snapshot rotation — the hottest observed bit patterns are
    rebuilt into a warm-start snapshot via
    :mod:`repro.engine.snapshot`'s torn-write safe save.  Rotation may
    only *skip work, never change bytes*: a rotated snapshot only
    pre-seeds caches.

Everything here is pure bookkeeping — no I/O, no threads of its own —
so the daemon stays the single owner of sockets and conversions.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import ServeOverloadError

__all__ = ["AdmissionController", "TrafficObserver"]


def _p99(samples: List[float]) -> float:
    """Nearest-rank p99 of a non-empty sample list (milliseconds in,
    milliseconds out)."""
    xs = sorted(samples)
    k = max(0, min(len(xs) - 1, int(round(0.99 * (len(xs) - 1)))))
    return xs[k]


class AdmissionController:
    """AIMD controller over the admitted-inflight-bytes window.

    ``observe(latency_s)`` feeds one completed request.  Every
    ``adjust_every`` observations the rolling p99 is compared against
    ``target_p99_ms``: above → multiplicative decrease (×``decrease``,
    floored at ``floor_bytes``); at/below → additive increase
    (+``step_bytes``, capped at ``ceiling_bytes``).  The daemon applies
    ``limit_bytes`` *in addition to* its static byte cap, so the
    controller can only tighten admission, never loosen past the
    configured ceilings.
    """

    def __init__(self, *, target_p99_ms: float,
                 ceiling_bytes: int = 16 << 20,
                 floor_bytes: int = 64 << 10,
                 step_bytes: int = 256 << 10,
                 decrease: float = 0.5,
                 window: int = 512,
                 adjust_every: int = 32) -> None:
        if target_p99_ms <= 0:
            raise ValueError("target_p99_ms must be > 0")
        if not 0 < decrease < 1:
            raise ValueError("decrease must be in (0, 1)")
        if floor_bytes < 1 or floor_bytes > ceiling_bytes:
            raise ValueError("need 1 <= floor_bytes <= ceiling_bytes")
        self.target_p99_ms = float(target_p99_ms)
        self.ceiling_bytes = int(ceiling_bytes)
        self.floor_bytes = int(floor_bytes)
        self.step_bytes = int(step_bytes)
        self.decrease = float(decrease)
        self.window = int(window)
        self.adjust_every = int(adjust_every)
        self._lock = threading.Lock()
        self._samples: List[float] = []  # ring buffer of latency ms
        self._next = 0
        self._since_adjust = 0
        self.limit_bytes = self.ceiling_bytes
        self.increases = 0
        self.decreases = 0
        self.observed = 0

    def observe(self, latency_s: float) -> None:
        """Feed one completed request's wall latency (seconds)."""
        ms = latency_s * 1e3
        with self._lock:
            self.observed += 1
            if len(self._samples) < self.window:
                self._samples.append(ms)
            else:
                self._samples[self._next] = ms
                self._next = (self._next + 1) % self.window
            self._since_adjust += 1
            if self._since_adjust < self.adjust_every:
                return
            self._since_adjust = 0
            p99 = _p99(self._samples)
            if p99 > self.target_p99_ms:
                shrunk = max(self.floor_bytes,
                             int(self.limit_bytes * self.decrease))
                if shrunk < self.limit_bytes:
                    self.limit_bytes = shrunk
                    self.decreases += 1
            else:
                grown = min(self.ceiling_bytes,
                            self.limit_bytes + self.step_bytes)
                if grown > self.limit_bytes:
                    self.limit_bytes = grown
                    self.increases += 1

    def p99_ms(self) -> Optional[float]:
        with self._lock:
            return _p99(self._samples) if self._samples else None

    def shed_error(self, inflight: int, want: int) -> ServeOverloadError:
        return ServeOverloadError(
            f"admission window full: {inflight} inflight + {want} "
            f"requested > adaptive limit {self.limit_bytes} bytes")

    def snapshot(self) -> dict:
        with self._lock:
            p99 = _p99(self._samples) if self._samples else None
            return {
                "limit_bytes": self.limit_bytes,
                "floor_bytes": self.floor_bytes,
                "ceiling_bytes": self.ceiling_bytes,
                "target_p99_ms": self.target_p99_ms,
                "p99_ms": p99,
                "samples": len(self._samples),
                "observed": self.observed,
                "increases": self.increases,
                "decreases": self.decreases,
            }


class TrafficObserver:
    """Samples corpus shape from the admission path.

    ``observe`` is called with raw request payloads and must stay
    cheap: it decodes at most ``sample_rows`` items per request and
    keeps a bounded counter of bit patterns.  All state is
    lock-protected — the daemon observes on the event loop and rotates
    snapshots on a worker thread.
    """

    def __init__(self, *, sample_rows: int = 128, max_keys: int = 8192,
                 zipf_dup_factor: float = 3.0,
                 specials_fraction: float = 0.02,
                 min_rows: int = 256) -> None:
        self.sample_rows = int(sample_rows)
        self.max_keys = int(max_keys)
        self.zipf_dup_factor = float(zipf_dup_factor)
        self.specials_fraction = float(specials_fraction)
        self.min_rows = int(min_rows)
        self._lock = threading.Lock()
        self._counts: Dict[str, Dict[int, int]] = {}  # fmt -> bits -> n
        self._rows = 0
        self._specials = 0
        self._digit_hist: Dict[int, int] = {}  # read token length -> n
        self.requests = 0
        self._rows_since_rotation = 0

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def observe_format(self, fmt_name: str, fmt, payload: bytes) -> None:
        """Sample a format request's packed-bits payload."""
        from repro.engine.buffer import _itemsize

        itemsize = _itemsize(fmt)
        n = len(payload) // itemsize if itemsize else 0
        if not n:
            return
        take = min(n, self.sample_rows)
        mant_bits = fmt.mantissa_field_width
        exp_mask = fmt.max_biased_exponent
        with self._lock:
            counts = self._counts.setdefault(fmt_name, {})
            for i in range(take):
                bits = int.from_bytes(
                    payload[i * itemsize:(i + 1) * itemsize], "little")
                self._rows += 1
                if (bits >> mant_bits) & exp_mask == exp_mask:
                    self._specials += 1  # inf or nan
                if bits in counts:
                    counts[bits] += 1
                elif len(counts) < self.max_keys:
                    counts[bits] = 1
            self.requests += 1
            self._rows_since_rotation += take

    def observe_read(self, payload: bytes, delimiter: bytes) -> None:
        """Sample a read request's delimited ASCII plane."""
        head = payload[:64 * self.sample_rows]
        tokens = head.split(delimiter)[:self.sample_rows]
        with self._lock:
            for tok in tokens:
                if not tok:
                    continue
                self._rows += 1
                n = len(tok)
                self._digit_hist[n] = self._digit_hist.get(n, 0) + 1
            self.requests += 1
            self._rows_since_rotation += len(tokens)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(self) -> str:
        """``"flat"``, ``"zipf"`` or ``"specials"`` — or ``"flat"``
        while fewer than ``min_rows`` rows have been sampled."""
        with self._lock:
            return self._classify_locked()

    def _classify_locked(self) -> str:
        if self._rows < self.min_rows:
            return "flat"
        if self._specials / self._rows > self.specials_fraction:
            return "specials"
        distinct = sum(len(c) for c in self._counts.values())
        if distinct and self._bit_rows_locked() / distinct \
                >= self.zipf_dup_factor:
            return "zipf"
        return "flat"

    def _bit_rows_locked(self) -> int:
        return sum(n for c in self._counts.values() for n in c.values())

    # ------------------------------------------------------------------
    # Hot keys for snapshot rotation
    # ------------------------------------------------------------------

    @property
    def rows_since_rotation(self) -> int:
        with self._lock:
            return self._rows_since_rotation

    def rotation_done(self) -> None:
        with self._lock:
            self._rows_since_rotation = 0

    def hot_values(self, limit: int = 512) -> List:
        """The hottest observed finite non-zero values as Flonums,
        most frequent first, across all observed formats."""
        from repro.floats.formats import STANDARD_FORMATS
        from repro.floats.model import Flonum

        with self._lock:
            ranked = []
            for fmt_name, counts in self._counts.items():
                fmt = STANDARD_FORMATS[fmt_name]
                for bits, n in counts.items():
                    ranked.append((n, fmt_name, bits, fmt))
        ranked.sort(key=lambda t: (-t[0], t[1], t[2]))
        out = []
        for n, _fmt_name, bits, fmt in ranked:
            v = Flonum.from_bits(bits, fmt)
            if v.is_finite and not v.is_zero:
                out.append(v)
                if len(out) >= limit:
                    break
        return out

    def observed_formats(self) -> List[str]:
        with self._lock:
            return sorted(self._counts)

    def summary(self) -> dict:
        """Shape summary for the HEALTH opcode."""
        with self._lock:
            distinct = sum(len(c) for c in self._counts.values())
            bit_rows = self._bit_rows_locked()
            hist = dict(sorted(self._digit_hist.items())[:32])
            return {
                "requests": self.requests,
                "rows": self._rows,
                "distinct": distinct,
                "dup_factor": (bit_rows / distinct) if distinct else None,
                "specials_fraction": (self._specials / self._rows)
                if self._rows else None,
                "digit_len_hist": hist,
                "corpus": self._classify_locked(),
            }
