"""The serving layer: the sharded offline pool and the daemon over the
byte-plane pipeline.

This package depends on :mod:`repro.engine.buffer` (columnar ingestion
and the byte-plane ``format_buffer``/``parse_buffer``, re-exported
here), never the reverse.
"""

from repro.engine.buffer import (
    bits_from_buffer,
    format_buffer,
    ingest_bits,
    pack_bits,
    parse_buffer,
    split_plane,
)
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.control import (
    AdmissionController,
    TrafficObserver,
)
from repro.serve.daemon import ReproDaemon, main, serving
from repro.serve.pool import BulkPool

__all__ = [
    "AdmissionController",
    "AsyncServeClient",
    "BulkPool",
    "ReproDaemon",
    "ServeClient",
    "TrafficObserver",
    "main",
    "serving",
    "bits_from_buffer",
    "format_buffer",
    "ingest_bits",
    "pack_bits",
    "parse_buffer",
    "split_plane",
]
