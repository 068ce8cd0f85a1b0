"""Tiered conversion engine: fast-path router, batch API, per-format tables.

Public surface:

* :class:`Engine` — one route over three tiers (exact-decimal fast
  path, never-bail Schubfach, exact Burger–Dybvig) with a bounded
  result memo and per-tier statistics;
* :class:`ReadEngine` — the mirror-image read router (exact-power
  Bellerophon window, truncated/interval certification, exact
  ``round_rational`` fallback), reachable per-engine as
  :attr:`Engine.reader`;
* :func:`schubfach_digits` — the shortest-write lane (see
  docs/contenders.md for why it is the only one);
* :func:`default_engine` / :func:`default_read_engine` — the shared
  instances the string APIs delegate to;
* :func:`format_many` / :func:`read_many` — batch conversion through
  the default engines;
* :func:`tables_for` / :class:`FormatTables` — the per-format
  precomputed state (power tables, estimator constants, Grisu powers
  for the counted lane, the Schubfach table, exact-pow10 read
  windows);
* :func:`parse_buffer` / :func:`format_buffer` /
  :func:`split_plane` / :func:`split_rows` — the byte-plane pipeline
  (:mod:`repro.engine.buffer`): whole delimited buffers in and out,
  measured in MB/s, never a per-row string.

This package must not import :mod:`repro.core.api` (the API imports us).
"""

from repro.engine.buffer import (
    format_buffer,
    parse_buffer,
    split_plane,
    split_rows,
)
from repro.engine.engine import (
    STAT_KEYS,
    Engine,
    default_engine,
    format_many,
)
from repro.engine.reader import (
    READ_STAT_KEYS,
    ReadEngine,
    ReadResult,
    default_read_engine,
    read_many,
)
from repro.engine.schubfach import schubfach_digits
from repro.engine.snapshot import (
    SNAPSHOT_VERSION,
    HotPlane,
    Snapshot,
    apply_read_snapshot,
    apply_snapshot,
    bits_encoder,
    build_snapshot,
    hot_entries,
    load_snapshot,
    save_snapshot,
    snapshot_from_bytes,
    snapshot_to_bytes,
)
from repro.engine.tables import FormatTables, clear_tables, tables_for

__all__ = [
    "Engine",
    "default_engine",
    "format_many",
    "ReadEngine",
    "ReadResult",
    "default_read_engine",
    "read_many",
    "STAT_KEYS",
    "READ_STAT_KEYS",
    "schubfach_digits",
    "FormatTables",
    "tables_for",
    "clear_tables",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "build_snapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_to_bytes",
    "snapshot_from_bytes",
    "apply_snapshot",
    "apply_read_snapshot",
    "hot_entries",
    "HotPlane",
    "bits_encoder",
    "parse_buffer",
    "format_buffer",
    "split_plane",
    "split_rows",
]
