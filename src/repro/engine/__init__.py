"""Tiered conversion engine: fast-path router, batch API, per-format tables.

Public surface:

* :class:`Engine` — one route over three tiers (an inline integer
  test, never-bail Schubfach, exact Burger–Dybvig) with a bounded
  result memo and per-tier statistics;
* :class:`ReadEngine` — the mirror-image read router (the
  truncated/interval window tier, exact ``round_rational``
  fallback), reachable per-engine as
  :attr:`Engine.reader`;
* :func:`schubfach_digits` — the shortest-write lane (see
  docs/contenders.md for why it is the only one);
* :func:`default_engine` / :func:`default_read_engine` — the shared
  instances the string APIs delegate to;
* :func:`format_many` / :func:`read_many` — batch conversion through
  the default engines;
* :func:`tables_for` / :class:`FormatTables` — the per-format
  precomputed state (power tables, estimator constants, Grisu powers
  for the counted lane, the Schubfach table, the read clamps);
* :func:`parse_buffer` / :func:`format_buffer` /
  :func:`split_plane` — the byte-plane pipeline
  (:mod:`repro.engine.buffer`): whole delimited buffers in and out,
  measured in MB/s, never a per-row string.

Every export loads on first use (PEP 562, as in :mod:`repro`): ``from
repro.engine import Engine`` imports the engine and what it needs, not
the byte-plane pipeline or the snapshot codec.

This package must not import :mod:`repro.core.api` (the API imports us).
"""

import importlib

_EXPORTS = {
    "repro.engine.engine": ("Engine", "default_engine", "format_many",
                            "STAT_KEYS"),
    "repro.engine.reader": ("ReadEngine", "ReadResult",
                            "default_read_engine", "read_many",
                            "READ_STAT_KEYS"),
    "repro.engine.schubfach": ("schubfach_digits",),
    "repro.engine.tables": ("FormatTables", "tables_for", "clear_tables"),
    "repro.engine.snapshot": ("SNAPSHOT_VERSION", "Snapshot",
                              "build_snapshot", "load_snapshot",
                              "save_snapshot", "snapshot_to_bytes",
                              "snapshot_from_bytes", "apply_snapshot",
                              "apply_read_snapshot", "hot_entries",
                              "HotPlane", "bits_encoder"),
    "repro.engine.buffer": ("parse_buffer", "format_buffer", "split_plane"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(
            f"module 'repro.engine' has no attribute {name!r}")
    value = getattr(importlib.import_module(mod), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
