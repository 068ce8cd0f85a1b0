"""Reproduction of Burger & Dybvig, *Printing Floating-Point Numbers
Quickly and Accurately* (PLDI 1996).

Public surface, in one import::

    from repro import format_shortest, format_fixed, read_decimal, Flonum

* :func:`format_shortest` — the shortest correctly rounded string that
  reads back to the value (free format, reader-rounding aware).
* :func:`format_fixed` — correctly rounded to an absolute/relative digit
  position, ``#``-marking insignificant positions.
* :func:`read_decimal` — the accurate reader the guarantee is stated
  against (any rounding mode).
* :func:`read` / :func:`read_many` — the same semantics through the
  shared tiered :class:`ReadEngine` (typically much faster).
* :func:`parse_buffer` / :func:`format_buffer` — the column API: whole
  delimited byte buffers in and out through the engines' batch loops
  and their memo, with zero-copy columnar ingestion
  (:func:`ingest_bits`), throughput measured in MB/s, never a per-row
  string (see :mod:`repro.engine.buffer` and ``docs/benchmarks.md``).
* :class:`BulkPool` — the same calls sharded across worker processes,
  with deadlines, retries and graceful degradation (see
  :mod:`repro.serve` and ``docs/robustness.md``).
* :class:`FaultPlan` / :func:`armed` — deterministic fault injection
  for chaos testing the serving layer (see :mod:`repro.faults`).
* :class:`Flonum` / :class:`FloatFormat` — exact value model for binary16
  through binary128, x87-80 and arbitrary toy formats.

Every export loads on first use (PEP 562): ``import repro`` costs the
interpreter plus this file, and ``from repro import X`` imports only
the module that defines ``X``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
table-by-table reproduction of the paper's evaluation.
"""

import importlib

__version__ = "1.0.0"

#: Defining module -> the names it exports through the package.
_EXPORTS = {
    "repro.core.api": ("format_shortest", "format_fixed"),
    "repro.core.digits": ("DigitResult",),
    "repro.core.dragon": ("shortest_digits",),
    "repro.core.fixed": ("FixedResult", "fixed_digits"),
    "repro.core.fixed_rational": ("fixed_digits_rational",),
    "repro.core.rational": ("shortest_digits_rational",),
    "repro.core.rounding": ("ReaderMode", "TieBreak"),
    "repro.core.scaling": ("scale_estimate", "scale_float_log",
                           "scale_iterative"),
    "repro.core.stream": ("DigitStream",),
    "repro.compat.scheme": ("number_to_string", "string_to_number"),
    "repro.engine.engine": ("Engine", "default_engine", "format_many"),
    "repro.engine.reader": ("ReadEngine", "ReadResult",
                            "default_read_engine"),
    "repro.engine.snapshot": ("Snapshot", "build_snapshot",
                              "load_snapshot", "save_snapshot",
                              "hot_entries", "HotPlane"),
    "repro.engine.buffer": ("bits_from_buffer", "ingest_bits",
                            "pack_bits", "format_buffer", "parse_buffer",
                            "split_plane"),
    "repro.errors": ("ReproError", "FormatError", "DecodeError",
                     "ParseError", "RangeError", "NotRepresentableError",
                     "ShardError", "SnapshotError",
                     "DeadlineExceededError", "PoolBrokenError",
                     "ProtocolError", "ServeOverloadError"),
    "repro.faults": ("FaultPlan", "FaultSpec", "InjectedFault", "armed"),
    "repro.floats.formats": ("FloatFormat", "BINARY16", "BINARY32",
                             "BINARY64", "BINARY128", "X87_80",
                             "STANDARD_FORMATS"),
    "repro.floats.model": ("Flonum", "FlonumKind", "to_flonum"),
    "repro.format.notation": ("NotationOptions",),
    "repro.format.hexfloat": ("format_hex", "parse_hex", "python_hex"),
    "repro.format.printf": ("format_printf", "fmt_e", "fmt_f", "fmt_g"),
    "repro.format.repr_shortest": ("py_repr",),
    "repro.reader": ("read", "read_many"),
    "repro.reader.exact": ("read_decimal", "read_fraction"),
    "repro.serve.client": ("AsyncServeClient", "ServeClient"),
    "repro.serve.daemon": ("ReproDaemon", "serving"),
    "repro.serve.pool": ("BulkPool",),
    "repro.verify": ("VerificationReport", "verify_format",
                     "verify_chaos", "verify_serve", "verify_warm"),
}

_MODULE_OF = {name: mod for mod, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(mod), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
