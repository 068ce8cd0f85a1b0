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
* :func:`format_bulk` / :func:`read_bulk` — the bulk serving layer:
  zero-copy columnar ingestion, dedup interning and sharded
  multi-worker pipelines with deadlines, retries and graceful
  degradation (see :mod:`repro.serve` and ``docs/robustness.md``).
* :func:`parse_buffer` / :func:`format_buffer` — the byte-plane
  pipeline underneath it: whole delimited byte buffers in and out,
  throughput measured in MB/s, never a per-row string (see
  :mod:`repro.engine.buffer` and ``docs/benchmarks.md``).
* :class:`FaultPlan` / :func:`armed` — deterministic fault injection
  for chaos testing the serving layer (see :mod:`repro.faults`).
* :class:`Flonum` / :class:`FloatFormat` — exact value model for binary16
  through binary128, x87-80 and arbitrary toy formats.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
table-by-table reproduction of the paper's evaluation.
"""

from repro.core.api import format_fixed, format_shortest, to_flonum
from repro.core.digits import DigitResult
from repro.engine import (
    Engine,
    HotPlane,
    ReadEngine,
    ReadResult,
    Snapshot,
    build_snapshot,
    default_engine,
    default_read_engine,
    format_many,
    hot_entries,
    load_snapshot,
    save_snapshot,
)
from repro.core.dragon import shortest_digits
from repro.core.fixed import FixedResult, fixed_digits
from repro.core.fixed_rational import fixed_digits_rational
from repro.core.rational import shortest_digits_rational
from repro.core.rounding import ReaderMode, TieBreak
from repro.core.stream import DigitStream
from repro.compat.scheme import number_to_string, string_to_number
from repro.core.scaling import (
    scale_estimate,
    scale_float_log,
    scale_iterative,
)
from repro.errors import (
    DeadlineExceededError,
    DecodeError,
    FormatError,
    NotRepresentableError,
    ParseError,
    PoolBrokenError,
    ProtocolError,
    RangeError,
    ReproError,
    ServeOverloadError,
    ShardError,
    SnapshotError,
)
from repro.faults import FaultPlan, FaultSpec, InjectedFault, armed
from repro.floats.formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    BINARY128,
    STANDARD_FORMATS,
    X87_80,
    FloatFormat,
)
from repro.floats.model import Flonum, FlonumKind
from repro.format.notation import NotationOptions
from repro.format.hexfloat import format_hex, parse_hex, python_hex
from repro.format.printf import fmt_e, fmt_f, fmt_g, format_printf
from repro.format.repr_shortest import py_repr
from repro.reader import read, read_many
from repro.reader.exact import read_decimal, read_fraction
from repro.serve import (
    AsyncServeClient,
    BulkPool,
    DelimitedWriter,
    ReproDaemon,
    ServeClient,
    bits_from_buffer,
    format_buffer,
    format_bulk,
    format_column,
    ingest_bits,
    pack_bits,
    parse_buffer,
    read_bulk,
    read_column,
    serving,
    split_plane,
    split_rows,
)

#: Loaded on first use (PEP 562), so ``python -m repro.verify`` runs a
#: module the package has not imported yet.
_VERIFY_EXPORTS = frozenset({"VerificationReport", "verify_format",
                             "verify_chaos", "verify_serve", "verify_warm"})


def __getattr__(name):
    if name in _VERIFY_EXPORTS:
        from repro import verify

        return getattr(verify, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = [
    "__version__",
    "format_shortest",
    "format_fixed",
    "format_many",
    "Engine",
    "default_engine",
    "ReadEngine",
    "ReadResult",
    "default_read_engine",
    "AsyncServeClient",
    "BulkPool",
    "DelimitedWriter",
    "ReproDaemon",
    "ServeClient",
    "serving",
    "bits_from_buffer",
    "format_buffer",
    "format_bulk",
    "format_column",
    "ingest_bits",
    "pack_bits",
    "parse_buffer",
    "read_bulk",
    "read_column",
    "split_plane",
    "split_rows",
    "to_flonum",
    "shortest_digits",
    "shortest_digits_rational",
    "fixed_digits",
    "fixed_digits_rational",
    "DigitResult",
    "FixedResult",
    "ReaderMode",
    "TieBreak",
    "scale_estimate",
    "scale_float_log",
    "scale_iterative",
    "FloatFormat",
    "Flonum",
    "FlonumKind",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "BINARY128",
    "X87_80",
    "STANDARD_FORMATS",
    "NotationOptions",
    "format_printf",
    "format_hex",
    "parse_hex",
    "python_hex",
    "fmt_e",
    "fmt_f",
    "fmt_g",
    "py_repr",
    "read",
    "read_many",
    "read_decimal",
    "read_fraction",
    "DigitStream",
    "number_to_string",
    "string_to_number",
    "VerificationReport",
    "verify_format",
    "verify_chaos",
    "verify_serve",
    "verify_warm",
    "Snapshot",
    "build_snapshot",
    "load_snapshot",
    "save_snapshot",
    "hot_entries",
    "HotPlane",
    "ReproError",
    "FormatError",
    "DecodeError",
    "ParseError",
    "RangeError",
    "NotRepresentableError",
    "ShardError",
    "SnapshotError",
    "DeadlineExceededError",
    "PoolBrokenError",
    "ProtocolError",
    "ServeOverloadError",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "armed",
]
