"""Command-line interface: ``repro-print`` / ``python -m repro``.

Self-hosted end to end: input strings are parsed with the package's own
accurate reader and printed with the paper's algorithms — the host's
float parsing/printing is never consulted.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.api import _USE_DEFAULT, format_fixed, format_shortest
from repro.core.rounding import ReaderMode, TieBreak
from repro.core.scaling import scale_estimate, scale_float_log, scale_iterative
from repro.floats.formats import STANDARD_FORMATS
from repro.format.hexfloat import format_hex, parse_hex
from repro.format.notation import NotationOptions
from repro.reader.exact import read_decimal

_SCALERS = {
    "estimate": scale_estimate,
    "float-log": scale_float_log,
    "iterative": scale_iterative,
}

_MODES = {m.value: m for m in ReaderMode}
_TIES = {t.value: t for t in TieBreak}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-print",
        description="Print floating-point numbers quickly and accurately "
                    "(Burger & Dybvig, PLDI 1996).",
    )
    parser.add_argument("values", nargs="*",
                        help="decimal literals to convert (read with the "
                             "package's accurate reader); with no values, "
                             "literals are read from stdin, one per line")
    parser.add_argument("--format", default="binary64",
                        choices=sorted(STANDARD_FORMATS),
                        help="floating-point format to round the input to")
    parser.add_argument("--base", type=int, default=10,
                        help="output base, 2..36 (default 10)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--digits", type=int, metavar="N",
                       help="fixed format: N significant digit positions")
    group.add_argument("--decimals", type=int, metavar="N",
                       help="fixed format: N digits after the point")
    group.add_argument("--position", type=int, metavar="J",
                       help="fixed format: stop at weight base**J")
    parser.add_argument("--reader-mode", default="nearest-even",
                        choices=sorted(_MODES),
                        help="rounding behaviour assumed of whoever reads "
                             "the output (free format only)")
    parser.add_argument("--tie", default="up", choices=sorted(_TIES),
                        help="printer-side tie strategy")
    parser.add_argument("--scaler", default=None,
                        choices=sorted(_SCALERS),
                        help="scaling algorithm (free format only); "
                             "selecting one forces the exact path, the "
                             "default routes through the tiered engine")
    parser.add_argument("--no-engine", action="store_true",
                        help="disable the tiered engine on both sides: "
                             "inputs are read with the exact one-shot "
                             "reader and free/fixed output always runs "
                             "the exact algorithm (with the estimate "
                             "scaler unless --scaler says otherwise)")
    parser.add_argument("--read", action="store_true",
                        help="report the value each literal reads to "
                             "(sign, significand, exponent) and which "
                             "reader tier resolved it, instead of "
                             "printing the value")
    parser.add_argument("--engine-stats", action="store_true",
                        help="after printing, report tier/cache counters "
                             "of the conversion engine on stderr")
    parser.add_argument("--style", default="auto",
                        choices=["auto", "positional", "scientific",
                                 "engineering"],
                        help="notation style")
    parser.add_argument("--python-repr", action="store_true",
                        help="render with CPython repr surface syntax")
    parser.add_argument("--group", metavar="CHAR", default="",
                        help="digit-group separator for positional output")
    parser.add_argument("--hex", action="store_true",
                        help="print C99 hex-float notation instead")
    parser.add_argument("--fast", action="store_true",
                        help="use the Grisu3/counted fast paths with exact "
                             "fallback (free/relative fixed format only)")
    parser.add_argument("--bulk", action="store_true",
                        help="columnar pipeline: read every literal, then "
                             "format the whole column, both through one "
                             "BulkPool over the byte-plane pipeline; "
                             "output is byte-identical to the scalar path")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="with --bulk: shard the column across N "
                             "worker processes (default 1, in-process)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        metavar="SEED",
                        help="with --bulk: arm the deterministic smoke "
                             "fault plan with SEED while the pipeline "
                             "runs; output must still be byte-identical")
    parser.add_argument("--serve", action="store_true",
                        help="run the serving daemon instead of "
                             "converting: listen on --host/--port and "
                             "serve format/read byte planes over the "
                             "framed protocol (see docs/serving.md)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="with --serve: listen address")
    parser.add_argument("--port", type=int, default=0,
                        help="with --serve: listen port (0 picks a free "
                             "one, printed on startup)")
    parser.add_argument("--snapshot", default=None, metavar="PATH",
                        help="with --bulk/--serve: warm-start "
                             "snapshot built by tools/warm_snapshot.py "
                             "(precomputed tables + memo + hot "
                             "dictionary); a corrupt or stale file "
                             "degrades to a cold start, output bytes "
                             "are identical either way")
    return parser


def _reject_scalar_flags(args, parser: argparse.ArgumentParser) -> None:
    """The columnar pipeline only does shortest-decimal round trips."""
    for flag, name in ((args.digits is not None, "--digits"),
                       (args.decimals is not None, "--decimals"),
                       (args.position is not None, "--position"),
                       (args.hex, "--hex"), (args.fast, "--fast"),
                       (args.read, "--read"),
                       (args.no_engine, "--no-engine"),
                       (args.scaler is not None, "--scaler"),
                       (args.base != 10, "--base"),
                       (args.style != "auto", "--style"),
                       (args.python_repr, "--python-repr"),
                       (args.group != "", "--group")):
        if flag:
            parser.error(f"--bulk is the shortest-decimal columnar "
                         f"pipeline; {name} is not supported with it")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")


def _run_bulk(args, parser: argparse.ArgumentParser, fmt, out) -> int:
    """The ``--bulk`` pipeline: literals → bits → delimited payload,
    both legs through one :class:`~repro.serve.BulkPool`."""
    _reject_scalar_flags(args, parser)
    import contextlib

    from repro.errors import ReproError
    from repro.serve import BulkPool

    texts = list(args.values)
    if not texts:
        texts = [line.strip() for line in sys.stdin if line.strip()]
    if not texts:
        return 0
    if args.chaos_seed is not None:
        from repro import faults

        arming = faults.armed(faults.smoke_plan(args.chaos_seed))
    else:
        arming = contextlib.nullcontext()
    try:
        with arming, BulkPool(jobs=args.jobs, fmt=fmt,
                              mode=_MODES[args.reader_mode],
                              tie=_TIES[args.tie],
                              snapshot=args.snapshot) as pool:
            payload = pool.format_bulk(pool.read_bulk(texts))
            stats = pool.stats()
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return 1
    out.write(payload.decode("ascii"))
    if args.engine_stats:
        for name, count in stats.items():
            print(f"{name}: {count}", file=sys.stderr)
    return 0


def _read_description(value, tier: str) -> str:
    """One-line ``--read`` report: the flonum's components + the tier."""
    if value.is_nan:
        return f"nan tier={tier}"
    if value.is_infinite:
        return f"sign={value.sign} inf tier={tier}"
    if value.is_zero:
        return f"sign={value.sign} zero tier={tier}"
    return f"sign={value.sign} f={value.f} e={value.e} tier={tier}"


def run(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = STANDARD_FORMATS[args.format]
    if args.serve:
        if args.bulk or args.values:
            parser.error("--serve runs the daemon; it takes no values "
                         "and no columnar pipeline flags")
        from repro.serve.daemon import main as serve_main

        serve_args = ["--host", args.host, "--port", str(args.port)]
        if args.snapshot is not None:
            serve_args += ["--snapshot", args.snapshot]
        return serve_main(serve_args)
    if args.chaos_seed is not None and not args.bulk:
        parser.error("--chaos-seed only applies to the --bulk pipeline")
    if args.snapshot is not None and not args.bulk:
        parser.error("--snapshot warm-starts the columnar/serving "
                     "paths; it requires --bulk or --serve")
    if args.bulk:
        return _run_bulk(args, parser, fmt, out)
    opts = NotationOptions(style=args.style, python_repr=args.python_repr,
                           group_char=args.group)
    fixed = any(a is not None
                for a in (args.digits, args.decimals, args.position))
    status = 0
    values = args.values
    if not values:
        values = (line.strip() for line in sys.stdin if line.strip())
    for text in values:
        try:
            if text.lower().startswith(("0x", "-0x", "+0x")):
                value = parse_hex(text, fmt, _MODES[args.reader_mode])
                tier = "hex"
            elif args.no_engine:
                value = read_decimal(text, fmt, _MODES[args.reader_mode])
                tier = "exact"
            else:
                from repro.engine.reader import default_read_engine

                result = default_read_engine().read_result(
                    text, fmt, _MODES[args.reader_mode])
                value, tier = result.value, result.tier
            if args.read:
                rendered = _read_description(value, tier)
            elif args.hex:
                rendered = format_hex(value)
            elif args.fast and not fixed:
                from repro.fastpath import shortest_fast

                from repro.format.notation import render_shortest

                if value.is_nan or value.is_infinite or value.is_zero:
                    rendered = format_shortest(value, options=opts)
                else:
                    digits = shortest_fast(value.abs(), base=args.base)
                    rendered = (("-" if value.is_negative else "")
                                + render_shortest(digits, opts))
            elif args.fast and args.digits is not None:
                from repro.fastpath import fixed_fast

                from repro.format.notation import render_shortest

                if value.is_nan or value.is_infinite or value.is_zero:
                    rendered = format_fixed(
                        value, ndigits=args.digits, options=opts)
                else:
                    digits = fixed_fast(value.abs(), args.digits, args.base)
                    rendered = (("-" if value.is_negative else "")
                                + render_shortest(digits, opts))
            elif fixed:
                rendered = format_fixed(
                    value, position=args.position, ndigits=args.digits,
                    decimals=args.decimals, base=args.base,
                    tie=_TIES[args.tie], options=opts,
                    engine=None if args.no_engine else _USE_DEFAULT)
            else:
                scaler = _SCALERS[args.scaler] if args.scaler else None
                if args.no_engine and scaler is None:
                    scaler = scale_estimate
                rendered = format_shortest(
                    value, base=args.base, mode=_MODES[args.reader_mode],
                    tie=_TIES[args.tie], scaler=scaler,
                    options=opts)
            print(rendered, file=out)
        except Exception as exc:  # surface per-value errors, keep going
            print(f"error: {text!r}: {exc}", file=out)
            status = 1
    if args.engine_stats:
        from repro.engine import default_engine

        for name, count in default_engine().stats().items():
            print(f"{name}: {count}", file=sys.stderr)
    return status


def main() -> None:  # pragma: no cover - direct console entry
    raise SystemExit(run())
