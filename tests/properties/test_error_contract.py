"""The error contract: public entry points raise only
:class:`~repro.errors.ReproError` subclasses on bad input.

Callers (and the bulk pool's retry logic, which treats ReproError as
"deterministic — do not retry") depend on this: a ValueError or
TypeError escaping a public API is a bug, not a style issue."""

import pytest

from repro import (
    BulkPool,
    Engine,
    Flonum,
    ReadEngine,
    ReproError,
    format_buffer,
    format_fixed,
    format_shortest,
    parse_buffer,
    read,
    read_decimal,
    read_many,
)
from repro.floats.formats import BINARY64
from repro.format.hexfloat import parse_hex

MALFORMED_TEXTS = [
    "", "   ", "not-a-number", "1.2.3", "--5", "1e", "0x", "1_0",
    "nan(", "1,5", "+-3", "e10", ".e5", "1e99999999999999999999",
]

BAD_COLUMNS = [
    ["1.5", "bogus"],
    ["", "2.0"],
    [object()],
]


def _only_repro_error(fn):
    """Call ``fn``; pass if it succeeds or raises a ReproError, fail
    on any other exception type."""
    try:
        fn()
    except ReproError:
        pass
    except Exception as exc:
        pytest.fail(f"non-ReproError escaped: {type(exc).__name__}: {exc!r}")


class TestReaderContract:
    @pytest.mark.parametrize("text", MALFORMED_TEXTS)
    def test_read_decimal(self, text):
        _only_repro_error(lambda: read_decimal(text, BINARY64))

    @pytest.mark.parametrize("text", MALFORMED_TEXTS)
    def test_tiered_read(self, text):
        _only_repro_error(lambda: read(text, BINARY64))

    @pytest.mark.parametrize("text", MALFORMED_TEXTS)
    def test_read_many(self, text):
        _only_repro_error(lambda: read_many(["1.5", text], BINARY64))

    @pytest.mark.parametrize("text", MALFORMED_TEXTS)
    def test_parse_hex(self, text):
        _only_repro_error(lambda: parse_hex(text, BINARY64))

    @pytest.mark.parametrize("text", [None, 1.5, b"1.5"])
    def test_non_string_input(self, text):
        _only_repro_error(lambda: read(text, BINARY64))


class TestFormatterContract:
    def test_format_shortest_bad_value(self):
        _only_repro_error(lambda: format_shortest("a string"))
        _only_repro_error(lambda: format_shortest(object()))

    def test_format_shortest_bad_base(self):
        v = Flonum.from_float(1.5)
        _only_repro_error(lambda: format_shortest(v, base=1))
        _only_repro_error(lambda: format_shortest(v, base=37))

    def test_format_fixed_bad_counts(self):
        v = Flonum.from_float(1.5)
        _only_repro_error(lambda: format_fixed(v, ndigits=0))
        _only_repro_error(lambda: format_fixed(v, ndigits=-3))
        _only_repro_error(
            lambda: format_fixed(v, ndigits=2, decimals=2))

    def test_engine_format_bad_value(self):
        eng = Engine()
        _only_repro_error(lambda: eng.format("nope"))
        _only_repro_error(lambda: eng.format_many([1.5, object()]))


class TestBulkContract:
    @pytest.mark.parametrize("column", BAD_COLUMNS,
                             ids=["bad-literal", "empty-literal",
                                  "non-string"])
    def test_read_bulk(self, column):
        with BulkPool(jobs=1) as pool:
            _only_repro_error(lambda: pool.read_bulk(column))
        _only_repro_error(lambda: parse_buffer(column, BINARY64))

    def test_format_bulk_bad_data(self):
        _only_repro_error(lambda: format_buffer(["not", "floats"]))
        _only_repro_error(lambda: format_buffer(object()))
        with BulkPool(jobs=1) as pool:
            _only_repro_error(lambda: pool.format_bulk(["not", "floats"]))
            _only_repro_error(lambda: pool.format_bulk(object()))

    def test_pool_constructor_validation(self):
        _only_repro_error(lambda: BulkPool(jobs=0))
        _only_repro_error(lambda: BulkPool(jobs=-2))
        _only_repro_error(lambda: BulkPool(retries=-1))
        _only_repro_error(lambda: BulkPool(deadline=0))
        _only_repro_error(lambda: BulkPool(budget=-1))
        _only_repro_error(lambda: BulkPool(on_error="explode"))
        _only_repro_error(lambda: BulkPool(delimiter=b""))

    def test_pool_bad_input_propagates_typed(self):
        with BulkPool(jobs=2) as pool:
            _only_repro_error(
                lambda: pool.read_bulk(["1.5", "not-a-number"]))
            _only_repro_error(lambda: pool.read_bulk(b"1.5\nxyz\n"))
            _only_repro_error(lambda: pool.read_bulk([], out="pickles"))

    def test_engine_reader_bad_input(self):
        eng = ReadEngine()
        for text in MALFORMED_TEXTS:
            _only_repro_error(lambda t=text: eng.read(t, BINARY64))


class TestCliContract:
    def test_bulk_cli_malformed_stdin_is_typed(self, capsys):
        from repro.cli import run

        status = run(["--bulk", "1.5", "not-a-number"])
        captured = capsys.readouterr()
        assert status == 1
        out = captured.out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("error: ParseError:")
