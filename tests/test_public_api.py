"""The public surface: everything advertised exists and basic flows work."""

import importlib
import json
import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_names_resolve(self):
        for mod_name in ("repro.core", "repro.floats", "repro.reader",
                         "repro.baselines", "repro.bignum", "repro.format",
                         "repro.workloads", "repro.fastpath"):
            mod = importlib.import_module(mod_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod_name}.{name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2


def fresh(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as
    JSON."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    """``import repro`` loads only what the first call needs: no array
    library, no event loop, no serving or verification layer."""

    HEAVY = ("numpy", "asyncio", "repro.serve", "repro.verify")

    @pytest.mark.parametrize("stmt", ["import repro", "import repro.engine"])
    def test_import_loads_no_heavy_module(self, stmt):
        loaded = fresh(f"import json, sys\n{stmt}\n"
                       f"print(json.dumps(sorted(sys.modules)))")
        assert [m for m in self.HEAVY if m in loaded] == []

    def test_lazy_exports_resolve(self):
        got = fresh(
            "import json, repro\n"
            "from repro import (BulkPool, ServeClient, verify_format,\n"
            "                   format_shortest)\n"
            "print(json.dumps([BulkPool.__module__, ServeClient.__module__,\n"
            "                  verify_format.__module__,\n"
            "                  format_shortest(0.1),\n"
            "                  sorted(set(repro.__all__) - set(dir(repro)))]))")
        assert got == ["repro.serve.pool", "repro.serve.client",
                       "repro.verify", "0.1", []]

    def test_engine_import_loads_only_the_engine(self):
        # The modules the import adds, listed before json is imported
        # to print them (site hooks may load some at start-up).
        loaded = fresh("import sys\n"
                       "base = set(sys.modules)\n"
                       "from repro.engine import Engine\n"
                       "loaded = sorted(set(sys.modules) - base)\n"
                       "import json\n"
                       "print(json.dumps(loaded))")
        unused = ["repro.engine.buffer", "repro.engine.snapshot", "json", "tempfile",
                  "repro.baselines.gay_estimator", "repro.baselines.probe",
                  "repro.baselines.naive_printf",
                  "repro.baselines.steele_white"]
        assert [m for m in unused if m in loaded] == []
        assert "repro.baselines.naive_fixed" in loaded  # the engine's

    def test_star_import_binds_all(self):
        got = fresh("import json, repro\n"
                    "ns = {}\n"
                    "exec('from repro import *', ns)\n"
                    "print(json.dumps(sorted(set(repro.__all__) - set(ns))))")
        assert got == []

    @pytest.mark.parametrize("pkg", ["repro.engine", "repro.baselines"])
    def test_lazy_subpackage_binds_all(self, pkg):
        got = fresh(f"import json, importlib\n"
                    f"pkg = importlib.import_module({pkg!r})\n"
                    f"ns = {{}}\n"
                    f"exec('from {pkg} import *', ns)\n"
                    f"print(json.dumps([sorted(set(pkg.__all__) - set(ns)),\n"
                    f"    sorted(set(pkg.__all__) - set(dir(pkg)))]))")
        assert got == [[], []]


class TestEndToEndFlows:
    """The README examples, verbatim."""

    def test_readme_free_format(self):
        assert repro.format_shortest(0.1 + 0.2) == "0.30000000000000004"
        assert repro.format_shortest(1e23) == "1e23"
        assert repro.format_shortest(
            1e23, mode=repro.ReaderMode.NEAREST_UNKNOWN
        ) == "9.999999999999999e22"

    def test_readme_fixed_format(self):
        assert repro.format_fixed(1 / 3, ndigits=10) == "0.3333333333"
        assert repro.format_fixed(100.0, decimals=20) == (
            "100.000000000000000#####")

    def test_readme_reader(self):
        v = repro.read_decimal("0.3")
        assert v == repro.Flonum.from_float(0.3)

    def test_printf_and_repr(self):
        assert repro.format_printf("%.2f", 3.14159) == "3.14"
        assert repro.py_repr(0.1) == "0.1"
        assert repro.python_hex(1.5) == (1.5).hex()

    def test_digit_level_api(self):
        v = repro.Flonum.from_float(0.3)
        r = repro.shortest_digits(v)
        assert isinstance(r, repro.DigitResult)
        f = repro.fixed_digits(v, ndigits=3)
        assert isinstance(f, repro.FixedResult)

    def test_errors_are_catchable_as_base(self):
        with pytest.raises(repro.ReproError):
            repro.format_fixed(1.0)  # missing precision spec
        with pytest.raises(repro.ReproError):
            repro.read_decimal("not a number")
