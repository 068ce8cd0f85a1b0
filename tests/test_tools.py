"""Smoke test for the report generator."""

import subprocess
import sys


def test_regenerate_reports_runs():
    out = subprocess.run(
        [sys.executable, "tools/regenerate_reports.py", "120"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    text = out.stdout
    assert "Table 2" in text
    assert "Table 3" in text
    assert "free / fixed-17" in text
    assert "grisu3 hit rate" in text
    # The modern/exact rows must report zero incorrect.
    assert "(113-bit chain):     0/120" in text
