"""The survey scripts run against the package as it is, and print the
committed text of `tests/expected/<script>.txt` byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["loop_betti_tables.py", "witness_growth.py"])
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, str(REPO / "scripts" / script)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    expected = (REPO / "tests" / "expected" / script).with_suffix(".txt")
    assert result.stdout == expected.read_text(encoding="utf-8")
