"""Smoke tests: the scripts under scripts/ run to completion and exit 0."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.mark.parametrize(
    "argv",
    [["random_sweep.py", "42", "40"], ["catalog_report.py"]],
    ids=["random_sweep", "catalog_report"],
)
def test_script_exits_0(argv):
    script, *args = argv
    done = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
