"""The package definition: ``setup.py`` reads its metadata from ``pyproject.toml``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_the_package_name_and_version():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    assert completed.stdout.split() == ["repro", repro.__version__]
