"""Every script under ``examples/`` runs to completion.

Each example is a walk-through the README points readers at, and most
assert what they show (a warm run touches no planner, a trace validates
against its schema).  Each runs in its own interpreter, as a reader would
run it, with ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_exits_zero(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part)
    completed = subprocess.run([sys.executable, str(example)], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-4000:]
