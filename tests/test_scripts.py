"""The desk scripts start: each parses its flags through the shared scripts/_desk.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["run_desk_demo", "run_small_data", "run_sweeps", "run_transfer"])
def test_help_exits_0(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "--per-class" in proc.stdout
