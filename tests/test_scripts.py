"""The desk scripts start: each parses its flags through the shared scripts/_desk.py, and the
three that write CSVs run end to end at a tiny shape."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REPORT_HEADER = "sample_id,clean_pred,perturbed_pred,snr_db,l_db"
TINY = ["--classes", "2", "--per-class", "6", "--test-per-class", "3", "--dim", "1024", "--epochs", "2"]


def _run(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", ["run_desk_demo", "run_small_data", "run_sweeps", "run_transfer"])
def test_help_exits_0(name):
    proc = _run(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--per-class" in proc.stdout


@pytest.mark.parametrize("name, headers", [
    ("run_desk_demo", {"greedy-untargeted.csv": REPORT_HEADER, "penalty-untargeted.csv": REPORT_HEADER,
                       "penalty-targeted-0.csv": REPORT_HEADER, "penalty-targeted-1.csv": REPORT_HEADER}),
    ("run_sweeps", {"confidence_sweep.csv": "kappa,train_asr,test_asr,mean_snr_db,mean_l_db",
                    "datacount_sweep.csv": "method,m,train_asr,test_asr,mean_snr_db,mean_l_db"}),
    ("run_transfer", {"transfer.csv": "source\\victim,rand-cnn-0,gamma-cnn-1,linear-2"}),
])
def test_tiny_run_writes_its_csvs(name, headers, tmp_path):
    proc = _run(name, *TINY, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    written = {p.name: p.read_text().splitlines()[0] for p in tmp_path.glob("*.csv")}
    assert written == headers
