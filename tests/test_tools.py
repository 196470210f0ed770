"""Smoke test for the report scripts under tools/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_peakmem_reports_every_stage_and_writes_nothing(tmp_path):
    argv = ["--preset", "example3", "--trials", "200", "--max-trials", "2000", "--snr-grid", "0:6:12"]
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peakmem.py"), *argv], cwd=tmp_path,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    header, *rows = (line.split() for line in run.stdout.splitlines())
    assert header == ["stage", "peak_rss_mb", "wall_s", "exit"]
    assert [r[0] for r in rows] == ["(import)", "measure", "verify-lemmas", "pep", "ber"]
    assert all(float(r[1]) > 0 and r[3] == "0" for r in rows)
    assert list(tmp_path.iterdir()) == []  # every stage wrote to a temporary directory
