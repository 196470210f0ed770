"""Smoke tests for the scripts under demos/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pep_demo_does_not_depend_on_hash_seed():
    # Python salts str hashes per process, so a stream keyed by hash(name) would differ
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
        run = subprocess.run([sys.executable, str(ROOT / "demos" / "03_pep_analysis.py")], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] and "example1" in outs[0]
