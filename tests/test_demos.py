"""Smoke tests for the scripts under demos/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name: str, **env) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", **env)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["01_channel_and_queries.py", "02_rank_measures.py", "04_ber_comparison.py"])
def test_demo_exits_zero(name):
    run = _run_demo(name)
    assert run.returncode == 0, run.stderr


def test_pep_demo_does_not_depend_on_hash_seed():
    # Python salts str hashes per process, so a stream keyed by hash(name) would differ
    outs = []
    for hash_seed in ("1", "2"):
        run = _run_demo("03_pep_analysis.py", PYTHONHASHSEED=hash_seed)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] and "example1" in outs[0]
