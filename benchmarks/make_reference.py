"""Regenerate the reference outputs the checks compare against.

    python3 benchmarks/make_reference.py

Run from the repository root. Runs one pass of every workload at
``checks.REFERENCE_SEED`` and replaces ``benchmarks/reference/<workload>/``
and ``benchmarks/reference/hashes.json``. ``reference/demo/`` holds copies
of ``demos/ber_curves/example1_*.csv`` and is left alone.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    hashes = {}
    for name, wl in workloads.WORKLOADS.items():
        os.environ["MLNSIM_THREADS"] = str(min(wl.threads, os.cpu_count() or 1))
        with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
            ctx, _ = workloads.set_up(wl, checks.REFERENCE_SEED, Path(tmp))
            result = workloads.run_pass(ctx, Path(tmp) / "pass")
            if any(result.exit_codes):
                raise SystemExit(f"{name}: stage exit codes {result.exit_codes}")
            dest = REFERENCE / name
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(result.out_dir, dest)
        hashes[name] = checks.sha256_dir(dest)
        print(f"{name}: {len(hashes[name])} files, {result.wall_s:.2f} s")
    (REFERENCE / "hashes.json").write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
