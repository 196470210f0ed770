"""In-process wall and CPU time of each CLI stage of a preset or config file, from the standard library alone.

    python tools/stagetimes.py [--preset NAME | --config FILE] [--stages ber,pep] [--runs 7]
                               [--seed 1] [--src DIR] [--label TEXT] [--record FILE] [CLI arguments ...]

For each stage (every stage of ``reproduce`` by default) the stage's config is
loaded as ``mlnsim <stage> --preset NAME`` (example1 by default) or ``mlnsim
<stage> --config FILE`` would load it, with the further CLI arguments (for
example ``--max-trials 20000``), the fixed ``--seed`` and a temporary output
directory. Then ``mlnsim.cli._RUNNERS[stage]`` runs in this process once as a
warm-up and ``--runs`` times more (at least 7), each into a fresh dict of output
files, so nothing is written. The table gives the median and interquartile
range of each stage's wall (``perf_counter``) and CPU (``process_time``, every
thread of the process) seconds, and says whether every run's outputs had the
same bytes. ``--src`` imports mlnsim from another source tree (a checkout of
an earlier commit, say), so one harness times both sides of a change on one
machine. ``--record FILE`` appends the table, the environment and the sha256
of each stage's outputs to the JSON list of records in FILE, under ``--label``.
A stage whose runs differ in their outputs, or that raises, makes the exit
status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 7


def _spread(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def time_stage(cli, stage: str, setting: list[str], extra: list[str], runs: int) -> dict:
    """Load the stage's config, run its runner once untimed and runs times timed; return its timings and hashes."""
    with tempfile.TemporaryDirectory() as out:
        overrides = vars(cli._build_parser().parse_args([stage, *setting, *extra, "--out", out]))
        cfg = cli.load_config(overrides.pop("config"), overrides)
        walls, cpus, hashes = [], [], []
        for run in range(runs + 1):
            files = {}
            with contextlib.redirect_stdout(io.StringIO()):  # the runners print their JSON reports
                cpu, wall = time.process_time(), time.perf_counter()
                cli._RUNNERS[stage](cfg, files)
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            hashes.append({name: hashlib.sha256(text.encode()).hexdigest() for name, text in sorted(files.items())})
            if run:  # the first run warms the caches, the pool and the heap
                walls.append(wall)
                cpus.append(cpu)
    return {
        "runs": runs, "wall_s": _spread(walls), "cpu_s": _spread(cpus),
        "same_outputs": all(h == hashes[0] for h in hashes), "sha256": hashes[0],
    }


def _git(src: Path, *args: str) -> str | None:
    """git's output for the checkout that holds src, or None outside a checkout."""
    try:
        run = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return run.stdout.strip() if run.returncode == 0 else None


def _environment(src: Path, numpy) -> dict:
    status = _git(src, "status", "--porcelain", "--", ".")
    env = {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "git_sha": _git(src, "rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),  # uncommitted changes under src
    }
    env.update({name: os.environ.get(name) for name in ("MLNSIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    if "scipy" in sys.modules:
        env["scipy"] = sys.modules["scipy"].__version__
    return env


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    setting = parser.add_mutually_exclusive_group()
    setting.add_argument("--preset", default="example1")
    setting.add_argument("--config", metavar="FILE")
    parser.add_argument("--stages", default=None, help="comma-separated stages (default: every stage of reproduce)")
    parser.add_argument("--runs", type=int, default=MIN_RUNS, help=f"timed runs per stage, at least {MIN_RUNS}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import mlnsim from")
    parser.add_argument("--label", default="", help="name of the record in --record")
    parser.add_argument("--record", type=Path, metavar="FILE", help="JSON file to append the record to")
    args, extra = parser.parse_known_args(argv)
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be at least {MIN_RUNS}")
    sys.path.insert(0, str(args.src.resolve()))
    import numpy

    from mlnsim import cli

    stages = args.stages.split(",") if args.stages else list(cli.STAGES["reproduce"])
    chosen = ["--config", args.config] if args.config else ["--preset", args.preset]
    extra = [*extra, "--seed", str(args.seed)]
    print(f"{'stage':<14} {'runs':>4} {'wall_s':>9} {'iqr':>8} {'cpu_s':>9} {'iqr':>8} same_outputs")
    table, failed = {}, False
    for stage in stages:
        try:
            row = table[stage] = time_stage(cli, stage, chosen, extra, args.runs)
        except Exception as exc:  # a stage that cannot run is reported, and the others still run
            print(f"{stage:<14} failed: {type(exc).__name__}: {exc}")
            failed = True
            continue
        failed |= not row["same_outputs"]
        wall, cpu = row["wall_s"], row["cpu_s"]
        print(f"{stage:<14} {row['runs']:4d} {wall['median']:9.4f} {wall['iqr']:8.4f} "
              f"{cpu['median']:9.4f} {cpu['iqr']:8.4f} {row['same_outputs']}", flush=True)
    if args.record is not None:
        records = json.loads(args.record.read_text()) if args.record.exists() else []
        config = Path(args.config) if args.config else None
        records.append({  # a config file by name and content, so the record holds no path of this machine
            "label": args.label, "setting": ["--config", config.name] if config else chosen,
            "config": json.loads(config.read_text()) if config else None, "arguments": extra,
            "environment": _environment(args.src, numpy), "stages": table,
        })
        args.record.write_text(json.dumps(records, indent=2) + "\n")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
