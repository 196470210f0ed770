"""mlnsim benchmark: one workload, timed from outside, outputs checked.

    python3 benchmarks/run.py --workload ber-pair --seed 3 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``./src``.
Workloads are defined in ``workloads.py``. A run:

1. pins BLAS/OpenMP to one thread and ``MLNSIM_THREADS`` to the workload's
   worker count, so the process runs no more busy threads than workers;
2. sets up: imports mlnsim, loads every stage's config and builds codebooks
   and queries. This is timed once in-process and again in fresh
   interpreters (``setup_probe.py``); ``setup_s`` is the median;
3. repeats the workload's CLI stages for ``--seconds`` (at least twice, at
   the same seed) and reports the median pass ``wall_s`` and ``cpu_s``, and
   the process's ``peak_rss_mb``;
4. with ``--trace 1``, alternates untraced passes with traced ones (spans
   from ``spans.py``) and reports the per-layer metrics of ``layers.py``
   (medians over traced passes) instead;
5. checks every pass's outputs (``checks.py``) and that all passes wrote
   byte-identical files, and prints each metric with its unit followed by
   one JSON line: ``correct``, ``attempted`` (checks run), ``failed``
   (checks failed) and ``metrics``.

Outputs, spans and a run record with the environment and output hashes go
to ``benchmarks/out/<workload>/``.
"""

from __future__ import annotations

import os

# before anything loads numpy: LAPACK must add no threads beyond the workers
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SETUP_SAMPLES = 5
MIN_PASSES = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, threads: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "MLNSIM_THREADS": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
    }


def _probe_setup(wl_name: str, seed: int, work_dir: Path) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    work_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), wl_name, str(seed), str(work_dir)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _params(ctx) -> dict:
    params = {"preset": None, "demo": None}
    for cfg in ctx.configs:
        params["preset"] = cfg.preset or "custom"
        if cfg.command == "ber":
            params.update(
                bits=cfg.codebook.bits_per_block,
                target=cfg.target_error_events,
                cap=cfg.max_trials_per_point,
            )
            if cfg.preset == "example1":
                params["demo"] = REFERENCE / "demo"
        if cfg.command == "verify-lemmas":
            params["lemma_trials"] = cfg.trials
    return params


def _trace_pass(ctx, out_dir: Path):
    tracer = spans.Tracer()
    with spans.interpose(tracer):
        with tracer.span("setup"):
            # load_config and codebook/query construction again, now traced
            workloads.set_up(ctx.workload, ctx.seed, out_dir.parent)
        result = workloads.run_pass(ctx, out_dir, tracer)
    tracer.write(out_dir.parent / f"spans_{out_dir.name}.jsonl")
    metrics = layers.derive(tracer.spans, ctx.workload.threads, out_dir)
    return result, metrics, tracer.missing


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "mlnsim" / "__init__.py").is_file():
        print(f"run.py: no mlnsim sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    wl = workloads.WORKLOADS[args.workload]
    threads = min(wl.threads, os.cpu_count() or 1)
    os.environ["MLNSIM_THREADS"] = str(threads)

    out = HERE / "out" / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    ctx, first = workloads.set_up(wl, args.seed, out)
    import mlnsim

    origin = Path(mlnsim.__file__).resolve()
    if root / "src" not in origin.parents:
        print(f"run.py: imported mlnsim from {origin}, not from {root / 'src'}", file=sys.stderr)
        return 2
    setup = [first]
    if not args.trace:
        setup += [_probe_setup(wl.name, args.seed, out / "probe") for _ in range(SETUP_SAMPLES - 1)]

    deadline = time.perf_counter() + args.seconds
    passes, untraced, traced, layer_samples, missing = [], [], [], [], []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        pass_dir = out / f"pass{len(passes)}"
        if args.trace and len(traced) < len(untraced):
            result, layer_metrics, missing = _trace_pass(ctx, pass_dir)
            traced.append(result)
            layer_samples.append(layer_metrics)
        else:
            result = workloads.run_pass(ctx, pass_dir)
            untraced.append(result)
        passes.append(result)

    params = _params(ctx)
    results = checks.check_pass(passes[0].out_dir, REFERENCE / wl.name, params)
    for p in passes:
        results += [
            checks.Check(f"{p.out_dir.name} stage {i} exit code", code == 0, f"exit {code}")
            for i, code in enumerate(p.exit_codes)
        ]
    hashes = checks.sha256_dir(passes[0].out_dir)
    for p in passes[1:]:
        results.append(checks.Check(
            f"{p.out_dir.name} outputs identical to {passes[0].out_dir.name}",
            checks.sha256_dir(p.out_dir) == hashes,
        ))
    failed = [c for c in results if not c.ok]

    ref_hashes = json.loads((REFERENCE / "hashes.json").read_text())[wl.name]
    byte_match = hashes == ref_hashes if args.seed == checks.REFERENCE_SEED else None

    if args.trace:
        overhead = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced) - 1.0
        )
        metrics = {
            name: overhead if name == "trace.overhead_frac"
            else statistics.median(s[name] for s in layer_samples)
            for name in layers.UNITS
        }
        units = layers.UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "cpu_s": statistics.median(r.cpu_s for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    env = environment(root, threads)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "environment": env,
        "passes": [{"dir": p.out_dir.name, "wall_s": p.wall_s, "cpu_s": p.cpu_s} for p in passes],
        "setup_samples_s": setup, "metrics": metrics,
        "checks_run": len(results), "checks_failed": len(failed),
        "failed_checks": [dataclasses.asdict(c) for c in failed],
        "output_sha256": hashes, "reference_byte_match": byte_match,
        "untraced_functions": missing,
    }
    (out / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    print("environment " + json.dumps(env))
    print("pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes)
          + "  setup samples s " + " ".join(f"{t:.3f}" for t in setup))
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'checks_failed':36s} {len(failed):14d} count  (of checks_run {len(results)} count)")
    for c in failed:
        print(f"  FAILED {c.name}: {c.detail}")
    match = "n/a (seed differs from the reference seed)" if byte_match is None else byte_match
    print(f"outputs byte-identical to reference: {match}")
    if missing:
        print("not traced (absent from mlnsim): " + ", ".join(missing))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
