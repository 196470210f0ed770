"""Wall time, CPU time and peak memory of each CLI stage of a preset or config file, from the standard library alone.

    python tools/stagetimes.py [--preset NAME | --config FILE] [--stages ber,pep] [--runs 7]
                               [--seed 1] [--src DIR] [--label TEXT] [--record FILE] [CLI arguments ...]
    python tools/stagetimes.py --kernels [--draws 8192] [same options]

For each stage (every stage of ``reproduce`` by default), ``mlnsim.cli._RUNNERS[stage]``
runs in this process on the config ``mlnsim <stage> --preset NAME`` (example1 by
default) or ``--config FILE`` loads, with the further CLI arguments (for example
``--max-trials 20000``) and the fixed ``--seed``: once as a warm-up and ``--runs``
times more (at least 7), each into a fresh dict of output files. Then ``python -m
mlnsim.cli`` runs the same arguments in ``--runs`` fresh interpreters, each in a
temporary working directory of its own, so nothing is written here. The table gives
the median and interquartile range of the in-process wall (``perf_counter``) and CPU
(``process_time``, every thread) seconds and of each child's own peak RSS and minor
page faults (``ru_maxrss`` and ``ru_minflt``, from ``os.wait4``), and whether every
run had outputs of the same bytes. The ``(import)`` row, one child that only imports
``mlnsim.cli``, is the floor under every stage. ``--src`` imports mlnsim from another
source tree (a checkout of an earlier commit, say), here and in the children, so one
harness measures both sides of a change on one machine. ``--record FILE`` appends the
table, the floor, the environment and the sha256 of each stage's outputs to the JSON
list of records in FILE, under ``--label``. A stage whose runs differ in their
outputs, that raises, or whose child exits non-zero makes the exit status 1.

``--kernels`` reports, in place of the stage table, the draws per second of
each kernel named in ``KERNELS``, called directly (nothing is patched) on
``--draws`` draws of the setting's shapes: the median of ``--runs`` calls after
a warm-up, on inputs drawn once from a fixed stream of ``--seed``. A kernel
the source tree lacks, or that raises, is reported as failed and makes the
exit status 1; ``--record`` keeps the rates under ``kernels``.
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


def run_child(src: Path, argv: list[str]) -> tuple[int, float, int, dict]:
    """Run python argv in a fresh interpreter on src, in a temporary working directory of its own; return its
    exit code, peak RSS (MiB), minor faults and the sha256 of each file it wrote under ./out."""
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}  # an empty entry would add the cwd
    with tempfile.TemporaryDirectory() as cwd:  # python -m puts it first on sys.path, so it must hold no mlnsim
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in Path(cwd).glob("out/*")}
    rss_mb = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)  # bytes on macOS, KiB on Linux
    return proc.returncode, rss_mb, usage.ru_minflt, written


def time_stage(cli, src: Path, stage: str, setting: list[str], extra: list[str], runs: int) -> dict:
    """Time the stage's runner here (a warm-up, then runs timed runs), then measure runs fresh children of it."""
    argv = [stage, *setting, *extra, "--out", "out"]  # a runner writes nowhere, and a child in its own directory
    overrides = vars(cli._build_parser().parse_args(argv))
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
    codes, rss, faults, written = zip(*(run_child(src, ["-m", "mlnsim.cli", *argv]) for _ in range(runs)))
    if any(codes):
        raise RuntimeError(f"a fresh `mlnsim {stage}` exited with status {next(c for c in codes if c)}")
    return {"runs": runs, "wall_s": _spread(walls), "cpu_s": _spread(cpus), "peak_rss_mb": _spread(rss),
            "minflt": _spread(faults), "same_outputs": all(h == hashes[0] for h in hashes + list(written)),
            "sha256": hashes[0]}


# the kernels --kernels times, each on n draws (blocks, matrices or Q-function arguments)
KERNELS = (
    "linalg.sample_blocks", "linalg.sample_gram_factor", "query.effective_forward", "channel.mix",
    "simulate._metric+_score_points", "pep._lambda_products", "pep.qfunc", "measure._ranks",
)


def _kernel_calls(cfg, n: int) -> dict:
    """name -> a call of that kernel on n draws of cfg's shapes, with its inputs drawn here once."""
    import numpy as np

    from mlnsim import channel, codes, linalg, measure, pep, query, simulate

    M, L, N, T = cfg.dims.M, cfg.dims.L, cfg.dims.N, cfg.dims.T
    d, A = codes._as_diff(cfg.delta), measure.scheme_weights(cfg.delta, "unitary")
    rng = linalg.make_rng(cfg.seed, (99,))  # a stream no stage draws from
    Q = simulate.build_query(cfg.query, cfg.dims, cfg.seed)
    # the inputs the BER chunk draws: H whole, G's canonical factor and the noise W U^H, T x min(L, N)
    H = linalg.sample_blocks((M, L), n, rng)
    G = linalg.sample_gram_factor(L, N, n, rng)
    W = linalg.sample_blocks((T, min(L, N)), n, rng)
    X, C = query.effective_forward(Q, H), d.delta.T[:, :, None]
    words, weights = simulate._sent_words(cfg.codebook), cfg.codebook.metric_weights
    sent = rng.integers(0, words.shape[-1], n)
    gram, V = simulate._shared_terms(G, W)
    noise_stds = np.sqrt(1.0 / channel.snr_gain(np.array(cfg.snr_grid_db)))  # descending, as the grid ascends
    x = np.sqrt(channel.snr_gain(20.0) * np.sum(np.abs(channel.mix(X, C, G)) ** 2, axis=(0, 1)) / 2.0)

    def score():
        tallies = np.zeros((2, len(noise_stds)), dtype=np.int64)
        base, noise = simulate._metric(X, gram, V, np.take(words, sent, axis=2), weights)
        simulate._score_points(base, noise, weights, sent, noise_stds, tallies)

    return {
        "linalg.sample_blocks": lambda: linalg.sample_blocks((M, L), n, rng),  # H's shape; W's is T x min(L, N)
        "linalg.sample_gram_factor": lambda: linalg.sample_gram_factor(L, N, n, rng),
        "query.effective_forward": lambda: query.effective_forward(Q, H),
        "channel.mix": lambda: channel.mix(X, C, G),
        "simulate._metric+_score_points": score,
        "pep._lambda_products": lambda: list(pep._lambda_products(A, N, n, [100.0], rng)),
        "pep.qfunc": lambda: pep.qfunc(x),
        "measure._ranks": lambda: measure._ranks(d, G),
    }


def time_kernels(cfg, n: int, runs: int) -> tuple[dict, list]:
    """Draws per second of each of KERNELS on n draws (median of runs after a warm-up), and the names that failed."""
    calls = _kernel_calls(cfg, n)
    rates, failed = {}, []
    for name in KERNELS:
        try:
            samples = []
            for run in range(runs + 1):
                start = time.perf_counter()
                calls[name]()
                if run:
                    samples.append(time.perf_counter() - start)
        except Exception as exc:  # a kernel the source tree lacks is reported, and the others still run
            print(f"{name:<31} failed: {type(exc).__name__}: {exc}")
            failed.append(name)
            continue
        seconds = _spread(samples)
        rates[name] = {"draws": n, "runs": runs, "seconds": seconds, "draws_per_s": n / seconds["median"]}
        print(f"{name:<31} {n:8d} {rates[name]['draws_per_s']:14.4g} {seconds['median']:10.3g}", flush=True)
    return rates, failed


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
    parser.add_argument("--runs", type=int, default=MIN_RUNS, help=f"runs and children per stage, at least {MIN_RUNS}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import mlnsim from")
    parser.add_argument("--label", default="", help="name of the record in --record")
    parser.add_argument("--record", type=Path, metavar="FILE", help="JSON file to append the record to")
    parser.add_argument("--kernels", action="store_true", help="time the kernels instead of the stages")
    parser.add_argument("--draws", type=int, default=8192, help="draws per kernel call (with --kernels)")
    args, extra = parser.parse_known_args(argv)
    if args.runs < MIN_RUNS:
        parser.error(f"--runs must be at least {MIN_RUNS}")
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    try:  # read before any run, so a bad file loses no measurement
        records = json.loads(args.record.read_text()) if args.record and args.record.exists() else []
    except (OSError, ValueError) as exc:
        parser.error(f"--record {args.record}: {exc}")
    if not isinstance(records, list):
        parser.error(f"--record {args.record} holds a JSON {type(records).__name__}, not a list of records")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy

    from mlnsim import cli

    reproduce = cli.STAGES["reproduce"]
    stages = args.stages.split(",") if args.stages else list(reproduce)
    if not set(stages) <= set(reproduce):
        unknown = ", ".join(stage for stage in stages if stage not in reproduce)
        parser.error(f"--stages: {unknown} is not a stage of reproduce ({', '.join(reproduce)})")
    config = Path(args.config).resolve() if args.config else None  # the children run in other directories
    chosen = ["--config", str(config)] if config else ["--preset", args.preset]
    extra = [*extra, "--seed", str(args.seed)]
    table, failed, kernels, floor = {}, False, None, None
    if args.kernels:
        stages = []
        overrides = vars(cli._build_parser().parse_args(["ber", *chosen, *extra]))
        cfg = cli.load_config(overrides.pop("config"), overrides)
        print(f"{'kernel':<31} {'draws':>8} {'draws_per_s':>14} {'median_s':>10}")
        kernels, missed = time_kernels(cfg, args.draws, args.runs)
        failed = bool(missed)
    else:
        print("stage          runs    wall_s      iqr     cpu_s      iqr peak_rss_mb    iqr   minflt    iqr same_outputs")
        code, rss, faults, _ = run_child(src, ["-c", "import mlnsim.cli"])
        floor, failed = {"peak_rss_mb": rss, "minflt": faults}, code != 0
        print(f"{'(import)':<14} {1:4d}{'-':>10}{'-':>9}{'-':>10}{'-':>9} {rss:11.1f}{'-':>7} {faults:8d}{'-':>7} "
              + (f"failed: exit status {code}" if code else "-"), flush=True)
    for stage in stages:
        try:
            row = table[stage] = time_stage(cli, src, stage, chosen, extra, args.runs)
        except Exception as exc:  # a stage that cannot run is reported, and the others still run
            print(f"{stage:<14} failed: {type(exc).__name__}: {exc}")
            failed = True
            continue
        failed |= not row["same_outputs"]
        wall, cpu, rss, faults = row["wall_s"], row["cpu_s"], row["peak_rss_mb"], row["minflt"]
        print(f"{stage:<14} {row['runs']:4d} {wall['median']:9.4f} {wall['iqr']:8.4f} {cpu['median']:9.4f} "
              f"{cpu['iqr']:8.4f} {rss['median']:11.1f} {rss['iqr']:6.2f} {faults['median']:8.0f} "
              f"{faults['iqr']:6.0f} {row['same_outputs']}", flush=True)
    if args.record is not None:
        records.append({  # a config file by name and content, so the record holds no path of this machine
            "label": args.label, "setting": ["--config", config.name] if config else chosen,
            "config": json.loads(config.read_text()) if config else None, "arguments": extra,
            "environment": _environment(args.src, numpy), "stages": table,
            **({"kernels": kernels} if args.kernels else {"import_floor": floor}),
        })
        args.record.write_text(json.dumps(records, indent=2) + "\n")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
