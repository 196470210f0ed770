"""The benchmark's workloads, their set-up and one timed pass of each.

Every workload drives the public CLI entry point ``mlnsim.cli.main``
in-process. The benchmark draws nothing itself: its seed goes to the CLI as
``--seed`` (and to the Q-function cross-check's streams), so one seed gives
one set of inputs.

Why these three, and why not more:

* ``ber-pair`` is the paper's headline comparison (example1, DFT vs uniform
  query, 2-word code). Time goes to sampling and channel mixing, and the
  deep-tail uniform points stop at the trial cap, so they are the thread
  pool's stragglers. It runs on 2 workers.
* ``ber-codebook`` uses the same simulator the other way round: 256 words
  (uncoded BPSK on 4 tag antennas) make the ML metric and argmin dominate,
  and every point meets its event target in its first batch. One worker,
  so it is also the control for thread-pool utilisation.
* ``pep-curves`` is the analysis path (measure, verify-lemmas, pep, plus a
  Q-function cross-check curve). Batched-SVD eigen-product calls dominate;
  it does no BER simulation and uses little memory.

example2 and example3 take the same code paths as example1 with smaller
dimensions, so they would add run time without covering another layer.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int  # MLNSIM_THREADS for the run
    stages: tuple  # one dict of load_config overrides per CLI stage
    config_file: dict | None = None  # written to config.json, passed as --config
    qfunc_crosscheck: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ber-pair",
            why="example1 2-word code, DFT vs uniform query on 2 workers: sampling and "
            "mixing bound, deep-tail uniform points stop at the trial cap",
            threads=2,
            stages=(
                {
                    "command": "ber", "preset": "example1", "query": "dft",
                    "snr_grid_db": "0:2:24", "target_error_events": 200,
                    "max_trials_per_point": 300_000,
                },
            ),
        ),
        Workload(
            name="ber-codebook",
            why="256-word uncoded BPSK (M=T=2, L=4, N=2) on 1 worker: ML metric and "
            "argmin bound, every point meets its event target in its first batch",
            threads=1,
            stages=({"command": "ber"},),
            config_file={
                "m": 2, "l": 4, "n": 2, "t": 2, "codebook": "uncoded-bpsk", "query": "dft",
                "snr_grid_db": "0:6:24", "target_error_events": 200,
                "max_trials_per_point": 10_000,
            },
        ),
        Workload(
            name="pep-curves",
            why="example1 measure, verify-lemmas and pep stages plus a Q-function "
            "cross-check: eigen-product SVDs dominate, no BER simulation",
            threads=1,
            stages=(
                {"command": "measure", "preset": "example1"},
                {"command": "verify-lemmas", "preset": "example1", "trials": 100_000},
                {
                    "command": "pep", "preset": "example1", "snr_grid_db": "10:5:45",
                    "trials": 50_000,
                },
            ),
            qfunc_crosscheck=True,
        ),
    )
}

_FLAGS = {
    "preset": "--preset", "query": "--query", "snr_grid_db": "--snr-grid",
    "target_error_events": "--events", "max_trials_per_point": "--max-trials",
    "trials": "--trials",
}

# stream key of the Q-function cross-check; the CLI uses keys 10, 20, 21
QFUNC_STREAM = 30


@dataclass
class Context:
    """What set-up builds for one workload and what the passes reuse."""

    workload: Workload
    seed: int
    configs: list  # ExperimentConfig per stage, as the CLI will load it
    argvs: list  # CLI argv per stage, without --out
    queries: list  # the BER stages' query matrices, built so set-up pays for them


def _argv(stage: dict, seed: int, config_path: Path | None) -> list[str]:
    argv = [stage["command"]]
    if config_path is not None:
        argv += ["--config", str(config_path)]
    for key, flag in _FLAGS.items():
        if key in stage:
            argv += [flag, str(stage[key])]
    return argv + ["--seed", str(seed)]


def set_up(workload: Workload, seed: int, work_dir: Path) -> tuple[Context, float]:
    """Import mlnsim, load every stage's config and build codebooks and queries.

    Returns the context and the seconds it took. ``work_dir`` must exist;
    the workload's config file, if any, is written there.
    """
    t0 = time.perf_counter()
    mlnsim = importlib.import_module("mlnsim")
    importlib.import_module("mlnsim.cli")
    config_path = None
    if workload.config_file is not None:
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(workload.config_file), encoding="utf-8")
    ctx = Context(workload, seed, [], [], [])
    for stage in workload.stages:
        overrides = {"out": str(work_dir / "out"), "seed": seed, **stage}
        cfg = mlnsim.config.load_config(None if config_path is None else str(config_path), overrides)
        ctx.configs.append(cfg)
        ctx.argvs.append(_argv(stage, seed, config_path))
        if cfg.command == "ber":
            ctx.queries.append(mlnsim.query.unitary_query(cfg.dims.M, cfg.query))
            ctx.queries.append(mlnsim.query.uniform_query(cfg.dims.T, cfg.dims.M))
    return ctx, time.perf_counter() - t0


def _null_span(name, **args):
    return contextlib.nullcontext()


@dataclass
class PassResult:
    out_dir: Path
    wall_s: float
    cpu_s: float
    exit_codes: list


def run_pass(ctx: Context, out_dir: Path, tracer=None) -> PassResult:
    """Run every stage of the workload once into ``out_dir`` and time it."""
    import mlnsim

    span = tracer.span if tracer is not None else _null_span
    out_dir.mkdir(parents=True)
    codes = []
    sink = io.StringIO()  # the CLI prints its JSON reports; they are also written to files
    cpu0, t0 = time.process_time(), time.perf_counter()
    with span("pass"):
        for cfg, argv in zip(ctx.configs, ctx.argvs):
            with span("cli.main", command=cfg.command), contextlib.redirect_stdout(sink):
                codes.append(mlnsim.cli.main(argv + ["--out", str(out_dir)]))
        if ctx.workload.qfunc_crosscheck:
            cfg = ctx.configs[-1]
            for i, scheme in enumerate(("unitary", "uniform")):
                rng = mlnsim.linalg.make_rng(ctx.seed, (QFUNC_STREAM, i))
                curve = [
                    mlnsim.pep.pep_qfunction_mc(scheme, cfg.delta, cfg.dims, snr, cfg.trials, rng)
                    for snr in cfg.snr_grid_db
                ]
                (out_dir / f"qfunc_{cfg.preset}_{scheme}.csv").write_text(
                    mlnsim.pep.pep_curve_to_csv(curve), encoding="utf-8"
                )
    return PassResult(out_dir, time.perf_counter() - t0, time.process_time() - cpu0, codes)
