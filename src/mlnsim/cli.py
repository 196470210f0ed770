"""Command-line front end.

    mlnsim <command> [--preset X] [--config FILE] [--seed U64] [--trials N]
                     [--snr-grid A:STEP:B] [--query dft|hadamard|random-unitary]
                     [--events N] [--max-trials N] [--out DIR]

Commands:
    measure        print and write the rank-based measure report
    verify-lemmas  empirically validate the almost-sure rank predictions
    pep            PEP curves for both query schemes, ratio curve, exponents
    ber            BER sweep for both query schemes plus gain summary
    reproduce      full pipeline (measure + lemmas + pep + ber) for a preset

Exit codes: 0 success, 1 usage error, 2 validation failure or a failed run,
3 verify-lemmas check failure. A run that fails writes no output files; files
are written when the command finishes.
MLNSIM_THREADS caps worker parallelism (default: machine core count).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .config import (
    DEFAULT_BER_GRID, DEFAULT_OUT, DEFAULT_PEP_GRID, DEFAULT_PEP_TRIALS, DEFAULT_QUERY, DEFAULT_TRIALS,
    EXPONENT_FIT_FROM_DB, STAGES, ConfigError, ExperimentConfig, load_config,
)
from .linalg import make_rng
from .measure import QUERY_SCHEMES, compare_queries, empirical_rank_check
from .pep import (
    FIT_MIN_POINTS, FIT_MIN_SPAN_DB,
    DivergentAverageError,
    decay_exponent_checked,
    pep_curve_to_csv,
    pep_eigen_product_curve,
    ratio_curve_to_csv,
    ratio_point,
)
from .query import UNITARY_KINDS
from .simulate import (
    DEFAULT_MAX_TRIALS_PER_POINT, DEFAULT_TARGET_ERROR_EVENTS, LevelNotCrossedError, SnrSweepConfig, _worker_count, gain_at_ber,
    simulate_bers,
)

GAIN_LEVELS = (1e-2, 1e-3)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _grid_text(grid: tuple) -> str:
    """An evenly spaced grid as the A:STEP:B text --snr-grid takes."""
    return f"{grid[0]:g}:{grid[1] - grid[0]:g}:{grid[-1]:g}"


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mlnsim",
        description="Backscatter MIMO query-scheme simulation laboratory.",
        epilog=__doc__.split("Commands:")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # read a value such as -10:5:0 (a negative --snr-grid) as a value, not a flag, as argparse does from 3.13 on
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    parser.add_argument("command", choices=tuple(STAGES), help="what to run")
    parser.add_argument("--preset", default=None, help="example1 | example2 | example3")
    parser.add_argument("--config", default=None, metavar="FILE", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed (default 0)")
    parser.add_argument(
        "--trials", type=int, default=None,
        help=f"Monte Carlo trials for verify-lemmas/pep (defaults {DEFAULT_TRIALS} / {DEFAULT_PEP_TRIALS})",
    )
    parser.add_argument(
        "--snr-grid", dest="snr_grid_db", default=None, metavar="A:STEP:B",
        help=f"SNR grid in dB (defaults: ber {_grid_text(DEFAULT_BER_GRID)}, pep {_grid_text(DEFAULT_PEP_GRID)})",
    )
    parser.add_argument(
        "--query", default=None, choices=UNITARY_KINDS,
        help=f"unitary construction compared against the uniform query (default {DEFAULT_QUERY})",
    )
    parser.add_argument(
        "--events", dest="target_error_events", type=int, default=None, metavar="N",
        help=f"target error events per BER point (default {DEFAULT_TARGET_ERROR_EVENTS})",
    )
    parser.add_argument(
        "--max-trials", dest="max_trials_per_point", type=int, default=None, metavar="N",
        help=f"trial cap per BER point (default {DEFAULT_MAX_TRIALS_PER_POINT})",
    )
    parser.add_argument("--out", default=None, metavar="DIR", help=f"output directory (default {DEFAULT_OUT})")
    return parser


def _slug(cfg: ExperimentConfig) -> str:
    return cfg.preset or "custom"


def _report(files: dict, name: str, doc: dict) -> None:
    """Print doc as indented JSON and store the same text as the output file name."""
    text = json.dumps(doc, indent=2)
    print(text)
    files[name] = text + "\n"


def _run_measure(cfg: ExperimentConfig, files: dict) -> int:
    _report(files, f"measure_{_slug(cfg)}.json", compare_queries(cfg.delta, cfg.dims.N).to_dict())
    return 0


def _run_verify_lemmas(cfg: ExperimentConfig, files: dict) -> int:
    rng = make_rng(cfg.seed, (10,))
    report = empirical_rank_check(cfg.delta, cfg.dims.N, cfg.trials, rng)
    _report(files, f"lemma_check_{_slug(cfg)}.json", report.to_dict())
    if not report.passed:
        print("rank predictions NOT met on sampled draws", file=sys.stderr)
        return 3
    return 0


def _exponent_summary(estimates, nominal: int) -> dict:
    window = [e for e in estimates if e.snr_db >= EXPONENT_FIT_FROM_DB]
    if len(window) < FIT_MIN_POINTS or window[-1].snr_db - window[0].snr_db < FIT_MIN_SPAN_DB:
        window = estimates
    try:
        return {"nominal": nominal, "fitted": decay_exponent_checked(window, nominal), "divergent": False}
    except (DivergentAverageError, ValueError) as exc:
        divergent = isinstance(exc, DivergentAverageError)
        return {"nominal": nominal, "fitted": None, "divergent": divergent, "diagnostic": str(exc)}


def _run_pep(cfg: ExperimentConfig, files: dict) -> int:
    slug = _slug(cfg)
    measures = compare_queries(cfg.delta, cfg.dims.N)
    curves = {}
    for i, scheme in enumerate(QUERY_SCHEMES):
        rng = make_rng(cfg.seed, (20, i))
        curves[scheme] = pep_eigen_product_curve(scheme, cfg.delta, cfg.dims, cfg.pep_grid_db, cfg.trials, rng)
        files[f"pep_{slug}_{scheme}.csv"] = pep_curve_to_csv(curves[scheme])
    ratio = [ratio_point(eu, ef) for eu, ef in zip(curves["unitary"], curves["uniform"])]
    files[f"pep_{slug}_ratio.csv"] = ratio_curve_to_csv(ratio)
    summary = {
        "preset": cfg.preset,
        "snr_grid_db": list(cfg.pep_grid_db),
        "trials": cfg.trials,
        "unitary": _exponent_summary(curves["unitary"], measures.r_unitary),
        "uniform": _exponent_summary(curves["uniform"], measures.r_uniform),
    }
    _report(files, f"pep_{slug}_summary.json", summary)
    return 0


def _run_ber(cfg: ExperimentConfig, files: dict) -> int:
    slug = _slug(cfg)
    kinds = (cfg.query, "uniform")
    sweeps = [
        SnrSweepConfig(
            dims=cfg.dims,
            query_kind=kind,
            codebook=cfg.codebook,
            snr_grid_db=cfg.snr_grid_db,
            max_trials_per_point=cfg.max_trials_per_point,
            target_error_events=cfg.target_error_events,
            seed=cfg.seed,
        )
        for kind in kinds
    ]
    curves = dict(zip(kinds, simulate_bers(sweeps)))
    for kind, curve in curves.items():
        files[f"ber_{slug}_{kind}.csv"] = curve.to_csv()
    summary = {"preset": cfg.preset, "query": cfg.query, "snr_grid_db": list(cfg.snr_grid_db)}
    for level in GAIN_LEVELS:
        key = f"gain_db_at_{level:g}"
        try:
            summary[key] = gain_at_ber(curves[cfg.query], curves["uniform"], level)
        except LevelNotCrossedError as exc:
            summary[key] = None
            summary[key + "_note"] = str(exc)
    _report(files, f"ber_{slug}_summary.json", summary)
    return 0


_RUNNERS = {"measure": _run_measure, "verify-lemmas": _run_verify_lemmas, "pep": _run_pep, "ber": _run_ber}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = vars(args)  # each flag's dest is its config key
    try:
        cfg = load_config(overrides.pop("config"), overrides)
    except ConfigError as exc:
        print(f"mlnsim {args.command}: {exc}", file=sys.stderr)
        return 2
    files, written = {}, []  # the stages' outputs (name -> text), and the paths written so far
    try:  # every stage runs, and the command exits with the highest status
        if "ber" in STAGES[cfg.command]:
            _worker_count()  # a bad MLNSIM_THREADS fails before any stage prints
        status = max(_RUNNERS[stage](cfg, files) for stage in STAGES[cfg.command])
        os.makedirs(cfg.output_dir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(cfg.output_dir, name), "w", encoding="utf-8") as fh:
                written.append(fh.name)  # before the write, which can fail part-way
                fh.write(text)
        return status
    except BaseException as exc:  # a failed or interrupted write leaves none of the run's files
        for path in written:
            with contextlib.suppress(OSError):  # one already gone is passed over
                os.unlink(path)
        if not isinstance(exc, Exception):
            raise
        print(f"mlnsim {cfg.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
