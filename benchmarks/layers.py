"""Per-layer metrics derived from one traced pass.

The layers are mlnsim's modules. Self time is a span's duration minus the
part its child spans cover, so ``pep.eigen.self_s`` excludes the sampling
inside it and ``simulate.self_s`` is point time minus sampling, i.e. channel
mixing, codeword synthesis and the ML metric and argmin. ``*_per_s`` rates
divide work by the whole span time. Figures labelled computed come from
array sizes, not from a measurement.
"""

from __future__ import annotations

import os

from spans import Span, self_times

# metric name -> unit; BENCHMARK.json lists the same names
UNITS = {
    "linalg.sample.calls": "count",
    "linalg.sample.entries": "count",
    "linalg.sample.self_s": "s",
    "linalg.sample.entries_per_s": "1/s",
    "simulate.sweep_s": "s",
    "simulate.points": "count",
    "simulate.blocks": "count",
    "simulate.blocks_per_s": "1/s",
    "simulate.self_s": "s",
    "simulate.detect_ns_per_block_word": "ns",
    "simulate.event_overshoot": "ratio",
    "simulate.points_capped": "count",
    "simulate.points_unresolved": "count",
    "simulate.cpu_util": "ratio",
    "simulate.metric_cmacs_per_block": "cmac",
    "simulate.metric_bytes_per_block": "B",
    "pep.eigen.calls": "count",
    "pep.eigen.draws": "count",
    "pep.eigen.self_s": "s",
    "pep.eigen.draws_per_s": "1/s",
    "pep.eigen.svds_per_draw": "count",
    "pep.qfunc.calls": "count",
    "pep.qfunc.draws": "count",
    "pep.qfunc.self_s": "s",
    "pep.qfunc.draws_per_s": "1/s",
    "pep.unique_estimate_frac": "ratio",
    "pep.fit_s": "s",
    "measure.compare_s": "s",
    "measure.rank_check.draws": "count",
    "measure.rank_check.self_s": "s",
    "measure.rank_check.draws_per_s": "1/s",
    "config.load_s": "s",
    "codes.build_s": "s",
    "query.build_s": "s",
    "channel.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _metric_bytes_per_word(T: int, N: int) -> int:
    # chunked einsum metric per block and word: S and R - S (complex128),
    # |R - S| and its square (float64), T x N each, plus the float64 distance
    return 48 * T * N + 8


def derive(spans: list[Span], workers: int, out_dir) -> dict[str, float]:
    """Every metric in UNITS but trace.overhead_frac, which needs an untraced
    pass, for one traced pass whose outputs are in out_dir."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total_self(name):
        return sum(own[s.id] for s in named(name))

    def total_time(name):
        return sum(s.duration for s in named(name))

    m = {}
    sample = named("linalg.sample")
    m["linalg.sample.calls"] = len(sample)
    m["linalg.sample.entries"] = sum(s.args["rows"] * s.args["cols"] for s in sample)
    m["linalg.sample.self_s"] = total_self("linalg.sample")
    m["linalg.sample.entries_per_s"] = _ratio(m["linalg.sample.entries"], total_time("linalg.sample"))

    sweeps = named("simulate.sweep")
    sweep_s = total_time("simulate.sweep")
    points = [(s.args["config"], p) for s in sweeps for p in s.result.points]
    blocks = sum(p.trials for _, p in points)
    block_words = sum(p.trials * len(cfg.codebook) for cfg, p in points)
    reached = [p.error_events / cfg.target_error_events for cfg, p in points
               if p.error_events >= cfg.target_error_events]
    m["simulate.sweep_s"] = sweep_s
    m["simulate.points"] = len(points)
    m["simulate.blocks"] = blocks
    m["simulate.blocks_per_s"] = _ratio(blocks, sweep_s)
    m["simulate.self_s"] = total_self("simulate.point")
    m["simulate.detect_ns_per_block_word"] = _ratio(m["simulate.self_s"] * 1e9, block_words)
    m["simulate.event_overshoot"] = _ratio(sum(reached), len(reached))
    m["simulate.points_capped"] = sum(
        1 for cfg, p in points
        if p.trials >= cfg.max_trials_per_point and p.error_events < cfg.target_error_events
    )
    m["simulate.points_unresolved"] = sum(1 for _, p in points if not p.resolved)
    m["simulate.cpu_util"] = _ratio(
        sum(s.cpu_end - s.cpu_start for s in sweeps),
        sum(min(workers, len(s.result.points)) * s.duration for s in sweeps),
    )
    m["simulate.metric_cmacs_per_block"] = _ratio(
        sum(p.trials * len(cfg.codebook) * cfg.dims.T * cfg.dims.N * cfg.dims.L for cfg, p in points),
        blocks,
    )
    m["simulate.metric_bytes_per_block"] = _ratio(
        sum(p.trials * len(cfg.codebook) * _metric_bytes_per_word(cfg.dims.T, cfg.dims.N)
            for cfg, p in points),
        blocks,
    )

    for route in ("eigen", "qfunc"):
        calls = named(f"pep.{route}")
        draws = sum(s.args["trials"] for s in calls)
        m[f"pep.{route}.calls"] = len(calls)
        m[f"pep.{route}.draws"] = draws
        m[f"pep.{route}.self_s"] = total_self(f"pep.{route}")
        m[f"pep.{route}.draws_per_s"] = _ratio(draws, total_time(f"pep.{route}"))
    # one SVD per slot matrix E_t (unitary) or one of D (uniform) per draw
    m["pep.eigen.svds_per_draw"] = _ratio(
        sum(s.args["trials"] * (s.args["dims"].T if s.args["query_kind"] == "unitary" else 1)
            for s in named("pep.eigen")),
        m["pep.eigen.draws"],
    )
    m["pep.unique_estimate_frac"] = _unique_estimate_frac(spans)
    m["pep.fit_s"] = total_time("pep.fit")

    m["measure.compare_s"] = total_time("measure.compare")
    checks = named("measure.rank_check")
    m["measure.rank_check.draws"] = sum(s.args["trials"] for s in checks)
    m["measure.rank_check.self_s"] = total_self("measure.rank_check")
    m["measure.rank_check.draws_per_s"] = _ratio(
        m["measure.rank_check.draws"], total_time("measure.rank_check")
    )

    m["config.load_s"] = total_self("config.load")
    m["codes.build_s"] = total_self("codes.build")
    m["query.build_s"] = total_self("query.build")
    m["channel.calls"] = len(named("channel.call"))
    m["cli.self_s"] = total_self("cli.main")
    m["cli.bytes_written"] = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )
    root = named("pass")[0]
    m["trace.coverage_frac"] = 1.0 - _ratio(own[root.id], root.duration)
    return {name: m[name] for name in UNITS if name in m}


def _unique_estimate_frac(spans: list[Span]) -> float:
    """Distinct (route, scheme, SNR) estimates / estimator calls under the CLI pep stage."""
    by_id = {s.id: s for s in spans}

    def under_pep_stage(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "cli.main" and s.args.get("command") == "pep":
                return True
        return False

    keys = [
        (s.name, s.args["query_kind"], float(s.args["snr_db"]))
        for s in spans
        if s.name in ("pep.eigen", "pep.qfunc") and under_pep_stage(s)
    ]
    return _ratio(len(set(keys)), len(keys))
