"""Output checks: each pass's files against the committed reference outputs.

The reference outputs in ``reference/<workload>/`` were produced by
``make_reference.py`` at ``REFERENCE_SEED``. A run at another seed is an
independent sample of the same quantities, so values are compared
statistically:

* BER points, when both sides have at least ``MIN_RESOLVED`` error events,
  by a two-sample z-test on the BER with the conservative per-block variance
  bound var(ber) <= ber / blocks (each block's bit-error fraction lies in
  [0, 1]). ``ber-pair`` is also tested against the demo curves in
  ``reference/demo/``, copies of ``demos/ber_curves/example1_*.csv``.
* PEP and ratio points must lie within ``K_SE`` combined standard errors,
  where both sides are resolved (standard error at most half the value).
* Each eigen-product point must be at least its Q-function point minus 3
  combined standard errors (it is a Chernoff bound on the same integral).

Analytical outputs (measure report, rank check, fitted exponents) are
checked exactly or against fixed limits. Pure Python: importing this module
loads no numerics library, so it does not disturb the set-up timing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 1
MIN_RESOLVED = 50  # mlnsim.simulate.MIN_RESOLVED_EVENTS
Z_MAX = 5.0  # two-sided; about 6e-7 false alarms per test
K_SE = 5.0
# A Monte Carlo mean whose standard error exceeds half its value rests on a
# handful of draws (the Q-function route far in the tail; a zero error there
# is underflow), so a normal test against it means nothing; such points are
# not compared.
MAX_REL_SE = 0.5
EIGEN_SLACK_SE = 3.0
EXPONENT_TOL = 0.25
EXPECTED_MEASURES = {"example1": (4, 2)}  # (r_unitary, r_uniform)
_REL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def sha256_dir(path: Path) -> dict[str, str]:
    """File name -> sha256 hex digest of every file in a directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _ber_point(row: dict) -> tuple:
    return (
        float(row["snr_db"]), float(row["ber"]), float(row["ci_low"]), float(row["ci_high"]),
        int(row["error_events"]), int(row["trials"]),
    )


def ber_z(a: tuple, b: tuple) -> float:
    """Two-sample z statistic of the BERs of two (.., ber, .., events, trials) points."""
    p1, n1, p2, n2 = a[1], a[5], b[1], b[5]
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    var = pooled * (1.0 / n1 + 1.0 / n2)
    return abs(p1 - p2) / math.sqrt(var) if var > 0 else (0.0 if p1 == p2 else math.inf)


def check_ber_csv(run: Path, ref: Path, bits: int, target: int, cap: int, label: str) -> list[Check]:
    out = []
    got = [_ber_point(r) for r in _rows(run)]
    want = [_ber_point(r) for r in _rows(ref)]
    out.append(Check(f"{label} grid", [p[0] for p in got] == [p[0] for p in want]))
    for p in got:
        snr, ber, lo, hi, events, trials = p
        consistent = (
            lo <= ber <= hi
            and events / (trials * bits) * (1 - _REL) <= ber <= events / trials * (1 + _REL)
            and trials <= cap
            and (events >= target or trials == cap)
        )
        out.append(Check(f"{label} {snr:g} dB consistent", consistent, f"point {p}"))
    out += _ber_vs(got, want, label + " vs reference")
    return out


def _ber_vs(got: list, want: list, label: str) -> list[Check]:
    ref = {p[0]: p for p in want}
    out = []
    for p in got:
        q = ref.get(p[0])
        if q is None or p[4] < MIN_RESOLVED or q[4] < MIN_RESOLVED:
            continue
        z = ber_z(p, q)
        out.append(Check(f"{label} {p[0]:g} dB", z <= Z_MAX, f"z={z:.2f}"))
    return out


def check_ber_vs_demo(run: Path, demo: Path, label: str) -> list[Check]:
    got = [_ber_point(r) for r in _rows(run)]
    want = [_ber_point(r) for r in _rows(demo)]
    return _ber_vs(got, want, label + " vs demo")


def _pep_points(path: Path) -> dict:
    return {float(r["snr_db"]): r for r in _rows(path)} if path.exists() else {}


def _resolved(row: dict, key: str) -> bool:
    se = float(row["std_error"])
    return 0.0 < se <= MAX_REL_SE * abs(float(row[key]))


def check_pep_csv(run: Path, ref: Path, label: str) -> list[Check]:
    key = "ratio" if run.name.endswith("_ratio.csv") else "value"
    got, want = _pep_points(run), _pep_points(ref)

    def kinds(points):  # method and trials columns of PEP curves; ratio curves have none
        return [(r.get("method"), r.get("trials")) for r in points.values()]

    out = [Check(f"{label} grid", list(got) == list(want) and kinds(got) == kinds(want))]
    for snr, r in got.items():
        q = want.get(snr)
        if q is None:
            continue
        if key == "ratio" and (r["censored"] != "0" or q["censored"] != "0"):
            out.append(Check(f"{label} {snr:g} dB censored", r["censored"] == q["censored"]))
            continue
        if not (_resolved(r, key) and _resolved(q, key)):
            continue
        se = math.hypot(float(r["std_error"]), float(q["std_error"]))
        diff = abs(float(r[key]) - float(q[key]))
        out.append(Check(f"{label} {snr:g} dB", diff <= K_SE * se, f"diff={diff:.3g} se={se:.3g}"))
    return out


def check_eigen_bounds_qfunc(eigen: Path, qfunc: Path, label: str) -> list[Check]:
    e, q = _pep_points(eigen), _pep_points(qfunc)
    out = []
    for snr, r in e.items():
        s = q.get(snr)
        if s is None:
            out.append(Check(f"{label} {snr:g} dB", False, "no q-function point"))
            continue
        se = math.hypot(float(r["std_error"]), float(s["std_error"]))
        ok = float(r["value"]) >= float(s["value"]) - EIGEN_SLACK_SE * se
        out.append(Check(f"{label} {snr:g} dB", ok, f"eigen={r['value']} qfunc={s['value']}"))
    return out


def check_measure(run: Path, ref: Path, preset: str) -> list[Check]:
    got = _load(run)
    want = EXPECTED_MEASURES.get(preset)
    return [
        Check("measure equals reference", got == _load(ref)),
        Check(
            f"measure r_unitary, r_uniform = {want}",
            (got.get("r_unitary"), got.get("r_uniform")) == want,
            f"got {got.get('r_unitary')}, {got.get('r_uniform')}",
        ),
    ]


def check_lemmas(run: Path, trials: int) -> list[Check]:
    got = _load(run)
    fractions = list(got.get("per_slot_fractions", [])) + [got.get("d_fraction")]
    ok = got.get("passed") is True and got.get("trials") == trials and all(f == 1.0 for f in fractions)
    return [Check("verify-lemmas passed", ok, str(got))]


def check_pep_summary(run: Path) -> list[Check]:
    got = _load(run)
    uni, unif = got.get("unitary", {}), got.get("uniform", {})
    fitted = unif.get("fitted")
    near = fitted is not None and abs(fitted - unif.get("nominal", math.nan)) <= EXPONENT_TOL
    return [
        Check("uniform exponent near nominal 2", near and unif.get("nominal") == 2, f"fitted={fitted}"),
        Check("unitary exponent flagged divergent", uni.get("divergent") is True),
    ]


def check_ber_summary(run: Path, ref: Path) -> list[Check]:
    got, want = _load(run), _load(ref)

    def fields(summary):  # a note appears only where a curve misses a BER level
        return sorted(k for k in summary if not k.endswith("_note"))

    same_keys = fields(got) == fields(want)
    return [
        Check(
            "ber summary fields and grid",
            same_keys and got.get("snr_grid_db") == want.get("snr_grid_db"),
        )
    ]


def check_pass(pass_dir: Path, ref_dir: Path, params: dict) -> list[Check]:
    """All content checks of one pass's output directory.

    ``params`` holds ``preset``, and as the workload needs them ``bits``,
    ``target`` and ``cap`` (BER stages), ``lemma_trials`` (verify-lemmas)
    and ``demo`` (directory of demo curves for the preset).
    """
    want = sorted(p.name for p in ref_dir.iterdir())
    got = sorted(p.name for p in pass_dir.iterdir())
    out = [Check("output files", got == want, f"got {got}")]
    for name in want:
        run, ref = pass_dir / name, ref_dir / name
        if not run.exists():
            continue
        if name.startswith("ber_") and name.endswith(".csv"):
            out += check_ber_csv(run, ref, params["bits"], params["target"], params["cap"], name)
            if params.get("demo") is not None:
                kind = name[: -len(".csv")].rsplit("_", 1)[1]
                out += check_ber_vs_demo(run, params["demo"] / f"{params['preset']}_{kind}.csv", name)
        elif name.startswith("ber_") and name.endswith("_summary.json"):
            out += check_ber_summary(run, ref)
        elif name.startswith("measure_"):
            out += check_measure(run, ref, params["preset"])
        elif name.startswith("lemma_check_"):
            out += check_lemmas(run, params["lemma_trials"])
        elif name.startswith("pep_") and name.endswith("_summary.json"):
            out += check_pep_summary(run)
        elif name.endswith(".csv"):
            out += check_pep_csv(run, ref, name)
    for scheme in ("unitary", "uniform"):
        eigen = pass_dir / f"pep_{params.get('preset')}_{scheme}.csv"
        qfunc = pass_dir / f"qfunc_{params.get('preset')}_{scheme}.csv"
        if eigen.exists() and qfunc.exists():
            out += check_eigen_bounds_qfunc(eigen, qfunc, f"eigen >= qfunc {scheme}")
    return out
