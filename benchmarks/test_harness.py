"""Tests of the benchmark harness itself, at smoke sizes.

    python3 -m pytest -q benchmarks/test_harness.py

Run from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = Path(__file__).resolve().parent / "reference"


SMALL = {"max_trials_per_point": 2000, "target_error_events": 20, "trials": 2000}


def _shrink(settings: dict | None) -> dict | None:
    if settings is None:
        return None
    out = {k: SMALL.get(k, v) for k, v in settings.items()}
    if "max_trials_per_point" in settings:  # a BER stage
        out["snr_grid_db"] = "0:12:24"
    return out


def _smoke(w: workloads.Workload) -> workloads.Workload:
    """The same workload with grids and trial counts cut to a second or so."""
    return dataclasses.replace(
        w, stages=tuple(_shrink(s) for s in w.stages), config_file=_shrink(w.config_file)
    )


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("MLNSIM_THREADS", "1")
    monkeypatch.setattr(
        workloads, "WORKLOADS", {n: _smoke(w) for n, w in workloads.WORKLOADS.items()}
    )


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_names_every_workload_and_unit():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(smoke, capsys, workload, trace):
    status = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    assert status == 0
    result = _last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in out  # also printed by name before the JSON line


def _params(workload: str) -> dict:
    if workload == "ber-pair":
        return {"preset": "example1", "bits": 1, "target": 200, "cap": 300_000,
                "demo": REFERENCE / "demo"}
    return {"preset": "example1", "lemma_trials": 100_000}


@pytest.mark.parametrize("workload", ["ber-pair", "pep-curves"])
def test_reference_outputs_pass_their_own_checks(workload):
    results = checks.check_pass(REFERENCE / workload, REFERENCE / workload, _params(workload))
    assert results and [c for c in results if not c.ok] == []


def _perturb(tmp_path, workload, name, column, factor):
    copy = tmp_path / workload
    shutil.copytree(REFERENCE / workload, copy)
    lines = (copy / name).read_text().splitlines()
    col = lines[0].split(",").index(column)
    rows = [lines[0]]
    for line in lines[1:]:
        f = line.split(",")
        f[col] = repr(float(f[col]) * factor)
        rows.append(",".join(f))
    (copy / name).write_text("\n".join(rows) + "\n")
    return copy


@pytest.mark.parametrize(
    "workload, name, column, factor",
    [
        ("ber-pair", "ber_example1_dft.csv", "ber", 2.0),
        ("ber-pair", "ber_example1_uniform.csv", "ber", 0.5),
        ("pep-curves", "pep_example1_uniform.csv", "value", 2.0),
        ("pep-curves", "pep_example1_ratio.csv", "ratio", 2.0),
    ],
)
def test_perturbed_output_fails_checks(tmp_path, workload, name, column, factor):
    perturbed = _perturb(tmp_path, workload, name, column, factor)
    results = checks.check_pass(perturbed, REFERENCE / workload, _params(workload))
    assert any(not c.ok for c in results)


def test_self_time_subtracts_the_union_of_child_spans():
    parent = spans.Span(1, "p", None, 0, 0.0, 10.0)
    kids = [
        spans.Span(2, "c", 1, 0, 1.0, 3.0),
        spans.Span(3, "c", 1, 1, 2.0, 5.0),  # overlaps the first, on another thread
        spans.Span(4, "c", 1, 1, 8.0, 12.0),  # runs past the parent's end
    ]
    assert spans.self_times([parent] + kids)[1] == pytest.approx(4.0)


def test_interpose_records_cross_module_calls_and_restores_names():
    import mlnsim.cli
    import mlnsim.measure

    original = mlnsim.measure.compare_queries
    tracer = spans.Tracer()
    with spans.interpose(tracer):
        assert mlnsim.cli.compare_queries is not original
        mlnsim.cli.compare_queries(mlnsim.codes.EXAMPLE1_DELTA, 2)
    assert mlnsim.cli.compare_queries is original
    assert mlnsim.measure.compare_queries is original
    assert [s.name for s in tracer.spans] == ["measure.compare"]
    assert tracer.missing == []
