"""Smoke tests for the scripts under tools/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_still_applies_once():
    # the catalogue must follow the source: each old text occurs exactly once in its module
    mutants = _mutants()
    catalogue = mutants.CATALOGUE
    assert len({m.name for m in catalogue}) == len(catalogue)
    assert [(m.name, mutants.drift(m)) for m in catalogue if mutants.drift(m)] == []
    for m in catalogue:
        assert m.new != m.old and m.tests
        assert all((ROOT / t.split("::")[0]).is_file() for t in m.tests)


def test_a_drifted_mutant_fails_before_any_run(monkeypatch, capsys):
    mutants = _mutants()
    gone = mutants.Mutant("gone", "linalg.py", "text that is not in linalg", "", ("tests/test_linalg.py",))
    monkeypatch.setattr(mutants, "CATALOGUE", (gone,))
    assert mutants.main() == 1
    assert capsys.readouterr().out == "DRIFTED   gone: old text occurs 0 times in linalg.py, not once\n"


def test_peakmem_reports_every_stage_and_writes_nothing(tmp_path):
    # for a preset, or a config file in its place but not both
    config = tmp_path / "setting.json"
    config.write_text('{"m": 2, "l": 4, "n": 2, "t": 2, "codebook": "uncoded-bpsk"}')
    cwd = tmp_path / "run"
    cwd.mkdir()
    tool = [sys.executable, str(ROOT / "tools" / "peakmem.py")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for setting in (["--preset", "example3"], ["--config", str(config)]):
        argv = [*setting, "--trials", "200", "--max-trials", "2000", "--snr-grid", "0:6:12"]
        run = subprocess.run(tool + argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        header, *rows = (line.split() for line in run.stdout.splitlines())
        assert header == ["stage", "peak_rss_mb", "minflt", "wall_s", "exit"]
        assert [r[0] for r in rows] == ["(import)", "measure", "verify-lemmas", "pep", "ber"]
        assert all(float(r[1]) > 0 and int(r[2]) > 0 and r[4] == "0" for r in rows)
        assert list(cwd.iterdir()) == []  # every stage wrote to a temporary directory
    both = subprocess.run(tool + ["--preset", "example3", "--config", str(config)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert both.returncode == 2 and "not allowed with argument --preset" in both.stderr


def test_stagetimes_times_each_stage_in_process_and_writes_nothing(tmp_path):
    cwd = tmp_path / "run"
    cwd.mkdir()
    record = tmp_path / "bench.json"
    tool = [sys.executable, str(ROOT / "tools" / "stagetimes.py")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MLNSIM_THREADS="2")
    argv = ["--preset", "example3", "--stages", "measure,ber", "--record", str(record),
            "--trials", "200", "--max-trials", "2000", "--snr-grid", "0:6:12"]
    for label in ("tiny", "again"):  # a second record is appended to the first
        run = subprocess.run([*tool, *argv, "--label", label], cwd=cwd, env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
    header, *rows = (line.split() for line in run.stdout.splitlines())
    assert header == ["stage", "runs", "wall_s", "iqr", "cpu_s", "iqr", "same_outputs"]
    assert [r[0] for r in rows] == ["measure", "ber"] and all(r[1] == "7" and r[-1] == "True" for r in rows)
    records = json.loads(record.read_text())
    assert [r["label"] for r in records] == ["tiny", "again"]
    ber = records[1]["stages"]["ber"]
    assert ber["wall_s"]["median"] > 0 and ber["cpu_s"]["median"] > 0 and ber["wall_s"]["iqr"] >= 0
    assert sorted(ber["sha256"]) == ["ber_example3_dft.csv", "ber_example3_summary.json", "ber_example3_uniform.csv"]
    assert records[0]["stages"]["ber"]["sha256"] == ber["sha256"]  # one seed, one set of outputs
    assert records[1]["environment"]["MLNSIM_THREADS"] == "2"
    assert list(cwd.iterdir()) == []
    few = subprocess.run([*tool, "--runs", "3"], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert few.returncode == 2 and "--runs must be at least 7" in few.stderr


def test_stagetimes_kernels_report_every_rate_and_write_nothing(tmp_path):
    # each named kernel, called directly on 64 draws of example1's shapes, reports a positive rate
    cwd = tmp_path / "run"
    cwd.mkdir()
    record = tmp_path / "bench.json"
    tool = [sys.executable, str(ROOT / "tools" / "stagetimes.py")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    argv = ["--kernels", "--draws", "64", "--preset", "example1", "--record", str(record), "--label", "tiny"]
    run = subprocess.run([*tool, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    spec = importlib.util.spec_from_file_location("stagetimes", ROOT / "tools" / "stagetimes.py")
    names = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(names)
    header, *rows = (line.split() for line in run.stdout.splitlines())
    assert header == ["kernel", "draws", "draws_per_s", "median_s"]
    assert [r[0] for r in rows] == list(names.KERNELS)
    assert all(r[1] == "64" and float(r[2]) > 0 and float(r[3]) > 0 for r in rows)
    (only,) = json.loads(record.read_text())
    assert only["label"] == "tiny" and only["stages"] == {} and sorted(only["kernels"]) == sorted(names.KERNELS)
    assert all(k["draws"] == 64 and k["runs"] == 7 and k["draws_per_s"] > 0 for k in only["kernels"].values())
    assert list(cwd.iterdir()) == []
