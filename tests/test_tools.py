"""Smoke tests for the scripts under tools/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_still_applies_once():
    # the catalogue must follow the source: each old text occurs exactly once in its module
    mutants = _tool("mutants")
    catalogue = mutants.CATALOGUE
    assert len({m.name for m in catalogue}) == len(catalogue)
    assert [(m.name, mutants.drift(m)) for m in catalogue if mutants.drift(m)] == []
    for m in catalogue:
        assert m.new != m.old and m.tests
        assert all((ROOT / t.split("::")[0]).is_file() for t in m.tests)


def test_a_drifted_mutant_fails_before_any_run(monkeypatch, capsys):
    mutants = _tool("mutants")
    gone = mutants.Mutant("gone", "linalg.py", "text that is not in linalg", "", ("tests/test_linalg.py",))
    monkeypatch.setattr(mutants, "CATALOGUE", (gone,))
    assert mutants.main() == 1
    assert capsys.readouterr().out == "DRIFTED   gone: old text occurs 0 times in linalg.py, not once\n"


def test_peakmem_reports_every_stage_and_writes_nothing(tmp_path):
    # peak memory of each stage from fresh children, for a preset or a config file in its place but not both
    config = tmp_path / "setting.json"
    config.write_text('{"m": 2, "l": 4, "n": 2, "t": 2, "codebook": "uncoded-bpsk"}')
    cwd = tmp_path / "run"
    cwd.mkdir()
    record = tmp_path / "bench.json"
    tool = [sys.executable, str(ROOT / "tools" / "stagetimes.py")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    # every stage for the preset; for the config file, the stage whose outputs name it
    for setting, stages in ((["--preset", "example3"], ["measure", "verify-lemmas", "pep", "ber"]),
                            (["--config", str(config)], ["ber"])):
        argv = [*setting, "--stages", ",".join(stages), "--record", str(record),
                "--trials", "200", "--max-trials", "2000", "--snr-grid", "0:6:12"]
        run = subprocess.run([*tool, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stdout + run.stderr  # a child that exits non-zero fails its stage
        header, *rows = (line.split() for line in run.stdout.splitlines())
        assert header[6:10] == ["peak_rss_mb", "iqr", "minflt", "iqr"]
        assert [r[0] for r in rows] == ["(import)", *stages]
        assert all(float(r[6]) > 0 and int(float(r[8])) > 0 for r in rows)  # the floor row too
        assert all(r[-1] == "True" for r in rows[1:])  # the children's outputs match the in-process runs'
        assert list(cwd.iterdir()) == []  # every child ran in a temporary directory of its own
    preset, custom = json.loads(record.read_text())
    assert preset["setting"] == ["--preset", "example3"]
    assert custom["setting"] == ["--config", "setting.json"] and custom["config"]["codebook"] == "uncoded-bpsk"
    assert sorted(custom["stages"]["ber"]["sha256"]) == ["ber_custom_dft.csv", "ber_custom_summary.json",
                                                           "ber_custom_uniform.csv"]
    for tiny in (preset, custom):
        assert tiny["import_floor"]["peak_rss_mb"] > 0 and tiny["import_floor"]["minflt"] > 0
        for row in tiny["stages"].values():
            assert row["peak_rss_mb"]["median"] > 0 and row["minflt"]["median"] > 0 and row["peak_rss_mb"]["iqr"] >= 0
    both = subprocess.run([*tool, "--preset", "example3", "--config", str(config)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert both.returncode == 2 and "not allowed with argument --preset" in both.stderr


def test_stagetimes_times_each_stage_in_process_and_writes_nothing(tmp_path):
    cwd = tmp_path / "run"
    cwd.mkdir()
    record = tmp_path / "bench.json"
    record.write_text('[{"label": "earlier"}]')  # the new record is appended to it
    tool = [sys.executable, str(ROOT / "tools" / "stagetimes.py")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", MLNSIM_THREADS="2")
    argv = ["--preset", "example3", "--stages", "measure,ber", "--record", str(record), "--label", "tiny",
            "--trials", "200", "--max-trials", "2000", "--snr-grid", "0:6:12"]
    run = subprocess.run([*tool, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = (line.split() for line in run.stdout.splitlines())
    assert header == ["stage", "runs", "wall_s", "iqr", "cpu_s", "iqr", "peak_rss_mb", "iqr", "minflt", "iqr",
                      "same_outputs"]
    assert [r[0] for r in rows] == ["(import)", "measure", "ber"]
    assert all(r[1] == "7" and r[-1] == "True" for r in rows[1:])
    earlier, tiny = json.loads(record.read_text())
    assert earlier == {"label": "earlier"} and tiny["label"] == "tiny"
    for row in tiny["stages"].values():
        assert row["wall_s"]["median"] > 0 and row["cpu_s"]["median"] > 0 and row["wall_s"]["iqr"] >= 0
        assert row["same_outputs"] is True  # one seed, one set of outputs over every run and child
    assert sorted(tiny["stages"]["ber"]["sha256"]) == ["ber_example3_dft.csv", "ber_example3_summary.json",
                                                       "ber_example3_uniform.csv"]
    assert tiny["environment"]["MLNSIM_THREADS"] == "2"
    assert list(cwd.iterdir()) == []
    few = subprocess.run([*tool, "--runs", "3"], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert few.returncode == 2 and "--runs must be at least 7" in few.stderr


def test_stagetimes_rejects_a_bad_stage_or_record_before_any_run(tmp_path, monkeypatch, capsys):
    stagetimes = _tool("stagetimes")
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts --src first on sys.path
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "bench.json"

    def usage_error(*argv):
        with pytest.raises(SystemExit) as exit_:
            stagetimes.main(["--preset", "example3", "--record", str(record), *argv])
        out, err = capsys.readouterr()
        assert exit_.value.code == 2 and out == ""  # not even the table's header
        return err

    assert "--stages: bogus is not a stage of reproduce" in usage_error("--stages", "measure,bogus")
    assert list(tmp_path.iterdir()) == []
    for text, message in (('{"not": "a list"}', "holds a JSON dict, not a list of records"),
                          ("not JSON", "Expecting value")):
        record.write_text(text)
        err = usage_error()
        assert f"--record {record}" in err and message in err and record.read_text() == text
    assert list(tmp_path.iterdir()) == [record]


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
    names = _tool("stagetimes")
    header, *rows = (line.split() for line in run.stdout.splitlines())
    assert header == ["kernel", "draws", "draws_per_s", "median_s"]
    assert [r[0] for r in rows] == list(names.KERNELS)
    assert all(r[1] == "64" and float(r[2]) > 0 and float(r[3]) > 0 for r in rows)
    (only,) = json.loads(record.read_text())
    assert only["label"] == "tiny" and only["stages"] == {} and sorted(only["kernels"]) == sorted(names.KERNELS)
    assert "import_floor" not in only  # no stage ran, and no child
    assert all(k["draws"] == 64 and k["runs"] == 7 and k["draws_per_s"] > 0 for k in only["kernels"].values())
    assert list(cwd.iterdir()) == []


def test_stagetimes_children_import_mlnsim_from_src_alone(tmp_path, monkeypatch):
    # a child runs in a directory of its own, so an mlnsim/ in the caller's directory cannot shadow --src
    for where, status in ((tmp_path / "src", 7), (tmp_path / "run", 5)):
        (where / "mlnsim").mkdir(parents=True)
        (where / "mlnsim" / "__init__.py").write_text(f"raise SystemExit({status})")
    monkeypatch.chdir(tmp_path / "run")
    code, rss, faults, written = _tool("stagetimes").run_child(tmp_path / "src", ["-c", "import mlnsim"])
    assert (code, written) == (7, {}) and rss > 0 and faults > 0
