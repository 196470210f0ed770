"""Tests for config loading and the command-line front end."""

import errno
import json
import math
import os
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlnsim.cli as cli_mod
from mlnsim.channel import snr_gain
from mlnsim.cli import _exponent_summary, main
from mlnsim.config import DEFAULT_BER_GRID, DEFAULT_PEP_GRID, PRESET_NAMES, ConfigError, load_config, parse_snr_grid
from mlnsim.pep import PepEstimate, pep_curve_from_csv, ratio_curve_from_csv, ratio_curve_to_csv, ratio_point
from mlnsim.presets import get_preset
from mlnsim.simulate import BerCurve


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert parse_snr_grid("0:2:6") == (0.0, 2.0, 4.0, 6.0)

    def test_rejects_malformed(self):
        for bad in ("0:2", "a:2:6", "0:-2:6", "6:2:0"):
            with pytest.raises(ConfigError):
                parse_snr_grid(bad)

    def test_no_point_past_b(self):
        assert parse_snr_grid("0:6:10") == (0.0, 6.0)
        for text in ("0:6:10", "0:4:13", "1:0.3:2", "-5:2.5:3", "0:0.7:7.1"):
            b = float(text.split(":")[2])
            assert all(s <= b for s in parse_snr_grid(text)), text

    def test_fractional_step_ends_at_b(self):
        grid = parse_snr_grid("0:0.1:1")
        assert len(grid) == 11 and grid[-1] == 1.0
        assert parse_snr_grid("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize("bad", ["nan:1:5", "0:1:inf", "-inf:1:0", "0:inf:5", "0:nan:5", "0:1e-300:1"])
    def test_non_finite_or_huge_grid_is_named(self, bad):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            parse_snr_grid(bad)

    @pytest.mark.parametrize("bad", [["a", "b"], 5, [1, None], [float("nan"), 1], [], [2, 1], [True, 2]])
    def test_bad_json_grid_is_named(self, bad):
        with pytest.raises(ConfigError, match="snr_grid_db"):
            load_config(overrides={"command": "pep", "preset": "example1", "snr_grid_db": bad})

    @pytest.mark.parametrize("grid", ["nan:1:5", "0:1:inf"])
    def test_cli_rejects_non_finite_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "o"
        assert main(["measure", "--preset", "example1", "--snr-grid", grid, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "snr_grid_db" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [["a", "b"], 5, [1, None], [float("nan"), 1]])
    def test_cli_rejects_bad_json_grid(self, tmp_path, capsys, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "pep", "preset": "example1", "snr_grid_db": value}))
        assert main(["pep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "snr_grid_db" in err and "Traceback" not in err


_OUT = os.path.join(tempfile.gettempdir(), "mlnsim-out")
_NUMBER = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-10**400, 10**400)
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _assert_valid_grid(grid, low=-math.inf, high=math.inf):
    assert isinstance(grid, tuple) and grid
    assert all(isinstance(s, float) and math.isfinite(s) and low <= s <= high for s in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # the gain and the noise variance 1/gain are finite and nonzero, as floats and as arrays
    for gain in [snr_gain(s) for s in grid] + list(snr_gain(np.array(grid))):
        assert 0.0 < gain < math.inf and 0.0 < 1.0 / gain < math.inf, grid


class TestGridProperties:
    """Every grid either comes out finite, ascending and in range, or names snr_grid_db."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(_NUMBER, _NUMBER, _NUMBER).map(lambda t: ":".join(map(repr, t))),
            st.text(alphabet="0123456789.:-+eEinfa ", max_size=16),
        )
    )
    @example("0.0:1000000000.0:-1.0")  # B < A within 1e-9 STEP
    @example("0.0:1000000000.0:1.0")  # a lone A must not snap to B
    def test_range_strings(self, text):
        try:
            grid = parse_snr_grid(text)
        except ConfigError as exc:
            assert "snr_grid_db" in str(exc)
            return
        a, _, b = (float(p) for p in text.split(":"))
        _assert_valid_grid(grid, a, b)
        assert grid[0] == a

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(-500, 500),
        st.sampled_from(["0.1", "0.25", "0.5", "1", "2", "2.5", "5"]),
        st.integers(0, 60),
    )
    def test_whole_step_strings_end_at_b(self, a_tenths, step, k):
        a = Decimal(a_tenths) / 10
        b = a + k * Decimal(step)
        grid = parse_snr_grid(f"{a}:{step}:{b}")
        assert len(grid) == k + 1 and grid[-1] == float(b)
        _assert_valid_grid(grid, float(a), float(b))

    @settings(max_examples=300, deadline=None)
    @given(_JSON | st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6)
           | st.lists(st.floats(-100, 100), min_size=1, max_size=6, unique=True).map(sorted))
    def test_json_values(self, value):
        overrides = {"command": "pep", "preset": "example1", "snr_grid_db": value, "out": _OUT}
        try:
            cfg = load_config(overrides=overrides)
        except ConfigError as exc:
            assert "snr_grid_db" in str(exc)
            return
        _assert_valid_grid(cfg.snr_grid_db)


# matrix entries tagged with whether the loader must accept them; every accepted
# one has modulus 1, so any 2 or 4 words of them meet the energy normalization
_UNIT_ENTRY = st.sampled_from([1, -1, 1.0, -1.0, [0, 1], [0.0, -1.0], [1, 0], [-1, 0.0]])
_BAD_NUMBER = (
    st.sampled_from([math.nan, math.inf, -math.inf, True, False])
    | st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
)
_BAD_ENTRY = st.one_of(
    _BAD_NUMBER,
    st.text(max_size=3),
    st.none(),
    st.lists(_UNIT_ENTRY, max_size=3).filter(lambda v: len(v) != 2),  # not a pair
    st.tuples(_BAD_NUMBER, st.sampled_from([1, 0.5]) | _BAD_NUMBER).map(list).flatmap(st.permutations),
    st.lists(st.lists(_NUMBER, min_size=2, max_size=2), min_size=1, max_size=2),  # nested pairs
)
_ENTRY = _UNIT_ENTRY.map(lambda v: (True, v)) | _BAD_ENTRY.map(lambda v: (False, v))


def _loads_or_names(overrides, *fields):
    """The loaded config, or None after checking that the ConfigError starts with one of fields."""
    try:
        return load_config(overrides={"out": _OUT, **overrides})
    except ConfigError as exc:
        assert str(exc).startswith(tuple(f"{f}:" for f in fields)), (fields, str(exc))
        return None


def _as_count(value):
    """What the loader makes of a count such as seed or trials: an int, or None if rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    if isinstance(value, float):
        return int(value) if math.isfinite(value) and value == int(value) else None
    try:
        return int(value)  # integer strings count, as they do for m, l, n and t
    except ValueError:
        return None


class TestDocumentProperties:
    """Every codewords, delta, dims, seed, trials or out value loads or raises a ConfigError naming its field."""

    _CUSTOM = {"command": "measure", "m": 2, "l": 1, "n": 2, "t": 2, "codebook": "custom"}
    _REPETITION = {"command": "measure", "m": 2, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk"}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(_ENTRY, min_size=2, max_size=2), max_size=5))
    @example([[(True, 1), (False, math.nan)], [(True, -1), (True, -1)]])
    @example([[(True, 1), (False, 10**400)], [(True, -1), (True, -1)]])
    @example([[(True, 1), (False, True)], [(True, -1), (True, -1)]])
    def test_codewords_entries(self, tagged):
        words = [[[v] for _, v in w] for w in tagged]
        ok = len(words) in (2, 4) and all(good for w in tagged for good, _ in w)
        cfg = _loads_or_names({**self._CUSTOM, "codewords": words}, "codewords")
        assert (cfg is not None) == ok
        if cfg is not None:
            assert np.all(np.isfinite(cfg.codebook.codewords)) and np.all(np.isfinite(cfg.delta))

    @settings(max_examples=200, deadline=None)
    @given(_JSON)
    def test_codewords_any_json(self, value):
        cfg = _loads_or_names({**self._CUSTOM, "codewords": value}, "codewords", "codebook")
        if cfg is not None:
            assert np.all(np.isfinite(cfg.codebook.codewords))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ENTRY, min_size=2, max_size=2))
    @example([(True, 1), (False, math.inf)])
    @example([(True, 1), (False, "x")])
    def test_delta_entries(self, tagged):
        cfg = _loads_or_names({**self._REPETITION, "delta": [[v for _, v in tagged]]}, "delta")
        assert (cfg is not None) == all(good for good, _ in tagged)
        if cfg is not None:
            want = [complex(*v) if isinstance(v, list) else complex(v) for _, v in tagged]
            assert cfg.delta.tolist() == [want]

    @settings(max_examples=200, deadline=None)
    @given(_JSON)
    def test_delta_any_json(self, value):
        cfg = _loads_or_names({**self._REPETITION, "delta": value}, "delta")
        if cfg is not None:
            assert cfg.delta.shape == (1, 2) and np.all(np.isfinite(cfg.delta))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["measure", "pep", "ber", "reproduce"]),
        st.fixed_dictionaries({k: st.one_of(
            st.integers(-1, 5), st.integers(2**64, 10**400), st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(), st.none(), st.sampled_from(["2", "x", "", "1.5", "0"]), st.lists(st.integers(1, 3)),
        ) for k in ("m", "l", "n", "t")}),
    )
    @example("measure", {"m": 4, "l": 4, "n": 1, "t": 5})  # 2^20 words: the builder refuses
    @example("ber", {"m": 3, "l": 1, "n": 2, "t": 2})
    def test_dims(self, command, dims):
        def as_dim(v):  # what a dimension value means, or None if it is rejected
            if isinstance(v, str):
                v = {"2": 2}.get(v)
            elif isinstance(v, float) and math.isfinite(v) and v == int(v):
                v = int(v)
            return v if type(v) is int and v >= 1 else None

        parsed = {k: as_dim(v) for k, v in dims.items()}
        bad = [k for k in "mlnt" if parsed[k] is None]  # the loader checks m, l, n, t in turn
        if bad:
            expected = bad[0]
        elif parsed["t"] * parsed["l"] > 16:
            expected = "codebook"
        elif command in ("ber", "reproduce") and parsed["t"] != parsed["m"]:
            expected = "t"
        else:
            expected = None
        doc = {"command": command, "codebook": "uncoded-bpsk", **dims}
        cfg = _loads_or_names(doc, *([expected] if expected else []))
        assert (cfg is None) == bool(expected)
        if cfg is not None:
            assert (cfg.dims.M, cfg.dims.L, cfg.dims.N, cfg.dims.T) == tuple(parsed[k] for k in "mlnt")
            assert len(cfg.codebook) == 2 ** (parsed["t"] * parsed["l"])

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["seed", "trials"]),
        _JSON | st.integers(-3, 3) | st.floats(-3, 3) | st.sampled_from(["0", "1", "-1", " 7 ", "2.0", "x", ""]),
    )
    @example("seed", True)
    @example("trials", 0.0)
    @example("trials", 2.5)
    def test_seed_and_trials(self, key, value):
        minimum, default = {"seed": (0, 0), "trials": (1, 1000)}[key]
        want = default if value is None else _as_count(value)  # a None override is no override
        cfg = _loads_or_names({"command": "verify-lemmas", "preset": "example1", key: value}, key)
        assert (cfg is not None) == (want is not None and want >= minimum)
        if cfg is not None:
            got = getattr(cfg, key)
            assert type(got) is int and got == want

    @settings(max_examples=300, deadline=None)
    @given(_JSON | st.text(max_size=12) | st.sampled_from(["", ".", "/", "out", "no-such-dir/out", "a\0b"]))
    @example(["x", 1])
    @example("")
    def test_out(self, value):
        cfg = _loads_or_names({"command": "measure", "preset": "example1", "out": value}, "out")
        if value is not None and (not isinstance(value, str) or not value or "\0" in value):
            assert cfg is None
        if cfg is not None:
            assert cfg.output_dir == ("mlnsim-out" if value is None else value)
            assert os.path.isdir(os.path.dirname(os.path.abspath(cfg.output_dir)))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_get_preset_matches_load_config(name):
    p = get_preset(name)
    cfg = load_config(overrides={"command": "measure", "preset": name})
    assert p.dims == cfg.dims and p.codebook_name == cfg.codebook_name
    assert np.array_equal(p.delta, cfg.delta)
    assert len(p.codebook) == len(cfg.codebook)
    assert np.array_equal(p.codebook.codewords, cfg.codebook.codewords)


class TestValueEquality:
    """Presets and configs compare and hash by value, their delta by shape and bytes."""

    def test_equal_presets(self):
        a, b = get_preset("example1"), get_preset("example1")
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != get_preset("example2")
        with pytest.raises(ValueError, match="read-only"):
            a.delta[0, 0] = 0.0

    def test_equal_configs(self, tmp_path):
        doc = {"command": "measure", "preset": "example1", "out": str(tmp_path / "out")}
        a, b = load_config(overrides=doc), load_config(overrides=doc)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != load_config(overrides={**doc, "preset": "example2"})

    def test_configs_differing_only_in_delta(self, tmp_path):
        doc = {"command": "measure", "m": 2, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk",
               "out": str(tmp_path / "out")}
        a, b = (load_config(overrides={**doc, "delta": delta}) for delta in ([[1, 2]], [[1, 3]]))
        assert a != b and a.delta.shape == b.delta.shape
        assert a == load_config(overrides={**doc, "delta": [[1, [2, 0]]]})

    def test_configs_running_different_pep_grids_differ(self, tmp_path):
        # reproduce defaults to its ber stage's grid, but its pep stage then runs DEFAULT_PEP_GRID
        doc = {"command": "reproduce", "preset": "example1", "out": str(tmp_path / "out")}
        default, explicit = load_config(overrides=doc), load_config(overrides={**doc, "snr_grid_db": "0:2:24"})
        assert default.snr_grid_db == explicit.snr_grid_db
        assert (default.pep_grid_db, explicit.pep_grid_db) == (DEFAULT_PEP_GRID, explicit.snr_grid_db)
        assert default != explicit and hash(default) != hash(explicit)


_CUSTOM_PAIR = {"m": 2, "l": 1, "n": 2, "t": 2, "codebook": "custom"}
_FAULTS = {
    "nan-codeword": ("measure", {**_CUSTOM_PAIR, "codewords": [[[math.nan], [1]], [[-1], [-1]]]}, "codewords"),
    "huge-int-codeword": ("measure", {**_CUSTOM_PAIR, "codewords": [[[10**400], [1]], [[-1], [-1]]]}, "codewords"),
    "bool-codeword": ("measure", {**_CUSTOM_PAIR, "codewords": [[[True], [1]], [[-1], [-1]]]}, "codewords"),
    "three-codewords": ("measure", {**_CUSTOM_PAIR, "codewords": [[[1], [1]], [[-1], [-1]], [[1], [-1]]]}, "codewords"),
    "ragged-codewords": ("measure", {**_CUSTOM_PAIR, "codewords": [[[1], [1]], [[-1]]]}, "codewords"),
    "ragged-delta": ("measure", {"m": 2, "l": 2, "n": 2, "t": 2, "codebook": "uncoded-bpsk",
                                 "delta": [[1, 2], [3]]}, "delta"),
    "inf-delta": ("measure", {"m": 2, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk",
                              "delta": [[1, math.inf]]}, "delta"),
    "string-delta": ("measure", {"m": 2, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk",
                                 "delta": [[1, "x"]]}, "delta"),
    "overflowing-delta": ("pep", {"m": 2, "l": 2, "n": 2, "t": 2, "codebook": "uncoded-bpsk",
                                  "delta": [[1e200, 1], [1, 1]]}, "delta"),
    "uncoded-too-large": ("measure", {"m": 4, "l": 4, "n": 1, "t": 5, "codebook": "uncoded-bpsk"}, "codebook"),
    # 2 x 3 codewords where t = l = 2
    "codewords-not-t-by-l": ("ber", {"m": 2, "l": 2, "n": 2, "t": 2, "codebook": "custom",
                                     "codewords": [[[1, 0, 0], [0, 1, 0]], [[-1, 0, 0], [0, -1, 0]]]}, "codebook"),
    "delta-not-l-by-t": ("measure", {"m": 2, "l": 2, "n": 2, "t": 2, "codebook": "uncoded-bpsk",
                                     "delta": [[1, 2, 3], [4, 5, 6]]}, "delta"),
    "unitary-t-not-m": ("reproduce", {"m": 3, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk"}, "t"),
    "hadamard-m-3": ("ber", {"m": 3, "l": 1, "n": 2, "t": 3, "codebook": "repetition-bpsk",
                             "query": "hadamard"}, "query"),
    "unknown-codebook": ("measure", {"m": 2, "l": 1, "n": 2, "t": 2, "codebook": "golay"}, "codebook"),
    "uniform-query": ("measure", {"preset": "example1", "query": "uniform"}, "query"),
    "unknown-preset": ("pep", {"preset": "example9"}, "preset"),
    # the gain 10**(snr/10) overflows past about 3082.5 dB, its inverse below about -3082.5 dB
    "pep-grid-past-gain-range": ("pep", {"preset": "example1", "snr_grid_db": "3000:50:3100"}, "snr_grid_db"),
    "ber-grid-past-noise-range": ("ber", {"preset": "example1", "snr_grid_db": "-3100:3100:3100"}, "snr_grid_db"),
}


@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_cli_fault_is_named_before_any_stage(tmp_path, capsys, case):
    command, doc, field = _FAULTS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": command, **doc}))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"mlnsim {command}: {field}:"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "[]", '"measure"'])
def test_cli_config_file_fault_is_named(tmp_path, capsys, text):
    # None leaves the file unwritten, so it cannot be read; the others are not JSON objects
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["measure", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("mlnsim measure: config:"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc_out, flag_out", [(["x", 1], None), (None, "")])
def test_cli_bad_out_is_named(tmp_path, monkeypatch, capsys, doc_out, flag_out):
    # str(["x", 1]) would name a directory "['x', 1]", and "" names none, so writing would fail
    monkeypatch.chdir(tmp_path)
    doc = {"command": "measure", "preset": "example1"} | ({} if doc_out is None else {"out": doc_out})
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    argv = ["measure", "--config", "cfg.json"] + ([] if flag_out is None else ["--out", flag_out])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("mlnsim measure: out: must be a nonempty directory path"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("kind", ["file", "dangling-link"])
def test_cli_out_naming_a_file_fails_at_load(tmp_path, capsys, kind):
    # makedirs would refuse it only after every stage had run
    out = tmp_path / "taken"
    if kind == "file":
        out.write_text("kept")
    else:
        out.symlink_to(tmp_path / "missing")
    assert main(["measure", "--preset", "example1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("mlnsim measure: out:"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert os.path.lexists(out) and sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_cli_names_integer_literal_past_digit_limit(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"command": "measure", "preset": "example1", "seed": ' + "1" * 5000 + "}")
    assert main(["measure", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mlnsim measure: config:") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, grid, trials",
    [("measure", DEFAULT_PEP_GRID, 1000), ("verify-lemmas", DEFAULT_PEP_GRID, 1000),
     ("pep", DEFAULT_PEP_GRID, 100_000), ("ber", DEFAULT_BER_GRID, 1000),
     ("reproduce", tuple(float(s) for s in range(0, 25, 2)), 100_000)],
)
def test_command_defaults_follow_its_stages(command, grid, trials):
    # a command with a pep stage defaults to pep's trials; reproduce's grid is its ber stage's
    cfg = load_config(overrides={"command": command, "preset": "example1"})
    assert (cfg.snr_grid_db, cfg.trials, cfg.pep_grid_db) == (grid, trials, DEFAULT_PEP_GRID)


@pytest.mark.parametrize("command", ["measure", "pep", "verify-lemmas"])
def test_t_other_than_m_loads_without_ber(command):
    cfg = load_config(overrides={"command": command, "m": 3, "l": 1, "n": 2, "t": 2,
                                 "codebook": "repetition-bpsk", "query": "hadamard"})
    assert (cfg.dims.M, cfg.dims.T) == (3, 2)


class TestLoadConfig:
    def test_preset_example1(self):
        cfg = load_config(overrides={"command": "measure", "preset": "example1"})
        assert (cfg.dims.M, cfg.dims.L, cfg.dims.N, cfg.dims.T) == (2, 2, 2, 2)
        assert cfg.codebook_name == "example1-pair"
        assert np.allclose(cfg.delta, [[1.0, -2.0], [1.5, 2.5]])

    def test_preset_example3(self):
        cfg = load_config(overrides={"command": "measure", "preset": "example3"})
        assert (cfg.dims.M, cfg.dims.L, cfg.dims.N, cfg.dims.T) == (2, 1, 2, 2)
        assert cfg.codebook_name == "repetition-bpsk"

    def test_missing_codebook_is_named(self):
        with pytest.raises(ConfigError, match="codebook"):
            load_config(overrides={"command": "ber", "m": 2, "l": 2, "n": 2, "t": 2})

    def test_overflowing_delta_is_named(self):
        # finite entries whose products overflow would give NaN PEPs
        doc = {"command": "pep", "m": 2, "l": 2, "n": 2, "t": 2, "codebook": "uncoded-bpsk"}
        with pytest.raises(ConfigError, match="^delta: "):
            load_config(overrides={**doc, "delta": [[1e200, 1], [1, 1]]})
        assert load_config(overrides={**doc, "delta": [[1e100, 1], [1, 1]]}).delta[0, 0] == 1e100

    def test_preset_conflicts_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            load_config(overrides={"command": "ber", "preset": "example1", "m": 4})

    def test_non_integer_seed_is_named(self):
        with pytest.raises(ConfigError, match="^seed: must be an integer, got 'abc'"):
            load_config(None, {"command": "ber", "preset": "example1", "seed": "abc"})

    def test_negative_seed_is_named(self):
        with pytest.raises(ConfigError, match="^seed: must be >= 0, got -3"):
            load_config(None, {"command": "ber", "preset": "example1", "seed": -3})

    def test_fractional_dimension_is_named(self):
        with pytest.raises(ConfigError, match="^m: must be an integer, got 2.7"):
            load_config(None, {"command": "ber", "m": 2.7, "l": 1, "n": 1, "t": 2,
                               "codebook": "uncoded-bpsk"})

    @pytest.mark.parametrize("value", ["", ["x", 1], 3, {"a": "b"}, "a\0b"])
    def test_bad_out_is_named(self, tmp_path, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match="^out: must be a nonempty directory path"):
            load_config(None, {"command": "measure", "preset": "example1", "out": value})
        assert list(tmp_path.iterdir()) == []

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "measure", "preset": "example1", "seed": 1}))
        cfg = load_config(str(path), {"seed": 99})
        assert cfg.seed == 99
        assert cfg.preset == "example1"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "measure", "preset": "example1", "snr": 3}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(str(path))

    def test_uncoded_codebook_by_name(self):
        cfg = load_config(
            overrides={"command": "ber", "m": 2, "l": 1, "n": 1, "t": 2, "codebook": "uncoded-bpsk"}
        )
        assert len(cfg.codebook) == 4
        assert cfg.codebook.bits_per_block == 2
        assert cfg.delta.shape == (1, 2)

    def test_custom_codebook(self):
        words = [[[1.0], [1.0]], [[-1.0], [-1.0]]]
        cfg = load_config(
            overrides={
                "command": "ber", "m": 2, "l": 1, "n": 2, "t": 2,
                "codebook": "custom", "codewords": words,
            }
        )
        assert len(cfg.codebook) == 2
        assert np.allclose(cfg.delta, [[2.0, 2.0]])

    def test_custom_codebook_complex_entries(self):
        words = [[[[0.0, 1.0]], [[0.0, 1.0]]], [[[0.0, -1.0]], [[0.0, -1.0]]]]
        cfg = load_config(
            overrides={
                "command": "ber", "m": 2, "l": 1, "n": 1, "t": 2,
                "codebook": "custom", "codewords": words,
            }
        )
        assert cfg.codebook.codewords[0][0, 0] == 1j

    def test_custom_codebook_energy_violation(self):
        words = [[[2.0], [2.0]], [[-2.0], [-2.0]]]
        with pytest.raises(ConfigError, match="codewords"):
            load_config(
                overrides={
                    "command": "ber", "m": 2, "l": 1, "n": 2, "t": 2,
                    "codebook": "custom", "codewords": words,
                }
            )

    def test_bad_command(self):
        with pytest.raises(ConfigError, match="command"):
            load_config(overrides={"command": "plot", "preset": "example1"})


class TestCliCommands:
    # r_unitary, r_uniform, per_slot_ranks, rank_delta, nonzero_rows and verdict of each preset
    MEASURE_REPORTS = {
        "example1": (4, 2, [2, 2], 2, 2, "unitary-dominates"),
        "example2": (2, 2, [1, 1], 2, 2, "comparable"),
        "example3": (2, 1, [1, 1], 1, 1, "unitary-dominates"),
    }

    @pytest.mark.parametrize("preset", sorted(MEASURE_REPORTS))
    def test_measure_preset(self, tmp_path, capsys, preset):
        status = main(["measure", "--preset", preset, "--out", str(tmp_path)])
        assert status == 0
        out = json.loads(capsys.readouterr().out)
        fields = ("r_unitary", "r_uniform", "per_slot_ranks", "rank_delta", "nonzero_rows", "verdict")
        assert out == dict(zip(fields, self.MEASURE_REPORTS[preset]))
        on_disk = json.loads((tmp_path / f"measure_{preset}.json").read_text())
        assert on_disk == out

    def test_verify_lemmas_example2(self, tmp_path):
        status = main(
            ["verify-lemmas", "--preset", "example2", "--trials", "1000", "--out", str(tmp_path)]
        )
        assert status == 0
        report = json.loads((tmp_path / "lemma_check_example2.json").read_text())
        assert report["passed"] is True
        assert report["d_fraction"] == 1.0

    def test_verify_lemmas_exits_three_when_rank_prediction_fails(self, tmp_path, capsys):
        # diag(1, 3e-10) G has sigma2 / sigma1 near 3e-10, which straddles the rank threshold
        # 2e-10: slot 1's rank is 2 on the probe draw G0 but 1 on a part of the sampled draws
        cfg = {
            "command": "verify-lemmas", "m": 2, "l": 2, "n": 2, "t": 2, "codebook": "uncoded-bpsk",
            "delta": [[1, 1], [3e-10, 1]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        status = main(["verify-lemmas", "--config", str(path), "--seed", "3", "--trials", "2000", "--out", str(out)])
        assert status == 3
        captured = capsys.readouterr()
        assert captured.err == "rank predictions NOT met on sampled draws\n"
        report = json.loads((out / "lemma_check_custom.json").read_text())
        assert report == json.loads(captured.out)
        assert report["passed"] is False
        assert 0.0 < report["per_slot_fractions"][0] < 1.0
        assert report["per_slot_fractions"][1] == 1.0
        assert report["d_fraction"] == 1.0

    def test_uniform_rank_below_the_support_formula(self, tmp_path, capsys):
        # min(N rank delta, L*) = 4 for this delta, but the columns of D lie in
        # span{e_1, diag(g_1) v, diag(g_2) v}, so rank(D) = 3 on every draw
        cfg = {
            "m": 4, "l": 4, "n": 2, "t": 4, "codebook": "uncoded-bpsk",
            "delta": [[0, 0, 1, 1], [0, 0, 0, 2], [0, 0, 0, 3], [0, 0, 0, 4]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["measure", "--config", str(path), "--out", str(tmp_path / "m")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["r_unitary"], report["r_uniform"], report["verdict"]) == (3, 3, "comparable")
        status = main(["verify-lemmas", "--config", str(path), "--seed", "3", "--trials", "2000", "--out", str(tmp_path / "v")])
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True and report["d_fraction"] == 1.0

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_validation_error_exits_two(self, tmp_path, capsys):
        status = main(["ber", "--out", str(tmp_path)])  # no preset, no codebook
        assert status == 2
        assert "codebook" in capsys.readouterr().err

    def test_negative_seed_flag_rejected_before_run(self, tmp_path, capsys):
        status = main(["ber", "--preset", "example3", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert status == 2
        assert "seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ber_artifacts_roundtrip_and_determinism(self, tmp_path, capsys):
        args = [
            "ber", "--preset", "example3", "--snr-grid", "0:4:8", "--seed", "11",
            "--events", "50", "--max-trials", "5000",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("ber_example3_dft.csv", "ber_example3_uniform.csv"):
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            assert a == b
            BerCurve.from_csv(a)  # re-parseable
        summary = json.loads((tmp_path / "a" / "ber_example3_summary.json").read_text())
        assert "gain_db_at_0.01" in summary

    def test_pep_artifacts(self, tmp_path, capsys):
        status = main(
            [
                "pep", "--preset", "example3", "--snr-grid", "10:10:30",
                "--trials", "2000", "--seed", "3", "--out", str(tmp_path),
            ]
        )
        assert status == 0
        for scheme in ("unitary", "uniform"):
            ests = pep_curve_from_csv((tmp_path / f"pep_example3_{scheme}.csv").read_text())
            assert [e.snr_db for e in ests] == [10.0, 20.0, 30.0]
        ratio_text = (tmp_path / "pep_example3_ratio.csv").read_text()
        assert len(ratio_curve_from_csv(ratio_text)) == 3
        # the ratio curve is formed from the two curves just written, not redrawn
        unitary, uniform = (
            pep_curve_from_csv((tmp_path / f"pep_example3_{s}.csv").read_text())
            for s in ("unitary", "uniform")
        )
        assert ratio_text == ratio_curve_to_csv(
            [ratio_point(eu, ef) for eu, ef in zip(unitary, uniform)]
        )
        summary = json.loads((tmp_path / "pep_example3_summary.json").read_text())
        assert {"unitary", "uniform"} <= set(summary)

    def test_pep_at_the_bottom_of_the_grid_range(self, tmp_path, capsys):
        # gbar**4 underflows at -3080 dB, so a guard that formed it divided by zero
        argv = ["pep", "--preset", "example1", "--snr-grid=-3080:10:-3070", "--trials", "100"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "pep_example1_summary.json").read_text())
        assert {"unitary", "uniform"} <= set(summary)

    def test_flat_window_is_not_fitted_nor_divergent(self, tmp_path, capsys):
        # every PEP is 1.0 with SE 0 this far below 0 dB: the window has not started to decay
        argv = ["pep", "--preset", "example1", "--snr-grid=-3080:10:-3060", "--trials", "100"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "pep_example1_summary.json").read_text())
        for scheme, nominal in (("unitary", 4), ("uniform", 2)):
            assert summary[scheme] == {
                "nominal": nominal, "fitted": None, "divergent": False,
                "diagnostic": "pep does not fall across -3080--3060 dB (1 to 1); no exponent fitted",
            }

    def test_failed_run_removes_partial_outputs(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, files):
            files["junk.txt"] = "partial"
            raise RuntimeError("injected failure")

        monkeypatch.setitem(cli_mod._RUNNERS, "measure", boom)
        status = main(["measure", "--preset", "example1", "--out", str(tmp_path)])
        assert status == 2
        assert not (tmp_path / "junk.txt").exists()
        assert "injected failure" in capsys.readouterr().err

    def test_failed_stage_writes_nothing_and_creates_no_directory(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, files):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(cli_mod._RUNNERS, "ber", boom)
        argv = ["reproduce", "--preset", "example3", "--trials", "200", "--snr-grid", "0:6:12"]
        fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
        earlier.mkdir()
        (earlier / "measure_example3.json").write_text("from an earlier run\n")
        for out in (fresh, earlier):
            assert main([*argv, "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.err == "mlnsim reproduce: RuntimeError: injected failure\n"
            assert '"r_unitary": 2' in captured.out  # the stages before ber still print their reports
        assert not fresh.exists()
        assert [p.name for p in earlier.iterdir()] == ["measure_example3.json"]
        assert (earlier / "measure_example3.json").read_text() == "from an earlier run\n"

    def test_failed_write_leaves_none_of_the_runs_files(self, tmp_path, capsys, monkeypatch):
        # the second output's write runs out of space after its open has created the file
        opened = []

        def open_on_a_full_disk(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(os.path.basename(path))
            if len(opened) == 2:
                def write(text):
                    fh.buffer.write(text[:8].encode())
                    fh.flush()
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                fh.write = write
            return fh

        monkeypatch.setattr(cli_mod, "open", open_on_a_full_disk, raising=False)
        out = tmp_path / "o"
        status = main(["pep", "--preset", "example3", "--snr-grid", "10:10:30", "--trials", "200", "--out", str(out)])
        assert status == 2
        assert capsys.readouterr().err == f"mlnsim pep: OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert opened == ["pep_example3_unitary.csv", "pep_example3_uniform.csv"]
        assert list(out.iterdir()) == []

    def test_interrupted_write_propagates_and_leaves_none_of_the_runs_files(self, tmp_path, capsys, monkeypatch):
        # an interrupt during the second output's write is no failure to report: it
        # propagates, with no exit status and no error line, once the first file is removed
        opened = []

        def open_then_interrupt(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(os.path.basename(path))
            if len(opened) == 2:
                def write(text):
                    raise KeyboardInterrupt
                fh.write = write
            return fh

        monkeypatch.setattr(cli_mod, "open", open_then_interrupt, raising=False)
        out = tmp_path / "o"
        with pytest.raises(KeyboardInterrupt):
            main(["pep", "--preset", "example3", "--snr-grid", "10:10:30", "--trials", "200", "--out", str(out)])
        assert "mlnsim pep:" not in capsys.readouterr().err
        assert opened == ["pep_example3_unitary.csv", "pep_example3_uniform.csv"]
        assert list(out.iterdir()) == []

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ("--preset", "--config", "--seed", "--trials", "--snr-grid", "--query", "--out"):
            assert flag in help_text

    def test_reproduce_pipeline(self, tmp_path, capsys):
        status = main(
            ["reproduce", "--preset", "example3", "--seed", "5", "--trials", "2000",
             "--events", "50", "--max-trials", "5000", "--out", str(tmp_path)]
        )
        assert status == 0
        produced = sorted(p.name for p in tmp_path.iterdir())
        assert produced == [
            "ber_example3_dft.csv",
            "ber_example3_summary.json",
            "ber_example3_uniform.csv",
            "lemma_check_example3.json",
            "measure_example3.json",
            "pep_example3_ratio.csv",
            "pep_example3_summary.json",
            "pep_example3_uniform.csv",
            "pep_example3_unitary.csv",
        ]
        measure = json.loads((tmp_path / "measure_example3.json").read_text())
        assert (measure["r_unitary"], measure["r_uniform"]) == (2, 1)
        pep = pep_curve_from_csv((tmp_path / "pep_example3_unitary.csv").read_text())
        assert tuple(e.snr_db for e in pep) == DEFAULT_PEP_GRID
        ber = json.loads((tmp_path / "ber_example3_summary.json").read_text())
        assert ber["snr_grid_db"] == [float(s) for s in range(0, 25, 2)]

    def test_reproduce_runs_an_explicit_grid_in_pep_and_ber(self, tmp_path, capsys):
        status = main(
            ["reproduce", "--preset", "example3", "--seed", "5", "--trials", "500", "--snr-grid", "10:10:30",
             "--events", "20", "--max-trials", "2000", "--out", str(tmp_path)]
        )
        assert status == 0
        for name in ("pep_example3_summary.json", "ber_example3_summary.json"):
            assert json.loads((tmp_path / name).read_text())["snr_grid_db"] == [10.0, 20.0, 30.0]

    def test_custom_codebook_from_file(self, tmp_path, capsys):
        cfg = {
            "command": "measure",
            "m": 2, "l": 1, "n": 2, "t": 2,
            "codebook": "custom",
            "codewords": [[[1.0], [1.0]], [[-1.0], [-1.0]]],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        status = main(["measure", "--config", str(path), "--out", str(tmp_path / "out")])
        assert status == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["r_unitary"], out["r_uniform"]) == (2, 1)
        assert (tmp_path / "out" / "measure_custom.json").exists()

    @pytest.mark.parametrize("env", ["0", "-2", "abc"])
    def test_bad_threads_env_exits_two(self, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv("MLNSIM_THREADS", env)
        out = tmp_path / "o"
        status = main(
            ["ber", "--preset", "example3", "--snr-grid", "0:4:4", "--events", "20",
             "--max-trials", "2000", "--out", str(out)]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"mlnsim ber: ValueError: MLNSIM_THREADS must be an integer >= 1, got '{env}'\n"
        )
        assert not out.exists() and captured.out == ""

    def test_bad_threads_env_fails_before_the_first_stage(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MLNSIM_THREADS", "0")
        out = tmp_path / "o"
        status = main(
            ["reproduce", "--preset", "example3", "--trials", "200", "--snr-grid", "0:6:12",
             "--max-trials", "2000", "--out", str(out)]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.err == "mlnsim reproduce: ValueError: MLNSIM_THREADS must be an integer >= 1, got '0'\n"
        assert not out.exists() and captured.out == ""

    def test_negative_grid_after_a_space(self, tmp_path, capsys):
        # argparse reads "-10:5:0" as a flag unless the parser takes it for a negative number
        args = ["ber", "--preset", "example3", "--events", "20", "--max-trials", "2000"]
        assert main([*args, "--snr-grid", "-10:5:0", "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--snr-grid=-10:5:0", "--out", str(tmp_path / "b")]) == 0
        for name in ("ber_example3_summary.json", "ber_example3_dft.csv", "ber_example3_uniform.csv"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()
        assert json.loads((tmp_path / "a" / "ber_example3_summary.json").read_text())["snr_grid_db"] == [-10.0, -5.0, 0.0]

    def test_threads_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MLNSIM_THREADS", "1")
        status = main(
            ["ber", "--preset", "example3", "--snr-grid", "0:4:4", "--events", "20",
             "--max-trials", "2000", "--out", str(tmp_path)]
        )
        assert status == 0


class TestExponentSummary:
    @staticmethod
    def _curve(values):
        return [PepEstimate(snr, v, 1e-3 * v, 10_000, "eigen-product") for snr, v in zip(range(25, 50, 5), values)]

    def test_divergent_average_reports_no_exponent(self):
        # pep falls as gbar^-1, so gbar^2 * pep grows a hundredfold across 25-45 dB
        summary = _exponent_summary(self._curve(1.0 / snr_gain(np.arange(25.0, 50.0, 5.0))), 2)
        assert summary["divergent"] is True
        assert (summary["nominal"], summary["fitted"]) == (2, None)
        assert "limiting expectation diverges" in summary["diagnostic"]

    def test_unfittable_curve_reports_its_error(self):
        # a zero endpoint leaves no scaled limit to check
        summary = _exponent_summary(self._curve([1e-3, 1e-4, 1e-5, 1e-6, 0.0]), 2)
        assert summary == {
            "nominal": 2, "fitted": None, "divergent": False,
            "diagnostic": "scaled-limit check needs positive endpoint values",
        }
