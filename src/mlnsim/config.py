"""Experiment configuration: a flat JSON document plus CLI overrides.

The config file mirrors the ExperimentConfig fields one-to-one. CLI flags
override file values; a preset, when given, fully determines dimensions,
codebook and difference matrix, and conflicting explicit settings are
rejected. Presets are fragments of the same document (``PRESETS``), built
by the same ``_setting`` as a loaded one.

Custom codebooks are inline: ``"codebook": "custom"`` with a
``"codewords"`` list of T x L matrices whose entries are finite numbers
(real) or [re, im] pairs of them. An explicit L x T ``"delta"`` (same
entries) wins for the analytical commands; else example1-pair uses
EXAMPLE1_DELTA and other codes their first two codewords' difference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import SystemDims, checked_snr_grid
from .codes import Codebook, difference_matrix, repetition_bpsk, uncoded_bpsk, pairwise_codebook_from_delta, EXAMPLE1_DELTA
from .measure import QUERY_SCHEMES, scheme_weights
from .query import UNITARY_KINDS, check_query_shape
from .simulate import DEFAULT_MAX_TRIALS_PER_POINT, DEFAULT_TARGET_ERROR_EVENTS

__all__ = ["ConfigError", "ExperimentConfig", "PRESETS", "PRESET_NAMES", "load_config", "parse_snr_grid"]

# the stages each command runs, in order: each stage is a command, and reproduce runs all four
STAGES = {stage: (stage,) for stage in ("measure", "verify-lemmas", "pep", "ber")}
STAGES["reproduce"] = tuple(STAGES)

DEFAULT_BER_GRID = tuple(float(s) for s in range(0, 41, 2))
DEFAULT_PEP_GRID = tuple(float(s) for s in range(10, 46, 5))
# default snr_grid_db of each command not on DEFAULT_PEP_GRID; reproduce's is its ber stage's
DEFAULT_GRIDS = {"ber": DEFAULT_BER_GRID, "reproduce": tuple(float(s) for s in range(0, 25, 2))}
EXPONENT_FIT_FROM_DB = 25.0  # decay exponents are fitted from this SNR up when the window allows
DEFAULT_TRIALS, DEFAULT_PEP_TRIALS = 1000, 100_000  # the latter for commands with a pep stage
DEFAULT_QUERY = "dft"
DEFAULT_OUT = "mlnsim-out"
_MAX_GRID_POINTS = 10_000

CODEBOOK_BUILDERS = ("example1-pair", "repetition-bpsk", "uncoded-bpsk", "custom")

# each preset is a config fragment: the dimension and codebook keys of the loader
PRESETS = {
    "example1": {"m": 2, "l": 2, "n": 2, "t": 2, "codebook": "example1-pair"},
    "example2": {"m": 2, "l": 2, "n": 1, "t": 2, "codebook": "example1-pair"},
    "example3": {"m": 2, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk"},
}
PRESET_NAMES = tuple(PRESETS)

_CONFIG_KEYS = {
    "command", "preset", "m", "l", "n", "t", "query", "codebook", "codewords",
    "delta", "snr_grid_db", "seed", "trials", "target_error_events",
    "max_trials_per_point", "out",
}


class ConfigError(ValueError):
    """A configuration value violates an invariant; the message names it."""


def parse_snr_grid(text: str) -> tuple:
    """Parse "A:STEP:B" into A, A + STEP, ... <= B; a last point within 1e-9 STEP of B becomes B."""
    try:
        a, step, b = (float(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"snr_grid_db: expected A:STEP:B with numeric fields, got {text!r}") from None
    steps = (b - a) / step + 1e-9 if step > 0 else -1.0  # not finite unless A and B are
    if not (math.isfinite(step) and a <= b and 0.0 <= steps < _MAX_GRID_POINTS):
        raise ConfigError(f"snr_grid_db: need finite A <= B, STEP > 0, <= {_MAX_GRID_POINTS} points: {text!r}")
    n = math.floor(steps)
    last = a + n * step
    return _checked_grid([a + i * step for i in range(n)] + [b if n and b - last <= 1e-9 * step else last])


def _checked_grid(values) -> tuple:
    """A JSON list of numbers as ``checked_snr_grid`` gives it; ConfigError naming snr_grid_db otherwise."""
    try:
        if any(isinstance(s, (str, bytes, bool)) for s in values):  # float() would take "1" and True
            raise TypeError
        return checked_snr_grid(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    except (TypeError, OverflowError):  # not a list, or an entry that is not a float
        raise ConfigError(f"snr_grid_db: need a list of numbers, got {values!r:.100}") from None


def _integer(key: str, value, minimum: int) -> int:
    """value as an int >= minimum; integral floats and digit strings count."""
    try:
        v = int(value)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or isinstance(value, bool) or (isinstance(value, float) and v != value):
        raise ConfigError(f"{key}: must be an integer, got {value!r}")
    if v < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {v}")
    return v


def _parse_entry(v, what: str) -> complex:
    parts = v if isinstance(v, list) and len(v) == 2 else [v]
    try:  # math.isfinite raises OverflowError for an int too large for a float
        ok = all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) for x in parts)
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"{what}: matrix entries must be finite numbers or [re, im] pairs, got {v!r:.100}")
    return complex(*parts)


def _parse_matrix(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"{what}: expected a list of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ConfigError(f"{what}: rows must be nonempty and equal length")
    return np.array([[_parse_entry(v, what) for v in r] for r in rows], dtype=complex)


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description."""

    command: str
    preset: str | None
    dims: SystemDims
    query: str  # unitary construction used against the uniform query
    codebook_name: str
    codebook: Codebook
    delta: np.ndarray  # L x T
    snr_grid_db: tuple
    seed: int
    trials: int  # Monte Carlo trials for measure/lemma/pep work
    target_error_events: int
    max_trials_per_point: int
    output_dir: str
    snr_grid_explicit: bool = field(default=False, compare=False)


def _build_codebook(name, values, dims: SystemDims) -> Codebook:
    if name == "example1-pair":
        return pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0]
    if name == "repetition-bpsk":
        return repetition_bpsk(dims.T)
    if name == "uncoded-bpsk":
        return uncoded_bpsk(dims.T, dims.L)
    if name == "custom":
        if not isinstance(values, list) or len(values) < 2:
            raise ConfigError("codewords: custom codebook needs a list of >= 2 codewords")
        words = tuple(_parse_matrix(w, "codewords") for w in values)
        # a count that is not a power of 2 fails Codebook's own bits check
        return Codebook(words, bits_per_block=len(words).bit_length() - 1)
    raise ConfigError(f"codebook: unknown name {name!r}; choose from {CODEBOOK_BUILDERS}")


def _setting(doc: dict) -> tuple[SystemDims, Codebook, np.ndarray]:
    """Dims, codebook and L x T difference matrix of a document or preset fragment."""
    name = doc.get("codebook")
    if name is None:
        raise ConfigError("codebook: required when no preset is given")
    dims = SystemDims(*(_integer(k, doc.get(k, 0), 1) for k in ("m", "l", "n", "t")))
    try:
        codebook = _build_codebook(name, doc.get("codewords"), dims)
    except ConfigError:
        raise
    except ValueError as exc:  # a builder's own check: size, shape, count or energy
        raise ConfigError(f"{'codewords' if name == 'custom' else 'codebook'}: {exc}") from exc
    if (codebook.T, codebook.L) != (dims.T, dims.L):
        raise ConfigError(f"codebook: codewords are {codebook.T}x{codebook.L} but dims give T={dims.T}, L={dims.L}")
    if "delta" in doc:
        delta = _parse_matrix(doc["delta"], "delta")
    elif name == "example1-pair":
        delta = EXAMPLE1_DELTA.copy()
    else:
        delta = difference_matrix(codebook.codewords[0], codebook.codewords[1]).delta
    if delta.shape != (dims.L, dims.T):
        raise ConfigError(f"delta: must be L x T = {dims.L}x{dims.T}, got {delta.shape}")
    try:
        for kind in QUERY_SCHEMES:
            scheme_weights(delta, kind)
    except ValueError as exc:  # finite entries whose products overflow
        raise ConfigError(str(exc)) from exc
    return dims, codebook, delta


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Load and validate a config from a JSON file and/or override values.

    Overrides (typically CLI flags) win over file values. Raises
    ConfigError naming the offending field.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except ValueError as exc:  # malformed JSON, or an integer literal past Python's digit limit
            raise ConfigError(f"config: {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    merged = dict(raw)
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v

    command = merged.get("command")
    if command not in STAGES:
        raise ConfigError(f"command: expected one of {tuple(STAGES)}, got {command!r}")

    preset_name = merged.get("preset")
    query = merged.get("query", DEFAULT_QUERY)
    if query not in UNITARY_KINDS:
        raise ConfigError(
            f"query: comparisons run uniform against a unitary construction; "
            f"expected one of {UNITARY_KINDS}, got {query!r}"
        )

    if preset_name is not None:
        if preset_name not in PRESET_NAMES:
            raise ConfigError(f"preset: unknown {preset_name!r}; choose from {PRESET_NAMES}")
        conflicts = [k for k in ("m", "l", "n", "t", "codebook", "codewords", "delta") if k in merged]
        if conflicts:
            raise ConfigError(f"preset: {preset_name} fixes dims and codebook; remove {conflicts}")
        merged.update(PRESETS[preset_name])
    dims, codebook, delta = _setting(merged)
    if "ber" in STAGES[command]:  # the BER stage runs the unitary query (SnrSweepConfig)
        try:
            check_query_shape(query, dims.T, dims.M)
        except ValueError as exc:  # t is at fault when it differs from m, else the kind is
            raise ConfigError(f"{'t' if dims.T != dims.M else 'query'}: {exc}") from None

    grid_value = merged.get("snr_grid_db")
    if isinstance(grid_value, str):
        grid = parse_snr_grid(grid_value)
    elif grid_value is not None:
        grid = _checked_grid(grid_value)
    else:
        grid = DEFAULT_GRIDS.get(command, DEFAULT_PEP_GRID)

    seed = _integer("seed", merged.get("seed", 0), 0)
    default_trials = DEFAULT_PEP_TRIALS if "pep" in STAGES[command] else DEFAULT_TRIALS
    trials = _integer("trials", merged.get("trials", default_trials), 1)
    target_events = _integer("target_error_events", merged.get("target_error_events", DEFAULT_TARGET_ERROR_EVENTS), 1)
    max_trials = _integer("max_trials_per_point", merged.get("max_trials_per_point", DEFAULT_MAX_TRIALS_PER_POINT), 1)

    out_dir = merged.get("out", DEFAULT_OUT)
    if not isinstance(out_dir, str) or not out_dir or "\0" in out_dir:
        raise ConfigError(f"out: must be a nonempty directory path, got {out_dir!r:.100}")
    parent = os.path.dirname(os.path.abspath(out_dir))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ConfigError(f"out: cannot create output directory under {parent}")

    return ExperimentConfig(
        command=command,
        preset=preset_name,
        dims=dims,
        query=query,
        codebook_name=merged["codebook"],
        codebook=codebook,
        delta=np.asarray(delta, dtype=complex),
        snr_grid_db=grid,
        seed=seed,
        trials=trials,
        target_error_events=target_events,
        max_trials_per_point=max_trials,
        output_dir=out_dir,
        snr_grid_explicit=grid_value is not None,
    )
