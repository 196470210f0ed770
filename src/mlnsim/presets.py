"""Built-in experiment presets for the three stock antenna/code settings.

Each preset fixes the antenna dimensions, the codeword difference matrix
driving the analytical measures, and the matching codebook used by the
link simulator:

* example1: 2x2x2 channel, two-antenna code with a full-support,
  full-rank difference matrix (unitary query dominates).
* example2: same code on a 2x2x1 channel (measures tie).
* example3: 2x1x2 channel, single-antenna BPSK repeated over two slots
  (unitary query restores the diversity a single-antenna tag loses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemDims
from .codes import Codebook

__all__ = ["Preset", "PRESETS", "PRESET_NAMES", "get_preset"]

# each preset is a config fragment: the dimension and codebook keys of the loader
PRESETS = {
    "example1": {"m": 2, "l": 2, "n": 2, "t": 2, "codebook": "example1-pair"},
    "example2": {"m": 2, "l": 2, "n": 1, "t": 2, "codebook": "example1-pair"},
    "example3": {"m": 2, "l": 1, "n": 2, "t": 2, "codebook": "repetition-bpsk"},
}
PRESET_NAMES = tuple(PRESETS)


@dataclass(frozen=True)
class Preset:
    name: str
    dims: SystemDims
    delta: np.ndarray  # L x T difference matrix used by the analyses
    codebook: Codebook
    codebook_name: str


def get_preset(name: str) -> Preset:
    """Dimensions, codebook and difference matrix of a preset, built by the config loader."""
    from .config import _build_codebook  # config imports this module

    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    p = PRESETS[name]
    dims = SystemDims(p["m"], p["l"], p["n"], p["t"])
    codebook, delta = _build_codebook(p["codebook"], None, dims)
    return Preset(name, dims, delta, codebook, p["codebook"])
