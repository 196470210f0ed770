"""Built-in experiment presets for the three stock antenna/code settings.

Each preset fixes the antenna dimensions, the codeword difference matrix
driving the analytical measures, and the matching codebook used by the
link simulator:

* example1: 2x2x2 channel, two-antenna code with a full-support,
  full-rank difference matrix (unitary query dominates).
* example2: same code on a 2x2x1 channel (measures tie).
* example3: 2x1x2 channel, single-antenna BPSK repeated over two slots
  (unitary query restores the diversity a single-antenna tag loses).

The presets themselves are config fragments kept in ``config.PRESETS``
and re-exported here; ``get_preset`` builds one with the same code that
builds a loaded config document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SystemDims
from .codes import ByValue, Codebook
from .config import PRESET_NAMES, PRESETS, _setting

__all__ = ["Preset", "PRESETS", "PRESET_NAMES", "get_preset"]


@dataclass(frozen=True, eq=False)
class Preset(ByValue):
    name: str
    dims: SystemDims
    delta: np.ndarray  # read-only complex L x T difference matrix used by the analyses
    codebook: Codebook
    codebook_name: str


def get_preset(name: str) -> Preset:
    """Dimensions, codebook and difference matrix of a preset, built by the config loader."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    dims, codebook, delta = _setting(PRESETS[name])
    return Preset(name, dims, delta, codebook, PRESETS[name]["codebook"])
