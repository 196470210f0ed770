"""The M x L x N dyadic backscatter channel.

The reader's M transmit antennas reach the tag's L antennas through the
forward gains H (M x L); the tag's load-modulated reflection reaches the
N receive antennas through the backscatter gains G (L x N). Over a block
of T slots the received matrix is

    R = ((Q H) o C) G + W

with o the entrywise product, C the T x L tag coding matrix and W AWGN.
Fading is quasi-static: one (H, G) realization holds for the whole block.
Each product has one kernel, and each takes a batch of blocks on a trailing
axis: X = Q H is formed only by ``query.effective_forward``, the noiseless
block (X o C) G only by ``mix`` and G B^H (G G^H included) only by ``gram``.
The ML metric of ``simulate`` works from X, G G^H and W G^H without the block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .codes import ByValue
from .linalg import DimensionMismatchError, sample_cn_matrix
from .query import effective_forward

__all__ = [
    "SystemDims",
    "ChannelRealization",
    "sample_channel",
    "mix",
    "gram",
    "effective_signal",
    "backscatter_transmit",
    "snr_gain",
    "checked_snr_grid",
    "checked_integer",
]

# below this |snr_db| (about 3082.5 dB), gbar and 1 / gbar are finite nonzero floats
_SNR_DB_MAX = 10.0 * math.log10(sys.float_info.max)


def snr_gain(snr_db):
    """The SNR gbar = 10**(snr_db / 10); unit-energy signals get noise variance 1 / gbar per entry."""
    return 10.0 ** (snr_db / 10.0)


def checked_integer(name: str, value, least: int = 1) -> int:
    """value as a Python int; ValueError naming name for a bool, a non-integer or a value below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def checked_snr_grid(values) -> tuple:
    """values as a nonempty, strictly ascending tuple of floats, each with |snr_db| < _SNR_DB_MAX.

    Raises ValueError starting "snr_grid_db:" otherwise.
    """
    grid = tuple(float(s) for s in values)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"snr_grid_db: must be nonempty and strictly ascending, got {grid!r:.100}")
    if not all(abs(s) < _SNR_DB_MAX for s in grid):
        raise ValueError(
            f"snr_grid_db: need |snr| < {_SNR_DB_MAX:.4f} dB, where gbar and 1/gbar are finite "
            f"and nonzero floats, got {grid!r:.100}"
        )
    return grid


@dataclass(frozen=True)
class SystemDims:
    """Antenna counts and block length: M query, L tag, N receive, T slots."""

    M: int
    L: int
    N: int
    T: int

    def __post_init__(self):
        for name, v in vars(self).items():
            object.__setattr__(self, name, checked_integer(name, v))


@dataclass(frozen=True, eq=False)
class ChannelRealization(ByValue):
    """One quasi-static draw of the two fading stages, held as read-only complex copies."""

    H: np.ndarray  # M x L forward gains
    G: np.ndarray  # L x N backscatter gains

    def __post_init__(self):
        self._hold("H", self.H)
        self._hold("G", self.G)
        if self.H.ndim != 2 or self.G.ndim != 2 or self.H.shape[1] != self.G.shape[0]:
            raise DimensionMismatchError(
                f"H {self.H.shape} and G {self.G.shape} disagree on tag antenna count"
            )


def sample_channel(dims: SystemDims, rng: np.random.Generator) -> ChannelRealization:
    """Draw H and G independently with i.i.d. CN(0, 1) entries.

    Both stages are full rank with probability one. The realization is
    meant to be held fixed for all T slots of a block.
    """
    return ChannelRealization(
        H=sample_cn_matrix(dims.M, dims.L, rng),
        G=sample_cn_matrix(dims.L, dims.N, rng),
    )


def mix(X: np.ndarray, C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(X o C) G for T x L and L x N inputs, or T x L x n and L x N x n (blocks last).

    The terms are added over l in order, whatever the shapes. A single forward
    row X (1 x L) broadcasts over the T rows of C.
    """
    XC = X * C
    S = XC[:, 0, None] * G[0]
    for l in range(1, XC.shape[1]):
        S += XC[:, l, None] * G[l]
    return S


def gram(G: np.ndarray, *, Gc=None) -> np.ndarray:
    """G G^H: L x L for an L x N G, or L x L x n for L x N x n (blocks last).

    Given Gc = conj(B) for a K x N (x n) B, it forms G B^H instead, L x K (x n);
    Gc defaults to conj(G).
    """
    Gc = G.conj() if Gc is None else Gc
    return np.sum(G[:, None] * Gc[None], axis=2)


def effective_signal(q, H: np.ndarray, C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Noiseless received block S = ((Q H) o C) G, a T x N matrix."""
    X = effective_forward(q, H)
    C = np.asarray(C, dtype=complex)
    G = np.asarray(G, dtype=complex)
    if X.ndim != 2:
        raise DimensionMismatchError(f"H must be a matrix, got shape {np.shape(H)}")
    if C.shape != X.shape:
        raise DimensionMismatchError(f"C must be {X.shape[0]}x{X.shape[1]}, got {C.shape}")
    if G.ndim != 2 or G.shape[0] != X.shape[1]:
        raise DimensionMismatchError(f"G must have {X.shape[1]} rows, got {G.shape}")
    return mix(X, C, G)


def backscatter_transmit(
    q, ch: ChannelRealization, C: np.ndarray, noise_std: float, rng: np.random.Generator
) -> np.ndarray:
    """Send one coded block through the channel: R = S + W.

    W has i.i.d. circularly-symmetric complex Gaussian entries with total
    variance noise_std**2 per entry (noise_std == 0 gives the noiseless
    signal exactly).
    """
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    s = effective_signal(q, ch.H, C, ch.G)
    if noise_std == 0.0:
        return s
    return s + noise_std * sample_cn_matrix(s.shape[0], s.shape[1], rng)
