"""The M x L x N dyadic backscatter channel.

The reader's M transmit antennas reach the tag's L antennas through the
forward gains H (M x L); the tag's load-modulated reflection reaches the
N receive antennas through the backscatter gains G (L x N). Over a block
of T slots the received matrix is

    R = ((Q H) o C) G + W

with o the entrywise product, C the T x L tag coding matrix and W AWGN.
Fading is quasi-static: one (H, G) realization holds for the whole block.
Every caller computes it as X = Q H (``query.effective_forward``) and then
(X o C) G (``mix``); both take a batch of blocks on a trailing axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
]


@dataclass(frozen=True)
class SystemDims:
    """Antenna counts and block length: M query, L tag, N receive, T slots."""

    M: int
    L: int
    N: int
    T: int

    def __post_init__(self):
        for name in ("M", "L", "N", "T"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class ChannelRealization:
    """One quasi-static draw of the two fading stages."""

    H: np.ndarray  # M x L forward gains
    G: np.ndarray  # L x N backscatter gains

    def __post_init__(self):
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


def _blocks_last(A: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    moved = A.transpose(tuple(range(1, A.ndim)) + (0,))
    if out is None:
        return np.ascontiguousarray(moved)
    out[...] = moved
    return out


def mix(
    X: np.ndarray, C: np.ndarray, G: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """(X o C) G for T x L and L x N inputs, or T x L x n and L x N x n (blocks last).

    A single forward row X (1 x L) broadcasts over the T rows of C. The
    result goes to out when given.
    """
    return np.sum((X * C)[:, :, None] * G[None], axis=1, out=out)


def gram(G: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """G G^H: L x L for an L x N G, or L x L x n for L x N x n (blocks last), into out if given."""
    return np.sum(G[:, None] * G[None].conj(), axis=2, out=out)


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
    q,
    ch: ChannelRealization,
    C: np.ndarray,
    noise_std: float,
    rng: np.random.Generator,
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
