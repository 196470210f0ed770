"""Tag-side space-time codebooks and codeword difference matrices.

Codewords are T x L complex matrices (slot-major, one column per tag
antenna). A codebook is normalized so the average codeword energy equals
T, i.e. unit average energy per slot summed over tag antennas; this keeps
SNR definitions comparable across codes. A Codebook copies its K = 2**b
codewords (a K x T x L array, or any sequence of equal-shape T x L
matrices) into one read-only K x T x L array; word k carries the b bits of k.

The difference matrix of a codeword pair is stored L x T (antenna-major,
transposed from codeword orientation) so that entry (l, t) is the symbol
difference of antenna l at slot t. Its support counts and its rank describe
it; the performance measures (``measure.compare_queries``) take their ranks
from the matrices it builds with G, so they do not depend on its scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import DimensionMismatchError, numeric_rank

__all__ = [
    "Codebook",
    "DifferenceMatrix",
    "difference_matrix",
    "pairwise_codebook_from_delta",
    "repetition_bpsk",
    "uncoded_bpsk",
    "EXAMPLE1_DELTA",
    "EXAMPLE3_DELTA",
]

# entries whose magnitude exceeds this count as "nonzero" in support /
# row-occupancy statistics; codebooks here are exact small rationals
SUPPORT_TOL = 1e-12

ENERGY_TOL = 1e-9

# Built-in codeword difference matrices for the stock experiment presets,
# stored antenna-major (L x T).
EXAMPLE1_DELTA = np.array([[1.0, -2.0], [1.5, 2.5]])
EXAMPLE3_DELTA = np.array([[2.0, 2.0]])


@dataclass(frozen=True)
class Codebook:
    """K = 2**bits_per_block T x L codewords, copied into one read-only complex K x T x L array.

    Two codebooks are equal, and hash equal, when their codewords have the same shape and bytes.
    """

    codewords: np.ndarray

    def __post_init__(self):
        try:
            words = np.asarray(self.codewords)
        except ValueError as exc:  # numpy refuses words of different shapes
            raise DimensionMismatchError("codewords must share one shape") from exc
        cws = np.array(words, dtype=complex)
        K = len(cws)
        if K < 2 or K & (K - 1):
            raise ValueError(f"a codebook needs a power of 2 (>= 2) codewords, got {K}")
        if cws.ndim != 3 or 0 in cws.shape:
            raise DimensionMismatchError(f"codewords must be T x L matrices, got shape {cws.shape[1:]}")
        avg_energy, T = np.sum(np.abs(cws) ** 2) / K, cws.shape[1]
        if not abs(avg_energy - T) <= ENERGY_TOL:  # NaN fails too
            raise ValueError(f"average codeword energy {avg_energy:.12g} != block length {T}")
        cws.flags.writeable = False
        object.__setattr__(self, "codewords", cws)

    @property
    def T(self) -> int:
        return self.codewords.shape[1]

    @property
    def L(self) -> int:
        return self.codewords.shape[2]

    @property
    def bits_per_block(self) -> int:
        return len(self).bit_length() - 1

    def __len__(self) -> int:
        return len(self.codewords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Codebook):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @property
    def _key(self) -> tuple:
        """What equality and the hash compare: the shape and the bytes of codewords."""
        return self.codewords.shape, self.codewords.tobytes()

    @cached_property
    def metric_weights(self) -> np.ndarray:
        """The read-only K x F codeword weights of the ML metric, built once."""
        w = _metric_weights(self.codewords)
        w.flags.writeable = False
        return w


def _metric_weights(codewords: np.ndarray) -> np.ndarray:
    """K x F real weights that pair each K x T x L codeword with the ML metric features.

    Row j holds c_j c_j^H per slot (T L^2 columns) and then -2 c_j (T L
    columns), each as (Re, -Im) parts, so that Re(f w) = Re f Re w - Im f Im w
    is a dot product with (Re, Im) features. A real codebook (every built-in
    one) has no Im parts: its rows hold the Re parts alone, so F = T L (L + 1)
    for a real codebook and twice that otherwise. simulate._metric builds the
    matching features.
    """
    real = not np.any(codewords.imag)
    if real:
        codewords = codewords.real
    K = len(codewords)
    outer = (codewords[:, :, :, None] * codewords[:, :, None, :].conj()).reshape(K, -1)
    cross = -2.0 * codewords.reshape(K, -1)
    if real:
        return np.concatenate([outer, cross], axis=1)
    return np.concatenate([outer.real, -outer.imag, cross.real, -cross.imag], axis=1)


@dataclass(frozen=True)
class DifferenceMatrix:
    """C - C' stored antenna-major, with support counts and numeric rank.

    column_supports[t] counts the tag antennas whose symbols differ at
    slot t; nonzero_rows counts the antennas that differ anywhere in the
    block. rank is computed on first use.
    """

    delta: np.ndarray  # L x T
    column_supports: tuple = field(init=False)
    nonzero_rows: int = field(init=False)

    def __post_init__(self):
        d = np.asarray(self.delta, dtype=complex)
        if d.ndim != 2:
            raise DimensionMismatchError(f"delta must be 2-D, got shape {d.shape}")
        object.__setattr__(self, "delta", d)
        nz = np.abs(d) > SUPPORT_TOL
        object.__setattr__(self, "column_supports", tuple(int(c) for c in nz.sum(axis=0)))
        object.__setattr__(self, "nonzero_rows", int(np.any(nz, axis=1).sum()))

    @cached_property
    def rank(self) -> int:
        return 0 if self.nonzero_rows == 0 else numeric_rank(self.delta)

    @property
    def L(self) -> int:
        return self.delta.shape[0]

    @property
    def T(self) -> int:
        return self.delta.shape[1]


def _as_diff(delta) -> DifferenceMatrix:
    if isinstance(delta, DifferenceMatrix):
        return delta
    return DifferenceMatrix(np.asarray(delta, dtype=complex))


def difference_matrix(C: np.ndarray, C_prime: np.ndarray) -> DifferenceMatrix:
    """Difference of two same-shape T x L codewords, stored L x T."""
    C = np.asarray(C, dtype=complex)
    C_prime = np.asarray(C_prime, dtype=complex)
    if C.shape != C_prime.shape:
        raise DimensionMismatchError(f"codeword shapes differ: {C.shape} vs {C_prime.shape}")
    return DifferenceMatrix((C - C_prime).T)


def pairwise_codebook_from_delta(delta) -> tuple[Codebook, float]:
    """Two antipodal codewords +/- (s/2) delta^T realizing a given delta.

    The scalar s enforces the codebook energy normalization, so the pair's
    actual difference is s * delta. Returns (codebook, s). Pairwise error
    behavior under ML detection of a two-word codebook depends on the
    difference matrix alone, so this is the minimal code exhibiting a
    target delta.
    """
    d = _as_diff(delta).delta
    energy = np.sum(np.abs(d) ** 2)
    if energy <= SUPPORT_TOL**2:
        raise ValueError("delta has no nonzero entries")
    T = d.shape[1]
    scale = float(np.sqrt(T / (energy / 4.0)))
    c0 = (scale / 2.0) * d.T
    return Codebook((c0, -c0)), scale


def repetition_bpsk(T: int) -> Codebook:
    """Single-antenna BPSK repeated over T slots: codewords all +1 / all -1."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    ones = np.ones((T, 1), dtype=complex)
    return Codebook((ones, -ones))


def uncoded_bpsk(T: int, L: int) -> Codebook:
    """Every +/-1 pattern over T slots and L antennas, in lexicographic bit order.

    Entries are scaled by 1/sqrt(L) to satisfy the codebook energy
    normalization (for L == 1 this is the plain +/-1 alphabet). Bit value
    0 maps to +, 1 to -, most significant bit first in row-major entry
    order.
    """
    if T < 1 or L < 1:
        raise ValueError(f"T and L must be >= 1, got ({T}, {L})")
    n = T * L
    if n > 16:
        raise ValueError(f"uncoded codebook with T*L = {n} > 16 entries is not enumerable")
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # word k: the bits of k, MSB first
    return Codebook((1.0 / np.sqrt(L)) * (1.0 - 2.0 * bits).reshape(-1, T, L))
