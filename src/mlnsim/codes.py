"""Tag-side space-time codebooks and codeword difference matrices.

Codewords are T x L complex matrices (slot-major, one column per tag
antenna). A codebook is normalized so the average codeword energy equals
T, i.e. unit average energy per slot summed over tag antennas; this keeps
SNR definitions comparable across codes. A Codebook copies its K = 2**b
codewords (a K x T x L array, or any sequence of equal-shape T x L
matrices) into one read-only K x T x L array; word k carries the b bits of k.

The difference matrix of a codeword pair is stored L x T (antenna-major,
transposed from codeword orientation) so that entry (l, t) is the symbol
difference of antenna l at slot t. Its nonzero-row count and its rank
describe it. Both follow ``linalg.numeric_rank``'s one relative rule, which
measures everything against delta's own largest entry or singular value, so
they are the same for delta and for any nonzero multiple of it, as are the
performance measures (``measure.compare_queries``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from .linalg import RANK_REL_TOL, DimensionMismatchError, numeric_rank

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

ENERGY_TOL = 1e-9

# Built-in codeword difference matrices for the stock experiment presets,
# stored antenna-major (L x T).
EXAMPLE1_DELTA = np.array([[1.0, -2.0], [1.5, 2.5]])
EXAMPLE3_DELTA = np.array([[2.0, 2.0]])


class ByValue:
    """Equality and hash of a frozen dataclass(eq=False): its fields, a read-only array by shape and bytes.

    Array fields are set through ``_hold``, so no caller's later write reaches a value or its hash.
    """

    def _hold(self, name: str, value) -> np.ndarray:
        """Set field name to a read-only complex copy of value, and return it."""
        a = np.array(value, dtype=complex)
        a.flags.writeable = False
        object.__setattr__(self, name, a)
        return a

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class Codebook(ByValue):
    """K = 2**bits_per_block T x L codewords, copied into one read-only complex K x T x L array."""

    codewords: np.ndarray

    def __post_init__(self):
        try:
            words = np.asarray(self.codewords)
        except ValueError as exc:  # numpy refuses words of different shapes
            raise DimensionMismatchError("codewords must share one shape") from exc
        cws = self._hold("codewords", words)
        K = len(cws)
        if K < 2 or K & (K - 1):
            raise ValueError(f"a codebook needs a power of 2 (>= 2) codewords, got {K}")
        if cws.ndim != 3 or 0 in cws.shape:
            raise DimensionMismatchError(f"codewords must be T x L matrices, got shape {cws.shape[1:]}")
        avg_energy, T = np.sum(np.abs(cws) ** 2) / K, cws.shape[1]
        if not abs(avg_energy - T) <= ENERGY_TOL:  # NaN fails too
            raise ValueError(f"average codeword energy {avg_energy:.12g} != block length {T}")

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

    @cached_property
    def metric_weights(self) -> np.ndarray:
        """The read-only K x F codeword weights of the ML metric, built once."""
        w = _metric_weights(self.codewords)
        w.flags.writeable = False
        return w


@cache
def packed_pairs(L: int) -> tuple:
    """The flat indices l L + l' of an L x L matrix's pairs l <= l', row by row, and then of those with l < l'."""
    rows, cols = np.triu_indices(L)
    return rows * L + cols, (rows * L + cols)[rows < cols]


def _metric_weights(codewords: np.ndarray) -> np.ndarray:
    """K x F real weights that pair each K x T x L codeword with the packed ML metric features.

    Row j holds c_j c_j^H per slot on the pairs l <= l' (packed_pairs), each off-diagonal
    pair doubled (it stands for both (l, l') and (l', l) of the Hermitian pairing), and
    then -2 c_j: as (Re, -Im) parts, so that Re(f w) = Re f Re w - Im f Im w is a dot
    product with (Re, Im) features. A real codebook (every built-in one) has Re parts
    alone, F = T L (L + 1) / 2 + T L; a complex one adds the -Im parts of the pairs
    l < l' and of -2 c_j, F = T L^2 + 2 T L. simulate._metric builds the matching features.
    """
    K, T, L = codewords.shape
    upper, strict = packed_pairs(L)
    # c c^H with each off-diagonal entry doubled, as its pair stands for both
    outer = (codewords[:, :, :, None] * codewords[:, :, None, :].conj() * (2.0 - np.eye(L))).reshape(K, T, -1)
    cross = -2.0 * codewords.reshape(K, -1)
    if not np.any(codewords.imag):  # Re parts alone
        return np.concatenate([outer[:, :, upper].real.reshape(K, -1), cross.real], axis=1)
    energy = [outer[:, :, upper].real.reshape(K, -1), -outer[:, :, strict].imag.reshape(K, -1)]
    return np.concatenate(energy + [cross.real, -cross.imag], axis=1)


@dataclass(frozen=True, eq=False)
class DifferenceMatrix(ByValue):
    """C - C' stored antenna-major as a read-only complex copy, with its nonzero-row count and numeric rank.

    nonzero_rows counts the antennas whose largest entry exceeds RANK_REL_TOL
    times delta's largest entry magnitude, those that differ anywhere in the
    block. rank is ``numeric_rank(delta)``, computed on first use.
    """

    delta: np.ndarray  # L x T
    nonzero_rows: int = field(init=False)

    def __post_init__(self):
        d = self._hold("delta", self.delta)
        if d.ndim != 2:
            raise DimensionMismatchError(f"delta must be 2-D, got shape {d.shape}")
        row_max = np.abs(d).max(axis=1, initial=0.0)
        nonzero = row_max > RANK_REL_TOL * row_max.max(initial=0.0)
        object.__setattr__(self, "nonzero_rows", int(np.count_nonzero(nonzero)))

    @cached_property
    def rank(self) -> int:
        return numeric_rank(self.delta)

    @property
    def L(self) -> int:
        return self.delta.shape[0]

    @property
    def T(self) -> int:
        return self.delta.shape[1]


def _as_diff(delta) -> DifferenceMatrix:
    return delta if isinstance(delta, DifferenceMatrix) else DifferenceMatrix(delta)


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
    target delta. delta is first scaled by the power of two 2^-e that
    brings its largest entry magnitude into [1/2, 1), and s by the same.
    That scaling is exact, so a delta's codebook is that of any power-of-two
    multiple of it, and a delta far beyond 1e+-154 is normalised without
    its energy under- or overflowing.
    """
    d = _as_diff(delta).delta
    peak = float(np.abs(d).max())
    if not 0 < peak < np.inf:  # NaN fails too
        raise ValueError(f"delta must be finite with a nonzero entry, got largest magnitude {peak}")
    e = int(np.frexp(peak)[1])
    d = np.ldexp(np.ascontiguousarray(d).view(float), -e).view(complex)
    scale = float(np.sqrt(d.shape[1] / (np.sum(np.abs(d) ** 2) / 4.0)))
    with np.errstate(over="ignore"):
        s = float(np.ldexp(scale, -e))
    if not np.isfinite(s):
        raise ValueError(f"delta's largest magnitude {peak} is too small: its scale s overflows")
    c0 = (scale / 2.0) * d.T
    return Codebook((c0, -c0)), s


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
