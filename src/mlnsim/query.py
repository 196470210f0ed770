"""Reader-side query matrices: the uniform scheme and unitary schemes.

A query matrix Q, a plain complex T x M array, is what the M reader
transmit antennas emit over the T slots of one block. The uniform scheme
repeats one constant row; the unitary schemes (DFT, Sylvester-Hadamard,
random) use orthonormal rows and require T == M. Every construction has unit row norm, so per-slot query
power is identical across schemes and performance comparisons are fair.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionMismatchError, random_unitary, verify_unitary

__all__ = [
    "UNITARY_KINDS",
    "QUERY_KINDS",
    "uniform_query",
    "unitary_query",
    "verify_unitary",
    "effective_forward",
]

UNITARY_KINDS = ("dft", "hadamard", "random-unitary")
QUERY_KINDS = ("uniform",) + UNITARY_KINDS


def uniform_query(T: int, M: int) -> np.ndarray:
    """The complex T x M query in which all M antennas send the same constant signal for T slots.

    Every entry is 1/sqrt(M); rows have unit norm and the matrix has
    rank one.
    """
    if T < 1 or M < 1:
        raise DimensionMismatchError(f"T and M must be >= 1, got ({T}, {M})")
    return np.full((T, M), 1.0 / np.sqrt(M), dtype=complex)


def _dft_matrix(M: int) -> np.ndarray:
    # entry (t, m) = exp(-2 pi i t m / M) / sqrt(M), zero-based indices
    idx = np.arange(M)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / M) / np.sqrt(M)


def check_query_shape(kind: str, T: int, M: int) -> None:
    """Raise ValueError unless a kind query fits T slots: unitary needs T == M, hadamard M a power of 2."""
    if kind in UNITARY_KINDS and T != M:
        raise ValueError(f"unitary query needs T == M, got T={T}, M={M}")
    if kind == "hadamard" and M & (M - 1):
        raise ValueError(f"hadamard query needs M a power of 2, got M={M}")


def _sylvester_hadamard(M: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < M:
        h = np.block([[h, h], [h, -h]])
    return h.astype(complex) / np.sqrt(M)


def unitary_query(M: int, kind: str = "dft", rng: np.random.Generator | None = None) -> np.ndarray:
    """Build a complex M x M query with orthonormal rows (block length T = M).

    kind is one of "dft", "hadamard" (M a power of 2) or
    "random-unitary" (requires rng).
    """
    if M < 1:
        raise DimensionMismatchError(f"M must be >= 1, got {M}")
    check_query_shape(kind, M, M)
    if kind == "dft":
        q = _dft_matrix(M)
    elif kind == "hadamard":
        q = _sylvester_hadamard(M)
    elif kind == "random-unitary":
        if rng is None:
            raise ValueError("random-unitary query requires an rng")
        q = random_unitary(M, rng)
    else:
        raise ValueError(f"unknown unitary query kind {kind!r}; choose from {UNITARY_KINDS}")
    return q


def effective_forward(q, H: np.ndarray) -> np.ndarray:
    """The forward process seen by the tag: Q @ H, T x L (T x L x n for M x L x n H).

    For the uniform query all rows are identical (the static channel is
    collapsed to rank one); for a unitary query the product is again an
    i.i.d. complex Gaussian matrix when H is, so the effective channel
    varies from slot to slot inside the coherence block. A batch is one
    product Q @ H[:, l, :] per tag antenna l, which reads a strided slice of
    a blocks-last array in place.
    """
    mat = np.asarray(q, dtype=complex)
    H = np.asarray(H, dtype=complex)
    if H.ndim not in (2, 3) or mat.shape[1] != H.shape[0]:
        raise DimensionMismatchError(f"query has {mat.shape[1]} columns but channel has {H.shape} shape")
    if H.ndim == 2:
        return mat @ H
    out = np.empty((mat.shape[0],) + H.shape[1:], dtype=complex)
    np.matmul(mat, H.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    return out
