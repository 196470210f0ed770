"""Reader-side query matrices: the uniform scheme and unitary schemes.

A query matrix Q (T x M) is what the M reader transmit antennas emit over
the T slots of one block. The uniform scheme repeats one constant row; the
unitary schemes (DFT, Sylvester-Hadamard, random) use orthonormal rows and
require T == M. Every construction has unit row norm, so per-slot query
power is identical across schemes and performance comparisons are fair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatchError,
    frobenius_norm_sq,
    random_unitary,
)

__all__ = [
    "QueryMatrix",
    "UNITARY_KINDS",
    "QUERY_KINDS",
    "uniform_query",
    "unitary_query",
    "verify_unitary",
    "effective_forward",
]

UNITARY_KINDS = ("dft", "hadamard", "random-unitary")
QUERY_KINDS = ("uniform",) + UNITARY_KINDS

UNITARY_TOL = 1e-10


@dataclass(frozen=True)
class QueryMatrix:
    """A T x M query matrix tagged with the construction that produced it."""

    matrix: np.ndarray
    kind: str


def query_array(q) -> np.ndarray:
    """Accept a QueryMatrix or a bare array and return the array."""
    return np.asarray(getattr(q, "matrix", q), dtype=complex)


def uniform_query(T: int, M: int) -> QueryMatrix:
    """All M antennas send the same constant signal for T slots.

    Every entry is 1/sqrt(M); rows have unit norm and the matrix has
    rank one.
    """
    if T < 1 or M < 1:
        raise DimensionMismatchError(f"T and M must be >= 1, got ({T}, {M})")
    return QueryMatrix(np.full((T, M), 1.0 / np.sqrt(M), dtype=complex), "uniform")


def _dft_matrix(M: int) -> np.ndarray:
    # entry (t, m) = exp(-2 pi i t m / M) / sqrt(M), zero-based indices
    idx = np.arange(M)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / M) / np.sqrt(M)


def _sylvester_hadamard(M: int) -> np.ndarray:
    if M & (M - 1) != 0:
        raise ValueError(f"hadamard query needs M a power of 2, got {M}")
    h = np.ones((1, 1))
    while h.shape[0] < M:
        h = np.block([[h, h], [h, -h]])
    return h.astype(complex) / np.sqrt(M)


def unitary_query(M: int, kind: str = "dft", rng: np.random.Generator | None = None) -> QueryMatrix:
    """Build an M x M query with orthonormal rows (block length T = M).

    kind is one of "dft", "hadamard" (M a power of 2) or
    "random-unitary" (requires rng).
    """
    if M < 1:
        raise DimensionMismatchError(f"M must be >= 1, got {M}")
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
    return QueryMatrix(q, kind)


def verify_unitary(q, tol: float = UNITARY_TOL) -> bool:
    """True iff Q Q^H equals the identity within tol (Frobenius norm)."""
    mat = query_array(q)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"unitarity needs a square matrix, got {mat.shape}")
    resid = mat @ mat.conj().T - np.eye(mat.shape[0])
    return frobenius_norm_sq(resid) < tol**2


def effective_forward(q, H: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """The forward process seen by the tag: Q @ H, T x L (T x L x n for M x L x n H).

    For the uniform query all rows are identical (the static channel is
    collapsed to rank one); for a unitary query the product is again an
    i.i.d. complex Gaussian matrix when H is, so the effective channel
    varies from slot to slot inside the coherence block. The product goes
    to out (C-contiguous) when given.
    """
    mat = query_array(q)
    H = np.asarray(H, dtype=complex)
    if H.ndim not in (2, 3) or mat.shape[1] != H.shape[0]:
        raise DimensionMismatchError(
            f"query has {mat.shape[1]} columns but channel has {H.shape} shape"
        )
    shape = (mat.shape[0],) + H.shape[1:]
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat = None if out is None else out.reshape(mat.shape[0], -1)
    return np.matmul(mat, H.reshape(H.shape[0], -1), out=flat).reshape(shape)
