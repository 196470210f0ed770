"""Complex-matrix primitives: sampling, products, norms, SVD-based rank.

Matrices are plain 2-D ``numpy`` arrays of ``complex128``. Every operation
is a pure function of its inputs; randomness always comes in through an
explicit ``numpy.random.Generator`` so results are reproducible per seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "make_rng",
    "sample_cn_matrix",
    "matmul",
    "hadamard",
    "frobenius_norm_sq",
    "singular_values",
    "numeric_rank",
    "random_unitary",
]

# Default relative tolerance for rank decisions. The matrices handled here
# are tiny (at most a few rows/columns) with O(1) entries, so true zero
# singular values sit many orders of magnitude below sigma_max.
RANK_REL_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes."""


def make_rng(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Derive a deterministic random stream from a parent seed.

    Distinct ``key`` tuples under the same seed yield statistically
    independent substreams; the same (seed, key) always yields the same
    stream. This is how concurrent trials get their own randomness.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatchError(f"{name} must be a 2-D matrix, got shape {a.shape}")
    return a


def sample_cn_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Sample a rows x cols matrix of i.i.d. CN(0, 1) entries.

    Circularly-symmetric complex Gaussian with unit total variance: real
    and imaginary parts are independent N(0, 1/2).
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatchError(f"dimensions must be >= 1, got ({rows}, {cols})")
    # combine first, then divide: the same bits as (a + 1j b) / sqrt(2) with
    # fewer passes (dividing a and b first changes the last bit of some entries)
    z = np.empty((rows, cols), dtype=complex)
    z.real = rng.standard_normal((rows, cols))
    z.imag = rng.standard_normal((rows, cols))
    z /= np.sqrt(2.0)
    return z


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex matrix product A @ B with an explicit shape check."""
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b

def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (Hadamard) product of two equally shaped matrices."""
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return a * b


def frobenius_norm_sq(a: np.ndarray) -> float:
    """Sum of squared entry magnitudes, ||A||_F^2."""
    a = _as_matrix(a)
    return float(np.sum(np.abs(a) ** 2))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of A in descending order.

    Raises ``numpy.linalg.LinAlgError`` if the decomposition fails to
    converge (numpy's SVD already orders values descending).
    """
    a = _as_matrix(a)
    return np.linalg.svd(a, compute_uv=False)


def numeric_rank(a: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Count singular values above rel_tol * sigma_max * max(rows, cols).

    The zero matrix has rank 0.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    a = _as_matrix(a)
    return int(rank_from_singulars(singular_values(a), max(a.shape), rel_tol))


def rank_from_singulars(s: np.ndarray, max_dim: int, rel_tol: float = RANK_REL_TOL) -> np.ndarray:
    """Vectorized rank rule for batched SVDs, same tolerance as numeric_rank.

    ``s`` holds singular values along the last axis (descending); returns
    integer ranks with the leading batch shape.
    """
    smax = s[..., 0]
    thresh = rel_tol * smax * max_dim
    return np.sum(s > thresh[..., None], axis=-1).astype(int)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n unitary via QR of a complex Gaussian draw.

    Phase convention: the first nonzero element of each column is made
    real-positive, so the output is a deterministic function of the draw.
    Retries on (probability-zero) degenerate draws, then raises.
    """
    if n < 1:
        raise DimensionMismatchError(f"n must be >= 1, got {n}")
    for _ in range(4):
        z = sample_cn_matrix(n, n, rng)
        try:
            q, _ = np.linalg.qr(z)
        except np.linalg.LinAlgError:
            continue
        # rotate each column so its first nonzero entry is real-positive
        for j in range(n):
            col = q[:, j]
            k = int(np.argmax(np.abs(col) > 0))
            phase = col[k] / np.abs(col[k])
            q[:, j] = col / phase
        if frobenius_norm_sq(q @ q.conj().T - np.eye(n)) < 1e-20:
            return q
    raise np.linalg.LinAlgError("orthonormalization degenerated after 3 retries")
