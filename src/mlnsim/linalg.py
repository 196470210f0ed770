"""Complex-matrix primitives: sampling, products, norms, singular values, PSD eigenvalues, rank, unitarity.

Arrays are ``complex128``, and stacks are blocks last: matrix j of an (..., m, n, B) stack
is a[..., :, :, j], as ``sample_blocks`` draws them. Stack kernels work elementwise over B
and do not slice; a caller with a large stack draws it whole and then slices it
(``even_slices``). Every operation is a pure function of its inputs; randomness always
comes in through an explicit ``numpy.random.Generator`` so results are reproducible per
seed. The forward stage H and the noise are each one CN(0, 1) fill of ``sample_cn_matrix``,
which ``sample_blocks`` reshapes. Every draw of the backscatter stage G in the analyses and
the BER simulator is instead a ``sample_gram_factor`` factor B: each of them sees G only
through G G^H, and only up to the phases of its rows. That is exact because replacing
G G^H by D G G^H D^H, for a diagonal unitary D chosen from G itself, changes nothing
computed from it: the ranks of E_t and of the uniform-query matrix (``measure``), the
eigenvalues of A_w o G G^H (``pep``), Z for i.i.d. forward rows, and the ML decisions, which
are those of the forward process Q H D, of Q H's law, on G G^H (``simulate``). So B's
column 0 is drawn real and nonnegative.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "make_rng",
    "sample_cn_matrix",
    "sample_blocks",
    "sample_gram_factor",
    "even_slices",
    "matmul",
    "hadamard",
    "frobenius_norm_sq",
    "singular_values",
    "psd_eigenvalues",
    "numeric_rank",
    "verify_unitary",
    "random_unitary",
]

# Relative tolerance for rank decisions. The matrices handled here
# are tiny (at most a few rows/columns) with O(1) entries, so true zero
# singular values sit many orders of magnitude below sigma_max.
RANK_REL_TOL = 1e-10
UNITARY_TOL = 1e-10  # on the Frobenius norm of Q Q^H - I of a unitary Q

# most matrices or draws per slice of a stack (even_slices' default): for example1
# each slice-sized array is 0.5 MB, where a whole 100k-draw stack's temporaries reach tens of MB
_SLICE = 8192

# most draws a Monte Carlo estimator (both PEP routes, the rank check) holds at once: it
# draws a batch of at most this many whole and works through it in _SLICE slices
_MC_BATCH = 100_000

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


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
    """Sample a rows x cols matrix of i.i.d. CN(0, 1) entries, with Re and Im independent N(0, 1/2).

    The matrix is one draw of 2 rows cols normals in place, Re and Im of each entry in turn
    (row by row), scaled by 1/sqrt(2); it allocates nothing beyond itself.
    """
    if rows < 1 or cols < 1:
        raise DimensionMismatchError(f"dimensions must be >= 1, got ({rows}, {cols})")
    z = np.empty((rows, cols), dtype=complex)
    parts = z.view(float)  # Re and Im of each entry side by side
    rng.standard_normal(out=parts)
    parts *= _INV_SQRT2
    return z


def sample_blocks(shape: tuple, n: int, rng: np.random.Generator) -> np.ndarray:
    """n blocks of i.i.d. CN(0, 1) entries laid out last, as a C-contiguous shape + (n,) array.

    The draw is sample_cn_matrix(prod(shape), n, rng) reshaped, with the same bits and the
    same generator state afterwards, so block k is its column k. Raises
    DimensionMismatchError unless n and every entry of shape are >= 1; shape () gives n scalars.
    """
    if n < 1 or min(shape, default=1) < 1:
        raise DimensionMismatchError(f"need shape entries and n >= 1, got shape {tuple(shape)} and n={n}")
    return sample_cn_matrix(math.prod(shape), n, rng).reshape(tuple(shape) + (n,))


def sample_gram_factor(L: int, N: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n lower-trapezoidal L x min(L, N) factors B, blocks last, with B B^H distributed as D G G^H D^H.

    G is L x N and CN(0, 1), and D is a diagonal unitary chosen from G. By the Bartlett
    decomposition (Goodman, Ann. Math. Statist. 34(1), 1963; Edelman, SIAM J. Matrix Anal.
    Appl. 9(4), 1988) G = B0 U, with U's rows orthonormal, B0's diagonal entry j sqrt(Gamma(N - j))
    and B0's entries below the diagonal CN(0, 1). B is D B0 D_K^H, D_K being D's leading K x K
    block (K = min(L, N)) and D's entry i >= 1 the phase of B0[i, 0]: column 0 of B is |B0[:, 0]|,
    whose entries below the diagonal are sqrt(Exp(1)); the diagonal stays real; and the other
    entries below it, times phases independent of them, stay CN(0, 1). B B^H = D B0 B0^H D^H. The draw:
    diagonal j as N - j fills of n unit exponentials added in turn (j = 0, 1, ...), square-rooted;
    then column 0 below the diagonal as one fill of (L - 1) n exponentials, square-rooted; then
    row i's CN(0, 1) entries in columns 1 to i - 1 (i = 2, 3, ...), filled as ``sample_cn_matrix``
    fills. Every other entry is 0, and every entry of the diagonal and of column 0 is real.
    """
    if min(L, N, n) < 1:
        raise DimensionMismatchError(f"need L, N and n >= 1, got L={L}, N={N} and n={n}")
    B = np.empty((L, min(L, N), n), dtype=complex)
    for j in range(B.shape[1]):
        B[j, j + 1 :] = 0.0
        B[j, j] = rng.standard_exponential(n)  # Im 0
        for _ in range(N - j - 1):
            B[j, j].real += rng.standard_exponential(n)
        np.sqrt(B[j, j].real, out=B[j, j].real)
    B[1:, 0] = rng.standard_exponential((L - 1, n))  # Im 0
    np.sqrt(B[1:, 0].real, out=B[1:, 0].real)
    for i in range(2, L):
        below = B[i, 1 : min(i, N)].view(float)
        rng.standard_normal(out=below)
        below *= _INV_SQRT2
    return B


def even_slices(n: int, most: int | None = None) -> list[slice]:
    """ceil(n / most) consecutive slices that cover range(n), with sizes that differ by at most 1.

    most defaults to _SLICE, the slice size of every sliced stack. The larger slices
    come first, so the heap memory the first slice's arrays free fits every later slice's.
    """
    most = _SLICE if most is None else most
    if n < 0 or most < 1:
        raise ValueError(f"need n >= 0 and most >= 1, got n={n}, most={most}")
    count = -(-n // most)
    size, extra = divmod(n, max(count, 1))
    ends = [k * size + min(k, extra) for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


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
    """Singular values of a matrix (m, n), or of every matrix in a blocks-last stack (..., m, n, B), descending.

    Matrix j's k = min(m, n) values are s[..., :, j] of a (..., k, B) result. For
    k >= 3 this is numpy's LAPACK SVD. For k <= 2 a closed form is evaluated
    elementwise over the stack, which skips LAPACK's fixed cost of about 2 us
    per tiny matrix. k = 1 gives the row or column norm.
    For k = 2, with a, b the two rows (or columns), one Gram-Schmidt step
    gives R = [[f, g], [0, h]] with f = ||a||, g = |a^H b| / f and
    h = ||b - (a^H b / f^2) a||. Then P = sigma1 sigma2 = |det R| = f h (the
    root of the summed squared 2 x 2 minors, by Cauchy-Binet),
    F = ||A||_F^2 = f^2 + g^2 + h^2, and

        sigma1 = (sqrt(F + 2P) + sqrt(F - 2P)) / 2,   sigma2 = P / sigma1,

    with F +- 2P formed as (f +- h)^2 + g^2. No difference of squares
    appears, so the absolute error stays a small multiple of eps * sigma1,
    as LAPACK's does (below 1e-15 sigma1 against LAPACK on random stacks).
    Gram eigenvalues would square the condition number and leave an error
    near 1.5e-8 sigma1 on a zero sigma2, above the rank threshold. A matrix
    with a row whose squared norm lies outside (1e-290, 1e290), a zero row
    included, is first scaled by its largest entry magnitude, so that no
    product over- or underflows. No other matrix is, so the values of each
    matrix, to the bit, do not depend on the rest of its stack.

    Raises ``numpy.linalg.LinAlgError`` if an entry is NaN or infinite, or
    if LAPACK fails to converge.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim == 2 and 0 not in a.shape:
        return singular_values(a[..., None])[..., 0]
    if a.ndim < 3 or a.shape[-3] < 1 or a.shape[-2] < 1:
        raise DimensionMismatchError(f"need (m, n) or a stack (..., m, n, B) with m, n >= 1, got shape {a.shape}")
    if min(a.shape[-3:-1]) > 2:
        return np.moveaxis(np.linalg.svd(np.moveaxis(a, -1, -3), compute_uv=False), -1, -2)
    if a.shape[-3] > a.shape[-2]:
        a = a.swapaxes(-3, -2)  # same singular values, with the short side as rows
    scale = 1.0
    nsq = _norm_sq(a)
    # a zero row, or products that may over- or underflow: scale that matrix
    extreme = ~((nsq > 1e-290) & (nsq < 1e290)).all(axis=-2, keepdims=True)
    if extreme.any():
        scale = np.where(extreme, np.abs(a).max(axis=-2).max(axis=-2, keepdims=True), 1.0)
        scale[~(scale > 0)] = 1.0  # zero or NaN: a NaN entry still reaches the check below
        a = a / scale[..., None, :]
        nsq = _norm_sq(a)
    if a.shape[-3] == 1:
        s = np.sqrt(nsq)
    else:
        u, v, ff = a[..., 0, :, :], a[..., 1, :, :], nsq[..., 0, :]
        uv = np.einsum("...ij,...ij->...j", u.conj(), v)
        f = np.sqrt(ff)
        nz = f > 0
        r = np.divide(uv, ff, out=np.zeros_like(uv), where=nz)[..., None, :] * u
        np.subtract(v, r, out=r)
        h = np.sqrt(_norm_sq(r))
        g = np.divide(np.abs(uv), f, out=np.zeros_like(f), where=nz)
        s1 = (np.hypot(f + h, g) + np.hypot(f - h, g)) / 2
        s2 = np.divide(f * h, s1, out=np.zeros_like(s1), where=s1 > 0)
        s = np.stack([s1, s2], axis=-2)
    s *= scale
    if not np.all(np.isfinite(s)):
        raise np.linalg.LinAlgError("singular values are not finite")
    return s


def psd_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of every Hermitian PSD k x k matrix in a blocks-last stack (..., k, k, n), ascending.

    Matrix j is m[..., :, :, j], as ``channel.gram`` lays out G G^H, and its
    eigenvalues are [..., :, j] of the (..., k, n) result, whatever the memory layout.

    For k >= 3 this is numpy's LAPACK ``eigvalsh``. For k <= 2 a closed form
    is evaluated elementwise over the stack, which skips LAPACK's fixed cost
    per tiny matrix. k = 1 gives the entry itself. For k = 2, with
    m = [[a, b], [conj(b), c]],

        hi = (a + c) / 2 + hypot((a - c) / 2, |b|),   lo = det / hi,

    with det / hi formed as (max(a, c) / hi) min(a, c) - (|b| / hi) |b|, as
    LAPACK's dlae2 does, so that no product over- or underflows, and lo = 0
    when hi = 0 (the zero matrix). Each term of lo is at most hi, so its
    absolute error stays a few eps * hi, as ``eigvalsh``'s does; a zero row
    or column gives lo = 0 exactly. Hermitian symmetry and PSD input are not
    checked.

    Raises ``numpy.linalg.LinAlgError`` if an eigenvalue is NaN or infinite,
    or if LAPACK fails to converge.
    """
    m = np.asarray(m)
    if m.ndim < 3 or m.shape[-2] != m.shape[-3] or m.shape[-2] < 1:
        raise DimensionMismatchError(f"matrices must be (..., k, k, n) with k >= 1, got shape {m.shape}")
    k = m.shape[-2]
    if k > 2:
        lam = np.moveaxis(np.linalg.eigvalsh(np.moveaxis(m, -1, -3)), -1, -2)
    elif k == 1:
        lam = m[..., 0, :, :].real.copy()
    else:
        a, c, b = m[..., 0, 0, :].real, m[..., 1, 1, :].real, np.abs(m[..., 0, 1, :])
        hi = (a + c) / 2 + np.hypot((a - c) / 2, b)
        nz = hi > 0
        lo = np.divide(np.maximum(a, c), hi, out=np.zeros_like(hi), where=nz) * np.minimum(a, c)
        lo -= np.divide(b, hi, out=np.zeros_like(hi), where=nz) * b
        lam = np.stack([lo, hi], axis=-2)
    if not np.all(np.isfinite(lam)):
        raise np.linalg.LinAlgError("eigenvalues are not finite")
    return lam


def _norm_sq(x: np.ndarray) -> np.ndarray:
    """Squared 2-norm along the next-to-last axis of a blocks-last complex array."""
    return np.einsum("...ij,...ij->...j", x.real, x.real) + np.einsum("...ij,...ij->...j", x.imag, x.imag)


def numeric_rank(a: np.ndarray) -> int | np.ndarray:
    """Count singular values above RANK_REL_TOL * sigma_max * max(rows, cols).

    Takes a matrix (m, n), or a blocks-last stack (..., m, n, B), whose
    singular values ``singular_values`` computes in one pass; returns an int
    for a matrix and an int array (..., B) for a stack. The zero matrix has rank 0.
    """
    a = np.asarray(a)
    stack = a[..., None] if a.ndim == 2 else a  # a matrix is ranked as a stack of one
    s = singular_values(stack)
    r = np.sum(s > RANK_REL_TOL * s[..., :1, :] * max(stack.shape[-3:-1]), axis=-2)
    return int(r[0]) if a.ndim == 2 else r


def verify_unitary(q) -> bool:
    """True iff Q Q^H equals the identity within UNITARY_TOL (Frobenius norm)."""
    mat = np.asarray(q, dtype=complex)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"unitarity needs a square matrix, got {mat.shape}")
    resid = mat @ mat.conj().T - np.eye(mat.shape[0])
    return frobenius_norm_sq(resid) < UNITARY_TOL**2


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n unitary via QR of a complex Gaussian draw.

    Phase convention: the first nonzero element of each column is made
    real-positive, so the output is a deterministic function of the draw.
    Householder QR of a finite draw gives a unitary Q to rounding; a Q that
    fails verify_unitary raises ``numpy.linalg.LinAlgError``.
    """
    if n < 1:
        raise DimensionMismatchError(f"n must be >= 1, got {n}")
    q, _ = np.linalg.qr(sample_cn_matrix(n, n, rng))
    # rotate each column so its first nonzero entry is real-positive
    first = q[np.argmax(np.abs(q) > 0, axis=0), np.arange(n)]
    q /= first / np.abs(first)
    if not verify_unitary(q):
        raise np.linalg.LinAlgError("QR of the Gaussian draw did not give a unitary Q")
    return q
