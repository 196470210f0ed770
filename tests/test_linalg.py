"""Unit tests for the complex-matrix primitives."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlnsim import linalg
from mlnsim.linalg import (
    RANK_REL_TOL,
    DimensionMismatchError,
    even_slices,
    frobenius_norm_sq,
    hadamard,
    make_rng,
    matmul,
    numeric_rank,
    psd_eigenvalues,
    random_unitary,
    sample_blocks,
    sample_cn_matrix,
    sample_gram_factor,
    singular_values,
)
from mlnsim.measure import empirical_rank_check

EXAMPLE1_DELTA = np.array([[1.0, -2.0], [1.5, 2.5]])


class TestSampling:
    def test_moments_scalar(self):
        rng = make_rng(11)
        draws = np.array([sample_cn_matrix(1, 1, rng)[0, 0] for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.03

    def test_cross_correlation(self):
        rng = make_rng(12)
        flat = sample_cn_matrix(100_000, 6, rng)  # columns play the 2x3 positions
        c = flat - flat.mean(axis=0)
        for i in range(6):
            for j in range(i + 1, 6):
                corr = np.mean(c[:, i] * np.conj(c[:, j]))
                corr /= np.sqrt(np.mean(np.abs(c[:, i]) ** 2) * np.mean(np.abs(c[:, j]) ** 2))
                assert abs(corr) < 0.02

    def test_deterministic_per_seed(self):
        a = sample_cn_matrix(3, 4, make_rng(7, (1, 2)))
        b = sample_cn_matrix(3, 4, make_rng(7, (1, 2)))
        assert np.array_equal(a, b)
        c = sample_cn_matrix(3, 4, make_rng(7, (1, 3)))
        assert not np.array_equal(a, c)

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatchError):
            sample_cn_matrix(0, 2, make_rng(0))

    def test_bits_are_the_scaled_normals_re_and_im_in_turn(self):
        # the bits of one draw of 2 rows cols normals times 1/sqrt(2), Re and Im of each
        # entry side by side, and the generator where that draw leaves it
        for seed, rows, cols in [(0, 1, 1), (1, 500, 7), (2, 3000, 7), (3, 2, 24_581), (4, 10_000, 8)]:
            rng, ref = make_rng(seed, (9,)), make_rng(seed, (9,))
            z = sample_cn_matrix(rows, cols, rng)
            expected = (ref.standard_normal(2 * rows * cols) * linalg._INV_SQRT2).view(complex).reshape(rows, cols)
            assert z.shape == (rows, cols) and z.flags.c_contiguous
            assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_draw_allocates_only_its_output(self):
        # no scratch beside the output, however the entries are shaped: a scratch of the
        # normals alone would take another 6.4 MB
        rng = make_rng(10, (9,))
        for rows, cols in ((2, 200_000), (200_000, 2), (400, 1000)):
            tracemalloc.start()
            try:
                z = sample_cn_matrix(rows, cols, rng)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= z.nbytes + 4096, (rows, cols)

    def test_leaves_stream_where_two_draws_do(self):
        # the draw consumes what two (rows, cols) draws would
        rng, ref = make_rng(5, (9,)), make_rng(5, (9,))
        sample_cn_matrix(33, 5, rng)
        ref.standard_normal((33, 5))
        ref.standard_normal((33, 5))
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("rows, cols", [(1, 1), (500, 7), (3000, 7), (4096, 1), (4097, 1)])
    def test_out_buffer_reused_matches_fresh_draws(self, rows, cols):
        # a draw into memory just freed by a dirty array of its size holds the bits of a
        # draw on a clean heap, twice in a row, and the generator ends where two such draws leave it
        rng, ref = make_rng(6, (9,)), make_rng(6, (9,))
        for _ in range(2):
            fresh = sample_cn_matrix(rows, cols, ref)
            dirty = np.full((rows, cols), np.nan + 1j * np.inf)
            del dirty
            z = sample_cn_matrix(rows, cols, rng)
            assert np.array_equal(z.view(np.uint64), fresh.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestSampleBlocks:
    @pytest.mark.parametrize(
        "shape, n", [((), 5), ((1,), 1), ((2, 3), 7), ((2, 2), 8193), ((3, 1, 2), 500), ((8195,), 2), ((24_581,), 2)],
    )
    def test_blocks_are_the_matrix_draw_reshaped(self, shape, n):
        # the bits and the generator state of sample_cn_matrix(prod(shape), n), reshaped so
        # that block k is its column k, on two draws in a row
        rng, ref = make_rng(31, (n,)), make_rng(31, (n,))
        for _ in range(2):
            matrix = sample_cn_matrix(math.prod(shape), n, ref)
            blocks = sample_blocks(shape, n, rng)
            assert blocks.shape == shape + (n,) and blocks.flags.c_contiguous
            assert np.array_equal(blocks.view(np.uint64), matrix.reshape(shape + (n,)).view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestGramFactor:
    @pytest.mark.parametrize("L, N, n", [(1, 1, 5), (1, 3, 40), (2, 2, 7), (3, 2, 100), (2, 3, 50), (4, 4, 33)])
    def test_lower_trapezoid_with_a_real_nonnegative_diagonal(self, L, N, n):
        # memory just freed by a dirty array of the factors' size holds no entry of them:
        # every entry above the diagonal is exactly 0, and the diagonal and column 0 below
        # it (the canonical factor's) are real and >= 0
        K = min(L, N)
        dirty = np.full((L, K, n), 7.0 + 7.0j)
        del dirty
        B = sample_gram_factor(L, N, n, make_rng(23, (L, N)))
        assert B.shape == (L, K, n) and B.dtype == complex
        upper = np.triu(np.ones((L, K), dtype=bool), 1)
        assert np.all(B[upper] == 0.0)
        for real in (B[np.arange(K), np.arange(K)], B[1:, 0]):
            assert np.all(real.imag == 0.0) and np.all(real.real >= 0.0)
        below = np.tril(np.ones((L, K), dtype=bool), -1)
        assert np.all(B[below] != 0.0)
        below[:, 0] = False  # the entries below the diagonal in columns 1 and on are complex
        assert np.all(B[below].imag != 0.0)

    @pytest.mark.parametrize("L, N", [(2, 2), (4, 2), (2, 1), (1, 2), (3, 3), (3, 1)])
    def test_moments_are_those_of_g_g_h(self, L, N):
        # W = B B^H against W = G G^H for an L x N CN(0, 1) G, on the moments that conjugation
        # by a diagonal unitary leaves alone: E W_ii = N and E W_ii^2 = N (N + 1), E |W_ij|^2 = N
        # off the diagonal and, for L >= 3, E W_01 W_12 W_20 = N. Each mean is within 5 of its
        # standard errors, taken from the variances of G G^H: N on the diagonal, N^2 + 2N for
        # |W_ij|^2 and (N)_4 - (N (N + 1))^2 for W_ii^2, and from the sample for the triple
        n = 200_000
        B = sample_gram_factor(L, N, n, make_rng(24, (L, N)))
        W = np.einsum("ikn,jkn->nij", B, B.conj())  # n x L x L
        tol = 5.0 / math.sqrt(n)
        diag = W[:, np.arange(L), np.arange(L)].real
        assert np.all(np.abs(diag.mean(axis=0) - N) <= tol * math.sqrt(N))
        rising = N * (N + 1) * (N + 2) * (N + 3) - (N * (N + 1)) ** 2
        assert np.all(np.abs((diag**2).mean(axis=0) - N * (N + 1)) <= tol * math.sqrt(rising))
        rows, cols = np.triu_indices(L, 1)
        off = W[:, rows, cols]
        assert np.all(np.abs((np.abs(off) ** 2).mean(axis=0) - N) <= tol * math.sqrt(N * N + 2 * N))
        if L >= 3:
            triple = W[:, 0, 1] * W[:, 1, 2] * W[:, 2, 0]
            assert abs(triple.mean() - N) <= tol * math.sqrt(np.mean(np.abs(triple - N) ** 2))

    @pytest.mark.parametrize("L, N, n", [(1, 1, 5), (1, 3, 40), (2, 1, 9), (3, 1, 6), (2, 2, 7), (3, 2, 100),
                                         (2, 3, 50), (4, 4, 33)])
    def test_bits_and_state_follow_the_draw_order(self, L, N, n):
        # diagonal j as N - j fills of n exponentials added in turn, square-rooted; then column 0
        # below the diagonal as one fill of exponentials, square-rooted; then row i's entries in
        # columns 1 to i - 1 as one fill of scaled normals, Re and Im side by side
        rng, ref = make_rng(25, (L, N, n)), make_rng(25, (L, N, n))
        B = sample_gram_factor(L, N, n, rng)
        K = min(L, N)
        want = np.zeros((L, K, n), dtype=complex)
        for j in range(K):
            total = ref.standard_exponential(n)
            for _ in range(N - j - 1):
                total += ref.standard_exponential(n)
            want[j, j] = np.sqrt(total)
        want[1:, 0] = np.sqrt(ref.standard_exponential((L - 1) * n)).reshape(L - 1, n)
        for i in range(2, L):
            below = min(i, K) - 1
            want[i, 1 : 1 + below] = (ref.standard_normal(2 * below * n) * linalg._INV_SQRT2).view(complex).reshape(below, n)
        assert np.array_equal(B.view(np.uint64), want.view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestEvenSlices:
    @given(st.integers(0, 5000), st.integers(1, 600))
    def test_fewest_near_equal_slices_larger_first(self, n, most):
        slices = even_slices(n, most)
        assert len(slices) == -(-n // most)
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        sizes = [s.stop - s.start for s in slices]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert not sizes or (max(sizes) <= most and max(sizes) - min(sizes) <= 1)
        if most >= 3 and n != 1:
            assert 1 not in sizes

    def test_examples(self):
        assert [s.stop - s.start for s in even_slices(10_000, 170)] == [170] * 29 + [169] * 30
        assert even_slices(7, 3) == [slice(0, 3), slice(3, 5), slice(5, 7)]
        assert even_slices(0, 4) == []

    @pytest.mark.parametrize("n, most", [(-1, 3), (5, 0)])
    def test_bad_arguments_rejected(self, n, most):
        with pytest.raises(ValueError, match="need n >= 0 and most >= 1"):
            even_slices(n, most)


class TestMatmul:
    def test_identity(self):
        a = sample_cn_matrix(2, 2, make_rng(1))
        assert np.allclose(matmul(np.eye(2), a), a)

    def test_hand_computed(self):
        a = np.array([[1.0, 1j], [0.0, 1.0]])
        b = np.array([[1.0], [1.0]])
        assert np.allclose(matmul(a, b), [[1.0 + 1j], [1.0]])

    def test_triple_loop_oracle(self):
        rng = make_rng(2)
        a = sample_cn_matrix(3, 4, rng)
        b = sample_cn_matrix(4, 2, rng)
        expected = np.zeros((3, 2), dtype=complex)
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.max(np.abs(matmul(a, b) - expected)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestHadamard:
    def test_ones_identity(self):
        a = sample_cn_matrix(2, 3, make_rng(3))
        assert np.array_equal(hadamard(a, np.ones((2, 3))), a)

    def test_zeros_annihilate(self):
        a = sample_cn_matrix(2, 3, make_rng(4))
        assert np.all(hadamard(a, np.zeros((2, 3))) == 0)

    def test_hand_computed(self):
        out = hadamard(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert np.array_equal(out, [[2.0, 0.0], [0.0, 8.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hadamard(np.ones((2, 2)), np.ones((2, 3)))


class TestNorm:
    def test_zeros(self):
        assert frobenius_norm_sq(np.zeros((3, 2))) == 0.0

    def test_unit_entries(self):
        assert frobenius_norm_sq(np.array([[1.0, 1j], [-1.0, -1j]])) == pytest.approx(4.0)

    def test_trace_oracle(self):
        a = sample_cn_matrix(4, 3, make_rng(5))
        trace = np.trace(a.conj().T @ a).real
        assert frobenius_norm_sq(a) == pytest.approx(trace, abs=1e-12)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([3.0, 0.0])), [3.0, 0.0])

    def test_determinant_oracle(self):
        s = singular_values(EXAMPLE1_DELTA)
        det = abs(np.linalg.det(EXAMPLE1_DELTA))
        assert det == pytest.approx(5.5)
        assert np.prod(s) == pytest.approx(det, abs=1e-9)

    def test_descending(self):
        s = singular_values(sample_cn_matrix(4, 4, make_rng(6)))
        assert np.all(np.diff(s) <= 0)

    def test_matches_full_decomposition(self):
        a = sample_cn_matrix(3, 5, make_rng(7))
        u, s_full, vh = np.linalg.svd(a)
        assert np.allclose(singular_values(a), s_full)
        recon = (u[:, : len(s_full)] * s_full) @ vh[: len(s_full)]
        resid = np.linalg.norm(a - recon) / np.linalg.norm(a)
        assert resid < 1e-10


def _lapack(a):
    return np.linalg.svd(a, compute_uv=False)


def _sv(a):
    """singular_values of a stack (..., m, n) of matrices, in and out laid out as for numpy's svd."""
    return np.moveaxis(singular_values(np.moveaxis(a, -3, -1)), -1, -2)


def _rank(a):
    """numeric_rank of a stack (..., m, n) of matrices laid out as for numpy's svd."""
    return numeric_rank(np.moveaxis(a, -3, -1))


def _stack(m, n, rng, count=300):
    """Random m x n matrices over six decades of scale, led by the degenerate kinds."""
    a = sample_cn_matrix(count * m, n, rng).reshape(count, m, n) * 10.0 ** rng.uniform(-3, 3, (count, 1, 1))
    a[0] = 0
    a[1, 0] = 0  # a zero row
    a[2, :, 0] = 0  # a zero column
    if m > 1:
        a[3, 1] = (0.3 - 2j) * a[3, 0]  # proportional rows
    if n > 1:
        a[4, :, 1] = (1.7 + 0.1j) * a[4, :, 0]  # proportional columns
    for i in range(5, 15):  # all singular values equal
        a[i] = 3.5 * random_unitary(max(m, n), rng)[:m, :n]
    return a


def _near_threshold(m, n, count, rng):
    """U S V^H with sigma2 / sigma1 log-uniform on [1e-11, 1e-8], around the rank threshold."""
    u = np.linalg.qr(sample_cn_matrix(count * m, m, rng).reshape(count, m, m))[0]
    v = np.linalg.qr(sample_cn_matrix(count * n, n, rng).reshape(count, n, n))[0]
    s = np.zeros((count, m, n))
    s[:, 0, 0] = 10.0 ** rng.uniform(-3, 3, count)
    s[:, 1, 1] = s[:, 0, 0] * 10.0 ** rng.uniform(-11, -8, count)
    return u @ s @ v


class TestSingularValueStacks:
    """The closed form for min(m, n) <= 2 against numpy's LAPACK SVD, taken here."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_shape_matches_lapack(self, m, n):
        a = _stack(m, n, make_rng(20, (m, n)))
        got, ref = _sv(a), _lapack(a)
        assert got.shape == ref.shape == (len(a), min(m, n))
        assert np.all(np.abs(got - ref) <= 1e-12 * ref[:, :1])
        assert np.all(got[0] == 0)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 4), (4, 2), (3, 2)])
    def test_rank_decisions_match_lapack_near_threshold(self, shape):
        a = _near_threshold(*shape, 25_000, make_rng(21, shape))
        s = _lapack(a)
        ref = np.sum(s > RANK_REL_TOL * s[:, :1] * max(shape), axis=-1)
        got = _rank(a)
        assert 0.3 < np.mean(ref == 1) < 0.7  # the band straddles the threshold
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_leading_axes_and_caller_slices(self, m, n):
        # a (2, 3, m, n, B) stack against LAPACK, and sliced along B by the caller; the
        # zero matrices and the zero row, all in the first slice, are scaled alone
        B = 5
        a = sample_blocks((2, 3, m, n), B, make_rng(22, (m, n)))
        a[..., 0] = 0
        a[0, 0, 0, :, 1] = 0
        whole = singular_values(a)
        assert whole.shape == (2, 3, min(m, n), B)
        ref = np.moveaxis(_lapack(np.moveaxis(a, -1, -3)), -1, -2)
        assert np.all(np.abs(whole - ref) <= 1e-12 * ref[..., :1, :])
        sliced = np.concatenate([singular_values(a[..., s]) for s in even_slices(B, 2)], -1)
        assert np.array_equal(sliced, whole)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_extreme_scales(self, scale):
        a = _stack(2, 3, make_rng(23), count=20) * scale
        got, ref = _sv(a), _lapack(a)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref[:, :1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, bad):
        a = np.ones((4, 2, 3))
        a[2, 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            _sv(a)

    def test_rank_check_makes_no_lapack_call(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(np.shape(a)) or svd(a, *args, **kw))
        report = empirical_rank_check(EXAMPLE1_DELTA, 2, 2000, make_rng(24))
        assert report.passed and calls == []
        singular_values(np.eye(3))  # the spy does see the k >= 3 route, a stack of one
        assert calls == [(1, 3, 3)]


def _psd_stack(k, rank, count, rng):
    """count Hermitian PSD k x k matrices B B^H with B k x rank, O(1) entries."""
    b = sample_cn_matrix(count * k, rank, rng).reshape(count, k, rank)
    return b @ b.conj().swapaxes(-1, -2)


def _eig(m):
    """psd_eigenvalues of a stack (..., k, k) of matrices, in and out laid out as for eigvalsh."""
    return np.moveaxis(psd_eigenvalues(np.moveaxis(m, -3, -1)), -1, -2)


class TestPsdEigenvalues:
    """The closed form for k <= 2 against numpy's LAPACK eigvalsh, taken here."""

    @staticmethod
    def _assert_matches_lapack(m):
        got, ref = _eig(m), np.linalg.eigvalsh(m)
        assert got.shape == ref.shape
        hi = np.abs(ref).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 8 * np.finfo(float).eps * hi)
        return got

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_random_stacks_match_lapack(self, k, rank):
        self._assert_matches_lapack(_psd_stack(k, rank, 2000, make_rng(30, (k, rank))))

    def test_exactly_rank_one(self):
        got = self._assert_matches_lapack(_psd_stack(2, 1, 2000, make_rng(31)))
        assert np.all(got[:, 1] > 0)

    @pytest.mark.parametrize("row", [0, 1])
    def test_zero_row_and_column_give_exact_zero(self, row):
        m = _psd_stack(2, 3, 500, make_rng(32, (row,)))
        m[:, row, :] = 0.0
        m[:, :, row] = 0.0
        got = self._assert_matches_lapack(m)
        assert np.all(got[:, 0] == 0.0)
        assert np.all(got[:, 1] == m[:, 1 - row, 1 - row].real)
        assert np.array_equal(psd_eigenvalues(np.zeros((2, 2, 3))), np.zeros((2, 3)))

    def test_equal_eigenvalues(self):
        c = 10.0 ** make_rng(33).uniform(-3, 3, 200)
        scaled = c[:, None, None] * np.eye(2)
        assert np.array_equal(self._assert_matches_lapack(scaled), np.stack([c, c], axis=-1))
        u = np.stack([random_unitary(2, make_rng(34, (i,))) for i in range(200)])
        self._assert_matches_lapack(u @ scaled @ u.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_extreme_scales(self, scale):
        for rank in (1, 2):
            self._assert_matches_lapack(_psd_stack(2, rank, 200, make_rng(35, (rank,))) * scale)

    def test_leading_axes_and_real_input(self):
        m = _psd_stack(2, 2, 3 * 4, make_rng(36)).reshape(3, 4, 2, 2)
        assert self._assert_matches_lapack(m).shape == (3, 4, 2)
        assert np.array_equal(psd_eigenvalues(np.array([[[2.0], [0.0]], [[0.0], [3.0]]])), [[2.0], [3.0]])
        assert np.array_equal(psd_eigenvalues(np.array([[[4.0]]])), [[4.0]])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises(self, k, bad):
        m = np.tile(np.eye(k), (4, 1, 1))
        m[2, 0, k - 1] = bad
        m[2, k - 1, 0] = bad
        with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
            _eig(m)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (4, 1, 2), (0, 0), (2, 2), (4, 1, 2, 5), (0, 0, 5)])
    def test_bad_shapes(self, shape):
        with pytest.raises(DimensionMismatchError, match=re.escape("(..., k, k, n)")):
            psd_eigenvalues(np.ones(shape))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_memory_layout_changes_no_bit(self, k):
        # the blocks-last stack as a strided view and as a C-contiguous copy
        m = np.moveaxis(_psd_stack(k, 2, 3 * 50, make_rng(37, (k,))).reshape(3, 50, k, k), 1, -1)
        got = psd_eigenvalues(np.ascontiguousarray(m))
        assert got.shape == (3, k, 50)
        assert np.array_equal(got, psd_eigenvalues(m))


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((2, 3))) == 0

    def test_builtin_deltas(self):
        assert numeric_rank(EXAMPLE1_DELTA) == 2
        assert numeric_rank(np.array([[2.0, 2.0]])) == 1

    def test_permutation_invariance(self):
        rng = make_rng(8)
        for _ in range(20):
            a = sample_cn_matrix(3, 4, rng)
            a[2] = a[0] + a[1]  # rank-deficient on purpose
            r = numeric_rank(a)
            pr = rng.permutation(3)
            pc = rng.permutation(4)
            assert numeric_rank(a[pr][:, pc]) == r

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4)])
    def test_stack_matches_each_matrix(self, shape):
        a = sample_cn_matrix(30 * shape[0], shape[1], make_rng(24, shape)).reshape(5, 6, *shape)
        a[:, ::2, -1] = 0.0  # a rank-deficient matrix at every other stack position
        a[0, 1] = 0.0
        ranks = _rank(a)
        assert isinstance(ranks, np.ndarray) and ranks.shape == (5, 6)
        assert ranks.tolist() == [[numeric_rank(m) for m in row] for row in a]
        assert type(numeric_rank(a[0, 0])) is int

    @pytest.mark.parametrize("shape", [(3,), (0, 2), (2, 0, 4)])
    def test_bad_shapes(self, shape):
        with pytest.raises(DimensionMismatchError):
            numeric_rank(np.ones(shape))


class TestRandomUnitary:
    def test_scalar(self):
        u = random_unitary(1, make_rng(9))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_defining_property(self):
        u = random_unitary(2, make_rng(10))
        assert frobenius_norm_sq(u @ u.conj().T - np.eye(2)) < 1e-20

    def test_singular_values_all_one(self):
        u = random_unitary(4, make_rng(11))
        assert np.max(np.abs(singular_values(u) - 1.0)) < 1e-10

    def test_phase_convention(self):
        u = random_unitary(3, make_rng(12))
        for j in range(3):
            first = u[np.argmax(np.abs(u[:, j]) > 0), j]
            assert first.imag == pytest.approx(0.0, abs=1e-12)
            assert first.real > 0

    def test_non_unitary_q_named(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", lambda z: (2.0 * z, None))
        with pytest.raises(np.linalg.LinAlgError, match="QR of the Gaussian draw did not give a unitary Q"):
            random_unitary(3, make_rng(15))

    def test_unitary_invariance_of_singulars(self):
        rng = make_rng(13)
        a = sample_cn_matrix(3, 2, rng)
        u = random_unitary(3, rng)
        assert np.max(np.abs(singular_values(u @ a) - singular_values(a))) < 1e-9


def test_hadamard_norm_bound():
    rng = make_rng(14)
    for _ in range(50):
        a = sample_cn_matrix(3, 3, rng)
        b = sample_cn_matrix(3, 3, rng)
        bound = frobenius_norm_sq(a) * np.max(np.abs(b) ** 2)
        assert frobenius_norm_sq(hadamard(a, b)) <= bound + 1e-12
