"""Unit tests for the complex-matrix primitives."""

import numpy as np
import pytest

from mlnsim.linalg import (
    DimensionMismatchError,
    frobenius_norm_sq,
    hadamard,
    make_rng,
    matmul,
    numeric_rank,
    random_unitary,
    sample_cn_matrix,
    singular_values,
)

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

    def test_bits_match_combine_then_divide(self):
        # the same bits as the two-pass reference from the same generator state
        for seed in range(3):
            rng = make_rng(seed, (9,))
            ref = make_rng(seed, (9,))
            a = ref.standard_normal((500, 7))
            b = ref.standard_normal((500, 7))
            z = sample_cn_matrix(500, 7, rng)
            assert np.array_equal(z.view(np.uint64), ((a + 1j * b) / np.sqrt(2)).view(np.uint64))


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

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), rel_tol=2.0)


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
