"""Unit tests for query-matrix constructions."""

import numpy as np
import pytest

from mlnsim import linalg
from mlnsim.linalg import DimensionMismatchError, make_rng, numeric_rank, sample_cn_matrix
from mlnsim.query import (
    UNITARY_KINDS,
    effective_forward,
    uniform_query,
    unitary_query,
    verify_unitary,
)


class TestUniformQuery:
    def test_scalar(self):
        assert np.array_equal(uniform_query(1, 1), [[1.0]])

    def test_two_by_two(self):
        q = uniform_query(2, 2)
        assert np.allclose(q, np.full((2, 2), 1 / np.sqrt(2)))
        assert np.allclose(np.sum(np.abs(q) ** 2, axis=1), 1.0)

    def test_rank_one(self):
        q = uniform_query(3, 4)
        assert np.allclose(q, 0.5)
        assert numeric_rank(q) == 1


class TestUnitaryQuery:
    def test_m1_coincides_with_uniform(self):
        for kind in UNITARY_KINDS:
            q = unitary_query(1, kind, make_rng(0))
            assert q.shape == (1, 1)
            assert abs(abs(q[0, 0]) - 1.0) < 1e-12
        assert np.allclose(unitary_query(1, "dft"), uniform_query(1, 1))

    def test_hadamard_base_case(self):
        q = unitary_query(2, "hadamard")
        assert np.allclose(q, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_dft_four(self):
        q = unitary_query(4, "dft")
        assert verify_unitary(q)
        assert np.allclose(np.abs(q), 0.25**0.5)

    def test_hadamard_needs_power_of_two(self):
        with pytest.raises(ValueError):
            unitary_query(3, "hadamard")

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            unitary_query(2, "toeplitz")

    def test_all_kinds_unitary_and_unit_rows(self):
        for kind in UNITARY_KINDS:
            for m in (1, 2, 4, 8):
                q = unitary_query(m, kind, make_rng(3, (m,)))
                assert type(q) is np.ndarray and q.dtype == complex and q.shape == (m, m)
                assert verify_unitary(q)
                assert np.max(np.abs(np.sum(np.abs(q) ** 2, axis=1) - 1.0)) < 1e-12


class TestVerifyUnitary:
    def test_identity(self):
        assert verify_unitary(np.eye(3))

    def test_uniform_is_not_unitary(self):
        assert not verify_unitary(uniform_query(2, 2))

    def test_random_unitary_kind(self):
        assert verify_unitary(unitary_query(3, "random-unitary", make_rng(4)))

    def test_one_tolerance(self):
        # random_unitary checks its result with the one verify_unitary, against UNITARY_TOL
        assert verify_unitary is linalg.verify_unitary
        assert linalg.UNITARY_TOL == 1e-10
        # Q Q^H - I has the one nonzero entry (1 + e)^2 - 1, about 2e
        assert verify_unitary(np.diag([1 + 0.4e-10, 1])) and not verify_unitary(np.diag([1 + 0.6e-10, 1]))
        assert verify_unitary(linalg.random_unitary(4, make_rng(5)))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            verify_unitary(np.ones((2, 3)))


class TestEffectiveForward:
    def test_uniform_rows_identical(self):
        h = sample_cn_matrix(2, 3, make_rng(5))
        x = effective_forward(uniform_query(2, 2), h)
        assert np.array_equal(x[0], x[1])

    def test_unitary_decorrelates_slots(self):
        rng = make_rng(6)
        q = unitary_query(2, "dft")
        h = sample_cn_matrix(2 * 100_000, 1, rng).reshape(100_000, 2, 1)
        x = np.einsum("tm,kml->ktl", q, h)
        a, b = x[:, 0, 0], x[:, 1, 0]
        corr = np.mean(a * np.conj(b)) / np.sqrt(np.mean(np.abs(a) ** 2) * np.mean(np.abs(b) ** 2))
        assert abs(corr) < 0.02
        # per-entry variance of the effective process stays unit
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.03

    def test_unitary_preserves_rank(self):
        rng = make_rng(7)
        q = unitary_query(3, "dft")
        for _ in range(1000):
            h = sample_cn_matrix(3, 2, rng)
            assert numeric_rank(effective_forward(q, h)) == numeric_rank(h)

    def test_uniform_collapses_rank(self):
        rng = make_rng(8)
        for _ in range(100):
            h = sample_cn_matrix(3, 2, rng)
            assert numeric_rank(effective_forward(uniform_query(4, 3), h)) == 1

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            effective_forward(uniform_query(2, 2), np.ones((3, 2)))


def test_query_block_energy_matches_across_schemes():
    # same total query energy per block: fair comparison between schemes
    for m in (1, 2, 4):
        uni = uniform_query(m, m)
        for kind in UNITARY_KINDS:
            unit = unitary_query(m, kind, make_rng(9, (m,)))
            assert np.sum(np.abs(uni) ** 2) == pytest.approx(np.sum(np.abs(unit) ** 2), abs=1e-12)
