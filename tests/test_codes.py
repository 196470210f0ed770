"""Unit tests for codebooks and difference matrices."""

from itertools import product

import numpy as np
import pytest

from mlnsim.codes import (
    EXAMPLE1_DELTA,
    EXAMPLE3_DELTA,
    Codebook,
    difference_matrix,
    pairwise_codebook_from_delta,
    repetition_bpsk,
    uncoded_bpsk,
)
from mlnsim.linalg import DimensionMismatchError


class TestDifferenceMatrix:
    def test_equal_codewords(self):
        c = np.ones((2, 2))
        d = difference_matrix(c, c)
        assert np.all(d.delta == 0)
        assert d.rank == 0
        assert d.column_supports == (0, 0)
        assert d.nonzero_rows == 0

    def test_example1_pair(self):
        c = EXAMPLE1_DELTA.T / 2
        d = difference_matrix(c, -c)
        assert np.allclose(d.delta, EXAMPLE1_DELTA)
        assert d.column_supports == (2, 2)
        assert d.rank == 2
        assert d.nonzero_rows == 2

    def test_example3_pair(self):
        d = difference_matrix(np.ones((2, 1)), -np.ones((2, 1)))
        assert np.allclose(d.delta, EXAMPLE3_DELTA)
        assert d.delta.shape == (1, 2)
        assert d.column_supports == (1, 1)
        assert d.rank == 1
        assert d.nonzero_rows == 1

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        assert np.allclose(difference_matrix(a, b).delta, -difference_matrix(b, a).delta)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            difference_matrix(np.ones((2, 2)), np.ones((2, 1)))


class TestPairwiseCodebook:
    def test_repetition_delta_normalizes_to_unit_symbols(self):
        cb, scale = pairwise_codebook_from_delta(EXAMPLE3_DELTA)
        assert scale == pytest.approx(1.0)
        assert np.allclose(cb.codewords[0], [[1.0], [1.0]])
        assert np.allclose(cb.codewords[1], [[-1.0], [-1.0]])

    def test_example1_reconstruction(self):
        cb, scale = pairwise_codebook_from_delta(EXAMPLE1_DELTA)
        diff = difference_matrix(cb.codewords[0], cb.codewords[1])
        assert np.allclose(diff.delta, scale * EXAMPLE1_DELTA)
        energies = [np.sum(np.abs(c) ** 2) for c in cb.codewords]
        assert np.mean(energies) == pytest.approx(cb.T)

    def test_support_and_rank_preserved(self):
        for delta in (EXAMPLE1_DELTA, EXAMPLE3_DELTA, np.array([[1.0, 0.0], [0.0, 2.0]])):
            cb, _ = pairwise_codebook_from_delta(delta)
            got = difference_matrix(cb.codewords[0], cb.codewords[1])
            want = difference_matrix(delta.T / 2, -delta.T / 2)
            assert got.column_supports == want.column_supports
            assert got.rank == want.rank
            assert got.nonzero_rows == want.nonzero_rows

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            pairwise_codebook_from_delta(np.zeros((2, 2)))


class TestRepetitionBpsk:
    def test_order_two(self):
        cb = repetition_bpsk(2)
        d = difference_matrix(cb.codewords[0], cb.codewords[1])
        assert np.allclose(d.delta, [[2.0, 2.0]])

    def test_degenerate_order_one(self):
        cb = repetition_bpsk(1)
        d = difference_matrix(cb.codewords[0], cb.codewords[1])
        assert np.allclose(d.delta, [[2.0]])

    def test_energy(self):
        cb = repetition_bpsk(2)
        assert np.sum(np.abs(cb.codewords[0]) ** 2) == pytest.approx(2.0)


class TestUncodedBpsk:
    def test_scalar_alphabet(self):
        cb = uncoded_bpsk(1, 1)
        vals = sorted(c[0, 0].real for c in cb.codewords)
        assert vals == [-1.0, 1.0]

    def test_enumeration_count(self):
        cb = uncoded_bpsk(2, 1)
        assert len(cb) == 4
        assert cb.bits_per_block == 2

    def test_difference_alphabet(self):
        # entries of any pairwise difference live on {-2, 0, +2} / sqrt(L)
        for T, L in ((1, 1), (2, 1), (2, 2)):
            cb = uncoded_bpsk(T, L)
            step = 2.0 / np.sqrt(L)
            for i in range(len(cb)):
                for j in range(i + 1, len(cb)):
                    d = difference_matrix(cb.codewords[i], cb.codewords[j]).delta
                    on_grid = np.isclose(np.abs(d), step) | np.isclose(np.abs(d), 0.0)
                    assert np.all(on_grid)

    def test_energy_normalized(self):
        cb = uncoded_bpsk(2, 3)
        assert np.sum(np.abs(cb.codewords[0]) ** 2) == pytest.approx(cb.T)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            uncoded_bpsk(5, 4)

    @pytest.mark.parametrize("T,L", [(T, L) for T in range(1, 9) for L in range(1, 9) if T * L <= 8])
    def test_matches_itertools_enumeration(self, T, L):
        # bit 0 -> +, most significant bit first, entries in row-major order
        want = np.array(
            [(1.0 / np.sqrt(L)) * (1.0 - 2.0 * np.array(b, dtype=float)).reshape(T, L) for b in product((0, 1), repeat=T * L)],
            dtype=complex,
        )
        got = uncoded_bpsk(T, L).codewords
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestCodebookInvariants:
    def test_energy_validation(self):
        with pytest.raises(ValueError):
            Codebook((np.ones((2, 1)) * 2, -np.ones((2, 1)) * 2))
        with pytest.raises(ValueError, match="energy"):
            Codebook((np.full((1, 1), np.nan), -np.ones((1, 1))))

    @pytest.mark.parametrize("count", [1, 3, 6])
    def test_word_count_must_be_a_power_of_two(self, count):
        words = np.exp(2j * np.pi * np.arange(count) / count).reshape(count, 1, 1)
        with pytest.raises(ValueError, match=f"power of 2 .* got {count}"):
            Codebook(words)

    def test_one_read_only_array(self):
        words = np.array([[[1.0, 1.0]], [[-1.0, -1.0]]]) / np.sqrt(2)
        cb = Codebook(words)
        assert cb.codewords.shape == (2, 1, 2) and cb.codewords.dtype == complex
        assert (len(cb), cb.T, cb.L, cb.bits_per_block) == (2, 1, 2, 1)
        with pytest.raises(ValueError):
            cb.codewords[0, 0, 0] = 0.0
        with pytest.raises(AttributeError):
            cb.bits_per_block = 2
        words[0] = 0.0  # the codebook holds its own copy
        assert cb.codewords[0, 0, 0] == 1 / np.sqrt(2)
        with pytest.raises(TypeError):
            Codebook(words, 1)

    def test_equal_and_hash_equal_on_shape_and_bytes(self):
        a, b = uncoded_bpsk(1, 2), uncoded_bpsk(1, 2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "word"}[b] == "word"
        assert a != Codebook(a.codewords[::-1])  # the same words in another order
        assert a != Codebook(a.codewords.reshape(2, 2, 2))  # the same bytes in another shape
        assert a != repetition_bpsk(2) and (a == "word") is False

    def test_words_must_share_one_shape(self):
        with pytest.raises(DimensionMismatchError, match="codewords must share one shape"):
            Codebook((np.ones((2, 1)), -np.ones((1, 2))))
        for words in ((np.ones(2), -np.ones(2)), np.zeros((2, 0, 1))):
            with pytest.raises(DimensionMismatchError, match="T x L matrices"):
                Codebook(words)

    def test_support_sum_bound_and_rank_bound(self):
        for cb in (repetition_bpsk(2), uncoded_bpsk(2, 2), pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0]):
            for i in range(len(cb)):
                for j in range(len(cb)):
                    if i == j:
                        continue
                    d = difference_matrix(cb.codewords[i], cb.codewords[j])
                    assert sum(d.column_supports) <= d.L * d.T
                    nonzero_cols = sum(1 for s in d.column_supports if s > 0)
                    assert d.rank <= min(d.nonzero_rows, nonzero_cols)
