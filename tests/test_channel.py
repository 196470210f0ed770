"""Unit tests for the dyadic channel model."""

import numpy as np
import pytest

from mlnsim.channel import (
    ChannelRealization,
    SystemDims,
    _blocks_last,
    backscatter_transmit,
    effective_signal,
    gram,
    mix,
    sample_channel,
)
from mlnsim.linalg import DimensionMismatchError, make_rng, numeric_rank, sample_cn_matrix
from mlnsim.query import effective_forward, uniform_query


class TestSystemDims:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SystemDims(2, 0, 2, 2)

    def test_channel_shape_consistency(self):
        with pytest.raises(DimensionMismatchError):
            ChannelRealization(H=np.ones((2, 3)), G=np.ones((2, 2)))


class TestSampleChannel:
    def test_full_rank_statistics(self):
        dims = SystemDims(2, 2, 2, 2)
        rng = make_rng(1)
        hits = 0
        for _ in range(1000):
            ch = sample_channel(dims, rng)
            hits += numeric_rank(ch.H) == 2 and numeric_rank(ch.G) == 2
        assert hits >= 999

    def test_scalar_moment(self):
        dims = SystemDims(1, 1, 1, 1)
        rng = make_rng(2)
        gains = np.array([sample_channel(dims, rng).H[0, 0] for _ in range(100_000)])
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 0.03

    def test_deterministic(self):
        dims = SystemDims(2, 3, 1, 2)
        a = sample_channel(dims, make_rng(3))
        b = sample_channel(dims, make_rng(3))
        assert np.array_equal(a.H, b.H) and np.array_equal(a.G, b.G)


class TestEffectiveSignal:
    def test_scalar_chain(self):
        s = effective_signal(np.array([[1.0]]), np.array([[2.0 + 1j]]),
                             np.array([[0.5]]), np.array([[3.0]]))
        assert s[0, 0] == pytest.approx((2 + 1j) * 0.5 * 3)

    def test_zero_code_annihilates(self):
        rng = make_rng(4)
        q = uniform_query(2, 2)
        s = effective_signal(q, sample_cn_matrix(2, 2, rng), np.zeros((2, 2)),
                             sample_cn_matrix(2, 2, rng))
        assert np.all(s == 0)

    def test_index_form_oracle(self):
        rng = make_rng(5)
        T, M, L, N = 2, 2, 2, 2
        q = sample_cn_matrix(T, M, rng)
        h = sample_cn_matrix(M, L, rng)
        c = sample_cn_matrix(T, L, rng)
        g = sample_cn_matrix(L, N, rng)
        s = effective_signal(q, h, c, g)
        for t in range(T):
            for n in range(N):
                expected = sum(
                    sum(q[t, m] * h[m, l] for m in range(M)) * c[t, l] * g[l, n]
                    for l in range(L)
                )
                assert abs(s[t, n] - expected) < 1e-12

    def test_linearity_in_code(self):
        rng = make_rng(6)
        q = uniform_query(3, 2)
        h = sample_cn_matrix(2, 2, rng)
        g = sample_cn_matrix(2, 2, rng)
        c1 = sample_cn_matrix(3, 2, rng)
        c2 = sample_cn_matrix(3, 2, rng)
        lhs = effective_signal(q, h, c1 + c2, g)
        rhs = effective_signal(q, h, c1, g) + effective_signal(q, h, c2, g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_single_tag_antenna_scalar_loop(self):
        rng = make_rng(7)
        T, M, N = 2, 2, 3
        q = sample_cn_matrix(T, M, rng)
        h = sample_cn_matrix(M, 1, rng)
        c = sample_cn_matrix(T, 1, rng)
        g = sample_cn_matrix(1, N, rng)
        s = effective_signal(q, h, c, g)
        qh = q @ h
        for t in range(T):
            for n in range(N):
                assert abs(s[t, n] - qh[t, 0] * c[t, 0] * g[0, n]) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            effective_signal(uniform_query(2, 2), np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2)))


class TestBatchedKernel:
    @staticmethod
    def _last(A):
        return np.moveaxis(A, 0, -1)

    def test_equals_stacked_scalar_calls(self):
        rng = make_rng(12)
        for _ in range(60):
            T, M, L, N, n = (int(rng.integers(1, 5)) for _ in range(5))
            q = sample_cn_matrix(T, M, rng)
            H = sample_cn_matrix(n, M * L, rng).reshape(n, M, L)
            C = sample_cn_matrix(n, T * L, rng).reshape(n, T, L)
            G = sample_cn_matrix(n, L * N, rng).reshape(n, L, N)
            X = effective_forward(q, self._last(H))
            assert X.shape == (T, L, n)
            S = mix(X, self._last(C), self._last(G))
            assert S.shape == (T, N, n)
            for k in range(n):
                expected = effective_signal(q, H[k], C[k], G[k])
                assert np.max(np.abs(S[..., k] - expected)) <= 1e-12

    def test_single_row_broadcasts_over_slots(self):
        # the uniform query's static forward row, as the PEP route draws it
        rng = make_rng(13)
        T, L, N, n = 3, 2, 2, 4
        y = sample_cn_matrix(n, L, rng)
        C = sample_cn_matrix(T, L, rng)
        G = sample_cn_matrix(n, L * N, rng).reshape(n, L, N)
        S = mix(self._last(y[:, None, :]), C[:, :, None], self._last(G))
        for k in range(n):
            expected = mix(np.repeat(y[k][None], T, axis=0), C, G[k])
            assert np.max(np.abs(S[..., k] - expected)) <= 1e-12

    def test_out_buffers_hold_the_fresh_results(self):
        # dirty buffers filled through out= hold the bits of calls without it
        rng = make_rng(14)
        T, M, L, N, n = 3, 2, 2, 4, 50
        q = sample_cn_matrix(T, M, rng)
        H = sample_cn_matrix(n, M * L, rng).reshape(n, M, L)
        C = sample_cn_matrix(T * L, n, rng).reshape(T, L, n)
        G = sample_cn_matrix(n, L * N, rng).reshape(n, L, N)
        Hb, Gb = (np.full(A.shape[1:] + (n,), np.nan, complex) for A in (H, G))
        assert _blocks_last(H, out=Hb) is Hb and np.array_equal(Hb, _blocks_last(H))
        assert _blocks_last(G, out=Gb) is Gb and np.array_equal(Gb, _blocks_last(G))
        cases = [
            (lambda out: effective_forward(q, Hb, out=out), (T, L, n)),
            (lambda out: mix(effective_forward(q, Hb), C, Gb, out=out), (T, N, n)),
            (lambda out: gram(Gb, out=out), (L, L, n)),
        ]
        for f, shape in cases:
            out = np.full(shape, np.nan, complex)
            assert np.shares_memory(f(out), out)
            assert np.array_equal(out.view(np.uint64), f(None).view(np.uint64))
        with pytest.raises(ValueError, match="C-contiguous"):
            effective_forward(q, Hb, out=np.empty((L, T, n), complex).transpose(1, 0, 2))

    def test_effective_signal_rejects_batched_h(self):
        with pytest.raises(DimensionMismatchError, match="matrix"):
            effective_signal(uniform_query(2, 2), np.ones((2, 2, 3)), np.ones((2, 2)), np.ones((2, 2)))


class TestBackscatterTransmit:
    def test_noiseless_is_exact(self):
        rng = make_rng(8)
        dims = SystemDims(2, 2, 2, 2)
        ch = sample_channel(dims, rng)
        c = sample_cn_matrix(2, 2, rng)
        q = uniform_query(2, 2)
        r = backscatter_transmit(q, ch, c, 0.0, rng)
        assert np.array_equal(r, effective_signal(q, ch.H, c, ch.G))

    def test_pure_noise_variance(self):
        rng = make_rng(9)
        dims = SystemDims(2, 1, 4, 8)
        q = uniform_query(dims.T, dims.M)
        c = np.zeros((dims.T, dims.L))
        entries = []
        for _ in range(3200):  # 3200 blocks x 32 entries ~ 1e5 draws
            ch = sample_channel(dims, rng)
            entries.append(backscatter_transmit(q, ch, c, 1.0, rng).ravel())
        entries = np.concatenate(entries)
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.03

    def test_noise_power_oracle(self):
        rng = make_rng(10)
        dims = SystemDims(2, 2, 2, 2)
        q = uniform_query(2, 2)
        total = 0.0
        for _ in range(10_000):
            ch = sample_channel(dims, rng)
            c = sample_cn_matrix(2, 2, rng)
            r = backscatter_transmit(q, ch, c, 0.1, rng)
            s = effective_signal(q, ch.H, c, ch.G)
            total += np.sum(np.abs(r - s) ** 2) / (dims.T * dims.N)
        assert abs(total / 10_000 - 0.01) < 0.0005

    def test_negative_noise_rejected(self):
        rng = make_rng(11)
        ch = sample_channel(SystemDims(1, 1, 1, 1), rng)
        with pytest.raises(ValueError):
            backscatter_transmit(uniform_query(1, 1), ch, np.ones((1, 1)), -0.1, rng)
