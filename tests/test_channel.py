"""Unit tests for the dyadic channel model."""

import math
import sys

import numpy as np
import pytest

from mlnsim.channel import (
    ChannelRealization,
    SystemDims,
    backscatter_transmit,
    checked_snr_grid,
    effective_signal,
    gram,
    mix,
    sample_channel,
    snr_gain,
)
from mlnsim.linalg import DimensionMismatchError, make_rng, numeric_rank, sample_cn_matrix
from mlnsim.query import effective_forward, uniform_query


class TestSystemDims:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SystemDims(2, 0, 2, 2)

    @pytest.mark.parametrize("dims, field", [((2.5, 1, 2, 2), "M"), ((True, 1, 2, 2), "M"), ((2, 1, "2", 2), "N")])
    def test_rejects_non_integers_by_name(self, dims, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got"):
            SystemDims(*dims)

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

    def test_mix_adds_the_tag_antennas_in_order(self):
        # pep's Q-function route and effective_signal take mix's bits: the L terms
        # X_tl C_tl G_l added in order, for a single block and for tiny trailing sizes too
        rng = make_rng(15)
        for _ in range(60):
            T, L, N, n = (int(rng.integers(1, 5)) for _ in range(4))
            for blocks in ((), (n,)):
                k = math.prod(blocks)
                X, C = (sample_cn_matrix(T * L, k, rng).reshape((T, L) + blocks) for _ in range(2))
                G = sample_cn_matrix(L * N, k, rng).reshape((L, N) + blocks)
                XC = X * C
                expected = XC[:, 0, None] * G[0]
                for l in range(1, L):
                    expected = expected + XC[:, l, None] * G[l]
                assert np.array_equal(mix(X, C, G).view(np.uint64), expected.view(np.uint64))

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
        # dirty buffers filled through out= (and gram's work=) hold the bits of calls
        # without them; H is a strided slice, as a BER slice's is, and out may be strided
        rng = make_rng(14)
        T, M, L, N, n = 3, 2, 2, 4, 50
        q = sample_cn_matrix(T, M, rng)
        H = sample_cn_matrix(M * L, 2 * n, rng).reshape(M, L, 2 * n)[..., ::2]
        G = sample_cn_matrix(L * N, n, rng).reshape(L, N, n)
        W = sample_cn_matrix(T * N, n, rng).reshape(T, N, n)
        cases = [
            (lambda out: effective_forward(q, H, out=out), (T, L, n), (0, 1, 2)),
            (lambda out: effective_forward(q, H, out=out), (L, T, n), (1, 0, 2)),
            (lambda out: gram(G, out=out), (L, L, n), (0, 1, 2)),
            (lambda out: gram(G, Gc=G.conj(), work=np.full((L, L, N, n), np.nan, complex), out=out),
             (L, L, n), (0, 1, 2)),
            # the cross form W G^H of simulate's noise terms
            (lambda out: gram(W, Gc=G.conj(), work=np.full((T, L, N, n), np.nan, complex), out=out),
             (L, T, n), (1, 0, 2)),
        ]
        for f, shape, axes in cases:
            out = np.full(shape, np.nan, complex).transpose(axes)
            assert f(out) is out
            assert np.array_equal(out.view(np.uint64), f(None).view(np.uint64))
        WGh = gram(W, Gc=G.conj())
        inline = np.sum(W[:, None] * G.conj()[None], axis=2)
        assert np.array_equal(WGh.view(np.uint64), inline.view(np.uint64))
        for k in range(n):
            assert np.allclose(WGh[..., k], W[..., k] @ G[..., k].conj().T, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match=r"out must have the shape \(3, 2, 50\)"):
            effective_forward(q, H, out=np.empty((L, T, n), complex))

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


# the largest |snr_db| whose gain and noise variance are finite, nonzero floats
_EDGE = math.nextafter(10.0 * math.log10(sys.float_info.max), 0.0)


class TestSnrGrid:
    def test_gain_is_the_db_convention(self):
        assert snr_gain(0.0) == 1.0 and snr_gain(20.0) == 100.0 and snr_gain(-10.0) == 0.1
        assert np.array_equal(snr_gain(np.array([0.0, 10.0])), [1.0, 10.0])

    def test_edges_of_the_float_range_accepted(self):
        assert checked_snr_grid([-_EDGE, 0, _EDGE]) == (-_EDGE, 0.0, _EDGE)
        for gain in [snr_gain(-_EDGE), snr_gain(_EDGE), *snr_gain(np.array([-_EDGE, _EDGE]))]:
            assert 0.0 < gain < math.inf and 0.0 < 1.0 / gain < math.inf

    @pytest.mark.parametrize(
        "grid",
        [[], [2.0, 1.0], [1.0, 1.0], [0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0],
         [math.nextafter(_EDGE, math.inf)], [-math.nextafter(_EDGE, math.inf)], [-3100.0], [3100.0]],
    )
    def test_rejects_grid_named(self, grid):
        with pytest.raises(ValueError, match="^snr_grid_db:"):
            checked_snr_grid(grid)
