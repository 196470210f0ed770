"""Unit tests for the BER link simulator."""

import concurrent.futures
import dataclasses
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mlnsim
from mlnsim import codes, linalg, simulate
from mlnsim.channel import SystemDims, mix, sample_channel
from mlnsim.codes import (
    EXAMPLE1_DELTA,
    _metric_weights,
    pairwise_codebook_from_delta,
    repetition_bpsk,
    uncoded_bpsk,
)
from mlnsim.linalg import make_rng, sample_cn_matrix
from mlnsim.pep import pep_qfunction_mc
from mlnsim.query import uniform_query, unitary_query
from mlnsim.simulate import (
    BerCurve,
    BerPoint,
    LevelNotCrossedError,
    SnrSweepConfig,
    gain_at_ber,
    ml_detect,
    simulate_ber,
    simulate_bers,
)
from mlnsim.channel import backscatter_transmit


def _antipodal():
    return pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0]


def _threads(monkeypatch, workers):
    """Run the next sweeps on `workers` pool threads, the MLNSIM_THREADS cap, whatever the core count."""
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
    monkeypatch.setenv("MLNSIM_THREADS", str(workers))


class TestMlDetect:
    @pytest.mark.parametrize(
        "dims,codebook,query",
        [
            (SystemDims(2, 2, 2, 2), _antipodal(), unitary_query(2, "dft")),
            (SystemDims(2, 1, 2, 2), repetition_bpsk(2), uniform_query(2, 2)),
            (SystemDims(2, 1, 1, 2), uncoded_bpsk(2, 1), unitary_query(2, "hadamard")),
        ],
    )
    def test_noiseless_consistency(self, dims, codebook, query):
        rng = make_rng(1)
        for _ in range(100):
            ch = sample_channel(dims, rng)
            for k, c in enumerate(codebook.codewords):
                r = backscatter_transmit(query, ch, c, 0.0, rng)
                assert ml_detect(r, query, ch, codebook) == k

    def test_tie_breaks_low(self):
        dims = SystemDims(2, 2, 2, 2)
        ch = sample_channel(dims, make_rng(2))
        cb = _antipodal()
        # all-zero received block is equidistant from the antipodal pair
        r = np.zeros((2, 2))
        assert ml_detect(r, unitary_query(2, "dft"), ch, cb) == 0

    def test_error_rate_matches_pep_for_two_word_code(self):
        dims = SystemDims(1, 1, 1, 1)
        cb = repetition_bpsk(1)
        sweep = SnrSweepConfig(
            dims=dims, query_kind="uniform", codebook=cb, snr_grid_db=(10.0,),
            max_trials_per_point=60_000, target_error_events=2600, seed=3,
        )
        point = simulate_ber(sweep).points[0]
        pep = pep_qfunction_mc("uniform", np.array([[2.0]]), dims, 10.0, 200_000, make_rng(4))
        sim_se = np.sqrt(point.ber * (1 - point.ber) / point.trials)
        assert abs(point.ber - pep.value) < 3 * np.hypot(sim_se, pep.std_error)


FAMILIES = ("uncoded_bpsk", "repetition_bpsk", "complex")
QUERY_KINDS = ("uniform", "dft")

# |metric + ||R||^2 - brute force| <= RTOL * (||R||^2 + brute force), fixed beforehand
KERNEL_RTOL = 1e-9


def _brute_force(X, G, R, codewords):
    """||R - (X o C_j) G||_F^2 for blocks-last X, G, R: n x K."""
    S = np.einsum("tlk,jtl,lnk->kjtn", X, codewords, G)
    return np.sum(np.abs(np.moveaxis(R, -1, 0)[:, None] - S) ** 2, axis=(2, 3))


def _random_codewords(family, rng):
    """The K x T x L codewords of one random case of a codebook family, T and L in 1..4."""
    T = int(rng.integers(1, 5))
    L = 1 if family == "repetition_bpsk" else int(rng.integers(1, 5))
    if family == "uncoded_bpsk":
        T = min(T, 8 // L)  # K = 2^(T L) <= 256
        return np.stack(uncoded_bpsk(T, L).codewords)
    if family == "repetition_bpsk":
        return np.stack(repetition_bpsk(T).codewords)
    K = int(rng.integers(2, 257))
    return rng.standard_normal((K, T, L)) + 1j * rng.standard_normal((K, T, L))


def _random_blocks(Q, codewords, n, noise_std, rng):
    """Blocks-last X = Q H, G, R = (X o C) G + W and the sent words C for n blocks."""
    T, L = codewords.shape[1:]
    N = int(rng.integers(1, 5))
    H = rng.standard_normal((Q.shape[1], L, n)) + 1j * rng.standard_normal((Q.shape[1], L, n))
    G = rng.standard_normal((L, N, n)) + 1j * rng.standard_normal((L, N, n))
    X = np.einsum("tm,mlk->tlk", Q, H)
    sent = rng.integers(0, len(codewords), n)
    C = np.moveaxis(codewords[sent], 0, -1)
    R = np.einsum("tlk,lnk->tnk", X * C, G)
    R = R + noise_std * (rng.standard_normal(R.shape) + 1j * rng.standard_normal(R.shape))
    return X, G, R, C


def _kernel(X, G, W, Cc, weights):
    """base and noise of simulate._metric for S = (X o C) G with Cc = conj(C) and noise W."""
    gram, V = simulate._shared_terms(G, W)
    return simulate._metric(X, gram, V, Cc, weights)


def _metric_of(X, G, R, weights):
    """||R - S_j||^2 - ||R||^2 from simulate._metric, with R the noise on the zero word."""
    base, noise = _kernel(X, G, R, np.zeros(X.shape), weights)
    return base + noise


class TestMetricKernel:
    """The GEMM metric against the brute-force ||R - S_j||^2 it replaces."""

    @pytest.mark.parametrize("query_kind", QUERY_KINDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_brute_force(self, query_kind, family):
        rng = make_rng(41, (QUERY_KINDS.index(query_kind), FAMILIES.index(family)))
        for case in range(12):
            codewords = _random_codewords(family, rng)
            T, L = codewords.shape[1:]
            M = T if query_kind == "dft" else int(rng.integers(1, 5))
            q = unitary_query(T, "dft") if query_kind == "dft" else uniform_query(T, M)
            noise_std = float(rng.choice([0.1, 1.0, 3.0]))
            X, G, R, _ = _random_blocks(q, codewords, 16, noise_std, rng)

            weights = _metric_weights(codewords)
            # real codebooks take the reduced path without the Im parts
            parts = 2 if family == "complex" else 1
            assert weights.shape == (len(codewords), parts * T * L * (L + 1))
            d = _metric_of(X, G, R, weights)
            bf = _brute_force(X, G, R, codewords)
            r2 = np.sum(np.abs(R) ** 2, axis=(0, 1))[:, None]
            where = f"case {case}: T={T} L={L} N={G.shape[1]} K={len(codewords)}"
            assert np.array_equal(np.argmin(d, axis=1), np.argmin(bf, axis=1)), where
            assert np.all(np.abs(d + r2 - bf) <= KERNEL_RTOL * (r2 + bf)), where

    @pytest.mark.parametrize("family", FAMILIES)
    def test_split_metric_matches_metric(self, family):
        # base on the noise-free S plus s times the noise term equals the metric of S + s W
        rng = make_rng(43, (FAMILIES.index(family),))
        for case in range(12):
            codewords = _random_codewords(family, rng)
            T, L = codewords.shape[1:]
            X, G, S, C = _random_blocks(unitary_query(T, "dft"), codewords, 16, 0.0, rng)
            W = rng.standard_normal(S.shape) + 1j * rng.standard_normal(S.shape)
            s = float(rng.choice([0.03, 0.3, 3.0]))
            weights = _metric_weights(codewords)
            base, noise = _kernel(X, G, W, np.conjugate(C), weights)
            split = base + s * noise
            R = S + s * W
            d = _metric_of(X, G, R, weights)
            r2 = np.sum(np.abs(R) ** 2, axis=(0, 1))[:, None]
            bf = _brute_force(X, G, R, codewords)
            where = f"case {case}: T={T} L={L} N={G.shape[1]} K={len(codewords)}"
            assert np.all(np.abs(split - d) <= KERNEL_RTOL * (r2 + bf)), where

    @pytest.mark.parametrize("query_kind", QUERY_KINDS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_cross_features_match_direct_cross(self, query_kind, family):
        # the S-free cross features sum_l' E[t, l, l'] conj(c_tl') equal X o conj(S G^H)
        # formed from the noise-free S itself
        rng = make_rng(46, (QUERY_KINDS.index(query_kind), FAMILIES.index(family)))
        for case in range(12):
            codewords = _random_codewords(family, rng)
            T, L = codewords.shape[1:]
            M = T if query_kind == "dft" else int(rng.integers(1, 5))
            q = unitary_query(T, "dft") if query_kind == "dft" else uniform_query(T, M)
            X, G, _, C = _random_blocks(q, codewords, 16, 0.0, rng)
            parts = 2 if family == "complex" else 1
            gram, _ = simulate._shared_terms(G, np.zeros((T,) + G.shape[1:], complex))
            feats = simulate._base_features(X, gram, np.conjugate(C), parts)
            cross = feats[parts * T * L * L :].reshape(parts, T, L, -1)
            S = mix(X, C, G)
            direct = X * np.einsum("tnk,lnk->tlk", np.conjugate(S), G)
            # every term of the sums over l' and n, in magnitude
            terms = np.abs(X) * np.einsum("tbk,tbk,ank,bnk->tak", np.abs(X), np.abs(C), np.abs(G), np.abs(G))
            where = f"case {case}: T={T} L={L} N={G.shape[1]} K={len(codewords)}"
            for got, want in zip(cross, (direct.real, direct.imag)):
                assert np.all(np.abs(got - want) <= 1e-12 * terms), where

    def test_weights_built_once_per_codebook(self, monkeypatch):
        cb = uncoded_bpsk(2, 2)
        built = []
        build = codes._metric_weights
        monkeypatch.setattr(codes, "_metric_weights", lambda c: built.append(1) or build(c))
        dims = SystemDims(2, 2, 2, 2)
        q = unitary_query(2, "dft")
        rng = make_rng(44)
        for k in range(3):
            ch = sample_channel(dims, rng)
            r = backscatter_transmit(q, ch, cb.codewords[k], 0.0, rng)
            assert ml_detect(r, q, ch, cb) == k
        assert len(built) == 1
        assert cb.metric_weights is cb.metric_weights
        assert not cb.metric_weights.flags.writeable

    def test_tie_breaks_low_in_batch(self):
        # R = 0 is equidistant from c and -c in every block
        codewords = np.stack(_antipodal().codewords)
        rng = make_rng(42)
        X, G, _, _ = _random_blocks(unitary_query(2, "dft"), codewords, 8, 1.0, rng)
        R = np.zeros((2, G.shape[1], 8), dtype=complex)
        d = _metric_of(X, G, R, _metric_weights(codewords))
        assert np.array_equal(d[:, 0], d[:, 1])
        assert np.all(np.argmin(d, axis=1) == 0)

    def test_large_codebook_sweep_in_bounded_memory(self, monkeypatch):
        # 2^16 words on a few hundred blocks: the tallies of the 96-block sweep
        # equal brute-force ML on R = S + s W redrawn from its one chunk's
        # substream, and with the cached weights built beforehand, peak memory
        # does not grow with the number of blocks (one unsliced 384 x 2^16
        # metric alone is 192 MiB)
        cb = uncoded_bpsk(4, 4)
        dims = SystemDims(4, 4, 2, 4)
        K = len(cb)
        slices = []
        metric = simulate._metric

        def spy(X, *args):
            slices.append(X.shape[-1])
            return metric(X, *args)

        monkeypatch.setattr(simulate, "_metric", spy)
        # build the cached weights untraced: real, so T L (L + 1) columns
        assert cb.metric_weights.shape == (K, 80)
        _threads(monkeypatch, 1)
        peaks, points = [], []
        for blocks in (96, 384):
            sweep = SnrSweepConfig(
                dims=dims, query_kind="dft", codebook=cb, snr_grid_db=(6.0,),
                max_trials_per_point=blocks, target_error_events=10**6, seed=8,
            )
            slices.clear()
            tracemalloc.start()
            try:
                points.append(simulate_ber(sweep).points[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert points[-1].trials == sum(slices) == blocks
            # fewer than _MIN_SLICE blocks' buffers (3 x 2^16 float64s a block for
            # the scorer alone) fit the byte budget, so the slices are the smallest allowed
            assert simulate._SLICE_BYTES // simulate._slice_bytes(dims, cb.metric_weights) < simulate._MIN_SLICE
            assert max(slices) == simulate._MIN_SLICE
        assert peaks[1] - peaks[0] < 8 * 2**20
        assert peaks[1] < 96 * 2**20

        # the 96 blocks are chunk 0, drawn in the simulator's order
        rng = make_rng(8, (1, 0))
        H = sample_cn_matrix(96, dims.M * dims.L, rng).reshape(96, dims.M, dims.L)
        G = sample_cn_matrix(96, dims.L * dims.N, rng).reshape(96, dims.L, dims.N)
        sent = rng.integers(0, K, 96)
        W = sample_cn_matrix(96, dims.T * dims.N, rng).reshape(96, dims.T, dims.N)
        Q = simulate.build_query("dft", dims, 8)
        XG = np.einsum("tm,kml,kln->ktln", Q, H, G)  # ((X o C) G)[t] = C[t] @ XG[t]
        R = np.einsum("ktl,ktln->ktn", cb.codewords[sent], XG)
        R = R + np.sqrt(1.0 / 10.0 ** (6.0 / 10.0)) * W
        words = np.ascontiguousarray(cb.codewords.transpose(1, 0, 2))  # T x K x L
        detected = np.empty(96, dtype=np.int64)
        for k in range(96):  # ||R - S_j||^2 for every word j, one block at a time
            diff = R[k][:, None] - words @ XG[k]
            detected[k] = np.argmin(np.sum(diff.real**2 + diff.imag**2, axis=(0, 2)))
        wrong = detected != sent
        assert points[0].error_events == np.count_nonzero(wrong) > 0
        bit_errors = int(np.sum(np.bitwise_count(sent[wrong] ^ detected[wrong])))
        assert points[0].ber * 96 * cb.bits_per_block == pytest.approx(bit_errors, abs=1e-6)


def _complex_codebook():
    """8 random complex 3 x 3 words of unit average energy per slot."""
    words = make_rng(47).standard_normal((8, 3, 3, 2)) @ np.array([1.0, 1.0j])
    return codes.Codebook(tuple(words * np.sqrt(3 / np.mean(np.sum(np.abs(words) ** 2, axis=(1, 2))))))


class TestSliceBudget:
    @pytest.mark.parametrize(
        "dims,codebook,query_kinds,n,slices",
        [
            # example1 in two slices, where three would take the budget of the draws
            (SystemDims(2, 2, 2, 2), _antipodal(), ("dft", "uniform"), 10_000, [5_000] * 2),
            # 256 words: the scorer's arrays take most of the budget, so 25 even slices
            (SystemDims(2, 4, 2, 2), uncoded_bpsk(2, 4), ("dft",), 10_000, [400] * 25),
            # complex words, so complex features
            (SystemDims(3, 3, 4, 3), _complex_codebook(), ("dft", "uniform"), 2_500, [1_250] * 2),
        ],
    )
    def test_slices_fit_the_byte_budgets(self, monkeypatch, dims, codebook, query_kinds, n, slices):
        # _slice_bytes counts every per-slice array: above the chunk's draws, the traced
        # peak of each slice stays within the largest slice's blocks times its bytes per block
        seen, peaks = [], []
        metric, shared_terms = simulate._metric, simulate._shared_terms

        def slice_start(G, W):  # the peak since the last call is that of the slice before
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return shared_terms(G, W)

        monkeypatch.setattr(simulate, "_shared_terms", slice_start)
        monkeypatch.setattr(simulate, "_metric", lambda X, *args: seen.append(X.shape[-1]) or metric(X, *args))
        weights = codebook.metric_weights
        sweep = SnrSweepConfig(dims=dims, query_kind=query_kinds[0], codebook=codebook, snr_grid_db=(0.0,))
        schemes = [(simulate.build_query(k, dims, 0), np.array([1.0])) for k in query_kinds]
        words = simulate._sent_words(codebook)
        tracemalloc.start()
        try:
            simulate._score_chunk(sweep, schemes, words, weights, (1, 0, 0), n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert seen[:: len(schemes)] == slices
        draws = n * (16 * (dims.M * dims.L + dims.L * dims.N + dims.T * dims.N) + 8)  # H, G, W and sent
        per_block = simulate._slice_bytes(dims, weights)
        assert len(peaks) == len(slices) + 1  # the first is the draws'
        assert max(peaks[1:]) - draws <= max(slices) * per_block <= simulate._SLICE_BYTES


def _tallies_every_point(base, noise, sent, noise_stds):
    """Events and bit errors with every block scored at every noise scale."""
    tallies = np.zeros((2, len(noise_stds)), dtype=np.int64)
    for i, noise_std in enumerate(noise_stds):
        metric = np.multiply(noise, noise_std)
        metric += base
        detected = np.argmin(metric, axis=1)
        wrong = detected != sent
        tallies[0, i] = np.count_nonzero(wrong)
        tallies[1, i] = np.sum(np.bitwise_count(sent[wrong] ^ detected[wrong]))
    return tallies


def _score(base, noise, sent, noise_stds):
    tallies = np.zeros((2, len(noise_stds)), dtype=np.int64)
    simulate._score_points(base.copy(), noise.copy(), sent, noise_stds, tallies)
    return tallies


class TestScorePoints:
    """Scoring each point on the blocks in error at the point before, against scoring all."""

    @pytest.mark.parametrize("K", [2, 4, 256])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_every_point_brute_force(self, K, kind):
        rng = make_rng(45, (K, kind == "complex"))
        mostly_wrong_twice = False
        for case in range(8):
            T, L, N = (int(v) for v in rng.integers(1, 4, 3))
            if kind == "real":  # few distinct words when T L is small, so exact ties too
                codewords = rng.choice([-1.0, 1.0], (K, T, L)).astype(complex)
            else:
                codewords = rng.standard_normal((K, T, L)) + 1j * rng.standard_normal((K, T, L))
            n = 300
            X = unitary_query(T, "dft") @ (
                rng.standard_normal((T, L * n)) + 1j * rng.standard_normal((T, L * n))
            )
            X = X.reshape(T, L, n)
            G = rng.standard_normal((L, N, n)) + 1j * rng.standard_normal((L, N, n))
            W = rng.standard_normal((T, N, n)) + 1j * rng.standard_normal((T, N, n))
            sent = rng.integers(0, K, n)
            weights = _metric_weights(codewords)
            base, noise = _kernel(X, G, W, np.conjugate(np.moveaxis(codewords[sent], 0, -1)), weights)
            # the noisiest scale in [3, 30) has errors to carry over, the rest in [0.01, 3);
            # some cases repeat a scale or end at 0, the noise-free limit
            rest = np.exp(rng.uniform(np.log(0.01), np.log(3.0), int(rng.integers(0, 7))))
            stds = np.concatenate([[rng.uniform(3.0, 30.0)], np.sort(rest)[::-1]])
            if case % 4 == 1:
                stds = np.repeat(stds, 2)
            if case % 4 == 2:
                stds = np.concatenate([stds, [0.0, 0.0]])
            expected = _tallies_every_point(base, noise, sent, stds)
            where = f"case {case}: T={T} L={L} N={N} scales={stds}"
            assert np.array_equal(_score(base, noise, sent, stds), expected), where
            assert expected[0, 0] > 0, where
            mostly_wrong = 2 * expected[0] > n
            mostly_wrong_twice |= bool(np.any(mostly_wrong[1:] & mostly_wrong[:-1]))
        # some point scores the blocks in error at the point before while most
        # blocks are in error at both; ML between two words errs with probability <= 1/2
        assert mostly_wrong_twice or K == 2

    def test_all_tie_block_detected_as_word_zero(self):
        # G = 0 makes every word's metric 0 at every scale: each block is word 0
        codewords = np.stack(uncoded_bpsk(2, 1).codewords)
        X = np.ones((2, 1, 8), dtype=complex)
        G = np.zeros((1, 2, 8), dtype=complex)
        W = np.ones((2, 2, 8), dtype=complex)
        sent = np.array([0, 1, 2, 3, 3, 2, 1, 0])
        weights = _metric_weights(codewords)
        base, noise = _kernel(X, G, W, np.moveaxis(codewords[sent], 0, -1), weights)
        assert not base.any() and not noise.any()
        stds = np.array([4.0, 1.0, 0.25])
        bits = int(np.sum(np.bitwise_count(sent)))
        assert np.array_equal(_score(base, noise, sent, stds), [[6, 6, 6], [bits] * 3])
        assert np.array_equal(_tallies_every_point(base, noise, sent, stds), [[6, 6, 6], [bits] * 3])

    @pytest.mark.parametrize(
        "stds", [[1.0, 2.0], [0.0, 1e-300], [2.0, 0.5, 0.7], [1.0, np.inf], [1.0, np.nan], [np.inf, 1.0]]
    )
    def test_rejects_scales_not_descending(self, stds):
        base = noise = np.zeros((4, 2))
        with pytest.raises(ValueError, match="must be descending"):
            _score(base, noise, np.zeros(4, dtype=np.int64), np.array(stds))


# a repeated BER sweep on 2 workers and a repeated Q-function PEP curve, each right after a
# first call that sizes the heap; prints the minor page faults of each repeat. The repeated
# sweep runs on the first one's pool threads, whose malloc arenas hold its freed pages
_REPEATED_KERNELS = """
import resource
from mlnsim import (
    EXAMPLE1_DELTA, SnrSweepConfig, SystemDims, make_rng, pairwise_codebook_from_delta, pep_qfunction_mc, simulate_bers,
)

dims = SystemDims(2, 2, 2, 2)
codebook = pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0]
sweeps = [
    SnrSweepConfig(dims=dims, query_kind=kind, codebook=codebook, snr_grid_db=(0.0, 6.0, 12.0),
                   max_trials_per_point=40_000)
    for kind in ("dft", "uniform")
]

def pep_curves():
    for scheme in ("unitary", "uniform"):
        rng = make_rng(1, (30,))
        for snr in (10.0, 20.0, 30.0):
            pep_qfunction_mc(scheme, EXAMPLE1_DELTA, dims, snr, 50_000, rng)

for run in (lambda: simulate_bers(sweeps), pep_curves):
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's mallopt")
def test_repeated_kernels_reuse_their_pages():
    # importing mlnsim keeps freed arrays in the heap, so the kernels, which allocate
    # afresh for every chunk and slice, fault in almost no page on a repeated call;
    # glibc's default thresholds would fault in thousands
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               MLNSIM_THREADS="2", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _REPEATED_KERNELS], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    ber, pep = (int(v) for v in run.stdout.split())
    assert ber < 500 and pep < 500, f"minor faults of a repeated call: BER sweep {ber}, PEP curve {pep}"


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", [lambda name: object(), _no_c_library], ids=["no-mallopt", "no-library"])
def test_allocator_setting_skipped_without_mallopt(monkeypatch, library):
    monkeypatch.setattr(mlnsim.ctypes, "CDLL", library)
    assert mlnsim._keep_freed_arrays_mapped() is None


def test_consecutive_sweeps_run_on_one_pool(monkeypatch):
    # an executor names its threads "ThreadPoolExecutor-<k>_<i>" with its own k, so the
    # chunks of two calls share one prefix only when both calls run on the same pool
    _threads(monkeypatch, 2)
    names = []
    score = simulate._score_chunk

    def spy(*args):
        names.append(threading.current_thread().name)
        return score(*args)

    monkeypatch.setattr(simulate, "_score_chunk", spy)
    sweep = SnrSweepConfig(
        dims=SystemDims(2, 2, 2, 2), query_kind="dft", codebook=_antipodal(), snr_grid_db=(0.0,),
        max_trials_per_point=20_000, target_error_events=10**6,
    )
    for _ in range(2):
        simulate_ber(sweep)
    # every chunk of the 20k-block layout (1k, 1k, 2k, 4k, 8k, 4k), once per call
    assert len(names) == 2 * 6 == 2 * (len(_edges(20_000)) - 1)
    assert len({name.rpartition("_")[0] for name in names}) == 1, names


# a sweep, then a second one in a forked child, which a 20 s alarm ends if the sweep hangs;
# prints the child's exit code
_SWEEP_IN_FORKED_CHILD = """
import os
import signal
from mlnsim import EXAMPLE1_DELTA, SnrSweepConfig, SystemDims, pairwise_codebook_from_delta, simulate_ber

sweep = SnrSweepConfig(dims=SystemDims(2, 2, 2, 2), query_kind="dft",
                       codebook=pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0], snr_grid_db=(0.0, 6.0),
                       max_trials_per_point=20_000)
first = simulate_ber(sweep).to_csv()
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if simulate_ber(sweep).to_csv() == first else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_sweeps_on_its_own_pool():
    # the child inherits the parent's pool but not its threads; a submit to it would never run
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               MLNSIM_THREADS="2", OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", _SWEEP_IN_FORKED_CHILD], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0"], f"the forked child's exit code: {run.stdout} {run.stderr}"


class TestSimulateBer:
    def test_noise_free_limit(self):
        sweep = SnrSweepConfig(
            dims=SystemDims(2, 1, 2, 2), query_kind="dft", codebook=repetition_bpsk(2),
            snr_grid_db=(120.0,), max_trials_per_point=10_000,
            target_error_events=1, seed=5,
        )
        point = simulate_ber(sweep).points[0]
        assert point.ber == 0.0
        assert point.trials == 10_000
        assert not point.resolved

    def test_grid_past_noise_level_range_rejected(self):
        # 10**(snr/10) or its inverse over- or underflows past about +-3082.5 dB
        for grid in [(-5000.0, 0.0), (0.0, 4000.0), (-3100.0, 0.0, 3100.0)]:
            with pytest.raises(ValueError, match="^snr_grid_db:"):
                SnrSweepConfig(
                    dims=SystemDims(2, 2, 2, 2), query_kind="dft", codebook=uncoded_bpsk(2, 2),
                    snr_grid_db=grid,
                )

    @pytest.mark.parametrize(
        "field, least, value",
        [("seed", 0, -1), ("seed", 0, 1.5), ("seed", 0, True), ("max_trials_per_point", 1, 15_000.5),
         ("max_trials_per_point", 1, 0), ("target_error_events", 1, 2.5), ("target_error_events", 1, True)],
    )
    def test_bad_count_or_seed_is_named(self, field, least, value):
        # a negative seed or a fractional cap would otherwise fail inside the sweep, without its name
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= {least}, got"):
            SnrSweepConfig(
                dims=SystemDims(2, 2, 2, 2), query_kind="dft", codebook=uncoded_bpsk(2, 2),
                snr_grid_db=(0.0,), **{field: value},
            )

    def test_reproducible_bit_for_bit(self, monkeypatch):
        sweep = SnrSweepConfig(
            dims=SystemDims(2, 2, 2, 2), query_kind="dft", codebook=_antipodal(),
            snr_grid_db=(0.0, 4.0, 8.0), max_trials_per_point=30_000,
            target_error_events=100, seed=6,
        )
        a = simulate_ber(sweep)
        b = simulate_ber(sweep)
        assert a.to_csv() == b.to_csv()
        # and independent of worker count
        _threads(monkeypatch, 1)
        c = simulate_ber(sweep)
        assert a.to_csv() == c.to_csv()

    def test_sweep_draws_each_block_once(self, monkeypatch):
        # one draw stream per sweep: max_trials blocks of H, G and W, not one per point
        _threads(monkeypatch, 2)
        _assert_draws_each_block_once(monkeypatch, ("uniform",), lambda s: [simulate_ber(s[0])])

    def test_byte_identical_across_worker_counts(self, monkeypatch):
        # the points stop at three different chunks of the 70k layout (1k, 1k, 2k, 4k, 8k,
        # then 10k each and 4k last), two of them mid-layout
        sweep = SnrSweepConfig(
            dims=SystemDims(2, 1, 2, 2), query_kind="dft", codebook=uncoded_bpsk(2, 1),
            snr_grid_db=(4.0, 10.0, 16.0), max_trials_per_point=70_000,
            target_error_events=2_000, seed=10,
        )
        csvs = []
        for w in (1, 2, 3):
            _threads(monkeypatch, w)
            csvs.append(simulate_ber(sweep).to_csv())
        assert csvs[0] == csvs[1] == csvs[2]
        assert [p.trials for p in BerCurve.from_csv(csvs[0]).points] == [26_000, 56_000, 70_000]

    def test_point_stops_after_its_target_batch(self):
        sweep = SnrSweepConfig(
            dims=SystemDims(2, 2, 2, 2), query_kind="dft", codebook=_antipodal(),
            snr_grid_db=(0.0, 40.0), max_trials_per_point=100_000,
            target_error_events=300, seed=11,
        )
        # 0 dB stops at the end of the 8k-block chunk that takes it past 300 events
        low, high = simulate_ber(sweep).points
        assert (low.trials, high.trials) == (16_000, 100_000)
        assert low.error_events >= 300 and high.error_events < 300

    def test_bad_threads_env_is_named(self, monkeypatch):
        for env in ("abc", "0", "-2"):
            monkeypatch.setenv("MLNSIM_THREADS", env)
            with pytest.raises(ValueError, match=f"MLNSIM_THREADS must be an integer >= 1, got '{env}'"):
                simulate._worker_count()

    def test_short_last_chunk_byte_identical_across_worker_counts(self, monkeypatch):
        # a 25k cap draws chunks of 10k, 10k and then 5k blocks, so a worker's
        # arrays are reused for a shorter chunk than they were made for
        sweep = SnrSweepConfig(
            dims=SystemDims(2, 2, 2, 2), query_kind="dft", codebook=uncoded_bpsk(2, 2),
            snr_grid_db=(0.0, 8.0, 16.0, 24.0), max_trials_per_point=25_000,
            target_error_events=10**6, seed=12,
        )
        csvs = []
        for w in (1, 2, 3):
            _threads(monkeypatch, w)
            csvs.append(simulate_ber(sweep).to_csv())
        assert csvs[0] == csvs[1] == csvs[2]
        assert all(p.trials == 25_000 for p in BerCurve.from_csv(csvs[0]).points)

    def test_unitary_needs_square_block(self):
        with pytest.raises(ValueError, match="T == M"):
            SnrSweepConfig(
                dims=SystemDims(3, 1, 2, 2), query_kind="dft", codebook=repetition_bpsk(2),
                snr_grid_db=(0.0,),
            )

    def test_hadamard_needs_power_of_two_at_construction(self):
        # the sweep would otherwise construct and fail when it builds its query
        with pytest.raises(ValueError, match="power of 2"):
            SnrSweepConfig(
                dims=SystemDims(3, 1, 2, 3), query_kind="hadamard", codebook=repetition_bpsk(3),
                snr_grid_db=(0.0,),
            )

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            SnrSweepConfig(
                dims=SystemDims(2, 1, 2, 2), query_kind="dft", codebook=repetition_bpsk(2),
                snr_grid_db=(4.0, 0.0),
            )

    def test_multibit_codebook_counts_bit_errors(self):
        sweep = SnrSweepConfig(
            dims=SystemDims(2, 1, 1, 2), query_kind="dft", codebook=uncoded_bpsk(2, 1),
            snr_grid_db=(8.0,), max_trials_per_point=20_000,
            target_error_events=500, seed=7,
        )
        point = simulate_ber(sweep).points[0]
        assert 0.0 < point.ber < 0.5
        assert point.ci_low <= point.ber <= point.ci_high


def _assert_draws_each_block_once(monkeypatch, kinds, run):
    """run(sweeps), one sweep per query kind, samples max_trials blocks of H, G and W in all."""
    drawn = []
    fill = linalg._fill

    def counting(out, rng):
        drawn.append(out.size)
        return fill(out, rng)

    monkeypatch.setattr(linalg, "_fill", counting)
    dims = SystemDims(2, 2, 3, 2)
    sweeps = [
        SnrSweepConfig(
            dims=dims, query_kind=kind, codebook=_antipodal(),
            snr_grid_db=(20.0, 30.0, 40.0), max_trials_per_point=30_000,
            target_error_events=10**6, seed=9,
        )
        for kind in kinds
    ]
    curves = run(sweeps)
    assert all(p.trials == 30_000 for c in curves for p in c.points)
    # H, G and W of each chunk of the 30k layout (1k, 1k, 2k, 4k, 8k, 10k, 4k), each drawn once
    assert len(drawn) == 3 * 7 == 3 * (len(_edges(30_000)) - 1)
    assert sum(drawn) == 30_000 * (dims.M * dims.L + dims.L * dims.N + dims.T * dims.N)


def _edges(cap):
    """The start of each chunk of a sweep with trial cap cap, and then cap."""
    edges = [0]
    while edges[-1] < cap:
        edges.append(simulate._chunk_end(edges[-1], cap))
    return edges


def _chunk_spy(monkeypatch, slow=None):
    """Record each chunk's scored noise scales per scheme and its tallies, keyed by chunk index;
    slow maps a chunk index to seconds slept before it is scored."""
    seen = {}
    score = simulate._score_chunk

    def spy(config, schemes, words, weights, key, n):
        time.sleep((slow or {}).get(key[1], 0.0))
        tallies = score(config, schemes, words, weights, key, n)
        seen[key[1]] = ([stds.copy() for _, stds in schemes], tallies)
        return tallies

    monkeypatch.setattr(simulate, "_score_chunk", spy)
    return seen


def _staggered_sweep(**changes):
    """A sweep whose points stop at different chunks: the noisiest in the first, the quietest at the cap."""
    return SnrSweepConfig(**{
        "dims": SystemDims(2, 2, 2, 2), "query_kind": "dft", "codebook": _antipodal(),
        "snr_grid_db": (0.0, 3.0, 6.0, 9.0, 12.0, 40.0), "max_trials_per_point": 60_000,
        "target_error_events": 150, "seed": 15, **changes,
    })


def _noise_stds(sweep):
    return np.sqrt(1.0 / 10.0 ** (np.array(sweep.snr_grid_db) / 10.0))


class TestChunkStream:
    """The fixed chunk layout, counted in chunk order, with each chunk's points fixed by counted results."""

    def test_layout(self):
        assert list(_edges(30_000)) == [0, 1_000, 2_000, 4_000, 8_000, 16_000, 26_000, 30_000]
        assert list(_edges(1_500)) == [0, 1_000, 1_500]
        assert list(_edges(96)) == [0, 96]

    def test_huge_cap_draws_what_its_points_need(self, monkeypatch):
        # the layout is laid out as chunks are taken, so a cap of 10^15 blocks costs nothing
        # while its one point stops after the first chunk
        seen = _chunk_spy(monkeypatch)
        sweep = _staggered_sweep(snr_grid_db=(0.0,), target_error_events=10, max_trials_per_point=10**15)
        assert simulate_ber(sweep).points[0].trials == 1_000
        assert 0 in seen and set(seen) <= {0, 1}  # chunk 1 may run while chunk 0 is scored

    @pytest.mark.parametrize("workers", [1, 2])
    def test_point_stops_at_first_chunk_past_its_target(self, monkeypatch, workers):
        # each point's events, bit errors and trials are the spy's tallies summed in chunk order
        # up to the first chunk end at which the events reach the target (or the cap)
        _threads(monkeypatch, workers)
        seen = _chunk_spy(monkeypatch)
        sweep = _staggered_sweep()
        curve = simulate_ber(sweep)
        edges = _edges(sweep.max_trials_per_point)
        stds = _noise_stds(sweep)
        stops = []
        for i, point in enumerate(curve.points):
            events = bits = 0
            for k in range(len(edges) - 1):
                (scored,), tallies = seen[k]
                j = int(np.flatnonzero(scored == stds[i])[0])  # the point is scored while it runs
                events += int(tallies[0, j])
                bits += int(tallies[1, j])
                if events >= sweep.target_error_events or k == len(edges) - 2:
                    break
            stops.append(k)
            assert (point.error_events, point.trials) == (events, edges[k + 1]), i
            assert point.ber * point.trials * sweep.codebook.bits_per_block == pytest.approx(bits, abs=1e-6)
        # the points stop at several chunks, the last at the cap
        assert stops == sorted(stops) and stops[-1] == len(edges) - 2 and len(set(stops)) >= 4, stops

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_scored_set_is_the_half_progress_snapshot(self, monkeypatch, workers):
        # chunk k scores exactly the points still running once every chunk ending at or
        # before half its start has been counted, not those running when it is drawn
        _threads(monkeypatch, workers)
        seen = _chunk_spy(monkeypatch)
        sweep = _staggered_sweep()
        curve = simulate_ber(sweep)
        edges = list(_edges(sweep.max_trials_per_point))
        stop = [edges.index(p.trials) - 1 for p in curve.points]  # the chunk each point stopped at
        stds = _noise_stds(sweep)
        assert sorted(seen) == list(range(len(edges) - 1))
        late = 0
        for k, ((scored,), _) in seen.items():
            counted = sum(1 for end in edges[1:] if 2 * end <= edges[k])
            assert list(scored) == [v for v, s in zip(stds, stop) if s >= counted], k
            late += sum(counted <= s < k for s in stop)
        assert late > 0  # some chunk scores a point that stopped at a chunk before it

    def test_slow_first_chunk_changes_nothing(self, monkeypatch):
        # with chunk 0 held back, later chunks are scored before it is counted
        sweep = _staggered_sweep()
        _threads(monkeypatch, 1)
        expected = simulate_ber(sweep).to_csv()
        _threads(monkeypatch, 3)
        seen = _chunk_spy(monkeypatch, slow={0: 0.3})
        assert simulate_ber(sweep).to_csv() == expected
        assert list(seen)[0] != 0  # chunk 0 finished after another chunk

    def test_many_small_chunks_under_fast_thread_switching(self, monkeypatch):
        # a lost update to the shared count would change a tally, a trial count or the scored
        # sets: 4 loops (more than the cores of a small machine) through 140 chunks of at most 60
        # blocks, switching threads every microsecond, give the single loop's curves
        monkeypatch.setattr(simulate, "_FIRST_CHUNK", 10)
        monkeypatch.setattr(simulate, "_CHUNK", 60)
        sweeps = [
            dataclasses.replace(s, max_trials_per_point=8_000, target_error_events=150) for s in _joint_sweeps()
        ]
        assert len(_edges(8_000)) - 1 > 130
        _threads(monkeypatch, 1)
        expected = [c.to_csv() for c in simulate_bers(sweeps)]
        _threads(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert [c.to_csv() for c in simulate_bers(sweeps)] == expected
        finally:
            sys.setswitchinterval(interval)
        trials = {p.trials for c in map(BerCurve.from_csv, expected) for p in c.points}
        assert len(trials) >= 3  # the points stop at several chunks

    def test_failed_loop_stops_the_others(self, monkeypatch):
        # the exception propagates, the other loops stop at their next chunk, and the pool
        # runs the next sweep as if nothing had happened
        sweep = _staggered_sweep(target_error_events=10**6, max_trials_per_point=100_000)
        _threads(monkeypatch, 1)
        expected = simulate_ber(sweep).to_csv()
        _threads(monkeypatch, 2)
        calls = []
        score = simulate._score_chunk

        def failing(config, schemes, words, weights, key, n):
            calls.append(key[1])
            if key[1] == 3:
                raise RuntimeError("chunk 3 failed")
            return score(config, schemes, words, weights, key, n)

        monkeypatch.setattr(simulate, "_score_chunk", failing)
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            simulate_ber(sweep)
        _wait_for_idle_pool(2)
        # chunk 3 fails at once; chunk 4 needs only chunks 0-2 counted and may still run, while
        # chunk 5 waits on chunk 3, so it and the 8 chunks after it never run
        assert 3 in calls and len(calls) <= 5, calls
        monkeypatch.setattr(simulate, "_score_chunk", score)
        assert simulate_ber(sweep).to_csv() == expected

    def test_interrupted_caller_stops_the_loops(self, monkeypatch):
        # a KeyboardInterrupt in the caller's wait, once chunk 2 runs, halts every loop
        sweep = _staggered_sweep(target_error_events=10**6, max_trials_per_point=100_000)
        _threads(monkeypatch, 2)
        calls = []
        running, interrupted = threading.Event(), threading.Event()
        score = simulate._score_chunk

        def held(config, schemes, words, weights, key, n):
            calls.append(key[1])
            if key[1] == 2:
                running.set()
                interrupted.wait(60)
            return score(config, schemes, words, weights, key, n)

        def interrupted_wait(future, timeout=None):
            running.wait(60)
            interrupted.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(simulate, "_score_chunk", held)
        with monkeypatch.context() as m:
            m.setattr(concurrent.futures.Future, "result", interrupted_wait)
            with pytest.raises(KeyboardInterrupt):
                simulate_ber(sweep)
        _wait_for_idle_pool(2)
        assert 2 in calls and len(calls) < len(_edges(100_000)) - 1, calls


def _wait_for_idle_pool(workers):
    """Return once every thread of the pool of this many workers is free: a task of each meets at a barrier."""
    barrier = threading.Barrier(workers, timeout=60)
    for task in [simulate._pool(workers).submit(barrier.wait) for _ in range(workers)]:
        task.result()


def _joint_sweeps(**changes):
    """Two sweeps on one block layout; changes apply to the second."""
    base = dict(
        dims=SystemDims(2, 2, 2, 2), codebook=uncoded_bpsk(2, 2), max_trials_per_point=70_000, seed=13,
    )
    first = SnrSweepConfig(query_kind="dft", snr_grid_db=(0.0, 6.0), target_error_events=300, **base)
    second = SnrSweepConfig(
        **{**base, "query_kind": "uniform", "snr_grid_db": (4.0, 12.0, 20.0, 28.0),
           "target_error_events": 2_000, **changes}
    )
    return first, second


class TestSimulateBers:
    def test_equals_separate_sweeps_for_any_worker_count(self, monkeypatch):
        # the dft sweep stops after the first two chunks (1k and 1k blocks), while
        # the uniform one runs on through every chunk to the 70k cap
        sweeps = _joint_sweeps()
        _threads(monkeypatch, 1)
        separate = [simulate_ber(s).to_csv() for s in sweeps]
        for workers in (1, 2, 3):
            _threads(monkeypatch, workers)
            joint = [c.to_csv() for c in simulate_bers(sweeps)]
            assert joint == separate, workers
        first, second = (BerCurve.from_csv(c).points for c in separate)
        assert [p.trials for p in first] == [1_000, 2_000]
        assert second[-1].trials == 70_000

    def test_pair_draws_each_block_once(self, monkeypatch):
        # not once per query scheme
        _threads(monkeypatch, 2)
        _assert_draws_each_block_once(monkeypatch, ("dft", "uniform"), simulate_bers)

    def test_equal_configs_compare_and_hash_equal(self):
        # every field of a config, its codebook included, compares by value
        first, second = _joint_sweeps(), _joint_sweeps()
        assert first == second and hash(first) == hash(second)
        assert first[0] != first[1]

    def test_equal_codebooks_share_a_sweep(self):
        # the same codewords in two Codebook objects fix the same blocks
        sweeps = _joint_sweeps(codebook=uncoded_bpsk(2, 2))
        assert sweeps[0].codebook is not sweeps[1].codebook
        joint = simulate_bers(sweeps)
        assert [c.to_csv() for c in joint] == [simulate_ber(s).to_csv() for s in sweeps]

    @pytest.mark.parametrize(
        "field,changes",
        [
            ("dims", {"dims": SystemDims(2, 2, 3, 2)}),
            # the same words in another order
            ("codebook", {"codebook": codes.Codebook(tuple(-c for c in uncoded_bpsk(2, 2).codewords))}),
            ("seed", {"seed": 14}),
            ("max_trials_per_point", {"max_trials_per_point": 60_000}),
            # the first field that differs is named
            ("seed", {"seed": 14, "max_trials_per_point": 60_000}),
        ],
    )
    def test_configs_must_share_the_block_layout(self, field, changes):
        with pytest.raises(ValueError, match=f"^{field}: the configs of one sweep must share"):
            simulate_bers(_joint_sweeps(**changes))

    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="^configs:"):
            simulate_bers([])


class TestBerCurveCsv:
    def test_roundtrip(self):
        curve = BerCurve(
            (
                BerPoint(0.0, 0.25, 0.24, 0.26, 5000, 20_000),
                BerPoint(2.0, 0.8125e-1, 0.08, 0.083, 1300, 16_000),
            )
        )
        assert BerCurve.from_csv(curve.to_csv()) == curve

    def test_header_check(self):
        with pytest.raises(ValueError, match="header"):
            BerCurve.from_csv("wrong,header\n1,2\n")

    def test_short_row_names_line(self):
        with pytest.raises(ValueError, match="line 2"):
            BerCurve.from_csv(f"{simulate.CSV_HEADER}\n1,2\n")

    def test_non_numeric_field_names_line_and_column(self):
        with pytest.raises(ValueError, match="line 3, column 'error_events'"):
            BerCurve.from_csv(f"{simulate.CSV_HEADER}\n0.0,0.1,0.0,0.2,5,100\n2.0,0.1,0.0,0.2,x,100\n")

    def test_points_must_be_ordered(self):
        with pytest.raises(ValueError, match="ordered"):
            BerCurve((BerPoint(4.0, 0.1, 0.09, 0.11, 100, 1000),
                      BerPoint(0.0, 0.2, 0.19, 0.21, 100, 1000)))


class TestGainAtBer:
    @staticmethod
    def _synthetic(offset_db: float) -> BerCurve:
        pts = []
        for snr in range(0, 31, 2):
            ber = 10.0 ** (-(snr - offset_db) / 10.0)
            pts.append(BerPoint(float(snr), ber, ber, ber, 1000, 100_000))
        return BerCurve(tuple(pts))

    def test_identical_curves(self):
        c = self._synthetic(0.0)
        assert gain_at_ber(c, c, 1e-2) == pytest.approx(0.0)

    def test_constructed_offset(self):
        assert gain_at_ber(self._synthetic(0.0), self._synthetic(3.0), 1e-2) == pytest.approx(
            3.0, abs=1e-6
        )

    def test_level_not_crossed_names_curve(self):
        good = self._synthetic(0.0)
        flat = BerCurve(
            tuple(BerPoint(float(s), 0.4, 0.39, 0.41, 1000, 10_000) for s in range(0, 31, 2))
        )
        with pytest.raises(LevelNotCrossedError, match="curve_b"):
            gain_at_ber(good, flat, 1e-2)

    def test_level_met_by_two_points_crosses_at_the_first(self):
        # interpolating between two points at the level itself would divide 0 by 0
        pts = [(0.0, 1e-2), (2.0, 1e-2), (4.0, 1e-3)]
        flat = BerCurve(tuple(BerPoint(s, b, b, b, 1000, 100_000) for s, b in pts))
        assert gain_at_ber(flat, self._synthetic(0.0), 1e-2) == pytest.approx(20.0)

    def test_unresolved_points_excluded(self):
        pts = list(self._synthetic(0.0).points)
        pts[-1] = BerPoint(pts[-1].snr_db, 1e-9, 0.0, 1e-8, 3, 100_000)  # unresolved tail
        curve = BerCurve(tuple(pts))
        with pytest.raises(LevelNotCrossedError):
            gain_at_ber(curve, curve, 1e-3 * 1e-26)  # absurd level below resolved range

    def test_bad_level(self):
        c = self._synthetic(0.0)
        with pytest.raises(ValueError):
            gain_at_ber(c, c, 1.5)
