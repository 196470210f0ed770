"""Coded BER link simulation with ML detection and perfect receiver CSI.

Per SNR point, blocks are simulated until a target number of error events
(blocks with at least one bit error) is reached or a trial cap is hit.
The SNR convention ties the simulated channel to the analytical PEP
expressions: codebooks carry unit average energy per slot, query rows
have unit norm, and the per-entry complex noise variance is 1 / gbar with
gbar = 10**(snr_db / 10).

Every point draws from its own deterministic substream of the sweep seed,
so a sweep is reproducible bit-for-bit regardless of worker scheduling.

ML detection scores all K codewords of a block with one real GEMM. With
X = Q H and S_j = (X o C_j) G, the metric is the sufficient statistic
||R - S_j||^2 - ||R||^2 = ||S_j||^2 - 2 Re<R, S_j>. It is linear in two
sets of per-block features: the T x L x L terms (x_t x_t^H) o (G G^H),
which give ||S_j||^2 against the weights c_t c_t^H, and the T x L terms
conj(R G^H) o X, which give Re<R, S_j> against c_j. Split into real and
imaginary parts, the features F (n x F) and the weights (K x F, built once
per point) give every distance as F @ weights.T; the argmin keeps the
lowest index on ties. Blocks are laid out last (L x N x n), so G G^H and
R G^H are products of length-n vectors. After sampling, a batch is worked
through in slices of blocks whose feature and metric matrices hold at most
_METRIC_BUDGET float64s (1 MiB), but at least _MIN_SLICE blocks, so the
metric of a 2^16-word codebook takes 32 x 2^16 float64s (16 MiB) at most.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemDims, _blocks_last, mix
from .codes import Codebook
from .csvio import csv_rows
from .linalg import DimensionMismatchError, make_rng, sample_cn_matrix
from .query import QUERY_KINDS, effective_forward, query_array, uniform_query, unitary_query

__all__ = [
    "SnrSweepConfig",
    "BerPoint",
    "BerCurve",
    "LevelNotCrossedError",
    "ml_detect",
    "simulate_ber",
    "gain_at_ber",
]

# points with fewer error events than this are kept but flagged unresolved
MIN_RESOLVED_EVENTS = 50

CSV_HEADER = "snr_db,ber,ci_low,ci_high,error_events,trials"

_BATCH_SCHEDULE = (20_000, 80_000, 200_000)
# a block slice's feature and metric matrices hold at most this many float64s
# (1 MiB, so they stay in cache), but a slice has at least _MIN_SLICE blocks so
# that the weights of a large codebook are read once per _MIN_SLICE blocks
_METRIC_BUDGET = 2**17
_MIN_SLICE = 32


class LevelNotCrossedError(ValueError):
    """A BER curve never crosses the requested level in its resolved range."""


@dataclass(frozen=True)
class SnrSweepConfig:
    """Everything that determines one BER sweep (including the seed)."""

    dims: SystemDims
    query_kind: str  # "uniform" or one of the unitary kinds
    codebook: Codebook
    snr_grid_db: tuple
    max_trials_per_point: int = 2_000_000
    target_error_events: int = 200
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(s) for s in self.snr_grid_db)
        object.__setattr__(self, "snr_grid_db", grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be strictly ascending")
        if self.query_kind not in QUERY_KINDS:
            raise ValueError(f"query_kind must be one of {QUERY_KINDS}, got {self.query_kind!r}")
        if self.target_error_events < 1 or self.max_trials_per_point < 1:
            raise ValueError("target_error_events and max_trials_per_point must be >= 1")
        d, cb = self.dims, self.codebook
        if (cb.T, cb.L) != (d.T, d.L):
            raise DimensionMismatchError(
                f"codebook is {cb.T}x{cb.L} but dims expect T={d.T}, L={d.L}"
            )
        if self.query_kind != "uniform" and d.T != d.M:
            raise ValueError(f"unitary query needs T == M, got T={d.T}, M={d.M}")


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    ber: float
    ci_low: float
    ci_high: float
    error_events: int
    trials: int

    @property
    def resolved(self) -> bool:
        return self.error_events >= MIN_RESOLVED_EVENTS


@dataclass(frozen=True)
class BerCurve:
    """BER estimates with 95% confidence intervals, ordered by SNR."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        snrs = [p.snr_db for p in pts]
        if any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("curve points must be ordered by snr_db")

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for p in self.points:
            lines.append(
                f"{p.snr_db!r},{p.ber!r},{p.ci_low!r},{p.ci_high!r},"
                f"{p.error_events},{p.trials}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "BerCurve":
        pts = (
            BerPoint(float(f[0]), float(f[1]), float(f[2]), float(f[3]), int(f[4]), int(f[5]))
            for f in csv_rows(text, CSV_HEADER)
        )
        return cls(tuple(pts))


def _wilson_interval(errors: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * float(np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)))
    return max(center - half, 0.0), min(center + half, 1.0)


def build_query(kind: str, dims: SystemDims, seed: int):
    """The query matrix a sweep config implies (deterministic per seed)."""
    if kind == "uniform":
        return uniform_query(dims.T, dims.M)
    return unitary_query(dims.M, kind, make_rng(seed, (0,)))


def _metric_weights(codewords: np.ndarray) -> np.ndarray:
    """K x F real weights that pair each codeword with the features of _metric.

    Row j holds c_j c_j^H per slot and -2 c_j as (Re, -Im) parts, so that
    Re(f w) = Re f Re w - Im f Im w is a dot product with the (Re, Im) features.
    """
    K = len(codewords)
    outer = codewords[:, :, :, None] * codewords[:, :, None, :].conj()  # K x T x L x L
    w = np.concatenate([outer.reshape(K, -1), -2.0 * codewords.reshape(K, -1)], axis=1)
    del outer  # a 2^16-word codebook's outer products take 64 MiB
    return np.concatenate([w.real, -w.imag], axis=1)


def _metric(X: np.ndarray, G: np.ndarray, R: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """||R - (X o C_j) G||^2 - ||R||^2 for every block and codeword, n x K.

    Arrays are blocks-last: X is T x L x n, G is L x N x n, R is T x N x n.
    """
    n = X.shape[-1]
    gram = np.sum(G[:, None] * G[None].conj(), axis=2)  # L x L x n: G G^H
    energy = X[:, :, None] * X[:, None].conj() * gram  # T x L x L x n
    cross = X * np.sum(R[:, None].conj() * G, axis=2)  # T x L x n: X o conj(R G^H)
    feats = np.concatenate([energy.reshape(-1, n), cross.reshape(-1, n)])
    return np.concatenate([feats.real, feats.imag]).T @ weights.T


def ml_detect(R: np.ndarray, q, ch: ChannelRealization, codebook: Codebook) -> int:
    """Index of the codeword minimizing ||R - ((Q H) o C_k) G||_F^2.

    Ties break toward the lowest index. The receiver is genie-aided: it
    knows H and G exactly.
    """
    R = np.asarray(R, dtype=complex)
    X = effective_forward(q, ch.H)
    if R.shape != (X.shape[0], ch.G.shape[1]):
        raise DimensionMismatchError(
            f"R must be {X.shape[0]}x{ch.G.shape[1]}, got {R.shape}"
        )
    weights = _metric_weights(np.stack(codebook.codewords))
    return int(np.argmin(_metric(X[..., None], ch.G[..., None], R[..., None], weights)[0]))


def _simulate_point(config: SnrSweepConfig, point_index: int, Q: np.ndarray) -> BerPoint:
    dims, cb = config.dims, config.codebook
    snr_db = config.snr_grid_db[point_index]
    gbar = 10.0 ** (snr_db / 10.0)
    noise_std = np.sqrt(1.0 / gbar)
    rng = make_rng(config.seed, (1, point_index))

    codewords = np.stack(cb.codewords)  # K x T x L
    words_last = _blocks_last(codewords)  # T x L x K
    weights = _metric_weights(codewords)
    n_words = len(cb)
    bits_per_block = cb.bits_per_block
    blocks_per_slice = max(_MIN_SLICE, _METRIC_BUDGET // max(weights.shape))

    bit_errors = 0
    error_events = 0
    trials = 0
    batch_idx = 0
    while error_events < config.target_error_events and trials < config.max_trials_per_point:
        n = min(
            _BATCH_SCHEDULE[min(batch_idx, len(_BATCH_SCHEDULE) - 1)],
            config.max_trials_per_point - trials,
        )
        batch_idx += 1

        H = sample_cn_matrix(n, dims.M * dims.L, rng).reshape(n, dims.M, dims.L)
        G = sample_cn_matrix(n, dims.L * dims.N, rng).reshape(n, dims.L, dims.N)
        sent = rng.integers(0, n_words, n)
        W = noise_std * sample_cn_matrix(n, dims.T * dims.N, rng).reshape(n, dims.T, dims.N)

        detected = np.empty(n, dtype=np.int64)
        for a in range(0, n, blocks_per_slice):
            s = slice(a, a + blocks_per_slice)
            X = effective_forward(Q, _blocks_last(H[s]))
            Gs = _blocks_last(G[s])
            R = mix(X, words_last[:, :, sent[s]], Gs) + _blocks_last(W[s])
            detected[s] = np.argmin(_metric(X, Gs, R, weights), axis=1)

        wrong = detected != sent
        error_events += int(np.sum(wrong))
        bit_errors += int(
            np.sum(np.bitwise_count(np.bitwise_xor(sent[wrong], detected[wrong])))
        )
        trials += n

    bits = trials * bits_per_block
    ber = bit_errors / bits
    ci_low, ci_high = _wilson_interval(bit_errors, bits)
    return BerPoint(snr_db, ber, ci_low, ci_high, error_events, trials)


def _worker_count(n_points: int, max_workers: int | None) -> int:
    if max_workers is None:
        max_workers = os.cpu_count() or 1
        env = os.environ.get("MLNSIM_THREADS")
        if env:
            try:
                max_workers = min(max_workers, max(1, int(env)))
            except ValueError:
                raise ValueError(f"MLNSIM_THREADS must be an integer, got {env!r}") from None
    return max(1, min(max_workers, n_points))


def simulate_ber(config: SnrSweepConfig, max_workers: int | None = None) -> BerCurve:
    """Run the full SNR sweep and return the BER curve.

    Points run in a thread pool (capped by the MLNSIM_THREADS environment
    variable when max_workers is not given), each on its own substream of
    the config seed, so the result does not depend on scheduling.
    Under-resolved points (too few error events at the trial cap) are kept
    and flagged via BerPoint.resolved rather than failing the sweep.
    """
    Q = query_array(build_query(config.query_kind, config.dims, config.seed))
    indices = range(len(config.snr_grid_db))
    workers = _worker_count(len(config.snr_grid_db), max_workers)
    if workers == 1:
        points = [_simulate_point(config, i, Q) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(lambda i: _simulate_point(config, i, Q), indices))
    return BerCurve(tuple(points))


def _crossing_snr(curve: BerCurve, ber_level: float, label: str) -> float:
    pts = [p for p in curve.points if p.resolved and p.ber > 0.0]
    for a, b in zip(pts, pts[1:]):
        if a.ber >= ber_level >= b.ber:
            if a.ber == b.ber:
                return a.snr_db
            f = (np.log10(ber_level) - np.log10(a.ber)) / (np.log10(b.ber) - np.log10(a.ber))
            return float(a.snr_db + f * (b.snr_db - a.snr_db))
    raise LevelNotCrossedError(
        f"{label} never crosses BER {ber_level:g} within its resolved range"
    )


def gain_at_ber(curve_a: BerCurve, curve_b: BerCurve, ber_level: float) -> float:
    """Horizontal dB gap between the SNRs at which each curve hits ber_level.

    Positive when curve_a reaches the level at a lower SNR than curve_b.
    SNR crossings use log-linear interpolation between resolved points.
    """
    if not 0.0 < ber_level < 1.0:
        raise ValueError(f"ber_level must be in (0, 1), got {ber_level}")
    snr_a = _crossing_snr(curve_a, ber_level, "curve_a")
    snr_b = _crossing_snr(curve_b, ber_level, "curve_b")
    return snr_b - snr_a
