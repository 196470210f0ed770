"""Coded BER link simulation with ML detection and perfect receiver CSI.

Per SNR point, blocks are simulated until a target number of error events
(blocks with at least one bit error) is reached or a trial cap is hit.
The SNR convention ties the simulated channel to the analytical PEP
expressions: codebooks carry unit average energy per slot, query rows
have unit norm, and the per-entry complex noise variance is 1 / gbar with
gbar = 10**(snr_db / 10).

A sweep draws each batch of blocks (_BATCH_SCHEDULE) once and scores it at
every point still below its event target and the cap. A batch is split
into chunks of _CHUNK blocks; chunk c of batch b draws H, G, the sent
codewords and unit-variance noise W, in that order, from the substream
(1, b, c) of the sweep seed. So a sweep samples as many blocks as its
longest point needs, a sweep is reproducible bit-for-bit regardless of
worker scheduling, and each point still counts the blocks of the batches
it was active for. Points share blocks and so are correlated across SNR;
each point's own estimate and Wilson interval are as before.

ML detection scores all K codewords of a block with one real GEMM. With
X = Q H and S_j = (X o C_j) G, the metric is the sufficient statistic
||R - S_j||^2 - ||R||^2 = ||S_j||^2 - 2 Re<R, S_j>. It is linear in two
sets of per-block features: the T x L x L terms (x_t x_t^H) o (G G^H),
which give ||S_j||^2 against the weights c_t c_t^H, and the T x L terms
conj(R G^H) o X, which give Re<R, S_j> against c_j. Split into real and
imaginary parts (real parts alone for a real codebook), the features F
(n x F) and the weights (K x F, Codebook.metric_weights) give every
distance as F @ weights.T; the argmin keeps the lowest index on ties. With
R = S + s W the metric is base + s noise, where base is the metric of the
noise-free S and noise = -2 Re<W, S_j> comes from the cross features of W
alone. Both are SNR-free, so each point costs one scaled sum and argmin.
Blocks are laid out last (L x N x n), so G G^H and R G^H are products of
length-n vectors. A chunk is worked through in slices of blocks whose
base, noise and spare arrays hold at most _METRIC_BUDGET float64s
together (1 MiB), but at least _MIN_SLICE blocks each, so those of a
2^16-word codebook take 3 x 32 x 2^16 float64s (48 MiB) at most.

The points of a slice are scored from the noisiest down, the first on
every block and each later one only on the blocks in error at the point
before (while more than half of the blocks scored at a point are in
error, the next point scores the same blocks again, which costs less than
gathering the rows in error). That gives the tallies of scoring every block at every point: with
R = S_sent at s = 0, the sent word's metric is the lowest there, and each
word's metric is linear in s, so f_sent - f_j is a line that is <= 0 at
s = 0. A block detected correctly at scale s' has that line <= 0 at s'
too, so it is < 0 inside (0, s') unless it is 0 throughout, which is an
identical line whose tie went to the lower index at s' already. So a block
correct at one point is correct at every less noisy one (exactly so in real
arithmetic; in floating point only a block within rounding of a tie could
differ).

Each pool worker keeps one _Workspace for the whole sweep. The chunk's
H, G and W, every slice array and the metric's temporaries are views of
arrays it allocates on first use and enlarges only for a larger chunk or
slice than any before, so later chunks allocate no large array and do not fault in fresh pages when malloc
has returned freed memory to the system. The workspace goes with the pool
at the end of the sweep.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemDims, _blocks_last, gram, mix
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
# a batch is drawn in chunks of this many blocks, each from its own substream;
# it divides every scheduled batch size, so the first batch splits in two
_CHUNK = 10_000
# a block slice's metric arrays hold at most this many float64s together (1 MiB,
# so they stay in cache), but a slice has at least _MIN_SLICE blocks so that the
# weights of a large codebook are read once per _MIN_SLICE blocks
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
        rows = csv_rows(text, CSV_HEADER, (float, float, float, float, int, int))
        return cls(tuple(BerPoint(*f) for f in rows))


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


class _Workspace(threading.local):
    """The arrays each pool worker reuses for every chunk and slice of one sweep.

    A threading.local: every thread that uses it sees its own arrays.
    view(name, shape) is a C-contiguous view of the first entries of the
    flat array kept under name, which is allocated (or grown) only when a
    larger view is asked for, so short chunks and slices reuse its memory.
    A name's contents are overwritten by the next call that asks for it.
    """

    def __init__(self):
        self._flat = {}

    def view(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _scratch(ws: _Workspace | None, name: str, shape: tuple, dtype=complex) -> np.ndarray:
    """An array to compute into: a view of ws's array under name, or a new one without ws."""
    return np.empty(shape, dtype) if ws is None else ws.view(name, shape, dtype)


def _real_rows(z: np.ndarray, parts: int) -> tuple:
    """z (... x n) as real feature rows: views of Re then Im, or of Re alone when parts == 1."""
    z = z.reshape(-1, z.shape[-1])
    return (z.real, z.imag)[:parts]


def _cross(X: np.ndarray, G: np.ndarray, R: np.ndarray, ws: _Workspace | None) -> np.ndarray:
    """T x L x n: X o conj(R G^H), whose pairing with c_j gives Re<R, S_j>."""
    T, L, n = X.shape
    Rc = np.conjugate(R[:, None], out=_scratch(ws, "conj", (T, 1) + R.shape[1:]))
    prod = np.multiply(Rc, G, out=_scratch(ws, "prod", (T, L) + R.shape[1:]))
    cross = np.sum(prod, axis=2, out=_scratch(ws, "cross", (T, L, n)))
    return np.multiply(X, cross, out=cross)


def _metric(
    X: np.ndarray,
    G: np.ndarray,
    R: np.ndarray,
    weights: np.ndarray,
    *,
    out: np.ndarray | None = None,
    ws: _Workspace | None = None,
) -> np.ndarray:
    """||R - (X o C_j) G||^2 - ||R||^2 for every block and codeword, n x K.

    Arrays are blocks-last: X is T x L x n, G is L x N x n, R is T x N x n.
    weights are Codebook.metric_weights; their width tells whether they
    carry Im parts (see codes._metric_weights). The result goes to out, and
    the temporaries to ws's arrays, when given.
    """
    T, L, n = X.shape
    parts = weights.shape[1] // (T * L * (L + 1))
    Xc = np.conjugate(X[:, None], out=_scratch(ws, "conj", (T, 1, L, n)))
    energy = np.multiply(X[:, :, None], Xc, out=_scratch(ws, "energy", (T, L, L, n)))
    energy *= gram(G, out=_scratch(ws, "gram", (L, L, n)))
    rows = _real_rows(energy, parts) + _real_rows(_cross(X, G, R, ws), parts)
    feats = np.concatenate(rows, out=_scratch(ws, "feats", (len(weights[0]), n), float))
    return np.matmul(feats.T, weights.T, out=out)


def _noise_metric(
    X: np.ndarray,
    G: np.ndarray,
    W: np.ndarray,
    weights: np.ndarray,
    *,
    out: np.ndarray | None = None,
    ws: _Workspace | None = None,
) -> np.ndarray:
    """-2 Re<W, S_j> for every block and codeword, n x K.

    The metric is linear in the noise: _metric(X, G, S + s W, weights) equals
    _metric(X, G, S, weights) + s _noise_metric(X, G, W, weights). out and ws
    are as for _metric.
    """
    T, L, n = X.shape
    parts = weights.shape[1] // (T * L * (L + 1))
    rows = _real_rows(_cross(X, G, W, ws), parts)
    feats = np.concatenate(rows, out=_scratch(ws, "feats", (parts * T * L, n), float))
    return np.matmul(feats.T, weights[:, -parts * T * L:].T, out=out)


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
    d = _metric(X[..., None], ch.G[..., None], R[..., None], codebook.metric_weights)
    return int(np.argmin(d[0]))


def _score_points(
    base: np.ndarray,
    noise: np.ndarray,
    sent: np.ndarray,
    noise_stds: np.ndarray,
    tallies: np.ndarray,
    spare: np.ndarray,
) -> None:
    """Add the error events and bit errors of n blocks at each noise scale to tallies.

    base + s noise (both n x K) is the metric at noise scale s, sent holds the
    sent word indices and spare is an n x K array to work in; base, noise and
    spare are overwritten. noise_stds must be descending: the first scale
    scores every block in place and each later one only the blocks in error
    at the scale before (or, while those are more than half of the blocks
    scored, the same blocks again), which gives the tallies of scoring every
    block at every scale (see the module docstring). Equal scales give equal
    metrics and are allowed, as are infinite ones, after which every block
    is scored again: SNRs past the under- or overflow of the noise level
    give such scales.
    """
    if not np.all(noise_stds[1:] <= noise_stds[:-1]):
        raise ValueError(f"noise scales must be descending, got {noise_stds}")
    for i, noise_std in enumerate(noise_stds):
        metric = spare[: len(sent)]
        np.multiply(noise, noise_std, out=metric)
        metric += base
        detected = np.argmin(metric, axis=1)
        wrong = np.flatnonzero(detected != sent)
        tallies[0, i] += wrong.size
        tallies[1, i] += np.sum(np.bitwise_count(sent[wrong] ^ detected[wrong]))
        if noise_std == np.inf:
            continue  # infinite metrics tell nothing of the blocks at finite scales
        if wrong.size == 0 or i == len(noise_stds) - 1:
            break
        if 2 * wrong.size > len(sent):
            # gathering most rows costs more than scoring them all again, and the
            # rows scored in excess are correct at every later scale
            continue
        # keep the rows in error: their noise moves to the spare rows, their base
        # to the noise rows, and the base rows become the spare
        noise, base, spare = (
            np.take(noise, wrong, axis=0, out=spare[: wrong.size], mode="clip"),
            np.take(base, wrong, axis=0, out=noise[: wrong.size], mode="clip"),
            base,
        )
        sent = sent[wrong]


def _score_chunk(
    config: SnrSweepConfig,
    Q: np.ndarray,
    words: np.ndarray,
    weights: np.ndarray,
    key: tuple,
    n: int,
    noise_stds: np.ndarray,
    ws: _Workspace,
) -> np.ndarray:
    """Error events and bit errors at each noise scale on one chunk of n blocks.

    words are the codebook's codewords blocks-last (T x L x K) and weights
    its metric weights. The chunk draws H, G, sent and unit-variance W from
    its own substream key, and works in the calling thread's arrays of ws.
    Returns a 2 x len(noise_stds) integer array (events, then bit errors).
    """
    M, L, N, T = config.dims.M, config.dims.L, config.dims.N, config.dims.T
    K = words.shape[-1]
    rng = make_rng(config.seed, key)
    H = sample_cn_matrix(n, M * L, rng, out=ws.view("H", (n, M * L))).reshape(n, M, L)
    G = sample_cn_matrix(n, L * N, rng, out=ws.view("G", (n, L * N))).reshape(n, L, N)
    sent = rng.integers(0, K, n)
    W = sample_cn_matrix(n, T * N, rng, out=ws.view("W", (n, T * N))).reshape(n, T, N)

    # base, noise and the scorer's spare share the budget
    step = max(_MIN_SLICE, _METRIC_BUDGET // (3 * max(weights.shape)))
    tallies = np.zeros((2, len(noise_stds)), dtype=np.int64)
    for a in range(0, n, step):
        sent_s = sent[a : a + step]
        k = len(sent_s)
        X = effective_forward(
            Q, _blocks_last(H[a : a + k], out=ws.view("Hs", (M, L, k))), out=ws.view("X", (T, L, k))
        )
        Gs = _blocks_last(G[a : a + k], out=ws.view("Gs", (L, N, k)))
        C = np.take(words, sent_s, axis=2, out=ws.view("C", (T, L, k)), mode="clip")
        S = mix(X, C, Gs, out=ws.view("S", (T, N, k)))
        Ws = _blocks_last(W[a : a + k], out=ws.view("Ws", (T, N, k)))
        base = _metric(X, Gs, S, weights, out=ws.view("base", (k, K), float), ws=ws)
        noise = _noise_metric(X, Gs, Ws, weights, out=ws.view("noise", (k, K), float), ws=ws)
        _score_points(base, noise, sent_s, noise_stds, tallies, ws.view("spare", (k, K), float))
    return tallies


def _worker_count(n_tasks: int, max_workers: int | None) -> int:
    if max_workers is None:
        max_workers = os.cpu_count() or 1
        env = os.environ.get("MLNSIM_THREADS")
        if env:
            try:
                threads = int(env)
            except ValueError:
                threads = 0
            if threads < 1:
                raise ValueError(f"MLNSIM_THREADS must be an integer >= 1, got {env!r}")
            max_workers = min(max_workers, threads)
    return max(1, min(max_workers, n_tasks))


def simulate_ber(config: SnrSweepConfig, max_workers: int | None = None) -> BerCurve:
    """Run the full SNR sweep and return the BER curve.

    Every batch of blocks is drawn once and scored at every SNR point that
    is still below its event target. Chunks of a batch run in a thread pool
    (capped by the MLNSIM_THREADS environment variable when max_workers is
    not given), each on its own substream of the config seed, so the result
    does not depend on scheduling. Under-resolved points (too few error
    events at the trial cap) are kept and flagged via BerPoint.resolved
    rather than failing the sweep.
    """
    Q = query_array(build_query(config.query_kind, config.dims, config.seed))
    grid = np.asarray(config.snr_grid_db)
    noise_stds = np.sqrt(1.0 / 10.0 ** (grid / 10.0))
    cap = config.max_trials_per_point
    events = np.zeros(len(grid), dtype=np.int64)
    bit_errors = np.zeros(len(grid), dtype=np.int64)
    trials = np.zeros(len(grid), dtype=np.int64)
    active = np.ones(len(grid), dtype=bool)
    drawn = 0
    batch = 0
    # read the cached codebook arrays once, before any worker can race to build them
    words = _blocks_last(config.codebook.stacked)
    weights = config.codebook.metric_weights
    largest_batch_chunks = -(-min(max(_BATCH_SCHEDULE), cap) // _CHUNK)
    workers = _worker_count(largest_batch_chunks, max_workers)
    ws = _Workspace()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while active.any():
            n = min(_BATCH_SCHEDULE[min(batch, len(_BATCH_SCHEDULE) - 1)], cap - drawn)
            idx = np.flatnonzero(active)
            tallies = pool.map(
                lambda c: _score_chunk(
                    config, Q, words, weights, (1, batch, c), min(_CHUNK, n - c * _CHUNK),
                    noise_stds[idx], ws,
                ),
                range(-(-n // _CHUNK)),
            )
            for t in tallies:  # in chunk order
                events[idx] += t[0]
                bit_errors[idx] += t[1]
            trials[idx] += n
            drawn += n
            batch += 1
            active &= (events < config.target_error_events) & (drawn < cap)

    points = []
    for snr_db, e, b, n in zip(config.snr_grid_db, events, bit_errors, trials):
        bits = int(n) * config.codebook.bits_per_block
        ci_low, ci_high = _wilson_interval(int(b), bits)
        points.append(BerPoint(snr_db, int(b) / bits, ci_low, ci_high, int(e), int(n)))
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
