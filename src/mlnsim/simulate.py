"""Coded BER link simulation with ML detection and perfect receiver CSI.

Per SNR point, blocks are simulated until a target number of error events
(blocks with at least one bit error) is reached or a trial cap is hit.
The SNR convention ties the simulated channel to the analytical PEP
expressions: codebooks carry unit average energy per slot, query rows
have unit norm, and the per-entry complex noise variance is 1 / gbar with
gbar = 10**(snr_db / 10) (``channel.snr_gain``).

A sweep draws each batch of blocks (_BATCH_SCHEDULE) once and scores it at
every point still below its event target and the cap. A batch is split
into chunks of _CHUNK blocks; chunk c of batch b draws H, G, the sent
codewords and unit-variance noise W, in that order, from the substream
(1, b, c) of the sweep seed. So a sweep samples as many blocks as its
longest point needs, a sweep is reproducible bit-for-bit regardless of
worker scheduling, and each point still counts the blocks of the batches
it was active for. Points share blocks and so are correlated across SNR;
each point's own estimate and Wilson interval are as before.

The query Q comes from its own substream (0,), so sweeps that differ only
in query_kind, grid or event target draw the same blocks: the curves of a
unitary-against-uniform comparison share every block (common random
numbers) and are positively correlated. simulate_bers runs such sweeps
together. Each chunk is drawn once and its H, G, W, sent words and the
query-free terms of its slices are shared; X = Q H, the metric and the
scoring are per sweep, and each sweep's curve is the one it gets alone. An
interval for a gain that treats the two curves as independent (such as the
Wilson bracket of the acceptance suite) is therefore conservative.

ML detection scores all K codewords of a block with one real GEMM. With
X = Q H and S_j = (X o C_j) G, the metric is the sufficient statistic
||R - S_j||^2 - ||R||^2 = ||S_j||^2 - 2 Re<R, S_j>. With R = S + s W it is
base + s noise: both are SNR-free, so each point costs one scaled sum and
argmin. base is linear in the T x L x L energy features
E = (x_t x_t^H) o (G G^H), against the weights c_t c_t^H, and in the T x L
cross features sum_l' E[t, l, l'] conj(c_tl') of the sent word c, which equal
X o conj(S G^H), against c_j: S itself is never formed. noise is linear in
the cross features X o V of W, with V = conj(W) G^T. Split into real and
imaginary parts (real parts alone for a real codebook), the features (n x F)
and the weights (K x F, Codebook.metric_weights) give every distance as one
product; the argmin keeps the lowest index on ties. G G^H and V do not
depend on the query, so each slice forms them once for every sweep.
ml_detect runs the same kernel, with R as the noise on the zero word.

Blocks are laid out last (L x N x n), so G G^H and V are products of
length-n vectors; a chunk's draws go straight into blocks-last arrays
(linalg.sample_blocks), of which a slice is a view. A chunk is scored in as
few even slices (linalg.even_slices) as keep every per-slice array
(_slice_bytes) within the one budget _SLICE_BYTES, at least _MIN_SLICE
blocks each, so the scorer's arrays of a 2^16-word codebook take
3 x 32 x 2^16 float64s (48 MiB) at most. The number of numpy calls per
slice does not grow with L, N or T.

The points of a slice are scored from the noisiest down, the first on
every block and each later one only on the blocks in error at the point
before. That gives the tallies of scoring every block at every point: with
R = S_sent at s = 0, the sent word's metric is the lowest there, and each
word's metric is linear in s, so f_sent - f_j is a line that is <= 0 at
s = 0. A block detected correctly at scale s' has that line <= 0 at s'
too, so it is < 0 inside (0, s') unless it is 0 throughout, which is an
identical line whose tie went to the lower index at s' already. So a block
correct at one point is correct at every less noisy one (exactly so in real
arithmetic; in floating point only a block within rounding of a tie could
differ).

A call has one thread pool for all its sweeps. Every chunk and slice
allocates its arrays afresh; importing mlnsim raises glibc's mmap and trim
thresholds (see the package docstring), so freed arrays stay in the heap
and later chunks reuse their pages instead of faulting in fresh ones.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .channel import ChannelRealization, SystemDims, checked_integer, checked_snr_grid, gram, snr_gain
from .codes import Codebook
from .csvio import csv_rows, csv_text
from .linalg import DimensionMismatchError, even_slices, make_rng, sample_blocks
from .query import QUERY_KINDS, check_query_shape, effective_forward, uniform_query, unitary_query

__all__ = [
    "SnrSweepConfig",
    "BerPoint",
    "BerCurve",
    "LevelNotCrossedError",
    "ml_detect",
    "simulate_ber",
    "simulate_bers",
    "gain_at_ber",
]

# points with fewer error events than this are kept but flagged unresolved
MIN_RESOLVED_EVENTS = 50
# a point stops at this many error events, or else at this many trials
DEFAULT_TARGET_ERROR_EVENTS = 200
DEFAULT_MAX_TRIALS_PER_POINT = 2_000_000

CSV_HEADER = "snr_db,ber,ci_low,ci_high,error_events,trials"

_BATCH_SCHEDULE = (20_000, 80_000, 200_000)
# a batch is drawn in chunks of this many blocks, each from its own substream;
# it divides every scheduled batch size, so the first batch splits in two
_CHUNK = 10_000
# _score_chunk's slice budget (see the module docstring); a slice holds at least
# _MIN_SLICE blocks, so a large codebook's weights are read once per _MIN_SLICE blocks
_SLICE_BYTES = 3 * 2**20
_MIN_SLICE = 32
# the config fields that fix which blocks a sweep draws, so sweeps run together share them
_SHARED_FIELDS = ("dims", "codebook", "seed", "max_trials_per_point")


class LevelNotCrossedError(ValueError):
    """A BER curve never crosses the requested level in its resolved range."""


@dataclass(frozen=True)
class SnrSweepConfig:
    """Everything that determines one BER sweep (including the seed)."""

    dims: SystemDims
    query_kind: str  # "uniform" or one of the unitary kinds
    codebook: Codebook
    snr_grid_db: tuple
    max_trials_per_point: int = DEFAULT_MAX_TRIALS_PER_POINT
    target_error_events: int = DEFAULT_TARGET_ERROR_EVENTS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", checked_snr_grid(self.snr_grid_db))
        if self.query_kind not in QUERY_KINDS:
            raise ValueError(f"query_kind must be one of {QUERY_KINDS}, got {self.query_kind!r}")
        for name, least in (("max_trials_per_point", 1), ("target_error_events", 1), ("seed", 0)):
            object.__setattr__(self, name, checked_integer(name, getattr(self, name), least))
        d, cb = self.dims, self.codebook
        if (cb.T, cb.L) != (d.T, d.L):
            raise DimensionMismatchError(
                f"codebook is {cb.T}x{cb.L} but dims expect T={d.T}, L={d.L}"
            )
        check_query_shape(self.query_kind, d.T, d.M)


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
        return csv_text(CSV_HEADER, map(astuple, self.points))

    @classmethod
    def from_csv(cls, text: str) -> "BerCurve":
        rows = csv_rows(text, CSV_HEADER, (float, float, float, float, int, int))
        return cls(tuple(BerPoint(*f) for f in rows))


def _wilson_interval(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion of n >= 1 trials."""
    z = 1.959963984540054  # two-sided 95% standard normal quantile
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


def _rows(arrays, parts: int) -> np.ndarray:
    """The Re and then Im parts (Re alone when parts == 1) of each blocks-last array in turn, as rows of n."""
    return np.concatenate([p.reshape(-1, p.shape[-1]) for z in arrays for p in (z.real, z.imag)[:parts]])


def _shared_terms(G: np.ndarray, W: np.ndarray) -> tuple:
    """gram = G G^H (L x L x n) and V = conj(W G^H) = conj(W) G^T (T x L x n)."""
    Gc = np.conjugate(G)
    return gram(G, Gc=Gc), np.conjugate(gram(W, Gc=Gc))


def _base_features(X: np.ndarray, gram: np.ndarray, Cc: np.ndarray, parts: int) -> np.ndarray:
    """F x n features of the noise-free metric, F = parts T L (L + 1).

    The energy features E[t, l, l'] = X_tl conj(X_tl') gram_ll' come first,
    then the cross features sum_l' E[t, l, l'] Cc[t, l'], which equal
    X o conj(S G^H) for S = (X o C) G and Cc = conj(C). Each gives its Re rows
    and then its Im rows (Re rows alone when parts == 1).
    """
    # conj(X_tl') gram_ll', as gram is Hermitian; C-contiguous, so that _rows reads Re and Im rows in place
    E = np.conjugate(np.multiply(X[:, None], gram.transpose(1, 0, 2), order="C"))
    E *= X[:, :, None]
    # real words need Re(E Cc) = Re(E) Re(Cc) alone
    cross = np.sum(E * Cc[:, None] if parts == 2 else E.real * Cc.real[:, None], axis=2)
    return _rows((E, cross), parts)


def _metric(X: np.ndarray, gram: np.ndarray, V: np.ndarray, Cc: np.ndarray, weights: np.ndarray) -> tuple:
    """base and noise (n x K each): the metric ||R - S_j||^2 - ||R||^2 of R = S + s W is base + s noise.

    Arrays are blocks-last: X = Q H is T x L x n, gram and V are the
    _shared_terms of G and W, and Cc holds the conjugated sent words C of
    S = (X o C) G. base = ||S_j||^2 - 2 Re<S, S_j> and noise = -2 Re<W, S_j>.
    weights are Codebook.metric_weights, whose width tells whether they carry
    Im parts.
    """
    T, L, n = X.shape
    parts = weights.shape[1] // (T * L * (L + 1))
    base = _base_features(X, gram, Cc, parts).T @ weights.T
    # -2 Re<W, S_j> pairs the cross features X o V of W with c_j, as base's pair those of S
    noise = _rows((X * V,), parts).T @ weights[:, parts * T * L * L :].T
    return base, noise


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
    gram, V = _shared_terms(ch.G[..., None], R[..., None])  # R is the noise on the zero word
    base, noise = _metric(X[..., None], gram, V, np.zeros(X.shape + (1,)), codebook.metric_weights)
    return int(np.argmin(base[0] + noise[0]))


def _score_points(
    base: np.ndarray,
    noise: np.ndarray,
    sent: np.ndarray,
    noise_stds: np.ndarray,
    tallies: np.ndarray,
) -> None:
    """Add the error events and bit errors of n blocks at each noise scale to tallies.

    base + s noise (both n x K) is the metric at noise scale s and sent holds
    the sent word indices; base and noise are overwritten, and one more n x K
    array is all the scoring allocates. noise_stds must be descending: the first scale
    scores every block in place and each later one only the blocks in error
    at the scale before, whose rows are gathered into the leading rows of
    the three arrays. That gives the tallies of scoring every block at every
    scale (see the module docstring). Equal scales give equal metrics and
    are allowed; scales must be finite, as those of a checked SNR grid are.
    """
    if not (np.all(noise_stds[1:] <= noise_stds[:-1]) and np.all(np.isfinite(noise_stds))):
        raise ValueError(f"noise scales must be descending and finite, got {noise_stds}")
    spare = np.empty_like(base)
    for i, noise_std in enumerate(noise_stds):
        metric = spare[: len(sent)]
        np.multiply(noise, noise_std, out=metric)
        metric += base
        detected = np.argmin(metric, axis=1)
        wrong = np.flatnonzero(detected != sent)
        tallies[0, i] += wrong.size
        tallies[1, i] += np.sum(np.bitwise_count(sent[wrong] ^ detected[wrong]))
        if wrong.size == 0 or i == len(noise_stds) - 1:
            break
        # keep the rows in error: their noise moves to the spare rows, their base
        # to the noise rows, and the base rows become the spare
        noise, base, spare = (
            np.take(noise, wrong, axis=0, out=spare[: wrong.size], mode="clip"),
            np.take(base, wrong, axis=0, out=noise[: wrong.size], mode="clip"),
            base,
        )
        sent = sent[wrong]


def _sent_words(codebook: Codebook) -> np.ndarray:
    """The conjugated codewords blocks-last (T x L x K), complex; a real codebook's features read their Re parts."""
    return np.ascontiguousarray(np.moveaxis(np.conjugate(codebook.codewords), 0, -1))


def _slice_bytes(dims: SystemDims, weights: np.ndarray) -> int:
    """Bytes per block of every per-slice array of _score_chunk."""
    L, N, T = dims.L, dims.N, dims.T
    K, F = weights.shape
    # conj(G), gram, V, X, C and the largest product are complex; feats and the scorer's base,
    # noise and spare are real
    complex_entries = L * N + L * L + 3 * T * L + max(L * L * N, T * L * N, T * L * L)
    return 16 * complex_entries + 8 * F + 8 * 3 * K


def _score_chunk(
    config: SnrSweepConfig,
    schemes: list,
    words: np.ndarray,
    weights: np.ndarray,
    key: tuple,
    n: int,
) -> np.ndarray:
    """Error events and bit errors at each noise scale of each scheme on one chunk of n blocks.

    config gives the dims and seed every scheme shares, schemes holds one
    (Q, noise_stds) pair per query scheme, words are the codebook's
    conjugated codewords blocks-last (T x L x K) and weights its metric
    weights. The chunk draws H, G, sent and unit-variance W from its own
    substream key once for all schemes. Returns a 2 x P integer array
    (events, then bit errors) of the P noise scales of all schemes in order;
    a scheme without noise scales is not scored.
    """
    M, L, N, T = config.dims.M, config.dims.L, config.dims.N, config.dims.T
    K = words.shape[-1]
    rng = make_rng(config.seed, key)
    H = sample_blocks((M, L), n, rng)
    G = sample_blocks((L, N), n, rng)
    sent = rng.integers(0, K, n)
    W = sample_blocks((T, N), n, rng)

    most = max(_MIN_SLICE, _SLICE_BYTES // _slice_bytes(config.dims, weights))
    scales = [len(noise_stds) for _, noise_stds in schemes]
    tallies = np.zeros((2, sum(scales)), dtype=np.int64)
    per_scheme = np.split(tallies, np.cumsum(scales)[:-1], axis=1)
    for s in even_slices(n, most):
        gram, V = _shared_terms(G[..., s], W[..., s])
        Cc = np.take(words, sent[s], axis=2)
        for (Q, noise_stds), t in zip(schemes, per_scheme):
            if len(noise_stds):  # no name holds X, base or noise past the scorer, so slices stay in budget
                _score_points(
                    *_metric(effective_forward(Q, H[..., s]), gram, V, Cc, weights), sent[s], noise_stds, t
                )
    return tallies


def _worker_count(n_tasks: int) -> int:
    workers = os.cpu_count() or 1
    env = os.environ.get("MLNSIM_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            threads = 0
        if threads < 1:
            raise ValueError(f"MLNSIM_THREADS must be an integer >= 1, got {env!r}")
        workers = min(workers, threads)
    return min(workers, n_tasks)


def _shared_layout(configs: tuple) -> SnrSweepConfig:
    """The first config, once every config is known to share the fields that fix the blocks."""
    if not configs:
        raise ValueError("configs: a sweep needs at least one SnrSweepConfig")
    first = configs[0]
    for other in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(first, name) != getattr(other, name):
                raise ValueError(
                    f"{name}: the configs of one sweep must share {', '.join(_SHARED_FIELDS)}"
                )
    return first


def simulate_bers(configs) -> tuple[BerCurve, ...]:
    """Run several SNR sweeps on the same blocks and return their BER curves, in order.

    The configs may differ in query_kind, snr_grid_db and target_error_events
    but must share dims, codebook, seed and max_trials_per_point, which fix
    the blocks drawn; otherwise a ValueError names the first field that
    differs. Every batch of blocks is drawn once and scored at every SNR
    point of every config that is still below its event target, so the
    curves share their channel, codeword and noise draws (common random
    numbers). Chunks of a batch run in one thread pool for the whole call,
    of os.cpu_count() workers capped by the MLNSIM_THREADS environment
    variable (a ValueError names it unless it is an integer >= 1), each
    chunk on its own substream of the seed, so the result does not depend
    on scheduling or on the worker count, and each curve equals that of its
    config swept alone. Under-resolved points (too few error events at the
    trial cap) are kept and flagged via BerPoint.resolved rather than failing
    the sweep.
    """
    configs = tuple(configs)
    layout = _shared_layout(configs)
    cap = layout.max_trials_per_point
    largest_batch_chunks = -(-min(max(_BATCH_SCHEDULE), cap) // _CHUNK)
    workers = _worker_count(largest_batch_chunks)
    queries = [build_query(c.query_kind, c.dims, c.seed) for c in configs]
    # the points of every config in one array, config by config
    sizes = [len(c.snr_grid_db) for c in configs]
    owner = np.repeat(np.arange(len(configs)), sizes)
    noise_stds = np.sqrt(1.0 / snr_gain(np.concatenate([c.snr_grid_db for c in configs])))
    targets = np.repeat([c.target_error_events for c in configs], sizes)
    counts = np.zeros((3, len(owner)), dtype=np.int64)  # events, bit errors and trials
    active = np.ones(len(owner), dtype=bool)
    drawn = 0
    batch = 0
    # read the cached codebook arrays once, before any worker can race to build them
    words = _sent_words(layout.codebook)
    weights = layout.codebook.metric_weights
    with ThreadPoolExecutor(workers) as pool:
        while active.any():
            n = min(_BATCH_SCHEDULE[min(batch, len(_BATCH_SCHEDULE) - 1)], cap - drawn)
            idx = np.flatnonzero(active)
            schemes = [(Q, noise_stds[idx[owner[idx] == j]]) for j, Q in enumerate(queries)]
            tallies = pool.map(
                lambda c: _score_chunk(layout, schemes, words, weights, (1, batch, c), min(_CHUNK, n - c * _CHUNK)),
                range(-(-n // _CHUNK)),
            )
            for t in tallies:  # in chunk order
                counts[:2, idx] += t
            counts[2, idx] += n
            drawn += n
            batch += 1
            active &= (counts[0] < targets) & (drawn < cap)

    curves = []
    for config, count in zip(configs, np.split(counts, np.cumsum(sizes)[:-1], axis=1)):
        points = []
        for snr_db, e, b, n in zip(config.snr_grid_db, *count):
            bits = int(n) * config.codebook.bits_per_block
            ci_low, ci_high = _wilson_interval(int(b), bits)
            points.append(BerPoint(snr_db, int(b) / bits, ci_low, ci_high, int(e), int(n)))
        curves.append(BerCurve(tuple(points)))
    return tuple(curves)


def simulate_ber(config: SnrSweepConfig) -> BerCurve:
    """Run the full SNR sweep of one config and return its BER curve (see simulate_bers)."""
    return simulate_bers([config])[0]


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
