"""Coded BER link simulation with ML detection and perfect receiver CSI.

Per SNR point, blocks are simulated until a target number of error events
(blocks with at least one bit error) is reached or a trial cap is hit.
The SNR convention ties the simulated channel to the analytical PEP
expressions: codebooks carry unit average energy per slot, query rows
have unit norm, and the per-entry complex noise variance is 1 / gbar with
gbar = 10**(snr_db / 10) (``channel.snr_gain``).

A sweep draws its blocks in chunks of one fixed layout: chunk k starts after
e blocks, holds min(_CHUNK, max(_FIRST_CHUNK, e), cap - e) of them (1k, 1k,
2k, 4k, 8k and then 10k each) and draws H, G, the sent codewords and
unit-variance noise W, in that order, from the substream (1, k) of the sweep
seed. G and W are not drawn whole: the genie receiver sees them only through
G G^H and W G^H (_shared_terms). Write G = B0 U, U's min(L, N) rows orthonormal
(Goodman; Edelman). Then W U^H is T x min(L, N), CN(0, 1) and independent of
B0, so (B0 B0^H, (W U^H) B0^H) has the law of (G G^H, W G^H), and W is drawn as
W U^H. G is drawn as linalg.sample_gram_factor's canonical factor B, whose
B B^H is D B0 B0^H D^H for a diagonal unitary D chosen from G. On B, every
feature of _metric is the one of X D on B0, and X D = Q H D has the law of
X = Q H, as H is independent of D; so every ML decision, and every tally, keeps
its law. Worker loops take the next chunk in turn, with no barrier between
them, and the tallies of the chunks are counted in chunk order: a point stops
at the end of the first chunk at which its error events reach the target, or
at the cap, and the tallies of chunks after that are dropped for it. A chunk
scores exactly the points still running once every chunk ending at or before
half its start has been counted; a worker waits until then. The scored set
is therefore a function of counted results alone, so a sweep is reproducible
bit-for-bit for any worker count and scheduling. Whether a further chunk is
drawn at all reads the latest count, which changes how much is drawn, never
a result. An exception in one loop, or an interrupt of the caller, stops the
other loops at their next chunk. Points share blocks and so are correlated
across SNR; each point's own estimate and Wilson interval are as before.

The query Q comes from its own substream (0,), so sweeps that differ only
in query_kind, grid or event target draw the same blocks: the curves of a
unitary-against-uniform comparison share every block (common random
numbers) and are positively correlated. simulate_bers runs such sweeps
together. Each chunk is drawn once and its H, G, W, sent words and the
query-free terms of its slices are shared; X = Q H, the metric and the
scoring are per sweep, and each sweep's curve is the one it gets alone. An
interval for a gain that treats the two curves as independent (such as the
Wilson bracket of the acceptance suite) is therefore conservative.

ML detection scores all K codewords with one real GEMM per noise scale. With
X = Q H and S_j = (X o C_j) G, the metric is the sufficient statistic
||R - S_j||^2 - ||R||^2 = ||S_j||^2 - 2 Re<R, S_j>. The first term pairs the
Hermitian energy features E = (x_t x_t^H) o (G G^H) with the weights c_t c_t^H,
packed: each off-diagonal pair once, its weight doubled. The second pairs c_j
with the cross features of R = S + s W, X o conj(S G^H) (S itself is never
formed) plus s times X o V of W, V = conj(W) G^T. In Re and Im parts (Re alone
for a real codebook), these SNR-free features (F x n) times the weights (K x F,
Codebook.metric_weights) give a slice's n x K metric, the one K-wide array; the
argmin keeps the lowest index on ties. G G^H and V do not depend on the query,
so each slice forms them once for every sweep. ml_detect runs the same kernel,
with R as the noise on the zero word.

Blocks are laid out last (G's factor is L x min(L, N) x n), so G G^H and V
are products of length-n vectors; a chunk's draws go straight into
blocks-last arrays (linalg.sample_blocks, linalg.sample_gram_factor), of
which a slice is a view. A chunk is scored in as
few even slices (linalg.even_slices) as keep the per-slice arrays live at
once (_slice_bytes) within the one budget _SLICE_BYTES, at least _MIN_SLICE
blocks each. The number of numpy calls per slice does not grow with L, N or T.

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

The process keeps one thread pool per worker count, made on first use, so
back-to-back sweeps run on the same threads and their malloc arenas; a
forked child drops the pools it inherits (their threads do not exist there)
and makes its own. Every chunk and slice allocates its arrays afresh;
importing mlnsim raises glibc's mmap and trim thresholds (see the package
docstring), so freed arrays stay in the heap and later chunks and sweeps
reuse their pages instead of faulting in fresh ones.
"""

from __future__ import annotations

import bisect
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .channel import ChannelRealization, SystemDims, checked_integer, checked_snr_grid, gram, snr_gain
from .codes import Codebook, packed_pairs
from .csvio import csv_rows, csv_text
from .linalg import DimensionMismatchError, even_slices, make_rng, sample_blocks, sample_gram_factor
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

# chunk k of a sweep draws min(_CHUNK, max(_FIRST_CHUNK, e), cap - e) blocks, e being the
# blocks before it, from its own substream: early chunks are small, so a point that meets its
# event target quickly stops after few blocks
_FIRST_CHUNK = 1_000
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


def _shared_terms(G: np.ndarray, W: np.ndarray) -> tuple:
    """gram = G G^H (L x L x n) and V = conj(W G^H) = conj(W) G^T (T x L x n)."""
    Gc = np.conjugate(G)
    return gram(G, Gc=Gc), np.conjugate(gram(W, Gc=Gc))


def _metric(X: np.ndarray, gram: np.ndarray, V: np.ndarray, Cc: np.ndarray, weights: np.ndarray) -> tuple:
    """The features base (F x n) of S and noise of W: weights pair those of R = S + s W with ||R - S_j||^2 - ||R||^2.

    Blocks-last: X = Q H is T x L x n, gram and V are the _shared_terms of G and W,
    Cc holds the conjugated sent words C of S = (X o C) G. base holds the Re rows of
    E[t, l, l'] = X_tl conj(X_tl') gram_ll' on the pairs l <= l' (codes.packed_pairs),
    the Im rows on l < l' for complex (T L (L + 2) wide) weights, and the cross rows
    sum_l' E[t, l, l'] Cc[t, l'] = X o conj(S G^H); noise the cross rows X o V of W.
    """
    T, L, n = X.shape
    parts = 2 if weights.shape[1] == T * L * (L + 2) else 1
    # conj(X_tl') gram_ll', as gram is Hermitian; C-contiguous, so that the Re and Im rows read are views
    E = np.conjugate(np.multiply(X[:, None], gram.transpose(1, 0, 2), order="C"))
    E *= X[:, :, None]
    base = np.empty((weights.shape[1], n))
    upper, strict = packed_pairs(L)
    base[: T * len(upper)].reshape(T, -1, n)[:] = E.real.reshape(T, L * L, n)[:, upper]
    if parts == 2:
        base[T * len(upper) : T * L * L].reshape(T, -1, n)[:] = E.imag.reshape(T, L * L, n)[:, strict]
    # real words need Re(E Cc) = Re(E) Re(Cc) alone (and the Im part of a real array would be a fresh one)
    cross = np.einsum("tkln,tln->tkn", *((E, Cc) if parts == 2 else (E.real, Cc.real))).reshape(T * L, n)
    np.concatenate((cross.real, cross.imag) if parts == 2 else (cross,), out=base[-parts * T * L :])
    del E, cross  # before the noise features are formed
    noise = (X * V).reshape(T * L, n)
    return base, np.concatenate([noise.real, noise.imag][:parts])


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
    base[len(base) - len(noise) :] += noise  # scale 1
    return int(np.argmin(base.T @ codebook.metric_weights.T))


def _score_points(
    base: np.ndarray,
    noise: np.ndarray,
    weights: np.ndarray,
    sent: np.ndarray,
    noise_stds: np.ndarray,
    tallies: np.ndarray,
) -> None:
    """Add the error events and bit errors of n blocks at each noise scale to tallies.

    base and noise are the blocks' _metric features and sent their sent words. At scale
    s, base's cross rows (overwritten) are S's plus s times noise's, and one GEMM with
    weights gives the n x K metric, in one buffer. noise_stds must be descending and
    finite (equal scales are allowed): the first scale scores every block, each later one
    only those in error at the scale before, which gives the tallies of scoring every
    block at every scale (see the module docstring).
    """
    if not (np.all(noise_stds[1:] <= noise_stds[:-1]) and np.all(np.isfinite(noise_stds))):
        raise ValueError(f"noise scales must be descending and finite, got {noise_stds}")
    c, split = len(noise), len(base) - len(noise)  # the cross rows, and the first of them
    cross = np.concatenate([base[split:], noise])  # the cross rows of S and then of W
    metric = np.empty((len(sent), len(weights)))
    for i, noise_std in enumerate(noise_stds):
        m = len(sent)
        f, folded = base[:, :m], base[split:, :m]
        np.multiply(cross[c:, :m], noise_std, out=folded)
        folded += cross[:c, :m]
        detected = np.matmul(f.T, weights.T, out=metric[:m]).argmin(axis=1)
        wrong = (detected != sent).nonzero()[0]
        sent = sent[wrong]
        tallies[:, i] += wrong.size, int(np.bitwise_count(sent ^ detected[wrong]).sum())
        if wrong.size == 0 or i == len(noise_stds) - 1:
            break
        # the columns in error move to the leading columns, through one gathered copy at a time
        base[:, : wrong.size] = base[:, wrong]
        cross[:, : wrong.size] = cross[:, wrong]


def _sent_words(codebook: Codebook) -> np.ndarray:
    """The conjugated codewords blocks-last (T x L x K), complex; a real codebook's features read their Re parts."""
    return np.ascontiguousarray(np.moveaxis(np.conjugate(codebook.codewords), 0, -1))


def _slice_bytes(dims: SystemDims, weights: np.ndarray) -> int:
    """Bytes per block of the per-slice arrays of _score_chunk that are live at once, at most."""
    L, R, T = dims.L, min(dims.L, dims.N), dims.T
    K, F = weights.shape
    # the slice's gram, V and C, and then the most of: _shared_terms' conj(G) and larger product, G being the
    # L x R factor and W T x R; _metric's X, E, one array no larger than E and base; the scorer's base, noise,
    # the (at most 2 T L) cross rows of S and W, gathered columns of base, the n x K metric and six index arrays
    shared = 16 * (L * R + max(L * L * R, T * L * R))
    metric = 16 * T * L * (2 * L + 1) + 8 * F
    score = 8 * (2 * F + 6 * T * L + K + 6)
    return 16 * (L * L + 2 * T * L) + max(shared, metric, score)


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
    weights. The chunk draws H, G's canonical factor, sent and unit-variance
    W U^H (T x min(L, N)) from its own substream key once for all schemes.
    Returns a 2 x P integer array
    (events, then bit errors) of the P noise scales of all schemes in order;
    a scheme without noise scales is not scored.
    """
    M, L, N, T = config.dims.M, config.dims.L, config.dims.N, config.dims.T
    K = words.shape[-1]
    rng = make_rng(config.seed, key)
    H = sample_blocks((M, L), n, rng)
    G = sample_gram_factor(L, N, n, rng)  # G's canonical factor, and W below is W U^H (see the module docstring)
    sent = rng.integers(0, K, n)
    W = sample_blocks((T, min(L, N)), n, rng)

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
                    *_metric(effective_forward(Q, H[..., s]), gram, V, Cc, weights), weights, sent[s], noise_stds, t
                )
    return tallies


def _worker_count() -> int:
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
    return workers


# the pool of each worker count, kept for the process; a forked child inherits
# pools whose threads it does not have, so it starts without any
_pool = functools.cache(ThreadPoolExecutor)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


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


def _chunk_end(e: int, cap: int) -> int:
    """The end of the chunk that starts after e blocks of a sweep with trial cap cap."""
    return e + min(_CHUNK, max(_FIRST_CHUNK, e), cap - e)


# a point's stop while it runs: past every chunk, so it is in every chunk's snapshot
_RUNNING = np.iinfo(np.int64).max


class _Stream:
    """The chunks of one sweep: worker loops take them in turn, and their tallies are counted in chunk order.

    score(k, n, scored) returns the 2 x (number scored) tallies of chunk k, of n
    blocks, at the points of the mask scored. edges holds the start of each
    chunk taken and then the end of the last, so it grows with the blocks
    drawn, not with the cap. stop holds the chunk at which each point stopped,
    or _RUNNING, so the points running once the first p chunks are counted
    are those with stop >= p, whatever has been counted since. Chunk k scores
    the points running once the chunks that end at or before half its start
    are counted.
    """

    def __init__(self, score, cap: int, targets: np.ndarray):
        self.score = score
        self.cap = cap
        self.targets = targets
        self.edges = [0]
        self.counts = np.zeros((2, len(targets)), dtype=np.int64)  # events and bit errors
        self.stop = np.full(len(targets), _RUNNING)
        self.counted = 0
        self.done = {}  # the scored mask and tallies of each chunk scored but not yet counted
        self.halted = False
        self.cond = threading.Condition()

    def _over(self) -> bool:
        """Whether no further chunk is to be scored: a loop failed, the caller was interrupted, or every point stopped."""
        return self.halted or not np.any(self.stop == _RUNNING)

    def halt(self) -> None:
        with self.cond:
            self.halted = True
            self.cond.notify_all()

    def _count(self, k: int, scored: np.ndarray, tallies: np.ndarray) -> None:
        idx = np.flatnonzero(scored)
        live = self.stop[idx] == _RUNNING  # a point that stopped at an earlier chunk takes no more tallies
        idx = idx[live]
        self.counts[:, idx] += tallies[:, live]
        reached = self.counts[0, idx] >= self.targets[idx]
        self.stop[idx[reached | (self.edges[k + 1] == self.cap)]] = k

    def loop(self) -> None:
        """Score chunks until none is left to score; count every chunk whose predecessors are counted."""
        try:
            while True:
                with self.cond:
                    k = len(self.edges) - 1  # the next chunk
                    if self.edges[k] == self.cap or self._over():
                        return
                    self.edges.append(_chunk_end(self.edges[k], self.cap))
                    need = bisect.bisect_right(self.edges, self.edges[k] // 2) - 1  # chunks ending by half its start
                    self.cond.wait_for(lambda: self.counted >= need or self._over())
                    if self._over():
                        return
                    scored = self.stop >= need
                    n = self.edges[k + 1] - self.edges[k]
                tallies = self.score(k, n, scored)
                with self.cond:
                    self.done[k] = scored, tallies
                    while self.counted in self.done:
                        self._count(self.counted, *self.done.pop(self.counted))
                        self.counted += 1
                    self.cond.notify_all()
        except BaseException:
            self.halt()
            raise


def simulate_bers(configs) -> tuple[BerCurve, ...]:
    """Run several SNR sweeps on the same blocks and return their BER curves, in order.

    The configs may differ in query_kind, snr_grid_db and target_error_events
    but must share dims, codebook, seed and max_trials_per_point, which fix
    the blocks drawn; otherwise a ValueError names the first field that
    differs. Every chunk of blocks is drawn once and scored at every SNR
    point of every config still running (see the module docstring), so the
    curves share their channel, codeword and noise draws (common random
    numbers). Chunks run on a thread pool of os.cpu_count() workers capped
    by the MLNSIM_THREADS environment variable (a ValueError names it unless
    it is an integer >= 1), one loop per worker. The process keeps that pool
    for every later call, and a forked child makes its own. Each chunk draws
    from its own substream of the seed and scores a set of points fixed by
    counted results alone, so the result does not depend on scheduling or
    on the worker count, and each curve equals that of its config swept
    alone. An exception in a loop, or an interrupt of the caller, stops the
    other loops at their next chunk and propagates. Under-resolved points
    (too few error events at the trial cap) are kept and flagged via
    BerPoint.resolved rather than failing the sweep.
    """
    configs = tuple(configs)
    layout = _shared_layout(configs)
    workers = _worker_count()
    pool = _pool(workers)
    queries = [build_query(c.query_kind, c.dims, c.seed) for c in configs]
    # the points of every config in one array, config by config
    sizes = [len(c.snr_grid_db) for c in configs]
    owner = np.repeat(np.arange(len(configs)), sizes)
    noise_stds = np.sqrt(1.0 / snr_gain(np.concatenate([c.snr_grid_db for c in configs])))
    targets = np.repeat([c.target_error_events for c in configs], sizes)
    # read the cached codebook arrays once, before any worker can race to build them
    words = _sent_words(layout.codebook)
    weights = layout.codebook.metric_weights

    def score(k: int, n: int, scored: np.ndarray) -> np.ndarray:
        schemes = [(Q, noise_stds[scored & (owner == j)]) for j, Q in enumerate(queries)]
        return _score_chunk(layout, schemes, words, weights, (1, k), n)

    stream = _Stream(score, layout.max_trials_per_point, targets)
    try:  # an interrupt, even one that lands while the loops are submitted, halts every loop
        for loop in [pool.submit(stream.loop) for _ in range(workers)]:
            loop.result()
    finally:
        stream.halt()
    # events, bit errors and trials: a point's trials are the blocks up to the end of its last chunk
    counts = np.concatenate([stream.counts, np.array(stream.edges)[None, stream.stop + 1]])

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
