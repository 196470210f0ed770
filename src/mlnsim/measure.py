"""Rank-based performance measure for unitary vs uniform query signaling.

For a codeword difference matrix delta (L x T) and a backscatter stage
G (L x N), the per-slot matrices

    E_t = diag(delta[:, t]) @ G          (L x N)

govern the unitary-query error behavior, and the concatenation

    D = (G_1 delta | ... | G_N delta),   G_n = diag(G[:, n])   (L x N*T)

governs the uniform-query behavior. With probability one over G,
rank(E_t) = min(N, L*_t), where L*_t is the nonzero count of delta's t-th
column. rank(D) has no such closed form in the ranks and supports alone:
min(N * rank(delta), L*), with L* the number of nonzero rows, can exceed
it (Edmonds' matroid-union rank, a minimum over row sets S of
L* - |S| + N rank(delta_S), is exact but exponential in L). So every rank
is taken numerically on one draw G0 of G from a fixed stream, which gives
the almost-sure rank with probability one. ``numeric_rank``'s threshold is
relative to each matrix's largest singular value, and it is the only rule
here that decides a rank or whether something is zero, so every field of
the report is the same for delta and for any nonzero multiple of it. D's
columns are those of (E_1 | ... | E_T), regrouped, so rank(D) <=
sum_t rank(E_t): the uniform measure never exceeds the unitary one. One
stack kernel forms the ranks of every E_t and of D, for G0 in
``compare_queries`` and for the sampled draws in ``empirical_rank_check``.
Batches are blocks last, as in ``linalg``: an L x N x n stack of G gives
T x L x N x n E_t and L x NT x n D stacks, ranked as they are.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .codes import _as_diff
from .channel import checked_integer
from .linalg import _MC_BATCH, DimensionMismatchError, even_slices, make_rng, numeric_rank, sample_cn_matrix

__all__ = [
    "MeasureReport",
    "RankCheckReport",
    "build_E_t",
    "build_D",
    "scheme_weights",
    "r_unitary",
    "r_uniform",
    "compare_queries",
    "report_from_dict",
    "empirical_rank_check",
]

VERDICT_UNITARY = "unitary-dominates"
VERDICT_COMPARABLE = "comparable"
QUERY_SCHEMES = ("unitary", "uniform")

# spawn key of the fixed stream whose one draw G0 of G gives the ranks of every E_t and of D;
# seed 0, whatever the caller's seed
_RANK_PROBE_KEY = (7,)


def build_E_t(delta, G: np.ndarray, t: int) -> np.ndarray:
    """Per-slot matrix E_t = diag(delta[:, t]) @ G for 1-based slot t.

    Exactly L - L*_t of its rows are identically zero. G may be batched blocks last (L x N x n).
    """
    d = _as_diff(delta)
    G = np.asarray(G, dtype=complex)
    if not 1 <= t <= d.T:
        raise IndexError(f"slot index t={t} outside 1..{d.T}")
    if G.ndim < 2 or G.shape[0] != d.L:
        raise DimensionMismatchError(f"G must have {d.L} rows, got shape {G.shape}")
    return d.delta[:, t - 1].reshape((d.L,) + (1,) * (G.ndim - 1)) * G


def build_D(delta, G: np.ndarray) -> np.ndarray:
    """Uniform-query matrix D = (G_1 delta | ... | G_N delta), L x (N*T).

    G_n = diag(G[:, n]) scales row l of delta by g_{l,n}, so D regroups
    the columns of (E_1 | ... | E_T) by receive antenna. G may be batched blocks last (L x N x n).
    """
    d = _as_diff(delta)
    G = np.asarray(G, dtype=complex)
    if G.ndim < 2 or G.shape[0] != d.L:
        raise DimensionMismatchError(f"G must have {d.L} rows, got shape {G.shape}")
    D = G[:, :, None] * d.delta.reshape((d.L, 1, d.T) + (1,) * (G.ndim - 2))  # L x N x T x ...
    return D.reshape((d.L, -1) + G.shape[2:])


def scheme_weights(delta, query_kind: str) -> np.ndarray:
    """W x L x L weights A_w that make the scheme's Gram matrices A_w o (G G^H).

    Unitary: E_t E_t^H with A_t = d_t d_t^H for each slot t (W = T).
    Uniform: D D^H with the single A = delta delta^H (W = 1).
    Raises ValueError naming delta when a weight is not finite, as when an
    entry near 1e154 or above overflows its products.
    """
    if query_kind not in QUERY_SCHEMES:
        raise ValueError(f"query_kind must be one of {QUERY_SCHEMES}, got {query_kind!r}")
    d = _as_diff(delta)
    B = d.delta.T[:, :, None] if query_kind == "unitary" else d.delta[None]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, naming delta
        A = B @ B.conj().transpose(0, 2, 1)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"delta: the {query_kind} weights (products of delta entries) are not finite")
    return A


def r_unitary(delta, N: int) -> int:
    """Unitary-query measure: the sum over slots of the almost-sure rank of E_t, min(N, L*_t)."""
    return compare_queries(delta, N).r_unitary


def r_uniform(delta, N: int) -> int:
    """Uniform-query measure: the almost-sure rank of D, at most ``r_unitary``."""
    return compare_queries(delta, N).r_uniform


@dataclass(frozen=True)
class MeasureReport:
    """Both measures plus their ingredients and the comparison verdict."""

    r_unitary: int
    r_uniform: int
    per_slot_ranks: tuple
    rank_delta: int
    nonzero_rows: int
    verdict: str

    def to_dict(self) -> dict:
        d = asdict(self)
        d["per_slot_ranks"] = list(self.per_slot_ranks)
        return d


def report_from_dict(d: dict) -> MeasureReport:
    """Rebuild a MeasureReport from its JSON dictionary form."""
    return MeasureReport(
        r_unitary=int(d["r_unitary"]),
        r_uniform=int(d["r_uniform"]),
        per_slot_ranks=tuple(int(r) for r in d["per_slot_ranks"]),
        rank_delta=int(d["rank_delta"]),
        nonzero_rows=int(d["nonzero_rows"]),
        verdict=str(d["verdict"]),
    )


def _ranks(d, G: np.ndarray) -> np.ndarray:
    """The ranks of E_1, ..., E_T and then of D for each G of an L x N x n stack, as a (T + 1) x n array."""
    E = d.delta.T[:, :, None, None] * G  # T x L x N x n; E[t - 1] is build_E_t(d, G, t)
    return np.vstack([numeric_rank(E), numeric_rank(build_D(d, G))])


def compare_queries(delta, N: int) -> MeasureReport:
    """Both measures for delta and N receive antennas, the almost-sure ranks they predict.

    r_unitary is the sum over slots of rank(E_t) and r_uniform is rank(D), each the
    numeric rank on one draw G0 of G from a fixed stream, taken by the kernel that
    ``empirical_rank_check`` runs on its sampled draws. r_uniform <= r_unitary, so
    the verdict is unitary-dominates or comparable.
    """
    d = _as_diff(delta)
    G0 = sample_cn_matrix(d.L, N, make_rng(0, _RANK_PROBE_KEY))
    *per_slot, rf = (int(r) for r in _ranks(d, G0[..., None])[:, 0])
    ru = sum(per_slot)
    return MeasureReport(
        r_unitary=ru,
        r_uniform=rf,
        per_slot_ranks=tuple(per_slot),
        rank_delta=d.rank,
        nonzero_rows=d.nonzero_rows,
        verdict=VERDICT_UNITARY if ru > rf else VERDICT_COMPARABLE,
    )


@dataclass(frozen=True)
class RankCheckReport:
    """Observed agreement fractions for the almost-sure rank predictions."""

    trials: int
    per_slot_fractions: tuple  # fraction of trials with rank(E_t) as predicted
    d_fraction: float  # fraction of trials with rank(D) as predicted
    passed: bool

    def to_dict(self) -> dict:
        d = asdict(self)
        d["per_slot_fractions"] = list(self.per_slot_fractions)
        return d


def empirical_rank_check(delta, N: int, trials: int, rng: np.random.Generator) -> RankCheckReport:
    """Validate the almost-sure rank predictions on sampled G.

    Draws `trials` independent G matrices and records, for every slot t, the
    fraction of draws with rank(E_t) as ``compare_queries`` predicts it, and the
    fraction with rank(D) == r_uniform. The report passes iff every fraction
    equals 1. Ranks are ``numeric_rank``'s. The draws come in batches of at most
    ``linalg._MC_BATCH``, each one ``sample_cn_matrix`` call viewed as L x N x n; each
    slice of a batch (``even_slices``) then has the ranks of its E_t and D taken by
    the kernel ``compare_queries`` uses and counts those as predicted, so that apart
    from one batch's draw only one slice of matrices is alive at a time, whatever
    trials is. Each fraction is a hit count over trials. Raises ``ValueError``
    naming trials unless it is an integer >= 1.
    """
    trials = checked_integer("trials", trials)
    d = _as_diff(delta)
    predicted = compare_queries(d, N)
    ranks = np.array([*predicted.per_slot_ranks, predicted.r_uniform])[:, None]  # E_1, ..., E_T, then D
    hits = np.zeros(len(ranks), dtype=np.int64)
    done = 0
    while done < trials:
        n = min(_MC_BATCH, trials - done)
        G = sample_cn_matrix(d.L, N * n, rng).reshape(d.L, n, N).transpose(0, 2, 1)
        for s in even_slices(n):
            hits += np.count_nonzero(_ranks(d, G[..., s]) == ranks, axis=1)
        del G  # freed before the next batch is drawn
        done += n
    *slot_fractions, d_fraction = (int(h) / trials for h in hits)
    return RankCheckReport(
        trials=trials,
        per_slot_fractions=tuple(slot_fractions),
        d_fraction=d_fraction,
        passed=bool(np.all(hits == trials)),
    )
