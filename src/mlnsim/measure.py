"""Rank-based performance measure for unitary vs uniform query signaling.

For a codeword difference matrix delta (L x T) and a backscatter stage
G (L x N), the per-slot matrices

    E_t = diag(delta[:, t]) @ G          (L x N)

govern the unitary-query error behavior, and the concatenation

    D = (G_1 delta | ... | G_N delta),   G_n = diag(G[:, n])   (L x N*T)

governs the uniform-query behavior. With probability one over G,

    rank(E_t) = min(N, L*_t)   and   rank(D) = min(N * rank(delta), L*)

where L*_t is the nonzero count of delta's t-th column and L* the number
of nonzero rows. Summing / combining these ranks yields the two scalar
measures whose ordering predicts which query scheme wins at high SNR.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .codes import _as_diff
from .linalg import DimensionMismatchError, rank_from_singulars, sample_cn_matrix, singular_values

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
VERDICT_UNIFORM = "uniform-dominates"
VERDICT_COMPARABLE = "comparable"
QUERY_SCHEMES = ("unitary", "uniform")


def build_E_t(delta, G: np.ndarray, t: int) -> np.ndarray:
    """Per-slot matrix E_t = diag(delta[:, t]) @ G for 1-based slot t.

    Exactly L - L*_t of its rows are identically zero. G may be batched (... x L x N).
    """
    d = _as_diff(delta)
    G = np.asarray(G, dtype=complex)
    if not 1 <= t <= d.T:
        raise IndexError(f"slot index t={t} outside 1..{d.T}")
    if G.ndim < 2 or G.shape[-2] != d.L:
        raise DimensionMismatchError(f"G must have {d.L} rows, got shape {G.shape}")
    return d.delta[:, t - 1][:, None] * G


def build_D(delta, G: np.ndarray) -> np.ndarray:
    """Uniform-query matrix D = (G_1 delta | ... | G_N delta), L x (N*T).

    G_n = diag(G[:, n]) scales row l of delta by g_{l,n}, so D regroups
    the columns of (E_1 | ... | E_T) by receive antenna. G may be batched (... x L x N).
    """
    d = _as_diff(delta)
    G = np.asarray(G, dtype=complex)
    if G.ndim < 2 or G.shape[-2] != d.L:
        raise DimensionMismatchError(f"G must have {d.L} rows, got shape {G.shape}")
    D = G[..., :, :, None] * d.delta[:, None, :]  # ... x L x N x T
    return D.reshape(G.shape[:-1] + (G.shape[-1] * d.T,))


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
    """Unitary-query measure: sum over slots of min(N, L*_t)."""
    return compare_queries(delta, N).r_unitary


def r_uniform(delta, N: int) -> int:
    """Uniform-query measure: min(N * rank(delta), nonzero rows of delta)."""
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


def compare_queries(delta, N: int) -> MeasureReport:
    """Both measures for delta and N receive antennas; the only place the almost-sure ranks are formed."""
    d = _as_diff(delta)
    per_slot = tuple(min(N, s) for s in d.column_supports)
    ru = int(sum(per_slot))
    rf = int(min(N * d.rank, d.nonzero_rows))
    if ru > rf:
        verdict = VERDICT_UNITARY
    elif ru < rf:
        verdict = VERDICT_UNIFORM
    else:
        verdict = VERDICT_COMPARABLE
    return MeasureReport(
        r_unitary=ru,
        r_uniform=rf,
        per_slot_ranks=per_slot,
        rank_delta=d.rank,
        nonzero_rows=d.nonzero_rows,
        verdict=verdict,
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
    fraction of draws with rank(E_t) == min(N, L*_t), and the fraction with
    rank(D) == min(N * rank(delta), nonzero rows), ranks ``compare_queries``
    gives. The report passes iff every fraction equals 1. Ranks use
    ``numeric_rank``'s threshold rule on the singular values of each stack
    of E_t or D matrices, which ``singular_values`` computes in one
    elementwise pass when min(m, n) <= 2.
    Raises ``ValueError`` unless trials >= 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    d = _as_diff(delta)
    G = sample_cn_matrix(d.L, N * trials, rng).reshape(d.L, trials, N).transpose(1, 0, 2)

    def hits(M: np.ndarray, expected: int) -> np.ndarray:
        return rank_from_singulars(singular_values(M), max(M.shape[-2:])) == expected

    predicted = compare_queries(d, N)
    slot_fractions = [float(np.mean(hits(build_E_t(d, G, t + 1), r))) for t, r in enumerate(predicted.per_slot_ranks)]
    d_fraction = float(np.mean(hits(build_D(d, G), predicted.r_uniform)))

    passed = d_fraction == 1.0 and all(f == 1.0 for f in slot_fractions)
    return RankCheckReport(
        trials=trials,
        per_slot_fractions=tuple(slot_fractions),
        d_fraction=d_fraction,
        passed=passed,
    )
