"""Pairwise error probability estimators for the two query schemes.

Two routes are provided for each scheme:

* "q-function-mc": the exact error integral, Monte Carlo averaged over
  both fading stages: mean of Q(sqrt(gbar * Z / 2)) with Z the squared
  codeword distance after the channel; Q is ``qfunc``, a numpy erfc
  built on Cody's rational approximations.
* "eigen-product-mc": the conditional term
  prod_w 1 / det(I_L + (gbar/4) A_w o G G^H), Monte Carlo averaged over
  the backscatter stage G only. The Gram matrices E_t E_t^H (unitary) and
  D D^H (uniform) are both A o G G^H, so the L x L weights A_w are all
  that depends on the scheme: d_t d_t^H for each slot t, or the single
  delta delta^H (``measure.scheme_weights``). Each determinant equals
  prod 1 / (1 + lam*gbar/4) over its Gram matrix's eigenvalues lam
  (``linalg.psd_eigenvalues``: a closed form for L <= 2), the
  standard Chernoff-style bound on the Gaussian-averaged Q function, so
  this route upper-bounds the first one while sharing its asymptotic
  decay (the determinant criterion of Tarokh, Seshadri and Calderbank).
  Only gbar depends on SNR, so ``pep_eigen_product_curve`` takes lam once
  per draw of G and scores every point of a curve from it: the points are
  correlated across SNR, while each one's estimate and SE are unchanged.

Both routes see G only through G G^H, and only up to the phases of its rows: replacing
G G^H by D G G^H D^H, for a diagonal unitary D chosen from G, leaves the eigenvalues of
A_w o G G^H = D (A_w o G G^H) D^H alone, and Z too, as x_t D has x_t's law for i.i.d.
forward rows x_t. So they draw G as ``linalg.sample_gram_factor``'s canonical factors, whose
column 0 is real. Z sees each forward row only up to its own unit phase, so ``_forward_rows``
draws a row as sqrt(Exp(1)) and then CN(0, 1) entries; the canonical factor at N = 1 would
draw every entry real, which changes Z's law. Each route draws a batch of up to
``linalg._MC_BATCH`` draws at once and works through it in slices (``linalg.even_slices``), so that beyond the draw only
per-draw-sized arrays (the per-draw results, ``qfunc``'s temporaries and
``_lambda_products``' ``factors``) and one slice of temporaries are alive.
Slicing changes no bit.

gbar = 10**(snr_db / 10) (``channel.snr_gain``) at any point below ``channel._SNR_DB_MAX``,
-inf dB included and NaN not; each estimate carries its Monte Carlo standard error. Decay
is judged in dB: ``decay_exponent`` and ``check_scaled_limit`` read log PEP against snr_db / 10.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .channel import _SNR_DB_MAX, SystemDims, checked_integer, checked_snr_grid, gram, mix, snr_gain
from .codes import DifferenceMatrix, _as_diff
from .csvio import csv_rows, csv_text
from .linalg import _INV_SQRT2, _MC_BATCH, DimensionMismatchError, even_slices, frobenius_norm_sq, psd_eigenvalues, sample_gram_factor
from .measure import build_D, build_E_t, scheme_weights

__all__ = [
    "PepEstimate",
    "RatioPoint",
    "DivergentAverageError",
    "RouteDisagreementError",
    "squared_distance_unitary",
    "squared_distance_uniform",
    "pep_qfunction_mc",
    "pep_eigen_product_mc",
    "pep_eigen_product_curve",
    "decay_exponent",
    "check_scaled_limit",
    "decay_exponent_checked",
    "ratio_point",
    "pep_ratio_curve",
    "pep_curve_to_csv",
    "pep_curve_from_csv",
    "ratio_curve_to_csv",
    "ratio_curve_from_csv",
]

METHOD_QFUNC = "q-function-mc"
METHOD_EIGEN = "eigen-product-mc"

_IDENTITY_RTOL = 1e-10

_DIVERGENCE_GROWTH = 3.0  # growth of gbar**R * pep that, at 3 sigma, marks a divergent average
FIT_MIN_POINTS, FIT_MIN_SPAN_DB = 3, 10.0  # the least window a decay exponent is fitted on


@dataclass(frozen=True)
class PepEstimate:
    """One Monte Carlo PEP point."""

    snr_db: float
    value: float
    std_error: float
    trials: int
    method: str


@dataclass(frozen=True)
class RatioPoint:
    """Unitary-to-uniform PEP ratio at one SNR, with propagated error."""

    snr_db: float
    ratio: float
    std_error: float
    censored: bool = False


class DivergentAverageError(RuntimeError):
    """The scaled Monte Carlo average keeps growing instead of converging."""


class RouteDisagreementError(RuntimeError):
    """Two algebraically equal routes to a squared distance disagree."""


def _agreed(a: float, b: float) -> float:
    """Return a after checking it matches b to 1e-10 relative."""
    if not abs(a - b) <= _IDENTITY_RTOL * max(a, b, 1.0):
        raise RouteDisagreementError(f"distance routes disagree: {a!r} vs {b!r}")
    return a


# W. J. Cody, "Rational Chebyshev approximations for the error function", Math. Comp. 23
# (1969), the coefficients of his CALERF: erf(y) = y p(y^2)/q(y^2) for |y| <= 0.46875,
# erfc(y) = exp(-y^2) p(y)/q(y) for 0.46875 < y <= 4 and
# erfc(y) = exp(-y^2) (1/sqrt(pi) - u p(u)/q(u)) / y with u = 1/y^2 past 4.
# Each pair is p and q highest power first, q without its leading 1.
_ERF_INNER = (
    (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03),
    (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
     2.84423683343917062e03),
)
_ERFC_MID = (
    (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03),
    (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03),
)
_ERFC_TAIL = (
    (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
    (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3),
)
_INV_SQRT_PI = 5.6418958354775628695e-1
_ERF_INNER_MAX, _ERFC_MID_MAX = 0.46875, 4.0  # where the three ranges meet
# from this erfc argument on, Q = erfc / 2 is below half the least subnormal and rounds to 0
_ERFC_UNDERFLOW = 27.25


def _rational(coefs, t: np.ndarray) -> np.ndarray:
    """p(t) / q(t) by Horner's rule in Cody's order, into a new array."""
    p, q = coefs
    num = p[0] * t
    den = t + q[0]
    for c in p[1:-1]:
        num += c
        num *= t
    for c in q[1:]:
        den *= t
        den += c
    num += p[-1]
    num /= den
    return num


def _half_exp_neg_sq(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r exp(-b^2) / 2, in place of r.

    exp(-b^2) is taken as exp(-s^2) exp(-(b - s)(b + s)) with s = trunc(16 b) / 16,
    whose square is exact, so the rounding of b^2 (up to 6e-14 near b = 27, which exp
    would turn into a relative error) stays out. exp(-s^2) is multiplied in last, as twice
    exp(-s^2 / 2), a normal float where it can be subnormal (numpy's exp of a subnormal
    is about 100 times slower), so that a subnormal result is still rounded once.
    """
    s = np.trunc(16.0 * b)
    s /= 16.0
    d = b - s
    d *= b + s
    np.negative(d, out=d)
    r *= np.exp(d, out=d)
    r *= 0.5
    s *= s
    s *= -0.5
    r *= np.exp(s, out=s)
    r *= s
    return r


def qfunc(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x) = erfc(x / sqrt 2) / 2, elementwise.

    A vectorised erfc on Cody's three rational approximations, each evaluated only
    on the entries in its range; it agrees with ``math.erfc`` to 2e-15 relative
    wherever Q is a normal float (within 1e-15 on the tests' grids). Past the point
    where Q underflows (x near 38.5) the result is 0 without work. NaN gives NaN,
    -inf 1 and +inf 0; negative x gives 1 - Q(|x|); the result has x's shape.
    """
    y = np.asarray(x, dtype=float) / np.sqrt(2.0)
    flat = y.ravel()
    a = np.abs(flat)
    q = np.zeros(flat.size)
    i = np.flatnonzero(a <= _ERF_INNER_MAX)
    t = flat[i]
    q[i] = 0.5 * (1.0 - t * _rational(_ERF_INNER, t * t))
    i = np.flatnonzero((a > _ERF_INNER_MAX) & (a <= _ERFC_MID_MAX))
    b = a[i]
    q[i] = _half_exp_neg_sq(b, _rational(_ERFC_MID, b))
    # NaN compares false both ways, so it takes this range and stays NaN
    i = np.flatnonzero(~(a <= _ERFC_MID_MAX) & ~(a >= _ERFC_UNDERFLOW))
    b = a[i]
    u = 1.0 / (b * b)
    u *= _rational(_ERFC_TAIL, u)
    np.subtract(_INV_SQRT_PI, u, out=u)
    u /= b
    q[i] = _half_exp_neg_sq(b, u)
    np.subtract(1.0, q, out=q, where=flat < -_ERF_INNER_MAX)  # the inner range took the sign already
    return q.reshape(y.shape)


def squared_distance_unitary(X: np.ndarray, delta, G: np.ndarray) -> float:
    """Z_X = ||(X o delta^T) G||_F^2 for a slot-varying forward process X.

    Computed both directly and as the per-slot sum over x_t diag(delta[:, t]) G;
    the two routes must agree to 1e-10 relative (RouteDisagreementError).
    """
    d = _as_diff(delta)
    X = np.asarray(X, dtype=complex)
    G = np.asarray(G, dtype=complex)
    if X.shape != (d.T, d.L):
        raise DimensionMismatchError(f"X must be {d.T}x{d.L}, got {X.shape}")
    if G.ndim != 2 or G.shape[0] != d.L:
        raise DimensionMismatchError(f"G must have {d.L} rows, got {G.shape}")
    direct = frobenius_norm_sq(mix(X, d.delta.T, G))
    per_slot = sum(frobenius_norm_sq(X[t][None, :] @ build_E_t(d, G, t + 1)) for t in range(d.T))
    return _agreed(direct, per_slot)


def squared_distance_uniform(y: np.ndarray, delta, G: np.ndarray) -> float:
    """Z_Y = sum_t ||y diag(delta[:, t]) G||_F^2 for a static forward row y.

    Also evaluated as ||y D||_F^2 with D the receive-antenna regrouping;
    the two routes must agree to 1e-10 relative (RouteDisagreementError).
    """
    d = _as_diff(delta)
    y = np.asarray(y, dtype=complex).reshape(1, -1)
    G = np.asarray(G, dtype=complex)
    if y.shape[1] != d.L:
        raise DimensionMismatchError(f"y must have {d.L} entries, got {y.shape}")
    if G.ndim != 2 or G.shape[0] != d.L:
        raise DimensionMismatchError(f"G must have {d.L} rows, got {G.shape}")
    e_form = sum(frobenius_norm_sq(y @ build_E_t(d, G, t + 1)) for t in range(d.T))
    d_form = frobenius_norm_sq(y @ build_D(d, G))
    return _agreed(e_form, d_form)


def _forward_rows(L: int, n: int, rng) -> np.ndarray:
    """n CN(0, I_L) rows, each up to a unit phase, as the columns of an L x n array.

    Entry 0 of each is sqrt(Exp(1)), one fill of n exponentials square-rooted, and then the
    other entries are CN(0, 1), filled row by row as ``sample_cn_matrix`` fills.
    """
    x = np.empty((L, n), dtype=complex)
    x[0] = np.sqrt(rng.standard_exponential(n))  # Im 0
    below = x[1:].view(float)
    rng.standard_normal(out=below)
    below *= _INV_SQRT2
    return x


def _batched_z(rows: int, d: DifferenceMatrix, N: int, n: int, rng) -> np.ndarray:
    """n draws of Z = ||(X o delta^T) G||_F^2 with `rows` Gaussian forward rows per draw.

    The unitary scheme draws T rows (one per slot), the uniform one a single static row,
    which broadcasts over the slots. X and then G are drawn for all n at once, X as
    ``_forward_rows`` (row r of draw k being row r n + k) and G as ``sample_gram_factor``'s
    canonical factors; ``channel.mix`` forms each slice's T x
    min(L, N) blocks, and Z adds up the squares of their real and then imaginary parts. ``even_slices`` gives no slice
    a single draw unless n is 1: numpy rounds a one-element complex product apart from
    its vector kernel, so such a slice would change the bits of Z at T = N = 1.
    """
    X = np.moveaxis(_forward_rows(d.L, rows * n, rng).reshape(d.L, rows, n), 0, 1)
    G = sample_gram_factor(d.L, N, n, rng)
    C = d.delta.T[:, :, None]
    z = np.empty(n)
    for s in even_slices(n):
        parts = mix(X[..., s], C, G[..., s]).view(float)  # per draw, Re and Im side by side
        np.square(parts, out=parts)
        squares = np.add.reduce(parts, axis=(0, 1))
        np.add(squares[::2], squares[1::2], out=z[s])
    return z


def _checked_args(query_kind: str, delta, dims: SystemDims, trials: int, snrs: list[float]):
    """Validate the estimators' shared arguments; return delta, its scheme weights, the gains of snrs and trials."""
    d = _as_diff(delta)
    A = scheme_weights(d, query_kind)  # rejects an unknown query_kind and overflowing weights
    trials = checked_integer("trials", trials)
    if (dims.L, dims.T) != (d.L, d.T):
        raise DimensionMismatchError(
            f"delta is {d.L}x{d.T} but dims expect L={dims.L}, T={dims.T}"
        )
    if not all(s < _SNR_DB_MAX for s in snrs):  # NaN fails too; -inf (gbar = 0) passes
        raise ValueError(f"snr_db: need points below {_SNR_DB_MAX:.4f} dB and no NaN, got {snrs!r:.100}")
    return d, A, [snr_gain(s) for s in snrs], trials


def _mc_mean(draw, trials: int, points: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Means and standard errors over `trials` samples; draw(n) yields `points` length-n samples."""
    # total_sq holds the sums of squares times 4^-exps. A batch whose squares sum below 2^-960 (below 1e-154, a
    # sample squares to 0) is summed again times 4^-e, 2^e above its largest magnitude: that scaling is exact
    total, total_sq, exps = np.zeros(points), np.zeros(points), np.zeros(points, dtype=int)
    done = 0
    while done < trials:
        n = min(_MC_BATCH, trials - done)
        for i, v in enumerate(draw(n)):
            total[i] += float(np.sum(v))
            sq, e = float(np.sum(v * v)), 0
            if sq < 2.0**-960 and np.any(v):
                e = max(int(np.frexp(max(v.max(), -v.min()))[1]), -1021)
                sq = float(np.sum(np.square(v * 2.0**-e)))
            if sq:  # a batch of zeros moves no scale
                top = max(exps[i], e) if total_sq[i] else e
                total_sq[i], exps[i] = np.ldexp(total_sq[i], 2 * (exps[i] - top)) + np.ldexp(sq, 2 * (e - top)), top
        done += n
    mean = total / trials
    var = np.maximum(total_sq / trials - np.ldexp(mean, -exps) ** 2, 0.0)
    return mean, np.ldexp(np.sqrt(var / trials), exps)


def pep_qfunction_mc(
    query_kind: str,
    delta,
    dims: SystemDims,
    snr_db: float,
    trials: int,
    rng: np.random.Generator,
) -> PepEstimate:
    """Monte Carlo of the exact pairwise error integral E[Q(sqrt(gbar Z / 2))].

    Both fading stages are redrawn every trial: the forward process enters
    as i.i.d. Gaussian slots (unitary) or one Gaussian row repeated over
    slots (uniform), each drawn up to its phase (``_batched_z``).
    """
    d, A, (gbar,), trials = _checked_args(query_kind, delta, dims, trials, [float(snr_db)])

    def draw(n):
        z = _batched_z(A.shape[0], d, dims.N, n, rng)
        with np.errstate(over="ignore"):  # near 3082.5 dB gbar z can pass 1e308; Q(inf) = 0 is the limit
            z *= gbar  # sqrt(gbar * z / 2), in place
        z /= 2.0
        return [qfunc(np.sqrt(z, out=z))]

    mean, se = _mc_mean(draw, trials)
    return PepEstimate(float(snr_db), float(mean[0]), float(se[0]), trials, METHOD_QFUNC)


def _gram_eigenvalues(G: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Eigenvalues of A_w o G G^H for a blocks-last L x N x n G, or its factor, and W x L x L weights A.

    Returns a C-contiguous (W L) x n array whose row w L + k holds eigenvalue k
    (ascending) of A_w o G G^H for every draw. Each slice of the draws
    (``even_slices``) forms its Gram matrices blocks last and takes their eigenvalues
    from contiguous entries, so no temporary spans the whole batch. The weights of
    several deltas may be stacked on W; they then share the draws of G.
    """
    W, L, _ = A.shape
    n = G.shape[-1]
    lam = np.empty((W, L, n))
    weights = A[..., None]
    try:  # finite weights near 1e308 can still overflow a Gram matrix; name delta, not NaN PEPs
        with np.errstate(over="ignore", invalid="ignore"):
            for s in even_slices(n):
                lam[..., s] = psd_eigenvalues(weights * gram(G[..., s]))
    except np.linalg.LinAlgError as exc:
        raise ValueError("delta: the Gram matrices A_w o G G^H are not finite; delta is too large") from exc
    return lam.reshape(W * L, n)


def _lambda_products(A: np.ndarray, N: int, n: int, gbars: list[float], rng):
    """Yield, per gbar, n draws of prod_w 1/det(I_L + (gbar/4) A_w o G G^H) from one draw of G's factor."""
    lam = _gram_eigenvalues(sample_gram_factor(A.shape[-1], N, n, rng), A)  # G's factor is freed here
    # 1 / prod_k (1 + (gbar/4) lam_k), reduced over the rows of lam: numpy multiplies them
    # in row order, as np.prod multiplies along a draw's eigenvalues, so the bits are np.prod's
    factors = np.empty_like(lam)
    for g in gbars:
        with np.errstate(over="ignore"):  # near 3082.5 dB a product can pass 1e308; 1 / inf = 0 is the limit
            np.multiply(lam, g / 4.0, out=factors)
            factors += 1.0
            prod = np.multiply.reduce(factors, axis=0)
        yield np.divide(1.0, prod, out=prod)


def pep_eigen_product_curve(
    query_kind: str, delta, dims: SystemDims, snr_grid, trials: int, rng: np.random.Generator
) -> list[PepEstimate]:
    """``pep_eigen_product_mc`` at every point of snr_grid, all from one set of G draws."""
    snrs = [float(s) for s in snr_grid]
    _, A, gbars, trials = _checked_args(query_kind, delta, dims, trials, snrs)
    mean, se = _mc_mean(lambda n: _lambda_products(A, dims.N, n, gbars, rng), trials, len(snrs))
    return [PepEstimate(s, float(m), float(e), trials, METHOD_EIGEN) for s, m, e in zip(snrs, mean, se)]


def pep_eigen_product_mc(
    query_kind: str,
    delta,
    dims: SystemDims,
    snr_db: float,
    trials: int,
    rng: np.random.Generator,
) -> PepEstimate:
    """Monte Carlo over G of prod_w 1 / det(I_L + (gbar/4) A_w o G G^H).

    A_w o G G^H is E_t E_t^H for each slot (unitary) or D D^H (uniform), so
    each determinant is the product of 1 + lam*gbar/4 over that Gram
    matrix's eigenvalues; zero eigenvalues contribute unit factors. At
    gbar = 0, or for a zero delta, every determinant is exactly 1 and so
    is the estimate. A one-point ``pep_eigen_product_curve``.
    """
    return pep_eigen_product_curve(query_kind, delta, dims, [snr_db], trials, rng)[0]


def decay_exponent(estimates: list[PepEstimate]) -> float:
    """Least-squares decay exponent R with value ~ gbar**(-R).

    Fits log10(value) against snr_db / 10 and negates the slope. Needs at least
    FIT_MIN_POINTS points spanning FIT_MIN_SPAN_DB dB, all with positive values.
    """
    if len(estimates) < FIT_MIN_POINTS:
        raise ValueError(f"need >= {FIT_MIN_POINTS} estimates to fit an exponent, got {len(estimates)}")
    snrs = np.array([e.snr_db for e in estimates], dtype=float)
    if snrs.max() - snrs.min() < FIT_MIN_SPAN_DB:
        raise ValueError(f"estimates span only {snrs.max() - snrs.min():.3g} dB; need >= {FIT_MIN_SPAN_DB:g} dB")
    vals = np.array([e.value for e in estimates], dtype=float)
    if np.any(vals <= 0.0):
        bad = snrs[vals <= 0.0]
        raise ValueError(f"nonpositive PEP values at snr_db={bad.tolist()}")
    x = snrs / 10.0
    coeffs = np.polyfit(x, np.log10(vals), 1)
    return float(-coeffs[0])


@dataclass(frozen=True)
class ScaledLimitReport:
    """Behavior of gbar**exponent * value across the estimate window."""

    exponent: int
    growth: float  # last scaled value / first scaled value
    z_score: float  # significance of log-growth vs propagated MC error
    divergent: bool


def check_scaled_limit(estimates: list[PepEstimate], exponent: int) -> ScaledLimitReport:
    """Test whether gbar**exponent * pep converges across the window.

    When the limiting expectation behind the high-SNR constant is finite,
    the scaled sequence flattens; systematic growth (factor above 3,
    significant at 3 sigma) flags a divergent average. A window whose values
    do not fall (every PEP still 1.0, say, far below 0 dB) has not started to
    decay, so it is not judged: a ValueError says so, as for a nonpositive
    endpoint, and no exponent is fitted to it. Growth is read in dB,
    ln growth = ln(last / first value) + exponent ln(10) (snr span in dB) / 10,
    so no power of gbar is formed; ``growth`` is inf past the float range. z
    combines the endpoints' errors as if independent, which is conservative
    for the positively correlated points of one ``pep_eigen_product_curve``.
    """
    if len(estimates) < 2:
        raise ValueError("need >= 2 estimates to assess the scaled limit")
    first, last = estimates[0], estimates[-1]
    if first.value <= 0.0 or last.value <= 0.0:
        raise ValueError("scaled-limit check needs positive endpoint values")
    if not last.value < first.value:
        raise ValueError(
            f"pep does not fall across {first.snr_db:g}-{last.snr_db:g} dB "
            f"({first.value:.3g} to {last.value:.3g}); no exponent fitted"
        )
    log_growth = np.log(last.value) - np.log(first.value)
    if exponent:  # gbar**0 is 1 even at -inf dB, where the span is infinite
        log_growth += exponent * np.log(10.0) * (last.snr_db - first.snr_db) / 10.0
    rel_err = np.hypot(first.std_error / first.value, last.std_error / last.value)
    z = log_growth / rel_err if rel_err > 0 else np.inf
    divergent = log_growth > np.log(_DIVERGENCE_GROWTH) and z > 3.0
    with np.errstate(over="ignore"):
        growth = np.exp(log_growth)
    return ScaledLimitReport(exponent, float(growth), float(z), bool(divergent))


def decay_exponent_checked(estimates: list[PepEstimate], nominal_exponent: int) -> float:
    """Fit the decay exponent after guarding the scaled-limit convergence.

    Raises DivergentAverageError, with the growth evidence in the message,
    when gbar**nominal * pep keeps growing across the window; in that case
    no exponent is reported because the asymptotic constant does not exist
    and the fitted slope would undershoot the nominal measure.
    """
    report = check_scaled_limit(estimates, nominal_exponent)
    if report.divergent:
        raise DivergentAverageError(
            f"scaled average gbar^{nominal_exponent} * pep grew by x{report.growth:.3g} "
            f"({report.z_score:.1f} sigma) across {estimates[0].snr_db:g}-"
            f"{estimates[-1].snr_db:g} dB; limiting expectation diverges, "
            "no exponent reported"
        )
    return decay_exponent(estimates)


PEP_CSV_HEADER = "snr_db,value,std_error,trials,method"
RATIO_CSV_HEADER = "snr_db,ratio,std_error,censored"


def pep_curve_to_csv(estimates: list[PepEstimate]) -> str:
    return csv_text(PEP_CSV_HEADER, map(astuple, estimates))


def pep_curve_from_csv(text: str) -> list[PepEstimate]:
    rows = csv_rows(text, PEP_CSV_HEADER, (float, float, float, int, str))
    return [PepEstimate(*f) for f in rows]


def ratio_curve_to_csv(points: list[RatioPoint]) -> str:
    return csv_text(RATIO_CSV_HEADER, map(astuple, points))


def ratio_curve_from_csv(text: str) -> list[RatioPoint]:
    rows = csv_rows(text, RATIO_CSV_HEADER, (float, float, float, int))
    return [RatioPoint(*f[:3], bool(f[3])) for f in rows]


def ratio_point(eu: PepEstimate, ef: PepEstimate) -> RatioPoint:
    """Unitary-to-uniform ratio of two estimates at one SNR.

    Standard errors are propagated from both estimates. A uniform-query
    estimate of exactly zero cannot form a ratio and gives a censored point.
    """
    if ef.value == 0.0:
        return RatioPoint(eu.snr_db, float("nan"), float("nan"), censored=True)
    ratio = eu.value / ef.value
    rel = np.hypot(
        eu.std_error / eu.value if eu.value > 0 else 0.0,
        ef.std_error / ef.value,
    )
    return RatioPoint(eu.snr_db, float(ratio), float(ratio * rel))


def pep_ratio_curve(
    delta,
    dims: SystemDims,
    snr_grid: list[float],
    trials: int,
    rng: np.random.Generator,
) -> list[RatioPoint]:
    """Unitary-to-uniform eigen-product PEP ratio (``ratio_point``) over a ``checked_snr_grid``.

    At each SNR the unitary estimate draws from ``rng`` before the uniform one.
    """
    points = []
    for snr in checked_snr_grid(snr_grid):
        eu = pep_eigen_product_mc("unitary", delta, dims, snr, trials, rng)
        ef = pep_eigen_product_mc("uniform", delta, dims, snr, trials, rng)
        points.append(ratio_point(eu, ef))
    return points
