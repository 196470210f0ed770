"""Unit tests for the pairwise error probability estimators."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erfc

from mlnsim.channel import SystemDims, effective_signal, mix, sample_channel, snr_gain
from mlnsim.codes import EXAMPLE1_DELTA, EXAMPLE3_DELTA, _as_diff, difference_matrix, pairwise_codebook_from_delta
from mlnsim.linalg import (
    DimensionMismatchError, make_rng, psd_eigenvalues, sample_blocks, sample_cn_matrix, sample_gram_factor,
)
from mlnsim.measure import build_D, build_E_t, scheme_weights
from mlnsim import pep
from mlnsim.pep import (
    DivergentAverageError,
    PEP_CSV_HEADER,
    RATIO_CSV_HEADER,
    PepEstimate,
    RouteDisagreementError,
    _batched_z,
    _gram_eigenvalues,
    _lambda_products,
    _mc_mean,
    check_scaled_limit,
    decay_exponent,
    decay_exponent_checked,
    pep_curve_from_csv,
    pep_curve_to_csv,
    pep_eigen_product_curve,
    pep_eigen_product_mc,
    pep_qfunction_mc,
    pep_ratio_curve,
    qfunc,
    ratio_curve_from_csv,
    ratio_curve_to_csv,
    ratio_point,
    squared_distance_uniform,
    squared_distance_unitary,
)
from mlnsim.query import unitary_query
from mlnsim.simulate import SnrSweepConfig, ml_detect

DIMS1 = SystemDims(2, 2, 2, 2)
DIMS3 = SystemDims(2, 1, 2, 2)
DIMS_SCALAR = SystemDims(1, 1, 1, 1)
DELTA_SCALAR = np.array([[2.0]])
# L = T = N = 3, and a delta whose middle slot carries no difference
DELTA_333 = np.array([[1.0, -1j, 2.0], [0.5 + 1j, 2.0, -1.0], [-2.0, 1j, 1.5]])
DIMS_333 = SystemDims(3, 3, 3, 3)
DELTA_ZERO_COL = np.array([[1.0, 0.0, -2.0], [2.0 + 1j, 0.0, 1.0]])
DIMS_ZERO_COL = SystemDims(3, 2, 3, 3)
_DISTANCE_CASES = [
    (EXAMPLE1_DELTA, DIMS1), (EXAMPLE3_DELTA, DIMS3), (DELTA_333, DIMS_333), (DELTA_ZERO_COL, DIMS_ZERO_COL),
]
# T = N = 1 with L = 1, 2, 3: numpy rounds a one-element complex product apart from its
# vector kernel, so a slice of a single draw would change the bits of Z here
_SCALAR_SLOT_CASES = [
    (np.array([[0.8 - 0.3j]]), SystemDims(1, 1, 1, 1)),
    (np.array([[1.0 + 0.5j], [-0.7j]]), SystemDims(1, 2, 1, 1)),
    (np.array([[0.3], [1.2 - 1j], [-0.4 + 0.9j]]), SystemDims(1, 3, 1, 1)),
]
# the law test's L x 2 delta is this array's first L rows; its columns mix phases, so the
# relative phases of a forward row's entries move Z
DELTA_PHASED = np.array([[1.0, 0.6j], [-0.8j, 1.1 - 0.4j], [0.5 + 0.9j, -1.0]])


def _qfunc(x):
    return 0.5 * erfc(x / np.sqrt(2))


def test_qfunc_matches_erfc_reference():
    # relative agreement wherever the reference is a normal float; Q underflows past x ~ 38.5
    x = np.linspace(0.0, 38.5, 200_001)
    ref = _qfunc(x)
    got = qfunc(x)
    normal = ref > 1e-300
    assert normal.sum() > 190_000
    assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= 1e-13
    assert qfunc(0.0) == 0.5 and qfunc(np.inf) == 0.0
    assert qfunc(x.reshape(-1, 1)).shape == (x.size, 1)


def _qfunc_stdlib(x):
    """0.5 * math.erfc(x / sqrt 2) entry by entry: the standard library as an independent reference."""
    y = np.asarray(x, dtype=float) / np.sqrt(2.0)
    return np.array([0.5 * math.erfc(v) for v in y.ravel().tolist()]).reshape(y.shape)


# fixed before the vectorised erfc was written: relative where the reference is a
# normal float, and within two subnormal steps of it in the tail below that
_QFUNC_RTOL = 2e-15
_SUBNORMAL_STEP = 2.0**-1074


def test_qfunc_edge_semantics():
    x = np.linspace(0.0, 40.0, 4001)
    for v in (np.nan, [np.nan, 1.0, -np.inf, 0.2]):
        assert np.isnan(qfunc(v)).tolist() == np.isnan(v).tolist()
    assert qfunc(-np.inf) == 1.0 and qfunc(np.inf) == 0.0
    assert qfunc([-np.inf, 3.0, np.inf])[[0, 2]].tolist() == [1.0, 0.0]
    # negative x gives 1 - Q(|x|), to the spacing of the floats in [0.5, 1]
    assert np.max(np.abs(qfunc(-x) - _qfunc_stdlib(-x)) / _qfunc_stdlib(-x)) <= _QFUNC_RTOL
    assert np.max(np.abs(qfunc(-x) - (1.0 - qfunc(x)))) <= np.finfo(float).eps
    for shape in [(), (0,), (3, 0), (2, 1)]:
        got = qfunc(np.full(shape, 0.3))
        assert got.shape == shape and got.dtype == np.float64


def test_qfunc_dense_at_rational_boundaries():
    # erfc arguments around 0.46875 and 4, where the rational approximation changes,
    # around 26.55, where erfc leaves the normal floats, and on through the subnormal
    # tail to past the point where Q underflows to zero; both signs
    y = np.concatenate(
        [np.linspace(b - 2e-3, b + 2e-3, 40_001) for b in (0.46875, 4.0, 26.55)]
        + [np.linspace(26.4, 27.5, 40_001)]
    )
    x = np.concatenate([y, -y]) * np.sqrt(2.0)
    ref, got = _qfunc_stdlib(x), qfunc(x)
    normal = ref >= np.finfo(float).tiny
    assert normal.sum() > 120_000 and (~normal).sum() > 20_000 and np.any(ref == 0.0)
    assert np.max(np.abs(got[normal] - ref[normal]) / ref[normal]) <= _QFUNC_RTOL
    tail = ~normal
    assert np.all(np.abs(got[tail] - ref[tail]) <= _QFUNC_RTOL * ref[tail] + 2 * _SUBNORMAL_STEP)


_PEP_ROUTES = {
    "qfunction": lambda snr: pep_qfunction_mc("unitary", EXAMPLE1_DELTA, DIMS1, snr, 10, make_rng(40)),
    "eigen-mc": lambda snr: pep_eigen_product_mc("uniform", EXAMPLE1_DELTA, DIMS1, snr, 10, make_rng(40)),
    "eigen-curve": lambda snr: pep_eigen_product_curve("unitary", EXAMPLE1_DELTA, DIMS1, [0.0, snr], 10, make_rng(40)),
}


@pytest.mark.parametrize("route", sorted(_PEP_ROUTES))
@pytest.mark.parametrize("snr", [3100.0, np.nan, np.inf])
def test_pep_routes_name_an_snr_past_the_gain_range(route, snr):
    # 10**(snr/10) overflows a float past about 3082.5 dB; NaN would give a NaN estimate
    with pytest.raises(ValueError, match="^snr_db: "):
        _PEP_ROUTES[route](snr)


@pytest.mark.parametrize("route", sorted(_PEP_ROUTES))
def test_pep_routes_reach_zero_at_the_top_of_the_gain_range_without_a_warning(route):
    # at 3080 dB gbar Z and the eigen-products overflow to inf, and Q(inf) = 1 / inf = 0 is the PEP's limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate = _PEP_ROUTES[route](3080.0)
    assert (estimate[-1] if isinstance(estimate, list) else estimate).value == 0.0


_TRIALS_ROUTES = {
    "qfunction": lambda n: [pep_qfunction_mc("unitary", EXAMPLE1_DELTA, DIMS1, 10.0, n, make_rng(40))],
    "eigen-mc": lambda n: [pep_eigen_product_mc("uniform", EXAMPLE1_DELTA, DIMS1, 10.0, n, make_rng(40))],
    "eigen-curve": lambda n: pep_eigen_product_curve("unitary", EXAMPLE1_DELTA, DIMS1, [0.0, 10.0], n, make_rng(40)),
}


@pytest.mark.parametrize("route", sorted(_TRIALS_ROUTES))
@pytest.mark.parametrize("trials", [True, 2.5, 0, np.int64(0)])
def test_pep_routes_name_a_bad_trials_count(route, trials):
    with pytest.raises(ValueError, match=f"^{re.escape(f'trials must be an integer >= 1, got {trials!r}')}$"):
        _TRIALS_ROUTES[route](trials)


@pytest.mark.parametrize("route", sorted(_TRIALS_ROUTES))
def test_pep_routes_record_a_numpy_count_as_an_int(route):
    estimates = _TRIALS_ROUTES[route](np.int64(7))
    assert estimates == _TRIALS_ROUTES[route](7)
    assert all(type(e.trials) is int for e in estimates)
    json.dumps([e.trials for e in estimates])


class TestSquaredDistanceUnitary:
    def test_zero_delta(self):
        X = sample_cn_matrix(2, 2, make_rng(1))
        G = sample_cn_matrix(2, 2, make_rng(2))
        assert squared_distance_unitary(X, np.zeros((2, 2)), G) == 0.0

    def test_scalar_chain(self):
        x = np.array([[0.5 + 0.5j]])
        g = np.array([[2.0 - 1j]])
        z = squared_distance_unitary(x, DELTA_SCALAR, g)
        assert z == pytest.approx(abs(x[0, 0]) ** 2 * 4.0 * abs(g[0, 0]) ** 2)

    def test_example1_hand_value(self):
        z = squared_distance_unitary(np.ones((2, 2)), EXAMPLE1_DELTA, np.eye(2))
        assert z == pytest.approx(13.5)

    def test_routes_agree_on_random_draws(self):
        rng = make_rng(3)
        for _ in range(200):
            L, T, N = (int(rng.integers(1, 4)) for _ in range(3))
            delta = sample_cn_matrix(L, T, rng)
            X = sample_cn_matrix(T, L, rng)
            G = sample_cn_matrix(L, N, rng)
            direct = float(np.sum(np.abs((X * delta.T) @ G) ** 2))
            assert squared_distance_unitary(X, delta, G) == pytest.approx(direct, rel=1e-12)


class TestSquaredDistanceUniform:
    def test_zero_row(self):
        G = sample_cn_matrix(2, 2, make_rng(4))
        assert squared_distance_uniform(np.zeros(2), EXAMPLE1_DELTA, G) == 0.0

    def test_single_antenna_separable(self):
        rng = make_rng(5)
        y = sample_cn_matrix(1, 1, rng)
        G = sample_cn_matrix(1, 3, rng)
        delta = np.array([[2.0, -1.0, 0.5]])
        z = squared_distance_uniform(y, delta, G)
        separable = (
            abs(y[0, 0]) ** 2
            * np.sum(np.abs(delta) ** 2)
            * np.sum(np.abs(G) ** 2)
        )
        assert z == pytest.approx(separable, rel=1e-12)

    def test_example1_double_loop_oracle(self):
        y = np.array([1.0, 1.0])
        G = np.eye(2)
        z = squared_distance_uniform(y, EXAMPLE1_DELTA, G)
        expected = 0.0
        for t in range(2):
            for n in range(2):
                acc = sum(y[l] * EXAMPLE1_DELTA[l, t] * G[l, n] for l in range(2))
                expected += abs(acc) ** 2
        assert z == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(13.5)


def test_route_disagreement_raises(monkeypatch):
    import mlnsim.pep as pep_mod

    real = pep_mod.build_E_t
    monkeypatch.setattr(pep_mod, "build_E_t", lambda d, G, t: 1.001 * real(d, G, t))
    with pytest.raises(RouteDisagreementError, match="disagree"):
        squared_distance_unitary(np.ones((2, 2)), EXAMPLE1_DELTA, np.eye(2))
    with pytest.raises(RouteDisagreementError, match="disagree"):
        squared_distance_uniform(np.ones(2), EXAMPLE1_DELTA, np.eye(2))


class TestQFunctionMc:
    def test_low_snr_limit(self):
        est = pep_qfunction_mc("unitary", EXAMPLE1_DELTA, DIMS1, -60.0, 20_000, make_rng(6))
        assert abs(est.value - 0.5) < 0.01

    def test_zero_gbar_is_half(self):
        # -inf dB stays a valid point, as it is for the eigen-product routes
        est = pep_qfunction_mc("unitary", EXAMPLE1_DELTA, DIMS1, -np.inf, 100, make_rng(7))
        assert est.value == 0.5 and est.std_error == 0.0

    def test_zero_delta_is_half(self):
        est = pep_qfunction_mc("uniform", np.zeros((2, 2)), DIMS1, 15.0, 100, make_rng(7))
        assert est.value == 0.5
        assert est.std_error == 0.0

    def test_scalar_bpsk_quadrature_oracle(self):
        gbar = 100.0  # 20 dB
        oracle, quad_err = dblquad(
            lambda v, u: _qfunc(np.sqrt(2.0 * gbar * u * v)) * np.exp(-u - v),
            0.0, 50.0, lambda u: 0.0, lambda u: 50.0,
        )
        assert oracle == pytest.approx(1.1042582564e-02, rel=1e-6)
        assert quad_err < 1e-6
        est = pep_qfunction_mc("unitary", DELTA_SCALAR, DIMS_SCALAR, 20.0, 200_000, make_rng(8))
        assert abs(est.value - oracle) < 3 * est.std_error

    def test_two_receive_antenna_quadrature_oracle(self):
        # L = T = 1, N = 2: Z = 4 u r with u = |x|^2 ~ Exp(1) and r = G G^H ~ Gamma(2), the
        # square of the Gram factor's one diagonal entry; the exact PEP of each route is a
        # quadrature: E Q(sqrt(2 gbar u r)) and E 1 / (1 + gbar r)
        gbar, dims = 100.0, SystemDims(1, 1, 2, 1)  # 20 dB
        q_oracle, q_err = dblquad(
            lambda r, u: _qfunc(np.sqrt(2.0 * gbar * u * r)) * r * np.exp(-u - r),
            0.0, 50.0, lambda u: 0.0, lambda u: 60.0,
        )
        e_oracle, e_err = quad(lambda r: r * np.exp(-r) / (1.0 + gbar * r), 0.0, np.inf)
        assert q_err < 1e-6 and e_err < 1e-8
        q = pep_qfunction_mc("unitary", DELTA_SCALAR, dims, 20.0, 200_000, make_rng(8, (2,)))
        e = pep_eigen_product_mc("unitary", DELTA_SCALAR, dims, 20.0, 200_000, make_rng(8, (3,)))
        assert abs(q.value - q_oracle) < 3 * q.std_error
        assert abs(e.value - e_oracle) < 3 * e.std_error

    def test_schemes_coincide_for_single_slot(self):
        # with T == 1 the slot-varying and static forward processes match
        dims = SystemDims(1, 2, 2, 1)
        delta = np.array([[1.0], [2.0]])
        a = pep_qfunction_mc("unitary", delta, dims, 10.0, 50_000, make_rng(9))
        b = pep_qfunction_mc("uniform", delta, dims, 10.0, 50_000, make_rng(10))
        assert abs(a.value - b.value) < 3 * np.hypot(a.std_error, b.std_error)


    @pytest.mark.parametrize("delta, dims", _DISTANCE_CASES)
    @pytest.mark.parametrize("scheme", ["unitary", "uniform"])
    def test_draw_order_matches_scalar_distances(self, monkeypatch, scheme, delta, dims):
        # per batch: the forward rows (T per draw for unitary, 1 for uniform) as rows n
        # _forward_rows, row r of draw k being row r n + k, then G's L x min(L, N) factors
        import mlnsim.pep as pep_mod

        monkeypatch.setattr(pep_mod, "_MC_BATCH", 64)
        trials, snr = 150, 10.0
        est = pep_qfunction_mc(scheme, delta, dims, snr, trials, make_rng(31))
        rng = make_rng(31)
        L, T, N = dims.L, dims.T, dims.N
        rows = T if scheme == "unitary" else 1
        z = []
        for n in (64, 64, 22):
            F = pep._forward_rows(L, rows * n, rng)
            G = np.moveaxis(sample_gram_factor(L, N, n, rng), -1, 0)
            for k in range(n):
                X = F[:, k::n].T  # rows x L
                if scheme == "unitary":
                    z.append(squared_distance_unitary(X, delta, G[k]))
                else:
                    z.append(squared_distance_uniform(X[0], delta, G[k]))
        gbar = 10.0 ** (snr / 10.0)
        expected = np.mean(qfunc(np.sqrt(gbar * np.array(z) / 2.0)))
        assert est.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("delta, dims", _DISTANCE_CASES + _SCALAR_SLOT_CASES)
    @pytest.mark.parametrize("scheme", ["unitary", "uniform"])
    def test_slices_change_no_bit(self, monkeypatch, scheme, delta, dims):
        # batches of 50 and 30 draws in slices of at most 7: each batch crosses several
        # slice boundaries, 50 = 2 * 7 + 6 * 6 and 30 = 5 * 6; Z itself is compared too,
        # on 1 to 99 draws, as a changed last bit of one draw seldom moves the estimate
        import mlnsim.linalg as linalg_mod
        import mlnsim.pep as pep_mod

        monkeypatch.setattr(pep_mod, "_MC_BATCH", 50)
        d = _as_diff(delta)
        rows = d.T if scheme == "unitary" else 1
        runs = []
        for z_slice in (7, 50):
            monkeypatch.setattr(linalg_mod, "_SLICE", z_slice)
            est = pep_qfunction_mc(scheme, delta, dims, 5.0, 130, make_rng(32))
            zs = [_batched_z(rows, d, dims.N, n, make_rng(n)).tobytes() for n in range(1, 100)]
            runs.append((est.value, est.std_error, zs))
        assert runs[0] == runs[1]

    def test_z_is_the_squared_norm_of_mix_bit_for_bit(self):
        # on the same draws, _batched_z's Z is sum |mix(X, delta^T, G)|^2
        # as the squares of the real parts summed over (t, n)
        # in order, plus those of the imaginary parts, for T forward rows and for one
        # static row broadcast over the slots (test_slices_change_no_bit covers slicing)
        rng = make_rng(34)
        for case in range(60):
            L, T, N = (int(rng.integers(1, 5)) for _ in range(3))
            d = difference_matrix(sample_cn_matrix(T, L, rng), sample_cn_matrix(T, L, rng))
            n = int(rng.integers(1, 40))
            for rows in (T, 1):
                z = _batched_z(rows, d, N, n, make_rng(case))
                redraw = make_rng(case)
                X = np.moveaxis(pep._forward_rows(L, rows * n, redraw).reshape(L, rows, n), 0, 1)
                G = sample_gram_factor(L, N, n, redraw)
                S = mix(X, d.delta.T[:, :, None], G)
                ref = sum(np.square(S.real).reshape(-1, n)) + sum(np.square(S.imag).reshape(-1, n))
                assert np.array_equal(z.view(np.uint64), ref.view(np.uint64)), (case, rows)

    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_z_has_the_law_of_whole_channel_draws(self, L, N):
        # _batched_z's Z against Z = ||(X o delta^T) G||_F^2 on whole CN(0, 1) draws of X and
        # G (sample_blocks, then channel.mix), for T forward rows and for one static row: the
        # mean and the second moment agree within 5 standard errors of their difference
        n = 100_000
        d = _as_diff(DELTA_PHASED[:L])
        C = d.delta.T[:, :, None]
        for rows in (d.T, 1):
            fast = _batched_z(rows, d, N, n, make_rng(35, (L, N, rows)))
            redraw = make_rng(36, (L, N, rows))
            X = sample_blocks((rows, L), n, redraw)
            S = mix(X, C, sample_blocks((L, N), n, redraw))
            whole = np.sum(S.real**2 + S.imag**2, axis=(0, 1))
            for power in (1, 2):
                a, b = fast**power, whole**power
                se = math.sqrt((a.var() + b.var()) / n)
                assert abs(a.mean() - b.mean()) <= 5.0 * se, (rows, power)

    def test_overflowing_delta_is_named(self):
        for kind in ("unitary", "uniform"):
            with pytest.raises(ValueError, match="^delta: "):
                pep_qfunction_mc(kind, np.array([[1e200, 1.0], [1.0, 1.0]]), DIMS1, 10.0, 10, make_rng(33))

    def test_tiny_pep_keeps_a_positive_standard_error(self):
        # at these points two or more samples are nonzero and every one lies below 1e-154,
        # whose square is 0: the standard error stays positive and below the value, so the
        # scaled-limit check against 10 dB reads a finite z
        d = _as_diff(EXAMPLE1_DELTA)
        for kind, snr in (("unitary", 40.0), ("uniform", 44.0)):
            z = _batched_z(d.T if kind == "unitary" else 1, d, DIMS1.N, 20_000, make_rng(2, (30, 0)))
            samples = qfunc(np.sqrt(snr_gain(snr) * z / 2.0))  # the point's samples, on its stream
            assert np.count_nonzero(samples) >= 2 and samples.max() < 1e-154, kind
            low, high = (pep_qfunction_mc(kind, EXAMPLE1_DELTA, DIMS1, s, 20_000, make_rng(2, (30, 0)))
                         for s in (10.0, snr))
            assert 0.0 < high.std_error < high.value < 1e-150, kind
            assert np.isfinite(check_scaled_limit([low, high], 0).z_score), kind


def _mc_of(monkeypatch, samples):
    """_mc_mean over the rows of samples (points x trials), drawn 1000 columns at a time."""
    done = 0

    def draw(n):
        nonlocal done
        done += n
        return list(samples[:, done - n : done])

    monkeypatch.setattr(pep, "_MC_BATCH", 1_000)
    return _mc_mean(draw, samples.shape[1], len(samples))


def _growing_samples(seed):
    """3 x 2500 positive samples whose three batches grow in magnitude, so the scale of the squares moves."""
    return (make_rng(seed).random((3, 2_500)) ** 4 + 1e-3) * np.repeat([1e-30, 1.0, 1e5], [1_000, 1_000, 500])


class TestMcMean:
    def test_unscaled_bits_where_nothing_underflows(self, monkeypatch):
        # the mean is the plain sum over trials; the standard error is the textbook one,
        # from the sums of the batches' squares, bit for bit
        samples = _growing_samples(36)
        mean, se = _mc_of(monkeypatch, samples)
        batches = np.split(samples, [1_000, 2_000], axis=1)
        want_mean = sum(np.sum(b, axis=1) for b in batches) / 2_500
        sq = sum(np.sum(b * b, axis=1) for b in batches)
        want_se = np.sqrt(np.maximum(sq / 2_500 - want_mean * want_mean, 0.0) / 2_500)
        assert np.array_equal(mean, want_mean) and np.array_equal(se, want_se)

    @pytest.mark.parametrize("k", [1, 600, 900])
    def test_samples_scaled_by_a_power_of_two_scale_both_results(self, monkeypatch, k):
        # 2^-k times the samples give 2^-k times the mean and standard error, bit for bit,
        # also once their squares are far below the smallest float (from k = 600 on, all are)
        samples = _growing_samples(37)
        mean, se = _mc_of(monkeypatch, samples)
        tiny_mean, tiny_se = _mc_of(monkeypatch, np.ldexp(samples, -k))
        assert np.array_equal(tiny_mean, np.ldexp(mean, -k)) and np.array_equal(tiny_se, np.ldexp(se, -k))
        assert np.all(tiny_se > 0.0)

    def test_zero_and_nan_batches(self, monkeypatch):
        assert _mc_of(monkeypatch, np.zeros((1, 3_000))) == (np.zeros(1), np.zeros(1))
        nan = np.ones((1, 3_000))
        nan[0, 1_500] = np.nan
        mean, se = _mc_of(monkeypatch, nan)
        assert np.isnan(mean[0]) and np.isnan(se[0])


class TestEigenProductMc:
    def test_zero_gbar_gives_one(self):
        est = pep_eigen_product_mc("unitary", EXAMPLE1_DELTA, DIMS1, -np.inf, 100, make_rng(11))
        assert est.value == 1.0
        assert est.std_error == 0.0

    def test_zero_delta_gives_one(self):
        est = pep_eigen_product_mc("uniform", np.zeros((2, 2)), DIMS1, 30.0, 100, make_rng(12))
        assert est.value == 1.0

    def test_example1_unitary_scaled_average_diverges(self):
        # gbar**4 * pep keeps growing with SNR: the limiting expectation
        # behind the nominal exponent 4 is infinite for this code, so the
        # divergence guard must fire rather than an exponent be reported.
        rng = make_rng(13)
        ests = [
            pep_eigen_product_mc("unitary", EXAMPLE1_DELTA, DIMS1, snr, 100_000, rng)
            for snr in (30.0, 40.0)
        ]
        growth = (ests[1].value * 1e16) / (ests[0].value * 1e12)
        assert 3.0 < growth < 30.0
        assert check_scaled_limit(ests, 4).divergent

    def test_example1_uniform_scaled_average_converges(self):
        rng = make_rng(14)
        ests = [
            pep_eigen_product_mc("uniform", EXAMPLE1_DELTA, DIMS1, snr, 100_000, rng)
            for snr in (30.0, 40.0)
        ]
        rep = check_scaled_limit(ests, 2)
        assert not rep.divergent
        assert 0.8 < rep.growth < 1.25

    def test_upper_bounds_qfunction(self):
        rng = make_rng(15)
        for delta, dims in ((EXAMPLE1_DELTA, DIMS1), (EXAMPLE3_DELTA, DIMS3)):
            for scheme in ("unitary", "uniform"):
                for snr in (0.0, 10.0, 20.0):
                    prod = pep_eigen_product_mc(scheme, delta, dims, snr, 20_000, rng)
                    exact = pep_qfunction_mc(scheme, delta, dims, snr, 20_000, rng)
                    assert prod.value >= exact.value - 3 * np.hypot(prod.std_error, exact.std_error)

    @pytest.mark.parametrize("big", [1e200, 1e154])
    def test_overflowing_delta_is_named(self, big):
        # every entry is finite, but delta delta^H (1e200) or the Gram matrices (1e154, whose
        # weights are still finite) overflow; eigvalsh turned either into NaN PEPs
        for kind in ("unitary", "uniform"):
            with pytest.raises(ValueError, match="^delta: "):
                pep_eigen_product_curve(kind, np.array([[big, 1.0], [1.0, 1.0]]), DIMS1, [10.0], 100, make_rng(17))

    def test_monotone_in_snr(self):
        rng = make_rng(16)
        for scheme in ("unitary", "uniform"):
            prev = None
            for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
                est = pep_eigen_product_mc(scheme, EXAMPLE3_DELTA, DIMS3, snr, 20_000, rng)
                if prev is not None:
                    assert est.value <= prev.value + 3 * np.hypot(est.std_error, prev.std_error)
                prev = est


class TestGramDeterminant:
    """The determinant form against the SVD eigen-product it replaced."""

    RTOL = 1e-9
    DRAWS = 500

    @staticmethod
    def _svd_eigen_product(kind, delta, G, gbar):
        T = delta.shape[1]
        Gl = np.moveaxis(G, 0, -1)  # the builders batch blocks last
        mats = [build_E_t(delta, Gl, t + 1) for t in range(T)] if kind == "unitary" else [build_D(delta, Gl)]
        out = np.ones(G.shape[0])
        for M in mats:
            lam = np.linalg.svd(np.moveaxis(M, -1, 0), compute_uv=False) ** 2
            out *= np.prod(1.0 / (1.0 + lam * gbar / 4.0), axis=1)
        return out

    def _both(self, kind, delta, N, gbar, seed):
        L = delta.shape[0]
        A = scheme_weights(delta, kind)
        got = next(_lambda_products(A, N, self.DRAWS, [gbar], make_rng(seed)))
        G = np.moveaxis(sample_gram_factor(L, N, self.DRAWS, make_rng(seed)), -1, 0)
        return got, self._svd_eigen_product(kind, delta, G, gbar)

    def test_matches_svd_on_same_draws(self, monkeypatch):
        # LAPACK's eigvalsh runs only for L >= 3; for L <= 2 the closed form of
        # psd_eigenvalues gives the Gram eigenvalues, and it matches eigvalsh
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(np.shape(m)[-1]) or eigvalsh(m))
        rng = make_rng(40)
        for trial in range(60):
            L, T, N = (int(rng.integers(1, 4)) for _ in range(3))
            delta = sample_cn_matrix(L, T, rng)
            if trial % 2:
                delta[:, int(rng.integers(T))] = 0.0
            gbar = 10.0 ** (float(rng.choice([0.0, 10.0, 30.0, 45.0])) / 10.0)
            for kind in ("unitary", "uniform"):
                calls.clear()
                got, ref = self._both(kind, delta, N, gbar, 100 + trial)
                np.testing.assert_allclose(got, ref, rtol=self.RTOL, atol=0.0)
                assert calls == ([L] if L >= 3 else [])
                G = np.moveaxis(sample_blocks((L, N), self.DRAWS, make_rng(trial)), -1, 0)
                grams = scheme_weights(delta, kind) * (G @ G.conj().swapaxes(1, 2))[:, None]
                lam, ref_lam = np.moveaxis(psd_eigenvalues(np.moveaxis(grams, 0, -1)), -1, 0), eigvalsh(grams)
                assert np.all(np.abs(lam - ref_lam) <= 8 * np.finfo(float).eps * ref_lam[..., -1:])

    def test_zero_delta_is_exactly_one(self):
        for kind in ("unitary", "uniform"):
            got, ref = self._both(kind, np.zeros((3, 2), dtype=complex), 2, 1e4, 41)
            assert np.all(got == 1.0)
            assert np.all(ref == 1.0)


def test_lambda_products_keep_every_bit_of_the_row_product(monkeypatch):
    # W * L eigenvalues per draw, 1 to 9 of them: each point's product must be
    # 1 / np.prod(1 + (gbar/4) lam, axis=1) on the same eigenvalues, bit for bit
    import mlnsim.pep as pep_mod

    seen = []
    real = pep_mod._gram_eigenvalues
    monkeypatch.setattr(pep_mod, "_gram_eigenvalues", lambda G, A: seen.append(real(G, A)) or seen[-1])
    rng = make_rng(70)
    gbars = [0.0, 10.0, 10.0**4.5]
    draws = 200
    for wl in range(1, 10):
        divisors = [k for k in range(1, wl + 1) if wl % k == 0]
        for kind in ("unitary", "uniform"):
            L = int(rng.choice(divisors)) if kind == "unitary" else wl
            T = wl // L if kind == "unitary" else int(rng.integers(1, 4))
            delta = sample_cn_matrix(L, T, rng)
            if T > 1 and wl % 2:
                delta[:, int(rng.integers(T))] = 0.0
            seen.clear()
            got = list(_lambda_products(scheme_weights(delta, kind), int(rng.integers(1, 4)), draws, gbars, rng))
            lam = seen[0].T
            assert lam.shape[1] == wl
            for g, v in zip(gbars, got):
                assert np.array_equal(v, 1.0 / np.prod(1.0 + (g / 4.0) * lam, axis=1))


def test_lambda_products_hold_no_whole_batch_gram_temporary():
    # example1 unitary (W = T = 2, L = N = 2) at 100k draws: the draw of G takes L N 16 B
    # per draw, the eigenvalues and the factors W L 8 B each; one whole-batch L x L x N x n
    # complex array, as G G^H formed at once needs, would add 128 B per draw to G's bytes
    L = N = 2
    n = 100_000
    A = scheme_weights(EXAMPLE1_DELTA, "unitary")
    for _ in _lambda_products(A, N, 1000, [10.0], make_rng(58)):  # warm-up
        pass
    tracemalloc.start()
    try:
        for _ in _lambda_products(A, N, n, [10.0, 30.0], make_rng(58)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (L * N + L * L * N) * 16 * n


class TestEigenProductCurve:
    """One set of G draws per curve, scored at every SNR point."""

    RTOL = 1e-9

    @staticmethod
    def _determinant_terms(kind, delta, G, gbar):
        """prod_w 1/det(I + (gbar/4) A_w o G G^H) per draw, with the batched G @ G^H."""
        A = scheme_weights(delta, kind)
        gram = G @ G.conj().transpose(0, 2, 1)
        M = (gbar / 4.0) * A * gram[:, None] + np.eye(delta.shape[0])
        return 1.0 / np.prod(np.linalg.det(M).real, axis=1)

    def test_matches_determinants_on_redrawn_g(self, monkeypatch):
        import mlnsim.pep as pep_mod

        monkeypatch.setattr(pep_mod, "_MC_BATCH", 128)
        trials = 300  # batches of 128, 128 and 44 draws
        rng = make_rng(50)
        for case in range(30):
            L, T, N = (int(rng.integers(1, 4)) for _ in range(3))
            delta = sample_cn_matrix(L, T, rng)
            if case % 2:
                delta[:, int(rng.integers(T))] = 0.0
            grid = sorted(rng.choice([0.0, 5.0, 10.0, 20.0, 30.0, 45.0], size=4, replace=False))
            dims = SystemDims(2, L, N, T)
            for kind in ("unitary", "uniform"):
                curve = pep_eigen_product_curve(kind, delta, dims, grid, trials, make_rng(200 + case))
                redraw = make_rng(200 + case)
                G = np.concatenate(
                    [np.moveaxis(sample_gram_factor(L, N, n, redraw), -1, 0) for n in (128, 128, 44)]
                )
                assert [e.snr_db for e in curve] == grid
                for est, snr in zip(curve, grid):
                    ref = self._determinant_terms(kind, delta, G, 10.0 ** (snr / 10.0))
                    assert est.trials == trials and est.method == "eigen-product-mc"
                    np.testing.assert_allclose(est.value, ref.mean(), rtol=self.RTOL, atol=0.0)
                    np.testing.assert_allclose(
                        est.std_error, ref.std() / np.sqrt(trials), rtol=1e-6, atol=1e-15
                    )

    def test_draws_do_not_grow_with_grid(self, monkeypatch):
        import mlnsim.pep as pep_mod

        monkeypatch.setattr(pep_mod, "_MC_BATCH", 100)
        drawn = []
        sample = pep_mod.sample_gram_factor

        def counting(L, N, n, rng):
            drawn.append((L, N, n))
            return sample(L, N, n, rng)

        monkeypatch.setattr(pep_mod, "sample_gram_factor", counting)
        trials = 250
        for points in (1, 2, 12):
            drawn.clear()
            grid = [10.0 + 3.0 * i for i in range(points)]
            pep_eigen_product_curve("unitary", EXAMPLE1_DELTA, DIMS1, grid, trials, make_rng(51))
            assert drawn == [(DIMS1.L, DIMS1.N, n) for n in (100, 100, 50)]

    def test_every_point_equals_a_one_point_run(self):
        grid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0]
        for delta, dims in ((EXAMPLE1_DELTA, DIMS1), (EXAMPLE3_DELTA, DIMS3)):
            for kind in ("unitary", "uniform"):
                curve = pep_eigen_product_curve(kind, delta, dims, grid, 3000, make_rng(52))
                for est, snr in zip(curve, grid):
                    assert est == pep_eigen_product_mc(kind, delta, dims, snr, 3000, make_rng(52))
                one = pep_eigen_product_curve(kind, delta, dims, [grid[0]], 3000, make_rng(52))
                assert one == [pep_eigen_product_mc(kind, delta, dims, grid[0], 3000, make_rng(52))]

    def test_zero_gbar_and_zero_delta_give_exactly_one(self):
        for kind in ("unitary", "uniform"):
            curve = pep_eigen_product_curve(kind, EXAMPLE1_DELTA, DIMS1, [-np.inf, 20.0], 500, make_rng(53))
            assert (curve[0].value, curve[0].std_error) == (1.0, 0.0)
            assert curve[1].value < 1.0
            zero = pep_eigen_product_curve(kind, np.zeros((2, 2)), DIMS1, [-np.inf, 0.0, 45.0], 500, make_rng(54))
            assert all((e.value, e.std_error) == (1.0, 0.0) for e in zero)

    def test_slices_change_no_bit(self, monkeypatch):
        # slices of at most 7 draws against each batch at once: batches of 50, 50 and 30
        # draws cross several slice boundaries, for L = 1 to 3 (L = 3 takes LAPACK's
        # eigvalsh); the eigenvalues of 1 to 40 draws are compared too, as a changed
        # last bit of one draw seldom moves an estimate
        import mlnsim.linalg as linalg_mod
        import mlnsim.pep as pep_mod

        monkeypatch.setattr(pep_mod, "_MC_BATCH", 50)
        rng = make_rng(56)
        grid = [0.0, 15.0, 30.0, 45.0]
        for case in range(12):
            L, T, N = (int(rng.integers(1, 4)) for _ in range(3))
            delta = sample_cn_matrix(L, T, rng)
            if case % 2:
                delta[:, int(rng.integers(T))] = 0.0
            dims = SystemDims(2, L, N, T)
            for kind in ("unitary", "uniform"):
                runs = []
                for most in (7, 10**9):
                    monkeypatch.setattr(linalg_mod, "_SLICE", most)
                    curve = pep_eigen_product_curve(kind, delta, dims, grid, 130, make_rng(57, (case,)))
                    A = scheme_weights(delta, kind)
                    lams = [_gram_eigenvalues(sample_blocks((L, N), n, make_rng(n)), A).tobytes() for n in range(1, 41)]
                    runs.append((curve, lams))
                assert runs[0] == runs[1]

    def test_gram_eigenvalues_layout(self):
        # row w L + k of the C-contiguous (W L) x n result is eigenvalue k of A_w o G G^H
        rng = make_rng(59)
        delta = sample_cn_matrix(3, 2, rng)
        G = sample_blocks((3, 2), 30, rng)
        A = scheme_weights(delta, "unitary")
        lam = _gram_eigenvalues(G, A)
        assert lam.shape == (2 * 3, 30) and lam.flags.c_contiguous
        grams = A[:, None] * np.einsum("lnk,mnk->klm", G, G.conj())[None]
        ref = np.linalg.eigvalsh(grams)  # W x n x L
        assert np.allclose(lam, ref.transpose(0, 2, 1).reshape(6, 30), rtol=0.0, atol=1e-12 * ref.max())

    def test_memory_does_not_grow_with_grid(self):
        # stacking one length-`trials` sample per point would add 56 x 4000 x 8 B (1.8 MB)
        pep_eigen_product_curve("unitary", EXAMPLE1_DELTA, DIMS1, [10.0], 4000, make_rng(55))  # warm-up
        peaks = []
        for points in (8, 64):
            grid = list(np.linspace(10.0, 45.0, points))
            tracemalloc.start()
            try:
                pep_eigen_product_curve("unitary", EXAMPLE1_DELTA, DIMS1, grid, 4000, make_rng(55))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 64 * 1024


class TestDecayExponent:
    def test_exact_power_law(self):
        ests = [PepEstimate(s, 10.0 ** (-2 * s / 10.0), 0.0, 1, "synthetic") for s in (10, 20, 30)]
        assert decay_exponent(ests) == pytest.approx(2.0, abs=1e-9)

    def test_example3_exponents(self):
        rng = make_rng(17)
        grid = (25.0, 30.0, 35.0, 40.0, 45.0)
        unit = [pep_eigen_product_mc("unitary", EXAMPLE3_DELTA, DIMS3, s, 100_000, rng) for s in grid]
        unif = [pep_eigen_product_mc("uniform", EXAMPLE3_DELTA, DIMS3, s, 100_000, rng) for s in grid]
        assert decay_exponent(unit) == pytest.approx(2.0, abs=0.5)
        assert decay_exponent(unif) == pytest.approx(1.0, abs=0.5)

    def test_too_few_points(self):
        ests = [PepEstimate(s, 0.1, 0.0, 1, "x") for s in (10, 25)]
        with pytest.raises(ValueError, match="3 estimates"):
            decay_exponent(ests)

    def test_span_too_small(self):
        ests = [PepEstimate(s, 0.1, 0.0, 1, "x") for s in (10, 14, 18)]
        with pytest.raises(ValueError, match="10 dB"):
            decay_exponent(ests)

    def test_nonpositive_values(self):
        ests = [PepEstimate(s, v, 0.0, 1, "x") for s, v in ((10, 0.1), (20, 0.0), (30, 0.01))]
        with pytest.raises(ValueError, match="nonpositive"):
            decay_exponent(ests)

    def test_checked_variant_raises_on_divergence(self):
        # synthetic gbar**-3 data checked against nominal exponent 4
        ests = [PepEstimate(s, 10.0 ** (-3 * s / 10.0), 0.0, 1, "synthetic") for s in (25, 35, 45)]
        with pytest.raises(DivergentAverageError, match="diverges"):
            decay_exponent_checked(ests, 4)
        assert decay_exponent_checked(ests, 3) == pytest.approx(3.0, abs=1e-6)


class TestScaledLimit:
    # gbar**4 underflows below about -770 dB and overflows above about 770 dB
    @pytest.mark.parametrize("snrs, k", [((-3000.0, -2990.0), 1), ((700.0, 790.0), 3)])
    def test_exact_power_law_growth(self, snrs, k):
        c = 1e-3 * snr_gain(snrs[0]) ** k  # pep = c gbar^-k is 1e-3 at the first point
        ests = [PepEstimate(s, c * snr_gain(s) ** -k, 0.0, 1, "synthetic") for s in snrs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_scaled_limit(ests, 4)
        assert rep.growth == pytest.approx(10.0 ** ((4 - k) * (snrs[1] - snrs[0]) / 10.0), rel=1e-12, abs=0.0)
        assert rep.divergent

    def test_growth_past_the_float_range_is_inf(self):
        ests = [PepEstimate(s, v, 0.0, 1, "synthetic") for s, v in ((-3000.0, 0.5), (3000.0, 1e-300))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_scaled_limit(ests, 4)
        assert rep.growth == np.inf and rep.z_score == np.inf and rep.divergent

    def test_exponent_zero_from_minus_inf_db(self):
        # gbar**0 is 1 even at gbar = 0, so the growth is the ratio of the values
        ests = [PepEstimate(-np.inf, 1.0, 0.0, 1, "synthetic"), PepEstimate(0.0, 0.5, 0.0, 1, "synthetic")]
        assert check_scaled_limit(ests, 0).growth == pytest.approx(0.5, rel=1e-15)


    @pytest.mark.parametrize("values", [(1.0, 1.0, 1.0), (0.2, 0.3, 0.25)], ids=["flat", "rising"])
    def test_window_that_does_not_fall_is_not_judged(self, values):
        # gbar**4 * pep grows by 1e8 across 20 dB, at infinite z when the SE is 0, but the
        # window has not started to decay: it is reported as not fitted, never as divergent
        ests = [PepEstimate(s, v, 0.0, 1, "synthetic") for s, v in zip((-3080.0, -3070.0, -3060.0), values)]
        for judge in (check_scaled_limit, decay_exponent_checked):
            with pytest.raises(ValueError, match="^pep does not fall across -3080--3060 dB"):
                judge(ests, 4)


class TestRatioPoint:
    def test_zero_uniform_estimate_is_censored(self):
        eu = PepEstimate(30.0, 1e-4, 1e-5, 100, "eigen-product-mc")
        ef = PepEstimate(30.0, 0.0, 0.0, 100, "eigen-product-mc")
        p = ratio_point(eu, ef)
        assert p.censored and p.snr_db == 30.0
        assert math.isnan(p.ratio) and math.isnan(p.std_error)

    def test_zero_unitary_estimate_gives_ratio_zero(self):
        # the relative error comes from ef alone (eu's is undefined at 0), so ratio * rel = 0
        eu = PepEstimate(30.0, 0.0, 0.0, 100, "eigen-product-mc")
        ef = PepEstimate(30.0, 2e-3, 4e-4, 100, "eigen-product-mc")
        p = ratio_point(eu, ef)
        assert (p.snr_db, p.ratio, p.std_error, p.censored) == (30.0, 0.0, 0.0, False)

    def test_both_positive_propagates_both_errors(self):
        eu = PepEstimate(30.0, 1e-3, 1e-4, 100, "eigen-product-mc")
        ef = PepEstimate(30.0, 2e-3, 4e-4, 100, "eigen-product-mc")
        p = ratio_point(eu, ef)
        assert p.ratio == 0.5 and not p.censored
        assert p.std_error == pytest.approx(0.5 * math.hypot(0.1, 0.2), rel=1e-15)


class TestRatioCurve:
    def test_zero_delta_ratio_one(self):
        pts = pep_ratio_curve(np.zeros((2, 2)), DIMS1, [0.0, 10.0, 20.0], 100, make_rng(18))
        assert all(p.ratio == pytest.approx(1.0) for p in pts)
        assert not any(p.censored for p in pts)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            pep_ratio_curve(EXAMPLE1_DELTA, DIMS1, [10.0, 10.0], 10, make_rng(19))

    def test_csv_roundtrip(self):
        pts = pep_ratio_curve(EXAMPLE3_DELTA, DIMS3, [10.0, 20.0], 1000, make_rng(20))
        again = ratio_curve_from_csv(ratio_curve_to_csv(pts))
        assert [(p.snr_db, p.ratio, p.std_error, p.censored) for p in again] == [
            (p.snr_db, p.ratio, p.std_error, p.censored) for p in pts
        ]


@pytest.mark.parametrize(
    "read, header",
    [(pep_curve_from_csv, PEP_CSV_HEADER), (ratio_curve_from_csv, RATIO_CSV_HEADER)],
)
def test_csv_short_row_names_line(read, header):
    with pytest.raises(ValueError, match="line 3"):
        read(f"{header}\n\n1,2\n")


@pytest.mark.parametrize(
    "read, row, column",
    [
        (pep_curve_from_csv, f"{PEP_CSV_HEADER}\n1,abc,3,4,m\n", "value"),
        (pep_curve_from_csv, f"{PEP_CSV_HEADER}\n1,2,3,4.5,m\n", "trials"),
        (ratio_curve_from_csv, f"{RATIO_CSV_HEADER}\n1,2,3,yes\n", "censored"),
    ],
)
def test_csv_non_numeric_field_names_line_and_column(read, row, column):
    with pytest.raises(ValueError, match=f"line 2, column '{column}'"):
        read(row)


def test_pep_csv_roundtrip():
    rng = make_rng(21)
    ests = [pep_eigen_product_mc("unitary", EXAMPLE3_DELTA, DIMS3, s, 1000, rng) for s in (10.0, 20.0)]
    again = pep_curve_from_csv(pep_curve_to_csv(ests))
    assert again == ests


# a guard on an operand's shape in each public entry point, for example1's 2 x 2 delta:
# (call, the operand its message must start with); G3 has three rows where L = 2
_G3 = np.ones((3, 2))
_SHAPE_GUARDS = {
    "estimator-dims": (lambda: pep_qfunction_mc("unitary", EXAMPLE1_DELTA, DIMS3, 10.0, 10, make_rng(0)), "delta"),
    "unitary-X": (lambda: squared_distance_unitary(np.ones((3, 2)), EXAMPLE1_DELTA, np.ones((2, 2))), "X"),
    "unitary-G": (lambda: squared_distance_unitary(np.ones((2, 2)), EXAMPLE1_DELTA, _G3), "G"),
    "uniform-y": (lambda: squared_distance_uniform(np.ones(3), EXAMPLE1_DELTA, np.ones((2, 2))), "y"),
    "uniform-G": (lambda: squared_distance_uniform(np.ones(2), EXAMPLE1_DELTA, _G3), "G"),
    "sweep-codebook": (
        lambda: SnrSweepConfig(dims=DIMS3, query_kind="dft", codebook=pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0],
                               snr_grid_db=(0.0,)),
        "codebook",
    ),
    "ml-detect-R": (
        lambda: ml_detect(np.ones((3, 2)), unitary_query(2, "dft"), sample_channel(DIMS1, make_rng(0)),
                          pairwise_codebook_from_delta(EXAMPLE1_DELTA)[0]),
        "R",
    ),
    "effective-signal-G": (
        lambda: effective_signal(unitary_query(2, "dft"), np.ones((2, 2)), np.ones((2, 2)), _G3), "G"
    ),
    "build-E-t-G": (lambda: build_E_t(EXAMPLE1_DELTA, _G3, 1), "G"),
}


@pytest.mark.parametrize("case", sorted(_SHAPE_GUARDS))
def test_shape_guards_name_the_operand(case):
    call, operand = _SHAPE_GUARDS[case]
    with pytest.raises(DimensionMismatchError, match=rf"^{operand} (is|must) "):
        call()
