"""Unit tests for the rank-based performance measures."""

import json
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnsim import linalg, measure
from mlnsim.codes import EXAMPLE1_DELTA, EXAMPLE3_DELTA, DifferenceMatrix
from mlnsim.linalg import make_rng, numeric_rank, sample_cn_matrix
from mlnsim.measure import (
    MeasureReport,
    build_D,
    build_E_t,
    compare_queries,
    empirical_rank_check,
    r_uniform,
    r_unitary,
    report_from_dict,
    scheme_weights,
)


class TestBuildEt:
    def test_zero_column_gives_zero_matrix(self):
        delta = np.array([[1.0, 0.0], [1.0, 0.0]])
        G = sample_cn_matrix(2, 2, make_rng(1))
        e2 = build_E_t(delta, G, 2)
        assert np.all(e2 == 0)

    def test_structure_matches_diag_product(self):
        G = sample_cn_matrix(2, 3, make_rng(2))
        e1 = build_E_t(EXAMPLE1_DELTA, G, 1)
        assert np.allclose(e1, np.diag([1.0, 1.5]) @ G)
        e2 = build_E_t(EXAMPLE1_DELTA, G, 2)
        assert np.allclose(e2, np.diag([-2.0, 2.5]) @ G)

    def test_example1_rank_statistics(self):
        rng = make_rng(3)
        for _ in range(1000):
            G = sample_cn_matrix(2, 2, rng)
            assert numeric_rank(build_E_t(EXAMPLE1_DELTA, G, 1)) == 2

    def test_example3_rank(self):
        rng = make_rng(4)
        for _ in range(1000):
            G = sample_cn_matrix(1, 2, rng)
            e1 = build_E_t(EXAMPLE3_DELTA, G, 1)
            assert e1.shape == (1, 2)
            assert numeric_rank(e1) == 1

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            build_E_t(EXAMPLE1_DELTA, np.ones((2, 2)), 3)


class TestBuildD:
    def test_zero_delta(self):
        G = sample_cn_matrix(2, 2, make_rng(5))
        assert np.all(build_D(np.zeros((2, 2)), G) == 0)

    def test_row_scaling_structure(self):
        G = sample_cn_matrix(2, 2, make_rng(6))
        D = build_D(EXAMPLE1_DELTA, G)
        assert D.shape == (2, 4)
        for n in range(2):
            block = D[:, 2 * n : 2 * n + 2]
            assert np.allclose(block, np.diag(G[:, n]) @ EXAMPLE1_DELTA)

    def test_example1_rank_statistics(self):
        rng = make_rng(7)
        for _ in range(1000):
            G = sample_cn_matrix(2, 2, rng)
            assert numeric_rank(build_D(EXAMPLE1_DELTA, G)) == 2

    def test_example3_shape_and_rank(self):
        rng = make_rng(8)
        G = sample_cn_matrix(1, 2, rng)
        D = build_D(EXAMPLE3_DELTA, G)
        assert D.shape == (1, 4)
        assert numeric_rank(D) == 1

    def test_column_regrouping_of_E_blocks(self):
        # D holds exactly the columns of (E_1 | ... | E_T), regrouped by antenna
        G = sample_cn_matrix(2, 2, make_rng(9))
        D = build_D(EXAMPLE1_DELTA, G)
        cols_d = sorted(map(tuple, np.round(D.T, 12)))
        cols_e = []
        for t in (1, 2):
            cols_e.extend(map(tuple, np.round(build_E_t(EXAMPLE1_DELTA, G, t).T, 12)))
        assert cols_d == sorted(cols_e)


def _last(a):
    """A stack led by its draws, laid out blocks last as the builders batch it."""
    return np.moveaxis(a, 0, -1)


class TestBatchedBuilders:
    def test_batched_equals_stacked_per_draw(self):
        rng = make_rng(30)
        for _ in range(50):
            L, T, N = (int(rng.integers(1, 4)) for _ in range(3))
            delta = sample_cn_matrix(L, T, rng)
            G = sample_cn_matrix(5 * L, N, rng).reshape(5, L, N)
            for t in range(1, T + 1):
                stacked = np.stack([build_E_t(delta, g, t) for g in G])
                assert np.array_equal(build_E_t(delta, _last(G), t), _last(stacked))
            stacked = np.stack([build_D(delta, g) for g in G])
            assert np.array_equal(build_D(delta, _last(G)), _last(stacked))

    def test_batch_row_count_checked(self):
        with pytest.raises(ValueError, match="rows"):
            build_D(EXAMPLE1_DELTA, _last(np.ones((4, 3, 2))))


class TestSchemeWeights:
    def test_gram_matrices_are_weighted_ggh(self):
        rng = make_rng(31)
        delta = sample_cn_matrix(3, 2, rng)
        G = sample_cn_matrix(3, 2, rng)
        ggh = G @ G.conj().T
        for t, A in enumerate(scheme_weights(delta, "unitary")):
            E = build_E_t(delta, G, t + 1)
            assert np.allclose(A * ggh, E @ E.conj().T, rtol=1e-12, atol=1e-12)
        (A,) = scheme_weights(delta, "uniform")
        D = build_D(delta, G)
        assert np.allclose(A * ggh, D @ D.conj().T, rtol=1e-12, atol=1e-12)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="query_kind"):
            scheme_weights(EXAMPLE1_DELTA, "dft")


class TestMeasures:
    def test_builtin_setting_values(self):
        assert r_unitary(EXAMPLE1_DELTA, 2) == 4
        assert r_unitary(EXAMPLE1_DELTA, 1) == 2
        assert r_unitary(EXAMPLE3_DELTA, 2) == 2
        assert r_uniform(EXAMPLE1_DELTA, 2) == 2
        assert r_uniform(EXAMPLE1_DELTA, 1) == 2
        assert r_uniform(EXAMPLE3_DELTA, 2) == 1

    def test_verdicts(self):
        assert compare_queries(EXAMPLE1_DELTA, 2).verdict == "unitary-dominates"
        assert compare_queries(EXAMPLE1_DELTA, 1).verdict == "comparable"
        assert compare_queries(EXAMPLE3_DELTA, 2).verdict == "unitary-dominates"

    def test_zero_delta_degenerate(self):
        rep = compare_queries(np.zeros((2, 2)), 2)
        assert rep.r_unitary == 0 and rep.r_uniform == 0
        assert rep.verdict == "comparable"

    def test_report_consistency(self):
        rep = compare_queries(EXAMPLE1_DELTA, 2)
        assert rep.r_unitary == sum(rep.per_slot_ranks)
        assert rep.r_uniform == min(2 * rep.rank_delta, rep.nonzero_rows)

    def test_report_roundtrip(self):
        rep = compare_queries(EXAMPLE3_DELTA, 2)
        assert report_from_dict(rep.to_dict()) == rep

    def test_scaling_invariance(self):
        rng = make_rng(10)
        for _ in range(20):
            delta = sample_cn_matrix(2, 3, rng)
            a = 0.3 + 1.7j
            for n in (1, 2, 3):
                assert r_unitary(delta, n) == r_unitary(a * delta, n)
                assert r_uniform(delta, n) == r_uniform(a * delta, n)

    @pytest.mark.parametrize("scale", [1e-150, 1e-13, 1.0, 1e150, -3e-13 + 4e-13j])
    def test_measures_hold_at_any_scale_of_delta(self, scale):
        rep = compare_queries(scale * EXAMPLE1_DELTA, 2)
        assert rep == compare_queries(EXAMPLE1_DELTA, 2)
        assert rep == MeasureReport(4, 2, (2, 2), 2, 2, "unitary-dominates")

    def test_monotone_in_receive_antennas(self):
        for delta in (EXAMPLE1_DELTA, EXAMPLE3_DELTA, np.array([[1.0, 0.0], [1.0, 0.0]])):
            ru = [r_unitary(delta, n) for n in range(1, 5)]
            rf = [r_uniform(delta, n) for n in range(1, 5)]
            assert all(b >= a for a, b in zip(ru, ru[1:]))
            assert all(b >= a for a, b in zip(rf, rf[1:]))

    @staticmethod
    def _matroid_union_rank(delta, N):
        """min over row sets S of (L* - |S| + N rank(delta_S)), the generic rank of D (Edmonds)."""
        rows = [r for r in np.asarray(delta) if np.any(r != 0)]
        return min(
            len(rows) - len(S) + N * (numeric_rank(np.array([rows[i] for i in S])) if S else 0)
            for k in range(len(rows) + 1)
            for S in combinations(range(len(rows)), k)
        )

    def test_uniform_rank_is_the_matroid_union_rank(self):
        rng = make_rng(16)
        below = 0
        for _ in range(300):
            L, T = (int(rng.integers(1, 5)) for _ in range(2))
            # small integers with many zeros, so that rows and supports are often dependent
            delta = rng.choice([0, 0, 0, 1, -1, 2], size=(L, T)).astype(float)
            for n in (1, 2, 3):
                want = self._matroid_union_rank(delta, n)
                assert r_uniform(delta, n) == want
                d = DifferenceMatrix(delta)
                below += want < min(n * d.rank, d.nonzero_rows)
        assert below > 0  # the sample holds deltas where the support formula overestimates

    def test_found_delta_is_comparable(self):
        delta = np.array([[0, 0, 1, 1], [0, 0, 0, 2], [0, 0, 0, 3], [0, 0, 0, 4]])
        rep = compare_queries(delta, 2)
        assert (rep.r_unitary, rep.r_uniform, rep.verdict) == (3, 3, "comparable")
        assert rep.r_uniform == self._matroid_union_rank(delta, 2) < min(2 * rep.rank_delta, rep.nonzero_rows)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda L: st.lists(st.lists(st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.5j]), min_size=L, max_size=L), min_size=1, max_size=4)
        ),
        st.integers(1, 4),
    )
    def test_uniform_never_exceeds_unitary(self, columns, n):
        delta = np.array(columns).T  # L x T
        rep = compare_queries(delta, n)
        assert rep.r_uniform <= rep.r_unitary
        assert rep.r_uniform <= min(n * rep.rank_delta, rep.nonzero_rows)
        assert rep.verdict == ("unitary-dominates" if rep.r_uniform < rep.r_unitary else "comparable")

    def test_bound_chain(self):
        rng = make_rng(11)
        for _ in range(50):
            L, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            delta = sample_cn_matrix(L, T, rng)
            mask = rng.random((L, T)) < 0.4
            delta = np.where(mask, 0.0, delta)
            d = DifferenceMatrix(delta)
            for n in (1, 2, 3):
                assert r_uniform(d, n) <= d.nonzero_rows <= L
                assert r_unitary(d, n) <= T * min(n, L)


class TestEmpiricalRankCheck:
    def test_example1_passes(self):
        rep = empirical_rank_check(EXAMPLE1_DELTA, 2, 1000, make_rng(12))
        assert rep.passed
        assert rep.per_slot_fractions == (1.0, 1.0)
        assert rep.d_fraction == 1.0

    def test_zero_column_pattern(self):
        delta = np.array([[1.0, 0.0], [1.0, 0.0]])
        rep = empirical_rank_check(delta, 2, 1000, make_rng(13))
        assert rep.passed
        # slot 1 has full support (rank 2), slot 2 is empty (rank 0)
        assert rep.per_slot_fractions == (1.0, 1.0)

    def test_receive_limited_rank(self):
        delta = 2.0 * np.ones((3, 2))
        rep = empirical_rank_check(delta, 1, 1000, make_rng(14))
        assert rep.passed  # rank(E_t) == min(N=1, 3) == 1 every time

    @pytest.mark.parametrize("trials", [True, 2.5, 0, np.int64(0)])
    def test_bad_trials_is_named(self, trials):
        with pytest.raises(ValueError, match=f"^{re.escape(f'trials must be an integer >= 1, got {trials!r}')}$"):
            empirical_rank_check(EXAMPLE1_DELTA, 2, trials, make_rng(12))

    def test_numpy_trials_recorded_as_int(self):
        rep = empirical_rank_check(EXAMPLE1_DELTA, 2, np.int64(50), make_rng(12))
        assert type(rep.trials) is int and rep == empirical_rank_check(EXAMPLE1_DELTA, 2, 50, make_rng(12))
        json.dumps(rep.to_dict())

    def test_slices_change_no_count(self, monkeypatch):
        # slices of at most 7 draws against the whole batch at once, on batches that cross
        # several slice boundaries; the 3e-10 entry straddles the rank threshold, so that
        # slot's fraction lies between 0 and 1 and a changed rank would show
        rng = make_rng(17)
        cases = [
            (EXAMPLE1_DELTA, 2), (np.array([[1.0, 1.0], [3e-10, 1.0]]), 2),
            (np.array([[1.0, 0.0], [1.0, 0.0]]), 2), (2.0 * np.ones((3, 2)), 1),
        ] + [(sample_cn_matrix(L, T, rng), N) for L, T, N in ((3, 2, 3), (1, 3, 2), (2, 4, 1))]
        for delta, N in cases:
            for trials in (1, 50, 131):
                reports = []
                for most in (7, 10**9):
                    monkeypatch.setattr(linalg, "_SLICE", most)
                    reports.append(empirical_rank_check(delta, N, trials, make_rng(18, (trials,))))
                assert reports[0] == reports[1]
        straddling = empirical_rank_check(cases[1][0], 2, 131, make_rng(18, (131,)))
        assert 0.0 < straddling.per_slot_fractions[0] < 1.0

    def test_memory_beyond_the_draw_does_not_grow_with_trials(self):
        # apart from one batch's draw of G's factors (L min(L, N) 16 B per trial of the batch,
        # and one row of exponentials beside it while it is drawn) only one slice of matrices
        # is alive; a whole-batch stack of D alone would add L N T 16 B = 128 B per trial of the batch
        L = N = 2
        empirical_rank_check(EXAMPLE1_DELTA, N, 1000, make_rng(19))  # warm-up
        beyond_draw = []
        for trials in (20_000, 400_000):
            tracemalloc.start()
            try:
                empirical_rank_check(EXAMPLE1_DELTA, N, trials, make_rng(19))
                batch = min(trials, linalg._MC_BATCH)
                beyond_draw.append(tracemalloc.get_traced_memory()[1] - L * N * 16 * batch)
            finally:
                tracemalloc.stop()
        assert beyond_draw[1] - beyond_draw[0] < 2**20

    def test_memory_does_not_grow_past_one_batch(self):
        # the draws come in batches of _MC_BATCH, so 400k trials hold no more than 100k do;
        # one draw of them all would add L N 16 B = 64 B per further trial (18.3 MiB)
        empirical_rank_check(EXAMPLE1_DELTA, 2, 1000, make_rng(20))  # warm-up
        peaks = []
        for trials in (linalg._MC_BATCH, 4 * linalg._MC_BATCH):
            tracemalloc.start()
            try:
                report = empirical_rank_check(EXAMPLE1_DELTA, 2, trials, make_rng(20))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.passed and report.trials == trials
        assert peaks[1] - peaks[0] < 2**20

    def test_batches_count_as_successive_checks(self, monkeypatch):
        # in batches of 300, a 900-trial check counts what three one-batch 300-trial checks
        # count on the continuing stream; the 3e-10 entry straddles the rank threshold, so
        # slot 1's count lies strictly between 0 and 900 and a lost or repeated batch would show
        delta = np.array([[1.0, 1.0], [3e-10, 1.0]])
        rng = make_rng(22)
        parts = [empirical_rank_check(delta, 2, 300, rng) for _ in range(3)]
        monkeypatch.setattr(measure, "_MC_BATCH", 300)
        whole = empirical_rank_check(delta, 2, 900, make_rng(22))

        def hits(report):
            return [round(f * report.trials) for f in (*report.per_slot_fractions, report.d_fraction)]

        assert hits(whole) == [sum(c) for c in zip(*map(hits, parts))]
        assert 0 < hits(whole)[0] < 900

    def test_matches_per_matrix_rank_rule(self):
        # the batched rank rule must agree with numeric_rank draw by draw
        delta = EXAMPLE1_DELTA
        rng = make_rng(15)
        for _ in range(50):
            G = sample_cn_matrix(2, 2, rng)
            assert numeric_rank(build_E_t(delta, G, 1)) == 2
            assert numeric_rank(build_D(delta, G)) == 2
