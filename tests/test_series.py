import math
import tracemalloc
from array import array
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import exact_reference
import series_reference
from itermap import exact, renyi, series
from itermap.mapping import CeilingError


class TestExpSeries:
    def test_zero_series(self):
        e = series_reference.exp_series(np.zeros(4))
        assert np.array_equal(e, [1, 0, 0, 0, 0])

    def test_exp_z(self):
        e = series_reference.exp_series(np.array([1.0, 0, 0, 0, 0]))
        expect = [1 / math.factorial(m) for m in range(6)]
        assert np.allclose(e, expect, rtol=1e-14)

    def test_all_ones_matches_perm_B_mean(self):
        e = series_reference.exp_series(np.ones(12))
        for m in range(13):
            assert math.isclose(e[m], float(exact.perm_B_mean(m)), rel_tol=1e-12)

    @pytest.mark.parametrize("m", [*range(1, 40), 100, 200, 300])
    def test_matches_closed_form(self, m):
        # e^m e_m through the b_i of exact and the law of Z shares no code with
        # scipy's gammaincc or the Stirling h_d behind the float c_d
        e = series_reference.exp_series(renyi.q_and_c(300)[1])
        with mpmath.workdps(40):
            q = series_reference.scaled_e_closed_form(m)
            ref = mpmath.mpf(q.numerator) / q.denominator * mpmath.exp(-m)
        assert abs(e[m] - ref) <= 1e-13 * ref, m  # e_1 = c_1 = 0 exactly

    def test_closed_form_equals_exact_recurrence(self):
        r = series_reference.exp_series_exact([series_reference.gamma_exact(d) for d in range(1, 31)])
        assert [series_reference.scaled_e_closed_form(m) for m in range(1, 31)] == r[1:]
        assert r[2:5] == [Fraction(1, 2), Fraction(5, 3), Fraction(39, 8)]

    def test_exact_recurrence(self):
        gamma = [Fraction(1), Fraction(1), Fraction(0)]
        r = series_reference.exp_series_exact(gamma)
        # exp(w + w^2): 1, 1, 3/2, 7/6
        assert r == [1, 1, Fraction(3, 2), Fraction(7, 6)]


class TestMuTable:
    def test_mu_small_values(self):
        t = series_reference.mu_table(3)
        assert t.mu[0] == 1.0
        assert math.isclose(t.mu[1], 1.0, rel_tol=1e-14)  # c_1 = 0
        assert math.isclose(t.mu[2], 1 + math.exp(-2) / 2, rel_tol=1e-12)

    def test_monotone_nonnegative(self):
        t = series_reference.mu_table(300)
        assert t.e.min() >= 0.0
        assert np.all(np.diff(t.mu) >= 0)

    def test_h_stirling_sandwich(self):
        t = series_reference.mu_table(1)
        m = np.arange(1, 10**6, dtype=np.float64)
        h = np.exp(m * np.log(m) - np.vectorize(math.lgamma)(m + 1) - m)
        assert np.all(h > 1 / np.sqrt(8 * np.pi * m) - 1e-12)
        assert np.all(h < 1 / np.sqrt(2 * np.pi * m) + 1e-12)

    def test_degree_zero(self):
        t = series_reference.mu_table(0)
        assert t.e.tolist() == t.mu.tolist() == series_reference.h_array(0).tolist() == [1.0]

    def test_exact_mode_matches_float(self):
        r = series_reference.exp_series_exact([series_reference.gamma_exact(d) for d in range(1, 26)])
        e = [float(rm) * math.exp(-m) for m, rm in enumerate(r)]
        assert np.allclose(e, series_reference.mu_table(25).e, rtol=1e-9)


class TestExpectedB:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_exact_equals_brute_force(self, n):
        _, bb = exact_reference.brute_force_expectations(n)
        assert series_reference.expected_B_exact(n) == bb

    def test_n2_value(self):
        assert series_reference.expected_B_exact(2) == Fraction(5, 4)

    @pytest.mark.parametrize("n", [10, 25, 40, 80])
    def test_exact_equals_conditional(self, n):
        assert series_reference.expected_B_exact(n) == exact.exact_E_B_conditional(n)

    def test_float_matches_exact(self):
        for n in range(1, 31):
            f = math.exp(series.log_expected_B(n))
            e = float(series_reference.expected_B_exact(n))
            assert abs(f - e) <= 1e-9 * e

    def test_n1_float(self):
        assert series.log_expected_B(1) == 0.0

    def test_nonpositive_n_rejected(self):
        with pytest.raises(CeilingError, match="^n must be positive$"):
            series.log_expected_B(0)

    @pytest.mark.parametrize("n", list(range(1, 61)) + [100, 200, 500])
    def test_log_matches_conditional(self, n):
        # float(E) is correctly rounded, so the reference log is good to about 1e-16
        ref = math.log(exact.exact_E_B_conditional(n))
        assert math.isclose(series.log_expected_B(n), ref, rel_tol=1e-14)

    @pytest.mark.parametrize("n", [5000, 10_000, 20_000])
    def test_log_matches_convolution(self, n):
        # the paper's deconditioned identity, a route that shares no code with the sum
        tab = series_reference.mu_table(n)
        ref = series_reference.log_expected_B_convolution(n, tab)
        assert math.isclose(series.log_expected_B(n), ref, rel_tol=1e-12)

    def test_five_term_expansion(self):
        # Laplace's method on sum_m P_n(Z=m) b_m, peaked at m = n^(2/3), derives the
        # first three terms; -7/36 and -2/15 are fitted to the residuals, not derived
        C = 0.5 * math.log(4 / 3) - 2 / 3 - math.log(2)

        def five_terms(n):
            c = n ** (1 / 3)
            return 1.5 * c - math.log(n) / 3 + C - 7 / 36 / c - 2 / 15 / c**2

        geometric = [round(300 * (2e5 / 300) ** (k / 20)) for k in range(1, 21)]
        for n in [*range(2, 301), *geometric]:
            residual = series.log_expected_B(n) - five_terms(n)
            assert 0 < residual <= 0.05 / n, (n, residual)

    def test_ratio_table_grown_in_any_order(self, monkeypatch):
        # the same bits as the sum over all n terms, whether a larger n came first or
        # not.  Cuts down to 30 below the maximum leave these bits unchanged and a cut
        # of 8 changes most of them, so the 800 rests on exp(x) == 0.0 for x < -745.2,
        # not on this test
        cap = series.DEGREE_CAP_DEFAULT
        points = [*range(1, 1501), *map(int, np.unique(np.geomspace(1501, cap, 200).round()))]
        full = [series_reference.log_expected_B_full(n) for n in points]
        monkeypatch.setattr(series, "_r_cache", array("d", [1.0]))
        assert [series.log_expected_B(n) for n in points] == full
        monkeypatch.setattr(series, "_r_cache", array("d", [1.0]))
        assert [series.log_expected_B(n) for n in points[::-1]] == full[::-1]

    def test_cut_premise(self):
        # 0 <= log b_m <= 2 sqrt(m) for every m to the cap, closest at m = 1 (-2.0)
        cap = series.DEGREE_CAP_DEFAULT
        series_reference.log_expected_B_full(cap)
        log_b = np.cumsum(np.log(series_reference._full_r[:cap]))
        gap = log_b - 2 * np.sqrt(np.arange(1, cap + 1))
        assert log_b.min() >= 0
        assert gap.max() == -2.0 and gap.argmax() == 0

    def test_ratio_table_stops_at_cut(self, monkeypatch):
        # the recurrence runs to M(n) = O(sqrt n), not to n
        monkeypatch.setattr(series, "_r_cache", array("d", [1.0]))
        series.log_expected_B(20_000)
        assert len(series._r_cache) == 5860
        series.log_expected_B(series.DEGREE_CAP_DEFAULT)
        assert len(series._r_cache) == 20522


class TestGEval:
    def test_signs(self):
        for s in (0.01, 0.1, 1.0):
            assert series_reference.g_eval(s, 1) < 0
            assert series_reference.g_eval(s, 2) > 0
            assert series_reference.g_eval(s, 3) < 0

    def test_limit_ratio(self):
        # g(s) sqrt(2s) -> 1 with an O(sqrt(s) log(1/s)) correction; at
        # s = 1e-4 the finite-s value is ~0.93, tightening toward 1
        r4 = series_reference.g_eval(1e-4) * math.sqrt(2e-4)
        r5 = series_reference.g_eval(1e-5) * math.sqrt(2e-5)
        assert 0.9 < r4 < 1.0
        assert abs(r5 - 1) < 0.05
        assert r5 > r4

    def test_cube_correctly_rounded(self):
        # g''' weights by (-d)^3; against the cube of a Python int, rounded once
        d = np.arange(1, 800_001, dtype=np.float64)
        ref = np.array([float(-(k**3)) for k in range(1, 800_001)])
        assert np.array_equal(series_reference.neg_power(d, 3), ref)

    def test_matches_first_formula_bit_for_bit(self):
        # the oracle's reused rows against fresh arrays for d, the terms and (-d)^j
        grid = [float(s) for s in np.geomspace(5e-5, 1.0, 200)]
        grid += [0.5 * n ** (-2 / 3) for n in (1, 2, 5000, 10**6)]
        for s in grid:
            for orders in (range(4), (1, 2)):
                got = series_reference.g_sums(s, orders)
                ref = series_reference.g_sums_reference(s, orders)
                assert [x.hex() for x in got] == [x.hex() for x in ref], s

    def test_warm_call_allocates_no_rows(self):
        series_reference.g_sums(5e-5, range(4))  # grows the c cache and the rows to D = 800000
        tracemalloc.start()
        try:
            series_reference.g_sums(5e-5, range(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 800_000 + 2**20

    def test_cold_saddle_peak(self):
        # the closed form allocates no rows and no c table, whatever n is
        for n in (10**6, 10**12):
            tracemalloc.start()
            try:
                series.saddle_point(n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, n


class TestRankin:
    def test_trivial_floor(self):
        t = series_reference.mu_table(10)
        assert series_reference.rankin_bound(0, 0.5, t) >= 1.0

    def test_log_bound_scale(self):
        # log bound at s = 1/(2 n^(2/3)) is (3/2) n^(1/3) + O(1)
        n = 1000
        s = 0.5 * n ** (-2 / 3)
        val = n * s + series_reference.g_eval(s)
        assert abs(val - 1.5 * n ** (1 / 3)) < 6.0

    def test_never_violated_sampled(self):
        t = series_reference.mu_table(2000)
        for n in range(1, 2001, 97):
            series_reference.rankin_bound(n, 0.5 * n ** (-2 / 3), t)


class TestSaddle:
    def test_mid_scale(self):
        rep = series.saddle_point(10**4)
        assert abs(rep.g1 + 10**4) <= 1e-6 * 10**4
        assert rep.A_n > 0 and rep.g3 < 0
        assert 0.8 < rep.s_star * 2 * (10**4) ** (2 / 3) < 1.2

    def test_benchmark_saddle_pinned(self):
        # recorded when g became the closed form; every field within 3e-16 of 50-digit mpmath
        assert repr(series.saddle_point(10**6)) == (
            "SaddleReport(n=1000000, s_star=4.9668052098808374e-05, g0=95.05594956702316, "
            "g1=-1000000.0, g2=30301335181.481514, g3=-1527227732298556.5, "
            "A_n=30301335181.481514, rankin_log_value=144.72400166583154)"
        )

    def test_report_consistency(self):
        rep = series.saddle_point(500)
        assert math.isclose(
            rep.rankin_log_value, rep.n * rep.s_star + rep.g0, rel_tol=1e-12
        )
        assert rep.A_n == rep.g2


def g_closed(s):
    """g(s) = T/(1-T) + log(1-T) with T = -W(-e^{-1-s}), at mpmath's working precision."""
    T = -mpmath.lambertw(-mpmath.exp(-1 - s))
    return T / (1 - T) + mpmath.log(1 - T)


def saddle_mpmath(n):
    """Every SaddleReport field from the root u of (1-u)^2 = n u^3, at 50 digits."""
    with mpmath.workdps(50):
        u = mpmath.findroot(lambda u: n * u**3 - (1 - u) ** 2, mpmath.mpf(n) ** (-mpmath.mpf(1) / 3))
        T = 1 - u
        s = -u - mpmath.log(1 - u)
        g0 = T / u + mpmath.log(u)
        g2 = T**2 * (2 + T) / u**5
        g3 = -(T**2) * (4 + 9 * T + 2 * T**2) / u**7
        return dict(s_star=s, g0=g0, g1=-(T**2) / u**3, g2=g2, g3=g3, A_n=g2, rankin_log_value=n * s + g0)


class TestClosedForm:
    @pytest.mark.parametrize("s", ["0.05", "0.2", "1"])
    def test_identity_against_sum(self, s):
        # sum_d c_d e^{-ds} at 40 digits, from h_d and Q(d) alone, truncated where
        # e^{-ds} < e^{-50}, against T/(1-T) + log(1-T)
        with mpmath.workdps(40):
            s = mpmath.mpf(s)
            total = mpmath.mpf(0)
            for d in range(2, int(50 / s) + 1):
                h = mpmath.exp(d * mpmath.log(d) - d - mpmath.loggamma(d + 1))
                q = mpmath.gammainc(d, d, mpmath.inf, regularized=True)
                total += (h - q / d) * mpmath.exp(-d * s)
            assert abs(total / g_closed(s) - 1) < 1e-20

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10**4, 10**6, 10**12])
    def test_derivatives_against_mpmath_diff(self, n):
        rep = series.saddle_point(n)
        with mpmath.workdps(50):
            for j, got in ((0, rep.g0), (1, rep.g1), (2, rep.g2), (3, rep.g3)):
                ref = mpmath.diff(g_closed, mpmath.mpf(rep.s_star), j)
                assert abs(got / ref - 1) < 1e-14, (n, j)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_exact_points(self, k):
        # at n = k (k-1)^2 the root is u = 1/k, so T = (k-1)/k and g1..g3 are rational
        n, T = k * (k - 1) ** 2, Fraction(k - 1, k)
        rep = series.saddle_point(n)
        exact_g = (-n, T**2 * (2 + T) * k**5, -(T**2) * (4 + 9 * T + 2 * T**2) * k**7)
        for got, ref in zip((rep.g1, rep.g2, rep.g3), exact_g):
            assert math.isclose(got, ref, rel_tol=1e-15), (n, got, ref)
        with mpmath.workdps(30):
            s_star = mpmath.log(mpmath.mpf(k) / (k - 1)) - mpmath.mpf(1) / k
            assert math.isclose(rep.s_star, s_star, rel_tol=1e-15)
            assert math.isclose(rep.g0, k - 1 - mpmath.log(k), rel_tol=1e-15)

    def test_exact_values_at_two_and_twelve(self):
        rep = series.saddle_point(2)
        assert (rep.g1, rep.g2, rep.g3) == (-2, 20, -288)
        assert math.isclose(rep.s_star, math.log(2) - 0.5, rel_tol=1e-16)
        assert math.isclose(rep.g0, 1 - math.log(2), rel_tol=1e-16)
        # 1/3 is not a float, so at n = 12 the values are 1e-15 off
        rep = series.saddle_point(12)
        for got, ref in zip((rep.g1, rep.g2, rep.g3), (-12, 288, -10584)):
            assert math.isclose(got, ref, rel_tol=1e-15)

    def test_fields_match_mpmath(self):
        grid = list(range(1, 61)) + [round(10 ** (k / 8)) for k in range(15, 121)]
        for n in grid:
            rep, ref = series.saddle_point(n), saddle_mpmath(n)
            for field, value in ref.items():
                assert abs(getattr(rep, field) / value - 1) <= 1e-14, (n, field)


SADDLE_GRID = list(range(1, 51)) + [5000, 10000, 20000, 10**6]


class TestSaddleMatchesBisection:
    """The closed-form saddle point is the root of the summed g' + n, and agrees with bisection."""

    def test_grid(self):
        g_eval = series_reference.g_eval
        for n in SADDLE_GRID:
            s_star = series.saddle_point(n).s_star
            # g' + n changes sign within 1e-12 of s_star on either side
            assert g_eval(s_star * (1 - 1e-12), 1) + n < 0 < g_eval(s_star * (1 + 1e-12), 1) + n, n
            # the oracle bisects to within 1e-10 s0 of the root
            s0 = 0.5 * n ** (-2 / 3)
            assert abs(s_star - series_reference.saddle_point(n).s_star) <= 1e-10 * s0, n
