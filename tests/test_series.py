import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import series_reference
from itermap import exact, renyi, series
from itermap.mapping import CeilingError, InvariantError


class TestExpSeries:
    def test_zero_series(self):
        e = series.exp_series(np.zeros(4))
        assert np.array_equal(e, [1, 0, 0, 0, 0])

    def test_exp_z(self):
        e = series.exp_series(np.array([1.0, 0, 0, 0, 0]))
        expect = [1 / math.factorial(m) for m in range(6)]
        assert np.allclose(e, expect, rtol=1e-14)

    def test_all_ones_matches_perm_B_mean(self):
        e = series.exp_series(np.ones(12))
        for m in range(13):
            assert math.isclose(e[m], float(exact.perm_B_mean(m)), rel_tol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(CeilingError, match="invalid series"):
            series.exp_series(np.array([1.0, -0.5]))

    def test_exact_recurrence(self):
        gamma = [Fraction(1), Fraction(1), Fraction(0)]
        r = series.exp_series_exact(gamma)
        # exp(w + w^2): 1, 1, 3/2, 7/6
        assert r == [1, 1, Fraction(3, 2), Fraction(7, 6)]


class TestMuTable:
    def test_mu_small_values(self):
        t = series.mu_table(3, "float")
        assert t.mu[0] == 1.0
        assert math.isclose(t.mu[1], 1.0, rel_tol=1e-14)  # c_1 = 0
        assert math.isclose(t.mu[2], 1 + math.exp(-2) / 2, rel_tol=1e-12)

    def test_monotone_nonnegative(self):
        t = series.mu_table(300, "float")
        assert t.e.min() >= 0.0
        assert np.all(np.diff(t.mu) >= 0)

    def test_h_stirling_sandwich(self):
        t = series.mu_table(1, "float")
        m = np.arange(1, 10**6, dtype=np.float64)
        h = np.exp(m * np.log(m) - np.vectorize(math.lgamma)(m + 1) - m)
        assert np.all(h > 1 / np.sqrt(8 * np.pi * m) - 1e-12)
        assert np.all(h < 1 / np.sqrt(2 * np.pi * m) + 1e-12)

    def test_exact_mode_matches_float(self):
        te = series.mu_table(25, "exact")
        tf = series.mu_table(25, "float")
        assert np.allclose(te.e, tf.e, rtol=1e-9)

    def test_exact_ceiling(self):
        with pytest.raises(CeilingError, match="exact mode too large"):
            series.mu_table(series.EXACT_SERIES_CEILING + 1, "exact")


class TestExpectedB:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_exact_equals_brute_force(self, n):
        _, bb = exact.brute_force_expectations(n)
        assert series.expected_B(n, "exact") == bb

    def test_n2_value(self):
        assert series.expected_B(2, "exact") == Fraction(5, 4)

    def test_exact_table_without_rationals(self):
        table = dataclasses.replace(series.mu_table(3, "exact"), r=None)
        with pytest.raises(InvariantError, match="without rational coefficients"):
            series.expected_B(3, "exact", table)

    @pytest.mark.parametrize("n", [10, 25, 40, 80])
    def test_exact_equals_conditional(self, n):
        assert series.expected_B(n, "exact") == exact.exact_E_B_conditional(n)

    def test_float_matches_exact(self):
        tab = series.mu_table(30, "float")
        for n in range(1, 31):
            f = series.expected_B(n, "float", tab)
            e = float(series.expected_B(n, "exact"))
            assert abs(f - e) <= 1e-9 * e

    def test_n1_float(self):
        tab = series.mu_table(5, "float")
        assert math.isclose(series.expected_B(1, "float", tab), 1.0, rel_tol=1e-12)


class TestGEval:
    def test_domain_error(self):
        with pytest.raises(CeilingError, match="domain error"):
            series.g_eval(0.0)

    def test_signs(self):
        for s in (0.01, 0.1, 1.0):
            assert series.g_eval(s, 1) < 0
            assert series.g_eval(s, 2) > 0
            assert series.g_eval(s, 3) < 0

    def test_limit_ratio(self):
        # g(s) sqrt(2s) -> 1 with an O(sqrt(s) log(1/s)) correction; at
        # s = 1e-4 the finite-s value is ~0.93, tightening toward 1
        r4 = series.g_eval(1e-4) * math.sqrt(2e-4)
        r5 = series.g_eval(1e-5) * math.sqrt(2e-5)
        assert 0.9 < r4 < 1.0
        assert abs(r5 - 1) < 0.05
        assert r5 > r4

    def test_cube_correctly_rounded(self):
        # g''' weights by (-d)^3; against the cube of a Python int, rounded once
        d = np.arange(1, 800_001, dtype=np.float64)
        ref = np.array([float(-(k**3)) for k in range(1, 800_001)])
        assert np.array_equal(series._neg_power(d, 3), ref)

    def test_coefficients_grown_in_pieces(self, monkeypatch):
        monkeypatch.setattr(series, "_c_cache", np.empty(0))
        for N in (1, 2, 10, 500, 4096):
            series._c_upto(N)
        assert np.array_equal(series._c_upto(4096), renyi.c_table(4096))


class TestRankin:
    def test_trivial_floor(self):
        t = series.mu_table(10, "float")
        assert series.rankin_bound(0, 0.5, t) >= 1.0

    def test_log_bound_scale(self):
        # log bound at s = 1/(2 n^(2/3)) is (3/2) n^(1/3) + O(1)
        n = 1000
        s = 0.5 * n ** (-2 / 3)
        val = n * s + series.g_eval(s)
        assert abs(val - 1.5 * n ** (1 / 3)) < 6.0

    def test_never_violated_sampled(self):
        t = series.mu_table(2000, "float")
        for n in range(1, 2001, 97):
            series.rankin_bound(n, 0.5 * n ** (-2 / 3), t)


class TestSaddle:
    def test_mid_scale(self):
        rep = series.saddle_point(10**4)
        assert abs(rep.g1 + 10**4) <= 1e-6 * 10**4
        assert rep.A_n > 0 and rep.g3 < 0
        assert 0.8 < rep.s_ratio < 1.2

    def test_report_consistency(self):
        rep = series.saddle_point(500)
        assert math.isclose(
            rep.rankin_log_value, rep.n * rep.s_star + rep.g0, rel_tol=1e-12
        )
        assert rep.odlyzko_ok == (abs(rep.g3) <= rep.A_n**1.5)


SADDLE_GRID = list(range(1, 51)) + [5000, 10000, 20000, 10**6]


class TestSaddleMatchesBisection:
    """Newton's iterate is the root of g' + n, and agrees with plain bisection."""

    def test_grid(self, monkeypatch):
        calls = []
        real = series.g_eval
        monkeypatch.setattr(series, "g_eval", lambda s, j=0: calls.append(s) or real(s, j))
        for n in SADDLE_GRID:
            s_star = series.saddle_point(n).s_star
            assert calls == [], n  # the search reads g' and g'' from _g_sums only
            # g' + n changes sign within 1e-12 of s_star on either side
            assert real(s_star * (1 - 1e-12), 1) + n < 0 < real(s_star * (1 + 1e-12), 1) + n, n
            # the oracle bisects to within 1e-10 s0 of the root
            s0 = 0.5 * n ** (-2 / 3)
            assert abs(s_star - series_reference.saddle_point(n).s_star) <= 1e-10 * s0, n

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(series, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(InvariantError, match="saddle search did not converge at n=100"):
            series.saddle_point(100)

    def test_sign_check_raises(self, monkeypatch):
        real = series._g_sums

        def g3_positive(s, orders):
            vals = real(s, orders)
            return vals[:3] + (abs(vals[3]),) if len(vals) == 4 else vals

        monkeypatch.setattr(series, "_g_sums", g3_positive)
        with pytest.raises(InvariantError, match="saddle point at n=100"):
            series.saddle_point(100)
