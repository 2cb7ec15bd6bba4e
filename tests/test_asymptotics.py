import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from itermap import asymptotics, mapping


class TestQuadrature:
    def test_polynomial_exact(self):
        val, err = asymptotics.adaptive_quad(lambda x: x**3, 0.0, 2.0, 1e-12)
        assert math.isclose(val, 4.0, rel_tol=1e-13)
        assert err < 1e-12

    def test_oscillatory(self):
        val, _ = asymptotics.adaptive_quad(np.cos, 0.0, 50.0, 1e-10)
        assert math.isclose(val, math.sin(50.0), abs_tol=1e-9)

    def test_matches_scipy(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        mine, _ = asymptotics.adaptive_quad(f, 0.0, 10.0, 1e-11)
        ref, _ = scipy.integrate.quad(f, 0.0, 10.0)
        assert math.isclose(mine, ref, rel_tol=1e-10)


class TestConstants:
    def test_values(self):
        c = asymptotics.constants()
        assert 3.35 <= c.k0 <= 3.37
        assert math.isclose(c.beta0, math.sqrt(8 * c.I), rel_tol=1e-15)
        assert math.isclose(c.k0, 1.5 * (3 * c.I) ** (2 / 3), rel_tol=1e-15)
        assert c.quadrature_error < 1e-8

    def test_I_matches_scipy_oracle(self):
        ref, ref_err = scipy.integrate.quad(
            lambda t: math.log(math.log(math.e / (1 - math.exp(-t)))),
            0.0,
            60.0,
            limit=400,
        )
        c = asymptotics.compute_constants(1e-10)
        assert abs(c.I - ref) <= 1e-8 + ref_err

    def test_tolerance_validation(self):
        with pytest.raises(mapping.CeilingError, match="tolerance error"):
            asymptotics.compute_constants(1.0)
        with pytest.raises(mapping.CeilingError, match="tolerance error"):
            asymptotics.compute_constants(1e-13)

    def test_tightening_tolerance_is_consistent(self):
        a = asymptotics.compute_constants(1e-6)
        b = asymptotics.compute_constants(1e-11)
        assert abs(a.I - b.I) <= 1e-6


class TestGProfile:
    def test_maximizer_scaling(self):
        # x* ~ m* = beta^(2/3) (3/8)^(1/3) n^(2/3) / log^(1/3) n
        prof = asymptotics.g_profile(10**6, 0.01)
        assert prof.bracket_ok
        assert 0.8 < prof.x_star / prof.m_star < 1.2

    def test_stationary_point(self):
        prof = asymptotics.g_profile(10**5, 0.05)
        assert abs(asymptotics._G_prime(10**5, prof.beta_eps, prof.x_star)) < 1e-6

    def test_G_prime_is_derivative_of_G(self):
        # G' carries psi(n+1-x); an mpmath derivative of G is the oracle
        beta = asymptotics.constants().beta0 + 0.01
        for n in (100, 10**4, 10**7):
            for x in (6.0, 0.5 * n, n - 1.0):
                with mpmath.workdps(40):
                    ref = mpmath.diff(
                        lambda t: -mpmath.loggamma(n + 1 - t)
                        - (t - 1) * mpmath.log(n)
                        + beta * mpmath.sqrt(t / mpmath.log(t)),
                        x,
                    )
                assert math.isclose(
                    asymptotics._G_prime(n, beta, x), float(ref), rel_tol=1e-12, abs_tol=1e-12
                )

    def test_maximum_beats_neighbors(self):
        n = 10**4
        prof = asymptotics.g_profile(n, 0.1)
        for x in (prof.x_star * 0.9, prof.x_star * 1.1, 10.0, n / 2):
            assert asymptotics._G(n, prof.beta_eps, x) <= prof.G_at_x_star + 1e-12

    def test_k_eps_closure(self):
        # k_eps at beta0 equals k0: same stationary algebra
        c = asymptotics.constants()
        assert math.isclose(asymptotics.k_eps_closed_form(c.beta0), c.k0, rel_tol=1e-12)

    def test_k_eps_monotone(self):
        b0 = asymptotics.constants().beta0
        vals = [asymptotics.k_eps_closed_form(b0 + e) for e in (0.0, 0.01, 0.1, 1.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(mapping.CeilingError):
            asymptotics.g_profile(50, 0.01)
        with pytest.raises(mapping.CeilingError):
            asymptotics.g_profile(10**4, 0.0)


class TestEnTEstimate:
    def test_bracket_order(self):
        est = asymptotics.en_T_estimate(10**6)
        assert est.lower_log <= est.upper_log

    def test_leading_scale(self):
        # both explicit bounds track k0 (n/log^2 n)^(1/3) to leading order
        for n in (10**5, 10**6, 10**7):
            est = asymptotics.en_T_estimate(n)
            assert 0.5 < est.upper_log / est.leading < 1.5
            assert 0.5 < est.lower_log / est.leading < 1.6

    def test_stong_domain(self):
        with pytest.raises(mapping.CeilingError, match="domain error"):
            asymptotics.stong_logM(2)


class TestHarris:
    def test_params(self):
        a, b = asymptotics.harris_params(100)
        ln = math.log(100)
        assert math.isclose(a, ln * ln / 8, rel_tol=1e-15)
        assert math.isclose(b, ln**1.5 / math.sqrt(24), rel_tol=1e-15)

    def test_domain(self):
        with pytest.raises(mapping.CeilingError):
            asymptotics.harris_params(1)
