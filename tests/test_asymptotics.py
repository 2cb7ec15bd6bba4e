import math

import mpmath
import numpy as np
import pytest

import exact_reference
from itermap import asymptotics, mapping, series


def k_eps_closed_form(beta: float) -> float:
    """k_eps = -a^2/2 + beta*sqrt(3a/2) with a = beta^(2/3) (3/8)^(1/3)."""
    a = beta ** (2.0 / 3.0) * (3.0 / 8.0) ** (1.0 / 3.0)
    return -0.5 * a * a + beta * math.sqrt(1.5 * a)


class TestConstants:
    def test_values(self):
        c = asymptotics.constants()
        assert 3.35 <= c.k0 <= 3.37
        assert math.isclose(c.beta0, math.sqrt(8 * c.I), rel_tol=1e-15)
        assert math.isclose(c.k0, 1.5 * (3 * c.I) ** (2 / 3), rel_tol=1e-15)

    def test_I_matches_mpmath_oracle(self):
        # a 40-digit mpmath.quad of the paper's own integrand, split where it
        # bends; the fixed rule is off by 3.8e-11 with 10 nodes per panel and
        # by 7.8e-14 with [0, 1] merged into [0, 4]
        with mpmath.workdps(40):
            ref = mpmath.quad(
                lambda t: mpmath.log(mpmath.log(mpmath.e / (1 - mpmath.exp(-t)))),
                [0, 1, 4, 16, 64, mpmath.inf],
            )
            assert abs(ref - mpmath.mpf("1.117864151189944973140409962026565444163")) < 1e-38
            assert abs(asymptotics.constants().I - ref) <= 4e-16


class TestGProfile:
    """The profile G at beta0 + EPS, maximized by bisection in en_T_estimate."""

    def test_maximizer_scaling(self):
        # x* ~ m* = beta^(2/3) (3/8)^(1/3) n^(2/3) / log^(1/3) n
        est = asymptotics.en_T_estimate(10**6)
        beta = asymptotics.constants().beta0 + asymptotics.EPS
        assert asymptotics._G_prime(10**6, beta, 0.75 * est.m_star) > 0
        assert asymptotics._G_prime(10**6, beta, 1.25 * est.m_star) < 0
        assert 0.8 < est.x_star / est.m_star < 1.2

    def test_stationary_point(self):
        est = asymptotics.en_T_estimate(10**5)
        beta = asymptotics.constants().beta0 + asymptotics.EPS
        assert abs(asymptotics._G_prime(10**5, beta, est.x_star)) < 1e-6
        assert est.upper_log == asymptotics._G(10**5, beta, est.x_star)

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
        est = asymptotics.en_T_estimate(n)
        beta = asymptotics.constants().beta0 + asymptotics.EPS
        for x in (est.x_star * 0.9, est.x_star * 1.1, 10.0, n / 2):
            assert asymptotics._G(n, beta, x) <= est.upper_log + 1e-12

    def test_k_eps_closure(self):
        # k_eps at beta0 equals k0: same stationary algebra
        c = asymptotics.constants()
        assert math.isclose(k_eps_closed_form(c.beta0), c.k0, rel_tol=1e-12)

    def test_k_eps_monotone(self):
        b0 = asymptotics.constants().beta0
        vals = [k_eps_closed_form(b0 + e) for e in (0.0, 0.01, 0.1, 1.0)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(mapping.CeilingError, match="n must be at least 100"):
            asymptotics.en_T_estimate(50)

    # every n from 100 to 2000, and geometric points to 1e12
    NS = [*range(100, 2001), *(round(10 ** (k / 8)) for k in range(27, 97))]

    def test_bisection_brackets_the_maximizer(self):
        # G'(6) > 0 > G'(n-1) for every n >= 100, so en_T_estimate needs no bracket check:
        # G'(6) = psi(n-5) - log n + beta/(2 sqrt(6 log 6)) (1 - 1/log 6) rises from 0.1456
        # at n = 100 to its limit 0.2022, and G'(n-1) = psi(2) - log n + O(1/sqrt(n log n))
        # falls from -4.127 at n = 100
        beta = asymptotics.constants().beta0 + asymptotics.EPS
        for n in self.NS:
            assert asymptotics._G_prime(n, beta, 6.0) > 0 > asymptotics._G_prime(n, beta, n - 1.0), n

    def test_m0_needs_no_clamp(self):
        # the nearest integer m0 to a0 (n^2/log n)^(1/3) lies in [19, n/5], inside
        # log_z_pmf's domain [1, n] and stong_logM's [3, oo)
        a0 = asymptotics.constants().a0
        for n in self.NS:
            m0 = round(a0 * (n * n / math.log(n)) ** (1.0 / 3.0))
            assert 19 <= m0 <= n / 5, n


class TestZLaw:
    def test_matches_exact_pmf(self):
        # logs against logs: no exp, so the far tail keeps its relative accuracy
        for n in range(1, 61):
            want = [math.log(p) for p in exact_reference.z_pmf(n)]
            np.testing.assert_allclose(asymptotics.log_z_pmf(n, n), want, rtol=1e-13, atol=0)

    def test_prefixes_have_the_same_bits(self):
        # en_T_estimate reads a prefix and series.log_expected_B the whole law
        cases = ((1, (1,)), (7, (1, 2, 6)), (12345, (3, 4114, 12344)), (200000, (1, 4321, 199999)))
        for n, ms in cases:
            full = asymptotics.log_z_pmf(n, n)
            for m in ms:
                assert asymptotics.log_z_pmf(n, m).tobytes() == full[:m].tobytes()

    def test_lower_log_reads_the_law_at_m0(self):
        # a 40-digit log P_n(Z=m0) = log m0 - (m0+1) log n + log n! - log (n-m0)!
        n = 10**7
        m0 = round(asymptotics.constants().a0 * (n * n / math.log(n)) ** (1.0 / 3.0))
        with mpmath.workdps(40):
            ref = (mpmath.log(m0) - (m0 + 1) * mpmath.log(n)
                   + mpmath.loggamma(n + 1) - mpmath.loggamma(n - m0 + 1))
        got = asymptotics.en_T_estimate(n).lower_log - asymptotics.stong_logM(m0)
        assert math.isclose(got, float(ref), rel_tol=1e-13)

    def test_cap(self):
        # checked before allocating, and by log_expected_B before its ratio table grows
        too_long = asymptotics.Z_LAW_MAX_M + 1
        with pytest.raises(mapping.CeilingError, match="above the cap"):
            asymptotics.log_z_pmf(10**12, too_long)
        grown = len(series._r_cache)
        with pytest.raises(mapping.CeilingError, match="above the cap"):
            series.log_expected_B(too_long)
        assert len(series._r_cache) == grown


class TestEnTEstimate:
    # every n from 100 to 2000, and geometric points to 1e10
    NS = [*range(100, 2001), *(round(10 ** (k / 8)) for k in range(27, 81))]

    def test_bracket_order(self):
        # lower_log = G_beta0(m0) + log(m0/n^2) and upper_log >= G_(beta0+EPS)(m0) =
        # G_beta0(m0) + EPS sqrt(m0/log m0), so the bracket cannot invert and
        # en_T_estimate does not check it; upper_log's excess over G at m0 is 0.09 at least
        a0 = asymptotics.constants().a0
        for n in self.NS:
            est = asymptotics.en_T_estimate(n)
            m0 = round(a0 * (n * n / math.log(n)) ** (1.0 / 3.0))
            margin = math.log(n * n / m0) + asymptotics.EPS * math.sqrt(m0 / math.log(m0))
            assert est.upper_log - est.lower_log >= margin, n

    def test_cap(self):
        # n above Z_LAW_MAX_M^2 is refused before n * n can overflow a float; at the
        # cap itself m0 already passes log_z_pmf's cap, so no n that ran before is refused
        cap = asymptotics.Z_LAW_MAX_M**2
        with pytest.raises(mapping.CeilingError, match="the law of Z to m = .* is above the cap"):
            asymptotics.en_T_estimate(cap)
        with pytest.raises(mapping.CeilingError, match=f"^n is above the cap {cap}$"):
            asymptotics.en_T_estimate(cap + 1)

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
