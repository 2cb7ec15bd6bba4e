import math
from fractions import Fraction

import mpmath
import pytest
from scipy.special import gammaincc

import exact_reference
import renyi_reference
import series_reference
from itermap import renyi


class TestConnectedCount:
    def test_small(self):
        assert renyi.connected_count(1) == 1
        assert renyi.connected_count(2) == 3
        assert renyi.connected_count(3) == 17

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_brute_force(self, d):
        assert renyi.connected_count(d) == exact_reference.enumerate_summary(d).connected_count

    def test_count_factors_through_ramanujan_r(self):
        # |U_d| = d^(d-1) R_d exactly; R_d is the quantity behind kappa_d
        for d in (2, 3, 7, 20):
            r = renyi_reference.ramanujan_r_exact(d)
            assert renyi.connected_count(d) == d ** (d - 1) * r

    def test_asymptotic(self):
        # |U_d| / (d^d sqrt(pi/2d)) = R_d / sqrt(pi d / 2)
        for d in (100, 1000, 10000):
            ratio = renyi_reference.ramanujan_r_float(d) / math.sqrt(math.pi * d / 2)
            assert abs(ratio - 1) <= 5 / math.sqrt(d)


class TestKappa:
    def test_small(self):
        assert renyi.kappa_exact(1) == 1
        assert renyi.kappa_exact(2) == Fraction(4, 3)
        assert renyi.kappa_exact(3) == Fraction(27, 17)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_brute_force_average(self, d):
        s = exact_reference.enumerate_summary(d)
        assert renyi.kappa_exact(d) == Fraction(s.connected_cycle_total, s.connected_count)

    @pytest.mark.parametrize("d", [1, 2, 5, 17, 50, 200, 700, 2000])
    def test_float_matches_exact(self, d):
        ke = renyi.kappa_exact(d)
        kf = renyi_reference.kappa_float(d)
        assert abs(kf - float(ke)) <= 1e-12 * float(ke)

    def test_asymptotic_band(self):
        for d in (100, 1000, 10000):
            ratio = renyi_reference.kappa_float(d) / math.sqrt(2 * d / math.pi)
            assert abs(ratio - 1) <= 5 / math.sqrt(d)


class TestQFactor:
    def test_d1(self):
        assert math.isclose(renyi.q_factor(1, 64), math.exp(-1), rel_tol=1e-13)

    def test_d2(self):
        assert math.isclose(renyi.q_factor(2, 64), 3 * math.exp(-2), rel_tol=1e-13)

    def test_limit_half(self):
        q = renyi.q_factor(10**4, 64)
        assert abs(q - 0.5) <= 0.01

    def test_range(self):
        for d in (1, 2, 10, 100, 10**5):
            assert 0 < renyi.q_factor(d, 64) < 1

    def test_high_precision_agrees(self):
        # the mpmath route agrees with the float64 Q column
        Q, _ = renyi.q_and_c(400)
        for d in (3, 50, 400):
            assert math.isclose(renyi.q_factor(d, prec=100), Q[d - 1], rel_tol=1e-12)

    def test_exact_S(self):
        assert renyi_reference.s_exact(2) == 3
        assert renyi_reference.s_exact(3) == Fraction(17, 2)  # 1 + 3 + 9/2
        # Q(d) = e^{-d} S_d, with S_d summed exactly
        with mpmath.workprec(300):
            for d in (1, 2, 3, 10, 37):
                s = renyi_reference.s_exact(d)
                ref = float(mpmath.exp(-d) * s.numerator / s.denominator)
                assert renyi.q_factor(d, 64) == ref

    @pytest.mark.parametrize("prec", [60, 64, 100])
    def test_correctly_rounded(self, prec):
        with mpmath.workprec(300):
            ref = [float(mpmath.gammainc(d, d, mpmath.inf, regularized=True)) for d in range(1, 401)]
        got = [renyi.q_factor(d, prec) for d in range(1, 401)]
        assert got == ref



class TestCCoeff:
    def test_c1_zero(self):
        assert renyi.q_and_c(1)[1][0] == 0.0
        assert series_reference.gamma_exact(1) == 0

    def test_c2(self):
        assert math.isclose(renyi.q_and_c(2)[1][1], math.exp(-2) / 2, rel_tol=1e-13)
        assert series_reference.gamma_exact(2) == Fraction(1, 2)

    def test_large_d_envelope(self):
        d = 10**4
        c = renyi.q_and_c(d)[1][d - 1]
        assert abs(c * math.sqrt(2 * math.pi * d) - 1) <= 0.02

    def test_table_agrees_with_scalar(self):
        ct = renyi.q_and_c(600)[1]
        for d in (1, 2, 3, 10, 100, 600):
            c = renyi_reference.c_coeff(d)
            assert abs(ct[d - 1] - c) <= 1e-11 * max(c, 1e-3)

    def test_matches_mpmath(self):
        # h_d = d^d/(d! e^d) and Q(d) at 40 digits.  The direct exp(d log d - log d! - d)
        # was 8.5e-15 off at d = 14 and 2.2e-10 at d = 1e5; the worst c_d here, at
        # d = 2 where h_d - Q(d)/d loses two bits, is 1.3e-15 off
        ct = renyi.q_and_c(200_000)[1]
        assert ct[0] == 0.0
        with mpmath.workdps(40):
            for d in [*range(2, 51), 1000, 10_000, 100_000, 200_000]:
                h = mpmath.exp(d * mpmath.log(d) - d - mpmath.loggamma(d + 1))
                ref = h - mpmath.gammainc(d, d, mpmath.inf, regularized=True) / d
                assert abs(ct[d - 1] / ref - 1) <= 4e-15, d

    def test_table_nonnegative(self):
        ct = renyi.q_and_c(5000)[1]
        assert ct.min() >= 0.0
        assert ct[0] == 0.0


def test_q_and_c():
    Q, c = renyi.q_and_c(50)
    assert len(Q) == len(c) == 50
    assert Q[29] == gammaincc(30, 30)
    assert (c == renyi.q_and_c(60)[1][:50]).all()
    assert renyi.connected_count(5) == 1569
    assert renyi.kappa_exact(2) == Fraction(4, 3)
