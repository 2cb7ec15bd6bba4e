"""Connected-mapping counts and the cycle-length series coefficients.

|U_d| counts mappings of [d] whose functional graph is one weak
component, kappa_d is their mean cycle length, Q(d) = e^{-d} *
sum_{k<d} d^k/k! the Poisson-mean factor, and

    c_d = (kappa_d - 1) * Q(d) / d

the coefficient sequence driving the cycle-product generating function.
Writing R_d = sum_{k=1}^{d} d!/((d-k)! d^k) (Ramanujan's Q-function),
|U_d| = d^(d-1) R_d and the weighted cycle-length sum telescopes to
exactly d, so

    kappa_d = d / R_d = d^d / |U_d|,   Q(d) = h_d * R_d,   c_d = h_d - Q(d)/d,

with h_d = d^d/(d! e^d).  Each quantity has one route: |U_d| is an
exact sum (connected_count) and kappa_d = d^d/|U_d| reads it
(kappa_exact); Q(d) is the
regularized upper incomplete gamma Gamma(d, d)/Gamma(d), from scipy's
gammaincc in float64 (q_and_c) or from mpmath at a chosen
precision (q_factor); c_d is float64 (q_and_c).  The exact
gamma_d = c_d e^d is a test oracle in tests/series_reference.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc

EXACT_MAX_D = 200  # largest d whose exact |U_d| and kappa_d the CLI table prints
STIRLING_MIN_D = 16  # smallest d whose h_d comes from the Stirling series


@lru_cache(maxsize=None)
def connected_count(d: int) -> int:
    """|U_d| = sum_k binom(d,k) (k-1)! k d^(d-1-k), exact big integer; kept once computed."""
    if d < 1:
        raise ValueError("d must be positive")
    # binom(d,k)(k-1)!k = d!/(d-k)!; accumulate the falling factorial.
    total = 0
    falling = 1
    for k in range(1, d):
        falling *= d - k + 1
        total += falling * d ** (d - 1 - k)
    total += math.factorial(d) // d  # k = d term
    return total


def kappa_exact(d: int) -> Fraction:
    """kappa_d = d^d / |U_d|, exact."""
    return Fraction(d**d, connected_count(d))


def q_factor(d: int, prec: int) -> float:
    """Q(d) = e^{-d} sum_{k=0}^{d-1} d^k/k! in (0, 1), tending to 1/2.

    The regularized upper incomplete gamma Gamma(d, d)/Gamma(d), computed
    by mpmath at prec bits and rounded once to float64; float64 callers
    use scipy's gammaincc(d, d) instead.
    """
    if d < 1:
        raise ValueError("d must be positive")
    import mpmath

    with mpmath.workprec(prec):
        return float(mpmath.gammainc(d, d, mpmath.inf, regularized=True))


def q_and_c(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Q(d) = gammaincc(d, d) and c_d = h_d - Q(d)/d for d = 1..N as float arrays (index d-1).

    The regularized upper incomplete gamma equals the Poisson cdf factor
    exactly; c_1 = 0 by construction.  Below STIRLING_MIN_D, h_d =
    d^d/(d! e^d) is the correctly rounded ratio of two integers times
    e^{-d}; from there on it is exp(-stirlerr(d))/sqrt(2 pi d), with
    log d! = d log d - d + log(2 pi d)/2 + stirlerr(d) and five terms of
    the Stirling series for stirlerr, which leave less than 2e-16 at
    d = 16.  The direct exp(d log d - log d! - d) cancels: it loses up to
    seven digits by d = 1e5.
    """
    d = np.arange(1, N + 1, dtype=np.float64)
    small = [k**k / math.factorial(k) * math.exp(-k) for k in range(1, min(N + 1, STIRLING_MIN_D))]
    large = d[STIRLING_MIN_D - 1 :]
    r2 = 1 / (large * large)
    stirlerr = (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / large
    h = np.concatenate([small, np.exp(-stirlerr) / np.sqrt(2 * np.pi * large)])
    q = gammaincc(d, d)
    c = h - q / d
    c[d == 1] = 0.0
    return q, c
