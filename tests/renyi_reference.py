"""Float and exact routes to the connected-mapping quantities, the test oracles for renyi.

Independent of the incomplete gamma that renyi uses for Q(d): R_d by its
term-ratio recurrence and as an exact rational, kappa_d = d / R_d,
c_d = h_d - h_d R_d / d, and S_d = e^d Q(d) as an exact rational.
"""

import math
from fractions import Fraction

import numpy as np


def ramanujan_r_float(d: int) -> float:
    """R_d by the term-ratio recurrence r_{k+1} = r_k (1 - k/d).

    Terms decay like exp(-k^2/2d); truncating at ~12*sqrt(d) leaves a
    tail below 1e-28 of the total.
    """
    kmax = min(d, int(12 * math.sqrt(d)) + 20)
    ratios = 1.0 - np.arange(1, kmax, dtype=np.float64) / d
    terms = np.cumprod(ratios)
    return 1.0 + float(terms.sum())


def ramanujan_r_exact(d: int) -> Fraction:
    """R_d = sum_{k=1}^{d} d!/((d-k)! d^k) as an exact rational."""
    acc = 0
    falling = 1
    for k in range(1, d + 1):
        falling *= d - k + 1
        acc += falling * d ** (d - k)
    return Fraction(acc, d**d)


def kappa_float(d: int) -> float:
    """kappa_d = d / R_d in float64."""
    return d / ramanujan_r_float(d)


def c_coeff(d: int) -> float:
    """c_d = h_d - Q(d)/d with Q(d) = h_d R_d and h_d = d^d/(d! e^d); c_1 = 0."""
    if d == 1:
        return 0.0
    h = math.exp(d * math.log(d) - math.lgamma(d + 1) - d)
    return h - h * ramanujan_r_float(d) / d


def s_exact(d: int) -> Fraction:
    """S_d = sum_{k=0}^{d-1} d^k/k!, exact rational with denominator (d-1)!."""
    fact = math.factorial(d - 1)
    num = 0
    for k in range(d):
        num += d**k * (fact // math.factorial(k))
    return Fraction(num, fact)
