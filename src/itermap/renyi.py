"""Connected-mapping counts and the cycle-length series coefficients.

|U_d| counts mappings of [d] whose functional graph is one weak
component, kappa_d is their mean cycle length, Q(d) = e^{-d} *
sum_{k<d} d^k/k! the Poisson-mean factor, and

    c_d = (kappa_d - 1) * Q(d) / d

the coefficient sequence driving the cycle-product generating function.
Writing R_d = sum_{k=1}^{d} d!/((d-k)! d^k) (Ramanujan's Q-function),
the weighted cycle-length sum telescopes to exactly d, so

    kappa_d = d / R_d,   Q(d) = h_d * R_d,   c_d = h_d - Q(d)/d,

with h_d = d^d/(d! e^d).  Exact rational values are available below a
configurable ceiling; the floating route never forms d^k or k!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaincc, gammaln

EXACT_CEILING_DEFAULT = 2000


def connected_count(d: int) -> int:
    """|U_d| = sum_k binom(d,k) (k-1)! k d^(d-1-k), exact big integer."""
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


def _ramanujan_r_exact(d: int) -> Fraction:
    """R_d = sum_{k=1}^{d} d!/((d-k)! d^k) as an exact rational."""
    acc = 0
    falling = 1
    for k in range(1, d + 1):
        falling *= d - k + 1
        acc += falling * d ** (d - k)
    return Fraction(acc, d**d)


def _ramanujan_r_float(d: int) -> float:
    """R_d by the term-ratio recurrence r_{k+1} = r_k (1 - k/d).

    Terms decay like exp(-k^2/2d); truncating at ~12*sqrt(d) leaves a
    tail below 1e-28 of the total.
    """
    kmax = min(d, int(12 * math.sqrt(d)) + 20)
    ratios = 1.0 - np.arange(1, kmax, dtype=np.float64) / d
    terms = np.cumprod(ratios)
    return 1.0 + float(terms.sum())


def s_exact(d: int) -> Fraction:
    """S_d = sum_{k=0}^{d-1} d^k/k!, exact rational with denominator (d-1)!."""
    fact = math.factorial(d - 1)
    num = 0
    for k in range(d):
        num += d**k * (fact // math.factorial(k))
    return Fraction(num, fact)


def kappa_exact(d: int) -> Fraction:
    """kappa_d = d^(d+1) / sum_k d!/(d-k)! d^(d-k), exact."""
    if d < 1:
        raise ValueError("d must be positive")
    r = _ramanujan_r_exact(d)
    return Fraction(d) / r


def kappa(d: int, exact_ceiling: int = EXACT_CEILING_DEFAULT) -> Fraction | float:
    """Mean cycle length of a uniform connected mapping on d vertices.

    Exact rational below the ceiling, else the compensated floating
    route (relative error well under 1e-12).
    """
    if d < 1:
        raise ValueError("d must be positive")
    if d <= exact_ceiling:
        return kappa_exact(d)
    return kappa_float(d)


def kappa_float(d: int) -> float:
    return d / _ramanujan_r_float(d)


def _h_float(d: int) -> float:
    """h_d = d^d / (d! e^d)."""
    return math.exp(d * math.log(d) - math.lgamma(d + 1) - d)


def q_factor(d: int, prec: int | None = None) -> float:
    """Q(d) = e^{-d} sum_{k=0}^{d-1} d^k/k!, in (0,1), tending to 1/2.

    Computed as h_d * R_d via the descending-ratio recurrence; no d^k or
    k! is ever formed.  prec (bits) > 53 switches to mpmath arithmetic.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if prec is not None and prec > 53:
        import mpmath

        with mpmath.workprec(prec):
            dd = mpmath.mpf(d)
            term = mpmath.mpf(1)
            acc = mpmath.mpf(1)
            k = 1
            while True:
                term *= 1 - mpmath.mpf(k) / dd
                acc += term
                if term < mpmath.mpf(10) ** (-int(prec * 0.302) - 5):
                    break
                k += 1
            h = mpmath.exp(dd * mpmath.log(dd) - mpmath.loggamma(dd + 1) - dd)
            return float(h * acc)
    return _h_float(d) * _ramanujan_r_float(d)


def c_coeff(
    d: int, exact_ceiling: int = EXACT_CEILING_DEFAULT
) -> tuple[float, Fraction | float]:
    """(c_d, gamma_d) with c_d = (kappa_d - 1) Q(d)/d and gamma_d = c_d e^d.

    gamma_d is exact when d is within the exact ceiling (it is the
    e-free rational carrier used by the exact series route); above the
    ceiling a float gamma is returned when e^d does not overflow, else
    math.inf.
    """
    if d < 1:
        raise ValueError("d must be positive")
    c = float(_h_float(d) - q_factor(d) / d) if d > 1 else 0.0
    if d <= exact_ceiling:
        r = _ramanujan_r_exact(d)
        gamma = (d - r) * d ** (d - 1) / Fraction(math.factorial(d))
        return c, gamma
    return c, (c * math.exp(d) if d < 700 else math.inf)


def gamma_exact(d: int) -> Fraction:
    """gamma_d = (kappa_d - 1) S_d / d = (d - R_d) d^(d-1)/d!, exact."""
    r = _ramanujan_r_exact(d)
    return (d - r) * d ** (d - 1) / Fraction(math.factorial(d))


def c_table(N: int, start: int = 1) -> np.ndarray:
    """c_start..c_N as a float array (index d-start), fully vectorized.

    Uses Q(d) = gammaincc(d, d) (the regularized upper incomplete gamma
    equals the Poisson cdf factor exactly); c_1 = 0 by construction.
    Each c_d depends on d alone, so a table built in pieces is bit-equal
    to one built at once.
    """
    d = np.arange(start, N + 1, dtype=np.float64)
    h = np.exp(d * np.log(d) - gammaln(d + 1) - d)
    c = h - gammaincc(d, d) / d
    c[d == 1] = 0.0
    np.maximum(c, 0.0, out=c)
    return c


@dataclass(frozen=True)
class RenyiTable:
    """Immutable per-d table up to degree N; exact columns only below the ceiling."""

    N: int
    exact_upto: int
    U: tuple[int, ...]            # |U_d| for d <= exact_upto
    kappa_exact: tuple[Fraction, ...]
    S: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    Q: np.ndarray                 # float, all d
    c: np.ndarray                 # float, all d

    def row(self, d: int) -> dict:
        out = {"d": d, "Q": float(self.Q[d - 1]), "c": float(self.c[d - 1])}
        if d <= self.exact_upto:
            out["U"] = self.U[d - 1]
            out["kappa"] = self.kappa_exact[d - 1]
        else:
            out["kappa"] = kappa_float(d)
        return out


def renyi_table(N: int, exact_upto: int = 0) -> RenyiTable:
    """Build the table to degree N; exact columns computed for d <= exact_upto."""
    exact_upto = min(exact_upto, N)
    c = c_table(N)
    d = np.arange(1, N + 1, dtype=np.float64)
    Q = gammaincc(d, d)
    U = []
    kap = []
    S = []
    gam = []
    for dd in range(1, exact_upto + 1):
        U.append(connected_count(dd))
        r = _ramanujan_r_exact(dd)
        kap.append(Fraction(dd) / r)
        S.append(s_exact(dd))
        gam.append((dd - r) * dd ** (dd - 1) / Fraction(math.factorial(dd)))
    return RenyiTable(
        N=N,
        exact_upto=exact_upto,
        U=tuple(U),
        kappa_exact=tuple(kap),
        S=tuple(S),
        gamma=tuple(gam),
        Q=Q,
        c=c,
    )
