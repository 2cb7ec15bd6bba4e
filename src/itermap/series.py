"""Float64 routes to the cycle-product expectation E_n(B) and its saddle point.

log_expected_B sums E_n(B) = sum_m P_n(Z=m) b_m, the cyclic part of a
uniform mapping with Z = m cyclic vertices being a uniform permutation of
[m] with mean cycle product b_m: the one library route to E_n(B).  Its b_m
recurrence stops at M(n) = O(sqrt n), past which every term is 0.0.  The
saddle point minimizes n s + g(s), with g(s) = sum_d c_d e^{-ds}.

g has a closed form.  Put z = e^{-1-s} and let T = z e^T be the Cayley
tree function, T(z) = sum_d d^(d-1) z^d/d!.  Then h_d e^{-ds} =
d^d z^d/d! sums to z T'(z) = T/(1-T), and (Q(d)/d) e^{-ds} =
|U_d| z^d/d! (renyi: Q(d) = h_d R_d, |U_d| = d^(d-1) R_d) sums to
-log(1-T), a connected mapping being a cycle of rooted trees.  As
c_d = h_d - Q(d)/d, with u = 1 - T,

    g(s) = T/u + log u,   s = -u - log(1-u),

and dT/ds = -T/u gives g' = -T^2/u^3, g'' = T^2 (2+T)/u^5 and
g''' = -T^2 (4 + 9T + 2T^2)/u^7.  The saddle point of n s + g(s), where
g'(s) = -n, is the root u of (1-u)^2 = n u^3 in (0, 1).  The coefficients
e_m of exp(sum_d c_d z^d) and their prefix sums mu(m) (exp_series,
mu_table), the convolution of e_m with h_m = m^m/(m! e^m), the
exact-rational series, the closed form of e^m e_m through b_m, the
truncated sum for g and the Rankin check mu(n) <= exp(n s + g(s)) are
test oracles in tests/series_reference.py.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import asymptotics
from .mapping import CeilingError

DEGREE_CAP_DEFAULT = 200_000


# ---------------------------------------------------------------------------
# E_n(B)


_r_cache = array("d", [1.0])  # r_m = b_m/b_(m-1), m = 1..M(n), grown by log_expected_B


def log_expected_B(n: int) -> float:
    """log E_n(B) = log sum_m P_n(Z=m) b_m for m = 1..n, in float64.

    log P_n(Z=m) is asymptotics.log_z_pmf, the law en_T_estimate reads.  The
    ratios r_m (`_r_cache`, grown on demand) solve m r_m = (2m-1) -
    (m-2)/r_{m-1}, r_1 = 1: the recurrence of exact._perm_B_numerators / m!.
    They run to M(n) only: the last m with log P_n(Z=m) + 2 sqrt(m) >= max
    log P_n(Z) - 800 (5860 at n = 2e4).  As 0 <= log b_m <= 2 sqrt(m), each
    later term is below e^-800 of the largest, which logsumexp's exp rounds to
    exactly 0.0; -inf there, in a length-n array, keeps every bit.
    """
    if n < 1:
        raise CeilingError("n must be positive")
    log_p = asymptotics.log_z_pmf(n, n)  # its cap is checked before _r_cache grows
    keep = log_p + 2 * np.sqrt(np.arange(1, n + 1)) >= log_p.max() - 800
    M = 1 + int(np.flatnonzero(keep)[-1])
    r = _r_cache[-1]
    for k in map(float, range(len(_r_cache) + 1, M + 1)):
        r = (k + k - 1 - (k - 2) / r) / k
        _r_cache.append(r)
    log_b = np.cumsum(np.log(_r_cache[:M]))
    return float(logsumexp(log_p + np.pad(log_b, (0, n - M), constant_values=-np.inf)))


# ---------------------------------------------------------------------------
# The saddle point of n s + g(s)


@dataclass(frozen=True)
class SaddleReport:
    n: int
    s_star: float
    g0: float
    g1: float
    g2: float
    g3: float
    A_n: float
    rankin_log_value: float  # n*s_star + g(s_star)


def saddle_point(n: int) -> SaddleReport:
    """Minimize n s + g(s): g'(s) = -n where u = 1 - T solves (1-u)^2 = n u^3.

    p(u) = n u^3 - (1-u)^2 is increasing and convex on (0, 1] and positive
    at u = n^(-1/3), so Newton's method from there falls monotonically to
    the root; it stops at the first iterate that does not fall, so it runs
    over strictly decreasing floats and needs no cap: at most 7 passes for
    n = 1..3e5 and 10^(k/10) to 1e300.  s = -u - log(1-u) cancels for small u,
    so it is summed as u x + 2 sum_{j>=1} x^(2j+1)/(2j+1) with x = u/(2-u),
    from -log(1-u) = 2 atanh(x) and 2x - u = u x: every term is positive,
    and x < 0.4 for n >= 1, so 20 terms leave less than 1e-18 of s.
    """
    if n < 1:
        raise CeilingError("n must be positive")
    u = n ** (-1.0 / 3.0)
    while (below := u - (n * u**3 - (1 - u) ** 2) / (3 * n * u * u + 2 * (1 - u))) < u:
        u = below
    T = 1 - u
    x = u / (2 - u)
    odd = 0.0  # sum_{j=1..20} x^(2j-2)/(2j+1), by Horner's rule
    for j in range(20, 0, -1):
        odd = odd * x * x + 1 / (2 * j + 1)
    s_star = u * x + 2 * x**3 * odd
    g0 = T / u + math.log(u)
    g2 = T * T * (2 + T) / u**5
    return SaddleReport(
        n=n,
        s_star=s_star,
        g0=g0,
        g1=-T * T / u**3,
        g2=g2,
        g3=-T * T * (4 + 9 * T + 2 * T * T) / u**7,
        A_n=g2,
        rankin_log_value=n * s_star + g0,
    )
