"""Float64 routes to the cycle-product expectation E_n(B) and its saddle point.

log_expected_B sums E_n(B) = sum_m P_n(Z=m) b_m, the cyclic part of a
uniform mapping with Z = m cyclic vertices being a uniform permutation
of [m] with mean cycle product b_m: the one library route to E_n(B).
mu_table builds the coefficients e_m of exp(sum_d c_d z^d) and their
prefix sums mu(m), bounded above by the Rankin bound exp(n s + g(s))
with g(s) = sum_d c_d e^{-ds}.  The saddle point of n s + g(s) is the
root of g'(s) + n, found by Newton's method alone.  The convolution of
e_m with h_m = m^m/(m! e^m), the exact-rational series and the Rankin
check are test oracles in tests/series_reference.py.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import asymptotics, renyi
from .mapping import CeilingError, InvariantError

DEGREE_CAP_DEFAULT = 200_000


# ---------------------------------------------------------------------------
# exp of a power series


def exp_series(inner: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_{d>=1} c_d z^d) via m e_m = sum d c_d e_{m-d}.

    inner holds c_1..c_N (index d-1); returns e_0..e_N.  O(N^2) via one
    dot product per coefficient.
    """
    c = np.asarray(inner, dtype=np.float64)
    if c.size and c.min() < 0:
        raise CeilingError("invalid series")
    N = c.size
    w = c * np.arange(1, N + 1)
    e = np.zeros(N + 1)
    e[0] = 1.0
    for m in range(1, N + 1):
        e[m] = np.dot(w[:m], e[m - 1 :: -1]) / m
    return e


# ---------------------------------------------------------------------------
# Series tables


@dataclass(frozen=True)
class SeriesTable:
    """Immutable coefficient table to truncation degree N.

    e[m] = [z^m] exp(sum c_d z^d); mu = prefix sums of e.
    """

    N: int
    e: np.ndarray
    mu: np.ndarray


_c_cache = np.empty(0)
_r_cache = array("d", [1.0])  # r_m = b_m/b_(m-1), m = 1, 2, ..., grown by log_expected_B


def _c_upto(N: int) -> np.ndarray:
    """c_1..c_N, grown on demand; the one source of c_d for the table and g(s)."""
    global _c_cache
    if _c_cache.size < N:
        _c_cache = np.concatenate([_c_cache, renyi.c_table(N, start=_c_cache.size + 1)])
    return _c_cache[:N]


def mu_table(N: int) -> SeriesTable:
    """Build e and mu to degree N."""
    if N < 0:
        raise CeilingError("degree must be nonnegative")
    if N > DEGREE_CAP_DEFAULT:
        raise CeilingError("degree above configured cap")
    e = exp_series(_c_upto(N))
    return SeriesTable(N=N, e=e, mu=np.cumsum(e))


# ---------------------------------------------------------------------------
# E_n(B)


def log_expected_B(n: int) -> float:
    """log E_n(B) = log sum_m P_n(Z=m) b_m for m = 1..n, in float64.

    log P_n(Z=m) is asymptotics.log_z_pmf, the law en_T_estimate reads.  The
    ratios r_m (`_r_cache`, grown on demand) solve m r_m = (2m-1) -
    (m-2)/r_{m-1}, r_1 = 1: the recurrence of exact._perm_B_numerators / m!.
    """
    if n < 1:
        raise CeilingError("n must be positive")
    log_p = asymptotics.log_z_pmf(n, n)  # its cap is checked before _r_cache grows
    for k in range(len(_r_cache) + 1, n + 1):
        _r_cache.append((2 * k - 1 - (k - 2) / _r_cache[-1]) / k)
    return float(logsumexp(log_p + np.cumsum(np.log(_r_cache[:n]))))


# ---------------------------------------------------------------------------
# g(s) and the saddle point

_g_rows = np.empty((3, 0))  # d = 1..D, the terms and a product row, for the largest D so far


def _g_sums(s: float, orders) -> tuple[float, ...]:
    """g^(j)(s) = sum_d (-d)^j c_d e^{-ds} for each j in orders, j <= 3.

    The sum is truncated at D(s) = ceil(40/s): the geometric envelope
    c_d <= 1/sqrt(2 pi d) makes the tail beyond D(s) smaller than 1e-15
    of the total for j <= 3.  The c cache grows before any row does, so the
    peak stays c_table's; the rows of `_g_rows` are reused from call to
    call, by one thread at a time.  The sign of (-d)^j comes out of the
    sum, and d*d*d is correctly rounded while d < 2**26.5.
    """
    global _g_rows
    D = math.ceil(40.0 / s)
    c = _c_upto(D)
    if _g_rows.shape[1] < D:
        _g_rows = np.empty((3, 0))  # free the old rows before the new are allocated
        _g_rows = np.empty((3, D))
        _g_rows[0] = np.arange(1, D + 1)
    d, terms, prod = _g_rows[:, :D]
    np.exp(np.multiply(d, -s, out=terms), out=terms)
    terms *= c
    sums = []
    for j in orders:
        if j == 1:
            np.multiply(terms, d, out=prod)
        elif j > 1:
            np.multiply(d, d, out=prod)
            if j == 3:
                prod *= d
            prod *= terms
        sums.append((-1) ** j * float((prod if j else terms).sum()))
    return tuple(sums)


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


NEWTON_MAX_STEPS = 50


def saddle_point(n: int) -> SaddleReport:
    """Minimize n s + g(s) by Newton's method on g'(s) + n = 0.

    g' is increasing and concave (g'' > 0 > g'''), so the root is unique,
    every Newton step lands at or below it, and from below the iterates
    climb to it monotonically.  The search starts at the asymptotic
    location s0 = 1/(2 n^(2/3)); a step that would not leave s > 0
    restarts from s/4 instead (n = 1 and n = 2 need this).  It stops at
    the first step of at most 1e-14 s0, when the error left is of order
    step^2 / s0.
    """
    if n < 1:
        raise CeilingError("n must be positive")
    s0 = 0.5 * n ** (-2.0 / 3.0)
    s_star = s0
    for _ in range(NEWTON_MAX_STEPS):
        g1, g2 = _g_sums(s_star, (1, 2))
        step = (g1 + n) / g2
        if not s_star - step > 0:
            s_star /= 4
        else:
            s_star -= step
            if abs(step) <= 1e-14 * s0:
                break
    else:
        raise InvariantError(f"saddle search did not converge at n={n}")
    g0, g1, g2, g3 = _g_sums(s_star, range(4))
    if not (g2 > 0 and g3 < 0):
        raise InvariantError(f"saddle point at n={n}: need g'' > 0 > g''', got {g2!r}, {g3!r}")
    return SaddleReport(
        n=n,
        s_star=s_star,
        g0=g0,
        g1=g1,
        g2=g2,
        g3=g3,
        A_n=g2,
        rankin_log_value=n * s_star + g0,
    )
