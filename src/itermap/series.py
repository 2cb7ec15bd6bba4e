"""Coefficient machinery for the cycle-product expectation E_n(B).

The deconditioned identity reads E_n(B) as a convolution of the
coefficients of exp(sum_d c_d z^d) with h_m = m^m/(m! e^m).  mu(m)
denotes the prefix sums (the coefficients after an extra 1/(1-z)
factor); mu feeds the Rankin bound and the saddle-point analysis of
g(s) = sum_d c_d e^{-ds}, while the convolution itself uses the bare
exponential coefficients, the variant that matches the brute-force
oracle (putting mu into the convolution gives 1 + e instead of 1 at
n = 1).  The saddle point of n s + g(s) is the root of g'(s) + n, found
by Newton's method alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np
from scipy.special import gammaln

from . import renyi
from .mapping import CeilingError, InvariantError

EXACT_SERIES_CEILING = 500
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


def exp_series_exact(gamma: list[Fraction]) -> list[Fraction]:
    """Exact carrier r_m with e_m = r_m e^{-m}, from gamma_d = c_d e^d."""
    N = len(gamma)
    r = [Fraction(1)] + [Fraction(0)] * N
    for m in range(1, N + 1):
        acc = Fraction(0)
        for d in range(1, m + 1):
            g = gamma[d - 1]
            if g:
                acc += d * g * r[m - d]
        r[m] = acc / m
    return r


# ---------------------------------------------------------------------------
# Series tables


@dataclass(frozen=True)
class SeriesTable:
    """Immutable coefficient table to truncation degree N.

    e[m] = [z^m] exp(sum c_d z^d); mu = prefix sums of e; h[m] =
    m^m/(m! e^m).  In exact mode r[m] carries e[m] = r[m] e^{-m} as a
    rational.
    """

    N: int
    mode: Literal["exact", "float"]
    e: np.ndarray
    mu: np.ndarray
    h: np.ndarray
    r: tuple[Fraction, ...] | None = None


def _h_array(N: int) -> np.ndarray:
    m = np.arange(1, N + 1, dtype=np.float64)
    h = np.empty(N + 1)
    h[0] = 1.0  # 0^0 = 1
    h[1:] = np.exp(m * np.log(m) - gammaln(m + 1) - m)
    return h


def mu_table(N: int, mode: Literal["exact", "float"] = "float") -> SeriesTable:
    """Build e, mu and h to degree N; exact mode also carries rationals."""
    if N < 0:
        raise CeilingError("degree must be nonnegative")
    if mode == "exact":
        if N > EXACT_SERIES_CEILING:
            raise CeilingError("exact mode too large")
        r = exp_series_exact([renyi.gamma_exact(d) for d in range(1, N + 1)])
        e = np.array([float(ri) * math.exp(-m) for m, ri in enumerate(r)])
        return SeriesTable(N=N, mode="exact", e=e, mu=np.cumsum(e), h=_h_array(N), r=tuple(r))
    if N > DEGREE_CAP_DEFAULT:
        raise CeilingError("degree above configured cap")
    e = exp_series(renyi.c_table(N) if N else np.empty(0))
    return SeriesTable(N=N, mode="float", e=e, mu=np.cumsum(e), h=_h_array(N))


# ---------------------------------------------------------------------------
# E_n(B)


def expected_B(
    n: int,
    mode: Literal["exact", "float"] = "float",
    table: SeriesTable | None = None,
) -> Fraction | float:
    """E_n(B) = (n! e^n/n^n) sum_m e_m h_{n-m}, bare exponential coefficients.

    Exact mode returns the rational (n!/n^n) sum_m r_m (n-m)^{n-m}/(n-m)!
    (every e^{-m} cancels); float mode evaluates the prefactor in log
    space.
    """
    if n < 1:
        raise CeilingError("n must be positive")
    if mode == "exact":
        if n > EXACT_SERIES_CEILING:
            raise CeilingError("exact mode too large")
        if table is None or table.mode != "exact" or table.N < n:
            table = mu_table(n, "exact")
        if table.r is None:
            raise InvariantError("exact-mode table without rational coefficients")
        acc = Fraction(0)
        for m in range(n + 1):
            k = n - m
            acc += table.r[m] * Fraction(k**k if k else 1, math.factorial(k))
        return Fraction(math.factorial(n), n**n) * acc
    return math.exp(log_expected_B(n, table))


def log_expected_B(n: int, table: SeriesTable | None = None) -> float:
    """log E_n(B), float route; builds a degree-n table when none is given."""
    if table is None or table.N < n:
        table = mu_table(n, "float")
    s = float(np.dot(table.e[: n + 1], table.h[n::-1]))
    logpref = math.lgamma(n + 1) + n - n * math.log(n)
    return logpref + math.log(s)


# ---------------------------------------------------------------------------
# g(s) and the saddle point

_c_cache = np.empty(0)


def _c_upto(N: int) -> np.ndarray:
    global _c_cache
    if _c_cache.size < N:
        _c_cache = np.concatenate([_c_cache, renyi.c_table(N, start=_c_cache.size + 1)])
    return _c_cache[:N]


def _g_sums(s: float, orders) -> tuple[float, ...]:
    """g^(j)(s) for each j in orders, from one array of c_d e^{-ds}."""
    D = math.ceil(40.0 / s)
    d = np.arange(1, D + 1, dtype=np.float64)
    terms = _c_upto(D) * np.exp(-d * s)
    return tuple(float((terms * _neg_power(d, j)).sum() if j else terms.sum()) for j in orders)


def _neg_power(d: np.ndarray, j: int) -> np.ndarray:
    """(-d)^j for j = 1..3, correctly rounded while d < 2**26.5.

    The cube is a product: d * d is exact there, so it is rounded once,
    where `** 3` would go through libm pow, some 50 times slower.
    """
    return -(d * d) * d if j == 3 else (-d) ** j


def g_eval(s: float, j: int = 0) -> float:
    """g^(j)(s) = sum_d (-d)^j c_d e^{-ds}, truncated at D(s) = ceil(40/s).

    The geometric envelope c_d <= 1/sqrt(2 pi d) makes the tail beyond
    D(s) smaller than 1e-15 of the total for j <= 3.
    """
    if s <= 0:
        raise CeilingError("domain error")
    if j not in (0, 1, 2, 3):
        raise CeilingError("derivative order must be 0..3")
    return _g_sums(s, (j,))[0]


def rankin_bound(n: int, s: float, table: SeriesTable) -> float:
    """exp(n s + g(s)); asserts mu(n) <= bound."""
    if s <= 0:
        raise CeilingError("domain error")
    bound = math.exp(n * s + g_eval(s))
    if table.N >= n and not table.mu[n] <= bound:
        raise InvariantError(f"Rankin bound violated at n={n}")
    return bound


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
    s_ratio: float           # s_star * 2 n^(2/3)
    A_ratio: float           # A_n / (3 n^(5/3))
    g3_ratio: float          # |g3| / (15 n^(7/3))
    odlyzko_ok: bool


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
        s_ratio=s_star * 2 * n ** (2.0 / 3.0),
        A_ratio=g2 / (3 * n ** (5.0 / 3.0)),
        g3_ratio=abs(g3) / (15 * n ** (7.0 / 3.0)),
        odlyzko_ok=abs(g3) <= g2**1.5,
    )
