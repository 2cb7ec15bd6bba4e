"""Test oracles for series: the coefficients e_m of exp(sum_d c_d z^d) and
their prefix sums mu(m), a closed form of e_m through the permutation
means b_m, the convolution and the exact-rational routes to E_n(B), g(s)
as a truncated float sum, the Rankin bound, plain bisection for the
saddle point, the g-sums as first written, with fresh arrays for
every weight, and log_expected_B as first written, over all n terms.

exp_series runs the recurrence m e_m = sum_d d c_d e_{m-d} in float64
over the c_d of renyi.q_and_c; mu_table adds the prefix sums.  The closed
form shares no code with it: with T = T(z/e) the tree function,
exp(sum_d c_d z^d) = (1-T) exp(T/(1-T)), and Lagrange inversion gives
e^m e_m = (m^m/m!) sum_j P_m(Z=j) A_(j-1)/j, with A_k = sum_(i<k) b_i,
a rational in the b_i of exact.perm_B_mean and the law of Z.

The convolution reads the deconditioned identity E_n(B) = (n! e^n/n^n)
sum_m e_m h_{n-m}, with the bare exponential coefficients e_m of a
mu_table and h_m = m^m/(m! e^m), in float64 (putting mu into the
convolution gives 1 + e instead of 1 at n = 1).

The exact route shares no code with the float64 one: gamma_d = c_d e^d
comes from renyi_reference.s_exact, and the exponential coefficients
e_m = r_m e^{-m} from the same recurrence in rationals, so every e^{-m}
cancels in E_n(B).  g_sums shares no code with the closed form of
series.saddle_point: it sums c_d e^{-ds} weighted by (-d)^j over the
float c_d of renyi.q_and_c.  The bisection evaluates g'(s) + n at every
bracket and bisection point, with no root located first, and g0..g3 by
one g_eval call each.

log_expected_B_full runs the b_m ratio recurrence to m = n, with its own
ratio table, where series.log_expected_B stops at the cut M(n).
"""

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

import exact_reference
import renyi_reference
from itermap import asymptotics, exact, renyi
from itermap.mapping import CeilingError, InvariantError
from itermap.series import SaddleReport


def exp_series(inner: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_{d>=1} c_d z^d) via m e_m = sum d c_d e_{m-d}.

    inner holds c_1..c_N (index d-1); returns e_0..e_N.  O(N^2) via one
    dot product per coefficient.
    """
    c = np.asarray(inner, dtype=np.float64)
    N = c.size
    w = c * np.arange(1, N + 1)
    e = np.zeros(N + 1)
    e[0] = 1.0
    for m in range(1, N + 1):
        e[m] = np.dot(w[:m], e[m - 1 :: -1]) / m
    return e


@dataclass(frozen=True)
class SeriesTable:
    """Immutable coefficient table to truncation degree N.

    e[m] = [z^m] exp(sum c_d z^d); mu = prefix sums of e.
    """

    N: int
    e: np.ndarray
    mu: np.ndarray


def mu_table(N: int) -> SeriesTable:
    """Build e and mu to degree N."""
    e = exp_series(renyi.q_and_c(N)[1])
    return SeriesTable(N=N, e=e, mu=np.cumsum(e))


def scaled_e_closed_form(m: int) -> Fraction:
    """e^m e_m = (m^m/m!) sum_{j=1..m} P_m(Z=j) A_(j-1)/j, A_k = sum_(i<k) b_i, for m >= 1."""
    total, A = Fraction(0), Fraction(0)  # A = A_(j-1)
    for j, p in enumerate(exact_reference.z_pmf(m), start=1):
        total += p * A / j
        A += exact.perm_B_mean(j - 1)
    return Fraction(m**m, math.factorial(m)) * total


def h_array(N: int) -> np.ndarray:
    """h_0..h_N with h_m = m^m/(m! e^m)."""
    m = np.arange(1, N + 1, dtype=np.float64)
    h = np.empty(N + 1)
    h[0] = 1.0  # 0^0 = 1
    h[1:] = np.exp(m * np.log(m) - gammaln(m + 1) - m)
    return h


def log_expected_B_convolution(n: int, table: SeriesTable) -> float:
    """log E_n(B) from E_n(B) = (n! e^n/n^n) sum_m e_m h_{n-m}, bare exponential
    coefficients, prefactor in log space; table must reach degree n.
    """
    if table.N < n:
        raise CeilingError(f"n = {n} is above the table's degree {table.N}")
    s = float(np.dot(table.e[: n + 1], h_array(n)[::-1]))
    logpref = math.lgamma(n + 1) + n - n * math.log(n)
    return logpref + math.log(s)


_full_r = array("d", [1.0])  # r_m = b_m/b_(m-1), m = 1, 2, ..., grown by log_expected_B_full


def log_expected_B_full(n: int) -> float:
    """log E_n(B) = log sum_m P_n(Z=m) b_m over every m = 1..n, with no cut."""
    if n < 1:
        raise CeilingError("n must be positive")
    log_p = asymptotics.log_z_pmf(n, n)
    for k in range(len(_full_r) + 1, n + 1):
        _full_r.append((2 * k - 1 - (k - 2) / _full_r[-1]) / k)
    return float(logsumexp(log_p + np.cumsum(np.log(_full_r[:n]))))


def gamma_exact(d: int) -> Fraction:
    """gamma_d = c_d e^d = d^d/d! - S_d/d, exact."""
    return Fraction(d**d, math.factorial(d)) - renyi_reference.s_exact(d) / d


def exp_series_exact(gamma: list[Fraction]) -> list[Fraction]:
    """Exact carrier r_m with e_m = r_m e^{-m}, from gamma_d = c_d e^d."""
    r = [Fraction(1)]
    for m in range(1, len(gamma) + 1):
        r.append(sum((d * gamma[d - 1] * r[m - d] for d in range(1, m + 1)), Fraction(0)) / m)
    return r


def expected_B_exact(n: int) -> Fraction:
    """E_n(B) = (n!/n^n) sum_m r_m (n-m)^(n-m)/(n-m)!, exact."""
    r = exp_series_exact([gamma_exact(d) for d in range(1, n + 1)])
    acc = sum(r[m] * Fraction((n - m) ** (n - m), math.factorial(n - m)) for m in range(n + 1))
    return Fraction(math.factorial(n), n**n) * acc


_c_cache = np.empty(0)
_g_rows = np.empty((3, 0))  # d = 1..D, the terms and a product row, for the largest D so far


def _c_upto(N: int) -> np.ndarray:
    """c_1..c_N; a larger N rebuilds the cache to at least twice its size.

    q_and_c(N) is a prefix of q_and_c(M) for N < M, so every c_d keeps its bits.
    """
    global _c_cache
    if _c_cache.size < N:
        _c_cache = renyi.q_and_c(max(N, 2 * _c_cache.size))[1]
    return _c_cache[:N]


def g_sums(s: float, orders) -> tuple[float, ...]:
    """g^(j)(s) = sum_d (-d)^j c_d e^{-ds} for each j in orders, j <= 3.

    The sum is truncated at D(s) = ceil(40/s): the geometric envelope
    c_d <= 1/sqrt(2 pi d) makes the tail beyond D(s) smaller than 1e-15
    of the total for j <= 3.  The c cache grows before any row does, so the
    peak stays q_and_c's; the rows of `_g_rows` are reused from call to
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


def g_sums_reference(s: float, orders) -> tuple[float, ...]:
    """g_sums as first written: fresh arrays for d, the terms and each weight."""
    D = math.ceil(40.0 / s)
    d = np.arange(1, D + 1, dtype=np.float64)
    terms = _c_upto(D) * np.exp(-d * s)
    return tuple(float((terms * neg_power(d, j)).sum() if j else terms.sum()) for j in orders)


def neg_power(d: np.ndarray, j: int) -> np.ndarray:
    """(-d)^j for j = 1..3, correctly rounded while d < 2**26.5.

    The cube is a product: d * d is exact there, so it is rounded once,
    where `** 3` would go through libm pow, some 50 times slower.
    """
    return -(d * d) * d if j == 3 else (-d) ** j


def g_eval(s: float, j: int = 0) -> float:
    """g^(j)(s) alone, from g_sums."""
    return g_sums(s, (j,))[0]


def rankin_bound(n: int, s: float, table: SeriesTable) -> float:
    """exp(n s + g(s)); raises InvariantError unless mu(n) <= bound."""
    bound = math.exp(n * s + g_eval(s))
    if table.N >= n and not table.mu[n] <= bound:
        raise InvariantError(f"Rankin bound violated at n={n}")
    return bound


def saddle_point(n: int, rel_tol: float = 1e-10) -> SaddleReport:
    """Minimize n s + g(s) by bisection on g'(s) + n = 0."""
    s0 = 0.5 * n ** (-2.0 / 3.0)
    lo, hi = s0 / 4, min(4 * s0, 1.0)
    for _ in range(8):
        if g_eval(lo, 1) + n < 0:
            break
        lo /= 4
    else:
        raise RuntimeError("saddle bracket failure")
    for _ in range(8):
        if g_eval(hi, 1) + n > 0:
            break
        hi = min(4 * hi, 1.0)
        if hi >= 1.0 and g_eval(hi, 1) + n <= 0:
            raise RuntimeError("saddle bracket failure")
    else:
        raise RuntimeError("saddle bracket failure")
    while hi - lo > rel_tol * s0:
        mid = 0.5 * (lo + hi)
        if g_eval(mid, 1) + n < 0:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    g0 = g_eval(s_star, 0)
    g1 = g_eval(s_star, 1)
    g2 = g_eval(s_star, 2)
    g3 = g_eval(s_star, 3)
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
