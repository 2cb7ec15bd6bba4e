"""Asymptotics of the expected period E_n(T) of a random mapping.

The leading constant is k0 = (3/2)(3I)^{2/3} ~ 3.36 with
I = int_0^inf log log(e/(1-e^{-t})) dt, computed by one fixed 60-node
Gauss-Legendre rule on a smooth transform; beta0 = sqrt(8I) governs the
expected order of a random permutation (exp(beta0 sqrt(m/log m))).
The upper-bound route maximizes G(x) = log [n!/((n-x)! n^{x-1})
e^{beta_eps sqrt(x/log x)}] over real x by bisection on G', whose
psi(n+1-x) term is scipy's digamma; the lower bound plugs the
near-optimal integer m0* into P_n(Z=m) M_m, read from log_z_pmf: the one
float law of Z, which series.log_expected_B reads too.  Also owns the Harris
CLT normalization (a_n, b_n); digamma is imported on use, so they need no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mapping import CeilingError


# ---------------------------------------------------------------------------
# The constants I, beta0, k0


@dataclass(frozen=True)
class Constants:
    I: float
    beta0: float
    k0: float
    a0: float


PANEL_EDGES = (0.0, 1.0, 4.0, 16.0, 40.0)  # 15 Gauss-Legendre nodes on each panel


@lru_cache(maxsize=None)
def constants() -> Constants:
    """I = int_0^inf log log(e/(1-e^{-t})) dt by one fixed Gauss-Legendre rule.

    Under x = 1 - e^{-t}, then x = e^{-u}, I = int_0^inf log(1+u)/(e^u - 1) du,
    whose integrand tends to 1 at u = 0 and decays like e^{-u} log u: 15
    nodes on each panel of PANEL_EDGES, one dot product.  The tail past 40
    is below 2e-17, and I lands within an ulp of its 40-digit value.
    """
    from numpy.polynomial.legendre import leggauss  # here, so that no command loads it at import

    x, w = leggauss(15)
    lo, hi = np.array(PANEL_EDGES[:-1]), np.array(PANEL_EDGES[1:])
    half = 0.5 * (hi - lo)[:, None]
    u = (0.5 * (lo + hi)[:, None] + half * x).ravel()
    I = float(np.dot((half * w).ravel(), np.log1p(u) / np.expm1(u)))
    return Constants(
        I=I,
        beta0=math.sqrt(8 * I),
        k0=1.5 * (3 * I) ** (2.0 / 3.0),
        a0=(3 * I) ** (1.0 / 3.0),
    )


# ---------------------------------------------------------------------------
# The upper-bound profile G


def _G(n: int, beta: float, x: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(n + 1 - x)
        - (x - 1) * math.log(n)
        + beta * math.sqrt(x / math.log(x))
    )


def _G_prime(n: int, beta: float, x: float) -> float:
    from scipy.special import digamma  # here, so that simulate starts without scipy

    lx = math.log(x)
    return (
        digamma(n + 1 - x)
        - math.log(n)
        + beta / (2 * math.sqrt(x * lx)) * (1 - 1 / lx)
    )


EPS = 0.01  # the eps of beta0 + eps in the upper bound's profile G


# ---------------------------------------------------------------------------
# E_n(T) estimates, Stong's approximation, Harris normalization


Z_LAW_MAX_M = 2**22  # the longest log_z_pmf: about 34 MB per float64 array


def log_z_pmf(n: int, upto: int) -> np.ndarray:
    """log P_n(Z=m) = log(m/n) + sum_{i<m} log1p(-i/n) for m = 1..upto.

    One cumsum, so every prefix has the same bits.
    """
    if upto > Z_LAW_MAX_M:
        raise CeilingError(f"the law of Z to m = {upto} is above the cap {Z_LAW_MAX_M}")
    m = np.arange(1, upto + 1, dtype=np.float64)
    return np.log(m / n) + np.cumsum(np.log1p(-(m - 1) / n))


def stong_logM(m: int) -> float:
    """beta0 sqrt(m/log m): the leading term of log M_m."""
    if m < 3:
        raise CeilingError("domain error")
    return constants().beta0 * math.sqrt(m / math.log(m))


@dataclass(frozen=True)
class EnTEstimate:
    leading: float
    lower_log: float
    upper_log: float
    x_star: float
    m_star: float


def en_T_estimate(n: int) -> EnTEstimate:
    """Bracket log E_n(T) and its leading-order value k0 (n/log^2 n)^(1/3).

    lower_log = log P_n(Z=m0*) + beta0 sqrt(m0*/log m0*) at the nearest
    integer m0* (in [19, n/5]) to a0 (n^2/log n)^(1/3); upper_log = G(x*)
    at beta0 + EPS, x* by bisection on the decreasing G' over [6, n-1]
    (G'(6) > 0 > G'(n-1) for n >= 100).  The stated error terms
    O(m0^3/n^2) and O(sqrt(m0) loglog m0 / log m0) have no explicit
    constants, so lower_log keeps only the explicit terms.  With G_b for G
    at b, lower_log = G_beta0(m0) + log(m0/n^2) and upper_log >=
    G_(beta0+EPS)(m0) > G_beta0(m0): the bracket is wider than log(n^2/m0)
    >= log(5n) and is not checked.  n > Z_LAW_MAX_M^2 is refused first: its
    m0 > sqrt(n) passes log_z_pmf's cap, and n*n may overflow a float.
    """
    if n < 100:
        raise CeilingError("n must be at least 100")
    if n > Z_LAW_MAX_M**2:
        raise CeilingError(f"n is above the cap {Z_LAW_MAX_M**2}")
    cst = constants()
    leading = cst.k0 * (n / math.log(n) ** 2) ** (1.0 / 3.0)
    m0 = round(cst.a0 * (n * n / math.log(n)) ** (1.0 / 3.0))
    lower = float(log_z_pmf(n, m0)[-1]) + stong_logM(m0)
    beta = cst.beta0 + EPS
    lo, hi = 6.0, n - 1.0
    while hi - lo >= 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if _G_prime(n, beta, mid) > 0:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    return EnTEstimate(
        leading=leading,
        lower_log=lower,
        upper_log=_G(n, beta, x_star),
        x_star=x_star,
        m_star=beta ** (2.0 / 3.0) * (3.0 / 8.0) ** (1.0 / 3.0) * n ** (2.0 / 3.0) / math.log(n) ** (1.0 / 3.0),
    )


def harris_params(n: int) -> tuple[float, float]:
    """(a_n, b_n) = (log^2 n / 8, log^(3/2) n / sqrt(24)): the CLT center/scale."""
    if n < 2:
        raise CeilingError("n must be at least 2")
    ln = math.log(n)
    return ln * ln / 8.0, ln**1.5 / math.sqrt(24.0)
