"""Asymptotics of the expected period E_n(T) of a random mapping.

The leading constant is k0 = (3/2)(3I)^{2/3} ~ 3.36 with
I = int_0^inf log log(e/(1-e^{-t})) dt; beta0 = sqrt(8I) governs the
expected order of a random permutation (exp(beta0 sqrt(m/log m))).
The upper-bound route maximizes G(x) = log [n!/((n-x)! n^{x-1})
e^{beta_eps sqrt(x/log x)}] over real x by bisection on G', whose
psi(n+1-x) term is scipy's digamma; the lower bound plugs the
near-optimal integer m0* into P_n(Z=m) M_m.  Also owns the Harris CLT
normalization (a_n, b_n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma

from .mapping import CeilingError, InvariantError


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Legendre panels, 10- vs 20-point error estimate)

_GL10 = np.polynomial.legendre.leggauss(10)
_GL20 = np.polynomial.legendre.leggauss(20)


def _panel(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x10, w10 = _GL10
    x20, w20 = _GL20
    v10 = half * float(np.dot(w10, f(mid + half * x10)))
    v20 = half * float(np.dot(w20, f(mid + half * x20)))
    return v20, abs(v20 - v10)


def adaptive_quad(f, a: float, b: float, tol: float, max_depth: int = 40) -> tuple[float, float]:
    """Integrate a vectorized f on [a, b] to absolute accuracy tol.

    Returns (value, error_estimate); bisects panels until each carries
    its proportional share of tol.
    """
    stack = [(a, b, tol, 0)]
    total = 0.0
    err_total = 0.0
    while stack:
        lo, hi, budget, depth = stack.pop()
        val, err = _panel(f, lo, hi)
        if err <= budget or depth >= max_depth:
            total += val
            err_total += err
            continue
        mid = 0.5 * (lo + hi)
        stack.append((lo, mid, budget / 2, depth + 1))
        stack.append((mid, hi, budget / 2, depth + 1))
    return total, err_total


# ---------------------------------------------------------------------------
# The constants I, beta0, k0


@dataclass(frozen=True)
class Constants:
    I: float
    beta0: float
    k0: float
    a0: float
    quadrature_error: float


def _integrand(t: np.ndarray) -> np.ndarray:
    return np.log(np.log(np.e / (-np.expm1(-t))))


def compute_constants(tolerance: float = 1e-10) -> Constants:
    """I = int_0^inf log log(e/(1-e^{-t})) dt by adaptive quadrature.

    The (0,1] piece is computed under t = e^{-u} to tame the log-log
    endpoint; the [1,T] piece directly, with T chosen so the analytic
    tail bound 2 e^{-T} is below tolerance/10.
    """
    if not 1e-12 < tolerance < 1e-3:
        raise CeilingError("tolerance error")

    def low(u: np.ndarray) -> np.ndarray:
        t = np.exp(-u)
        return _integrand(t) * t

    T = math.log(20.0 / tolerance)
    U = math.log(1.0 / tolerance) + 5.0  # e^{-U} log(U) < tolerance/10
    v1, e1 = adaptive_quad(low, 0.0, U, 0.4 * tolerance)
    v2, e2 = adaptive_quad(_integrand, 1.0, T, 0.4 * tolerance)
    tail = 2.0 * math.exp(-T)
    I = v1 + v2
    err = e1 + e2 + tail
    return Constants(
        I=I,
        beta0=math.sqrt(8 * I),
        k0=1.5 * (3 * I) ** (2.0 / 3.0),
        a0=(3 * I) ** (1.0 / 3.0),
        quadrature_error=err,
    )


@lru_cache(maxsize=None)
def constants(tolerance: float = 1e-10) -> Constants:
    return compute_constants(tolerance)


# ---------------------------------------------------------------------------
# The upper-bound profile G and its maximizer


BRACKET_DELTA = 0.25  # bracket_ok tests G' at (1 -/+ BRACKET_DELTA) m_star


@dataclass(frozen=True)
class GProfile:
    n: int
    eps: float
    beta_eps: float
    x_star: float
    G_at_x_star: float
    m_star: float
    bracket_ok: bool


def k_eps_closed_form(beta: float) -> float:
    """k_eps = -a^2/2 + beta*sqrt(3a/2) with a = beta^(2/3) (3/8)^(1/3)."""
    a = beta ** (2.0 / 3.0) * (3.0 / 8.0) ** (1.0 / 3.0)
    return -0.5 * a * a + beta * math.sqrt(1.5 * a)


def _G(n: int, beta: float, x: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(n + 1 - x)
        - (x - 1) * math.log(n)
        + beta * math.sqrt(x / math.log(x))
    )


def _G_prime(n: int, beta: float, x: float) -> float:
    lx = math.log(x)
    return (
        digamma(n + 1 - x)
        - math.log(n)
        + beta / (2 * math.sqrt(x * lx)) * (1 - 1 / lx)
    )


def g_profile(n: int, eps: float) -> GProfile:
    """Maximize G over [6, n-1] by bisection on the strictly decreasing G'."""
    if n < 100:
        raise CeilingError("n must be at least 100")
    if not 0 < eps <= 1:
        raise CeilingError("eps must lie in (0, 1]")
    beta = constants().beta0 + eps
    lo, hi = 6.0, n - 1.0
    if _G_prime(n, beta, lo) <= 0 or _G_prime(n, beta, hi) >= 0:
        raise CeilingError("maximizer bracket failure")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _G_prime(n, beta, mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * hi:
            break
    x_star = 0.5 * (lo + hi)
    m_star = beta ** (2.0 / 3.0) * (3.0 / 8.0) ** (1.0 / 3.0) * n ** (2.0 / 3.0) / math.log(n) ** (1.0 / 3.0)
    bracket_ok = (
        _G_prime(n, beta, (1 - BRACKET_DELTA) * m_star) > 0
        and _G_prime(n, beta, (1 + BRACKET_DELTA) * m_star) < 0
    )
    return GProfile(
        n=n,
        eps=eps,
        beta_eps=beta,
        x_star=x_star,
        G_at_x_star=_G(n, beta, x_star),
        m_star=m_star,
        bracket_ok=bracket_ok,
    )


# ---------------------------------------------------------------------------
# E_n(T) estimates, Stong's approximation, Harris normalization


def stong_logM(m: int) -> float:
    """beta0 sqrt(m/log m): the leading term of log M_m."""
    if m < 3:
        raise CeilingError("domain error")
    return constants().beta0 * math.sqrt(m / math.log(m))


@dataclass(frozen=True)
class EnTEstimate:
    n: int
    leading: float
    lower_log: float
    upper_log: float
    x_star: float
    m_star: float


def en_T_estimate(n: int, eps: float = 0.01) -> EnTEstimate:
    """Bracket log E_n(T) and its leading-order value k0 (n/log^2 n)^(1/3).

    lower_log = log P_n(Z=m0*) + beta0 sqrt(m0*/log m0*) at the nearest
    integer m0* to a0 (n^2/log n)^(1/3); upper_log = G(x*) at small eps.
    The stated error terms O(m0^3/n^2) and O(sqrt(m0) loglog m0 / log m0)
    have no explicit constants, so lower_log keeps only the explicit terms.
    """
    if n < 100:
        raise CeilingError("n must be at least 100")
    cst = constants()
    leading = cst.k0 * (n / math.log(n) ** 2) ** (1.0 / 3.0)
    m0 = round(cst.a0 * (n * n / math.log(n)) ** (1.0 / 3.0))
    m0 = max(3, min(n, m0))
    log_pz = (
        math.lgamma(n + 1)
        - math.lgamma(n - m0 + 1)
        + math.log(m0)
        - (m0 + 1) * math.log(n)
    )
    lower = log_pz + stong_logM(m0)
    prof = g_profile(n, eps)
    upper = prof.G_at_x_star
    if lower > upper:
        raise InvariantError("lower bound exceeded upper bound")
    return EnTEstimate(
        n=n,
        leading=leading,
        lower_log=lower,
        upper_log=upper,
        x_star=prof.x_star,
        m_star=prof.m_star,
    )


def harris_params(n: int) -> tuple[float, float]:
    """(a_n, b_n) = (log^2 n / 8, log^(3/2) n / sqrt(24)): the CLT center/scale."""
    if n < 2:
        raise CeilingError("n must be at least 2")
    ln = math.log(n)
    return ln * ln / 8.0, ln**1.5 / math.sqrt(24.0)
