"""Ground-truth computations: brute-force enumeration of all n^n mappings,
the exact distribution of the cyclic-vertex count Z, mean permutation order
M_m, mean permutation cycle product b_m, and the exact conditional
expectations E_n(T) and E_n(B).

Everything here is exact rational arithmetic; these routines are the
oracles every asymptotic route is validated against.  The enumeration
shares no code with the mapping module or with the z_pmf * M_m route: it
packs each mapping into one integer word and reads its cycle counts off
the fixed points of its iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .mapping import CeilingError

BRUTE_FORCE_MAX_N = 8
M_MAX_DEFAULT = 60
CONDITIONAL_MAX_N = 500


# ---------------------------------------------------------------------------
# Exhaustive enumeration of Omega_n


@dataclass(frozen=True)
class EnumerationSummary:
    """Aggregates over all n^n mappings of [n]."""

    n: int
    count: int                 # n^n
    sum_T: int
    sum_B: int
    z_counts: tuple[int, ...]  # z_counts[m] = #{f : Z(f) = m}, index 0..n
    connected_count: int       # |U_n|
    connected_cycle_total: int  # sum of the cycle length over connected f


@lru_cache(maxsize=None)
def enumerate_summary(n: int, chunk: int = 1 << 16) -> EnumerationSummary:
    """One vectorized pass over all n^n mappings, by fixed points of iterates.

    Each mapping is a word with f(x) in bits 3x..3x+2, so f is evaluated
    elementwise as (w >> 3x) & 7, without a gather.  Following every
    vertex for n steps gives fix_t = #{v : f^t(v) = v} for t = 1..n.  A
    vertex on an L-cycle is fixed by f^t iff L | t, so
    L c_L = fix_L - sum_{d | L, d < L} d c_d gives c_L, the number of
    L-cycles.  Then Z = sum L c_L, B = prod L^c_L, T is the lcm of the
    lengths present, and f is connected iff it has one cycle.
    """
    if not 1 <= n <= BRUTE_FORCE_MAX_N:
        raise CeilingError("enumeration too large")
    if n > 8:  # 3-bit fields hold targets 0..7
        raise CeilingError("packed enumeration words hold n <= 8 targets")
    words = np.zeros(1, dtype=np.int32)
    for x in range(n):
        words = (words[:, None] + (np.arange(n, dtype=np.int32) << 3 * x)).ravel()
    # lcm_of[s] = lcm of the lengths L with bit L-1 set in s
    lengths = range(1, n + 1)
    lcm_of = np.array([math.lcm(*(L for L in lengths if s >> (L - 1) & 1)) for s in range(1 << n)])
    sum_T = sum_B = connected_count = connected_cycle_total = 0
    z_counts = np.zeros(n + 1, dtype=np.int64)

    for lo in range(0, n**n, chunk):
        w = words[lo : lo + chunk]
        fix = np.zeros((n + 1, len(w)), dtype=np.int8)
        for x in range(n):
            y = np.full(len(w), x, dtype=np.int32)
            for t in range(1, n + 1):
                y = (w >> 3 * y) & 7
                fix[t] += y == x

        c = {}
        present = 0
        B = np.ones(len(w), dtype=np.int64)
        for L in lengths:
            c[L] = (fix[L] - sum(d * c[d] for d in range(1, L) if L % d == 0)) // L
            B *= np.power(L, c[L], dtype=np.int64)
            present = present | (c[L] > 0).astype(np.int64) << (L - 1)
        Z = sum(L * c[L] for L in lengths)

        z_counts += np.bincount(Z, minlength=n + 1)
        sum_T += int(lcm_of[present].sum())
        sum_B += int(B.sum())
        conn = sum(c.values()) == 1
        connected_count += int(conn.sum())
        connected_cycle_total += int(Z[conn].sum())

    return EnumerationSummary(
        n=n,
        count=n**n,
        sum_T=sum_T,
        sum_B=sum_B,
        z_counts=tuple(z_counts.tolist()),
        connected_count=connected_count,
        connected_cycle_total=connected_cycle_total,
    )


def brute_force_expectations(n: int) -> tuple[Fraction, Fraction]:
    """Exact (E_n(T), E_n(B)) by enumerating all n^n mappings; n <= 8."""
    s = enumerate_summary(n)
    return Fraction(s.sum_T, s.count), Fraction(s.sum_B, s.count)


# ---------------------------------------------------------------------------
# Distribution of the number of cyclic vertices (Rubin-Sitgreaves formula)


@dataclass(frozen=True)
class ZDistribution:
    """Exact pmf of Z, the number of cyclic vertices, for one n."""

    n: int
    pmf: tuple[Fraction, ...]  # pmf[m-1] = P_n(Z = m), m = 1..n


def z_pmf(n: int) -> ZDistribution:
    """P_n(Z=m) = n! m / ((n-m)! n^(m+1)) as exact rationals."""
    if n < 1:
        raise ValueError("n must be positive")
    probs = []
    falling = 1  # n! / (n-m)! for the current m
    for m in range(1, n + 1):
        falling *= n - m + 1
        probs.append(Fraction(falling * m, n ** (m + 1)))
    return ZDistribution(n=n, pmf=tuple(probs))


def z_pmf_sums_to_one(n: int) -> bool:
    """Integer-only normalization check: sum_m m * n!/(n-m)! * n^(n-m) == n^(n+1)."""
    acc = 0
    falling = 1
    for m in range(1, n + 1):
        falling *= n - m + 1
        acc += m * falling * n ** (n - m)
    return acc == n ** (n + 1)


# ---------------------------------------------------------------------------
# Permutation averages

# _ORDER_ROWS[k] = {L: number of permutations of [k] with order L} and
# _ORDER_TOTALS[k] = sum of L * _ORDER_ROWS[k][L]; both grown on demand.
_ORDER_ROWS: list[dict[int, int]] = [{1: 1}]
_ORDER_TOTALS: list[int] = [1]


def _order_counts(m: int) -> dict[int, int]:
    """{L: number of permutations of [m] with order L}.

    Conditioning on the cycle through element 1: it has length d in
    (k-1)!/(k-d)! ways, the other k-d elements carry any permutation, and
    the order is the lcm of d and that permutation's order.
    """
    for k in range(len(_ORDER_ROWS), m + 1):
        row: dict[int, int] = {}
        ways = 1  # (k-1)!/(k-d)!
        for d in range(1, k + 1):
            for L, c in _ORDER_ROWS[k - d].items():
                key = math.lcm(L, d)
                row[key] = row.get(key, 0) + ways * c
            ways *= k - d
        _ORDER_ROWS.append(row)
        _ORDER_TOTALS.append(sum(L * c for L, c in row.items()))
    return _ORDER_ROWS[m]


def perm_order_mean(m: int) -> Fraction:
    """M_m: mean order (lcm of cycle lengths) of a uniform permutation of [m]."""
    if not 1 <= m <= M_MAX_DEFAULT:
        raise CeilingError("order-count table too large")
    _order_counts(m)
    return Fraction(_ORDER_TOTALS[m], math.factorial(m))


@lru_cache(maxsize=None)
def _perm_B_numerators(upto: int) -> tuple[int, ...]:
    """beta_0..beta_upto, with b_m = beta_m / m!.

    b(x) = exp(x/(1-x)) solves (1-x)^2 b' = b, which in beta reads
    beta_m = (2m-1) beta_{m-1} - (m-1)(m-2) beta_{m-2}.
    """
    beta = [1, 1]
    for m in range(2, upto + 1):
        beta.append((2 * m - 1) * beta[m - 1] - (m - 1) * (m - 2) * beta[m - 2])
    return tuple(beta[: upto + 1])


def perm_B_mean(m: int) -> Fraction:
    """b_m: mean of the cycle-length product of a uniform permutation of [m].

    Equals the coefficient of x^m in exp(x/(1-x)); second, structurally
    independent exact route to E_n(B).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return Fraction(_perm_B_numerators(m)[m], math.factorial(m))


# ---------------------------------------------------------------------------
# Exact expectations by conditioning on the cyclic-vertex count


def exact_E_T(n: int) -> Fraction:
    """E_n(T) = sum_m P_n(Z=m) * M_m, exact."""
    if n > M_MAX_DEFAULT:
        raise CeilingError("order-count table too large")
    dist = z_pmf(n)
    return sum(
        (p * perm_order_mean(m) for m, p in enumerate(dist.pmf, start=1)),
        Fraction(0),
    )


def exact_E_B_conditional(n: int) -> Fraction:
    """E_n(B) = sum_m P_n(Z=m) * b_m, exact; independent of the series engine."""
    if n > CONDITIONAL_MAX_N:
        raise CeilingError("enumeration too large")
    dist = z_pmf(n)
    beta = _perm_B_numerators(n)
    return sum(
        (p * Fraction(beta[m], math.factorial(m)) for m, p in enumerate(dist.pmf, start=1)),
        Fraction(0),
    )
