"""Ground-truth computations: brute-force enumeration of all n^n mappings,
the mean order M_m and mean cycle product b_m of a uniform permutation
of [m], and the exact E_n(T) and E_n(B), each one integer sum over the
law of the cyclic-vertex count Z.

Everything here is exact arithmetic; these routines are the oracles
every asymptotic route is validated against.  The enumeration shares no
code with the mapping module or with the sums over Z: it packs each
mapping into one integer word and tallies the cycle types read off the
fixed points of its iterates.
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
    vertex for n steps gives fix_t = #{v : f^t(v) = v} for t = 1..n, 4
    bits each of one int64 key; np.unique counts the keys chunk by chunk.
    Each distinct key, a cycle type, is read once in Python ints: a vertex
    on an L-cycle is fixed by f^t iff L | t, so the number of L-cycles is
    c_L = (fix_L - sum_{d | L, d < L} d c_d) / L.  Then Z = sum L c_L,
    B = prod L^c_L, T is the lcm of the lengths present, and f is
    connected iff it has one cycle.
    """
    if not 1 <= n <= BRUTE_FORCE_MAX_N:  # at most 8: 3-bit fields hold targets 0..7
        raise CeilingError("enumeration too large")
    words = np.zeros(1, dtype=np.int32)
    for x in range(n):
        words = (words[:, None] + (np.arange(n, dtype=np.int32) << 3 * x)).ravel()
    tally: dict[int, int] = {}  # key -> number of mappings with that key
    for lo in range(0, n**n, chunk):
        w = words[lo : lo + chunk]
        fix = np.zeros((n + 1, len(w)), dtype=np.int8)
        for x in range(n):
            y = np.full(len(w), x, dtype=np.int32)
            for t in range(1, n + 1):
                y = (w >> 3 * y) & 7
                fix[t] += y == x
        key = sum(fix[t].astype(np.int64) << 4 * (t - 1) for t in range(1, n + 1))
        for k, count in zip(*(a.tolist() for a in np.unique(key, return_counts=True))):
            tally[k] = tally.get(k, 0) + count
    sum_T = sum_B = connected_count = connected_cycle_total = 0
    z_counts = [0] * (n + 1)
    for k, count in tally.items():
        c = {}
        for L in range(1, n + 1):
            c[L] = ((k >> 4 * (L - 1) & 15) - sum(d * c[d] for d in range(1, L) if L % d == 0)) // L
        Z = sum(L * cL for L, cL in c.items())
        z_counts[Z] += count
        sum_T += count * math.lcm(*(L for L, cL in c.items() if cL))
        sum_B += count * math.prod(L**cL for L, cL in c.items())
        if sum(c.values()) == 1:
            connected_count += count
            connected_cycle_total += count * Z

    return EnumerationSummary(
        n=n,
        count=n**n,
        sum_T=sum_T,
        sum_B=sum_B,
        z_counts=tuple(z_counts),
        connected_count=connected_count,
        connected_cycle_total=connected_cycle_total,
    )


def brute_force_expectations(n: int) -> tuple[Fraction, Fraction]:
    """Exact (E_n(T), E_n(B)) by enumerating all n^n mappings; n <= 8."""
    s = enumerate_summary(n)
    return Fraction(s.sum_T, s.count), Fraction(s.sum_B, s.count)


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


_BETA: list[int] = [1, 1]  # _BETA[m] = beta_m = m! b_m, grown on demand


def _perm_B_numerators(upto: int) -> list[int]:
    """beta_0..beta_upto, with b_m = beta_m / m!.

    b(x) = exp(x/(1-x)) solves (1-x)^2 b' = b, which in beta reads
    beta_m = (2m-1) beta_{m-1} - (m-1)(m-2) beta_{m-2}.
    """
    for m in range(len(_BETA), upto + 1):
        _BETA.append((2 * m - 1) * _BETA[m - 1] - (m - 1) * (m - 2) * _BETA[m - 2])
    return _BETA[: upto + 1]


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


def _z_mixture(n: int, numerators) -> Fraction:
    """sum_m P_n(Z=m) X_m/m! for m = 1..n, X_m = numerators[m], as one Fraction.

    With the Rubin-Sitgreaves law P_n(Z=m) = n! m / ((n-m)! n^(m+1)), term m
    has the integer numerator m X_m n^(n-m) (n!/(n-m)!) (n!/m!) over n^(n+1) n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    falling, rising = math.factorial(n), 1  # n!/(n-m)! and n!/m!, from m = n down
    for m in range(n, 0, -1):
        total += m * numerators[m] * n ** (n - m) * falling * rising
        falling //= n - m + 1
        rising *= m
    return Fraction(total, n ** (n + 1) * math.factorial(n))


def exact_E_T(n: int) -> Fraction:
    """E_n(T) = sum_m P_n(Z=m) * M_m, exact."""
    if n > M_MAX_DEFAULT:
        raise CeilingError("order-count table too large")
    _order_counts(n)
    return _z_mixture(n, _ORDER_TOTALS)


def exact_E_B_conditional(n: int) -> Fraction:
    """E_n(B) = sum_m P_n(Z=m) * b_m, exact; independent of the series engine."""
    if n > CONDITIONAL_MAX_N:
        raise CeilingError("conditional sum too large")
    return _z_mixture(n, _perm_B_numerators(n))
