"""Ground-truth computations: the mean order M_m and mean cycle product
b_m of a uniform permutation of [m], and the exact E_n(T) and E_n(B),
each one integer sum over the law of the cyclic-vertex count Z.

Everything here is exact arithmetic; these routines are the oracles
every asymptotic route is validated against.  M_m reads one table of
permutation counts by order, in numpy arrays over int64 lcm keys.
BRUTE_FORCE_SUMS records sum T(f) and sum B(f) over all n^n mappings f
of [n] for n = 1..7, which the CLI compares E_n(T) and E_n(B) against;
the enumeration that regenerates them lives in tests/exact_reference.py
and shares no code with the sums over Z.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .mapping import CeilingError

# (sum of T(f), sum of B(f)) over all n^n mappings f of [n], for n = 1..7
BRUTE_FORCE_SUMS = (
    (1, 1), (5, 5), (40, 40), (431, 437), (5886, 6036), (96817, 100657), (1862890, 1965160),
)
M_MAX_DEFAULT = 60
CONDITIONAL_MAX_N = 500


# ---------------------------------------------------------------------------
# Permutation averages

# The order-count table, grown on demand: entry i says that _COUNTS[i] k!/60!
# permutations of [k = _OWNER[i]] have order _KEYS[i] <= Landau's g(60) = 1021020.
# _ORDER_TOTALS[k] = sum of L times the number of permutations of [k] with order L.
_KEYS = np.ones(1, dtype=np.int64)
_OWNER = np.zeros(1, dtype=np.int64)
_COUNTS = np.array([math.factorial(M_MAX_DEFAULT)], dtype=object)
_ORDER_TOTALS: list[int] = [1]


def _order_counts(m: int) -> None:
    """Grow the order-count table through row m <= M_MAX_DEFAULT (60).

    Conditioning on the cycle through element 1: it has length d in
    (k-1)!/(k-d)! ways, the other k-d elements carry any permutation, and
    the order is the lcm of d and that permutation's order.  Scaled by
    60!/k!, row k is (1/k) sum_d lcm_d(row k-d), with d = k - owner.
    """
    global _KEYS, _OWNER, _COUNTS
    for k in range(len(_ORDER_TOTALS), m + 1):
        keys = np.lcm(_KEYS, k - _OWNER)
        order = np.argsort(keys)  # need not be stable: equal keys' counts are summed exactly
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, counts = keys[starts], np.add.reduceat(_COUNTS[order], starts) // k
        _KEYS, _COUNTS = np.concatenate((_KEYS, keys)), np.concatenate((_COUNTS, counts))
        _OWNER = np.concatenate((_OWNER, np.full(len(keys), k)))
        total = np.dot(keys.astype(object), counts) * math.factorial(k)
        _ORDER_TOTALS.append(total // math.factorial(M_MAX_DEFAULT))


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
