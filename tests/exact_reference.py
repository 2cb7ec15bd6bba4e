"""Test oracles for exact's sums.

The brute-force enumeration of all n^n mappings for n <= 8, which
regenerates exact.BRUTE_FORCE_SUMS and shares no code with the mapping
module or with the sums over Z: it packs each mapping into one integer
word and tallies the cycle types read off the fixed points of its
iterates.

Partition enumeration for small m, independent of the order-count
recurrence in exact: every cycle type of m is enumerated, weighted by
the number of permutations that have it.  The order-count rows as one
{order: count} dict each, from the recurrence that exact's table of
int64 lcm keys replaced.  For b_m up to m = 500, the
O(m^2) exp-of-series convolution that exact's three-term recurrence
replaced.  The law of the cyclic-vertex count Z as exact rationals, the
integer-only check that it sums to one, and the term-by-term Fraction
sums for E_n(T) and E_n(B) that exact's single integer sum replaced.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from itermap import exact
from itermap.mapping import CeilingError

BRUTE_FORCE_MAX_N = 8


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
# Permutation averages by cycle type


def iter_cycle_types(m: int):
    """Yield (lcm, product, count) over integer partitions of m.

    count is the number of permutations of [m] with that cycle type,
    m! / prod(d^a_d * a_d!).  Parts are enumerated descending with
    multiplicity grouping so the weight accumulates incrementally.
    """
    fact_m = math.factorial(m)

    def rec(remaining: int, max_part: int, denom: int, cur_lcm: int, cur_prod: int):
        if remaining == 0:
            yield cur_lcm, cur_prod, fact_m // denom
            return
        for part in range(min(max_part, remaining), 0, -1):
            piece = 1
            new_lcm = math.lcm(cur_lcm, part)
            for mult in range(1, remaining // part + 1):
                piece *= part * mult
                yield from rec(
                    remaining - part * mult,
                    part - 1,
                    denom * piece,
                    new_lcm,
                    cur_prod * part**mult,
                )

    yield from rec(m, m, 1, 1, 1)


# _ORDER_ROWS[k] = {L: number of permutations of [k] with order L}, grown on demand
_ORDER_ROWS: list[dict[int, int]] = [{1: 1}]


def order_counts(m: int) -> dict[int, int]:
    """{L: number of permutations of [m] with order L}, one dict per row.

    The recurrence exact's int64 table replaced, conditioning on the cycle
    through element 1: it has length d in (k-1)!/(k-d)! ways, the other
    k-d elements carry any permutation, and the order is the lcm of d and
    that permutation's order.
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
    return _ORDER_ROWS[m]


@lru_cache(maxsize=None)
def _partition_sums(m: int) -> tuple[int, int, int]:
    """(sum lcm*count, sum product*count, number of partitions) over cycle types of m."""
    lcm_total = 0
    prod_total = 0
    partitions = 0
    for l, p, c in iter_cycle_types(m):
        lcm_total += l * c
        prod_total += p * c
        partitions += 1
    return lcm_total, prod_total, partitions


def partition_count(m: int) -> int:
    """p(m), counted by the same enumeration that drives M_m."""
    return _partition_sums(m)[2]


def perm_order_mean(m: int) -> Fraction:
    """M_m by summing the lcm over every cycle type of m."""
    return Fraction(_partition_sums(m)[0], math.factorial(m))


def perm_B_numerators(upto: int) -> list[int]:
    """beta_m = m! b_m for m = 0..upto, from m b_m = sum_d d b_{m-d}.

    That is the coefficient recurrence of b(x) = exp(x/(1-x)), integer-only
    after clearing factorials.
    """
    beta = [1] * (upto + 1)
    fact = [math.factorial(i) for i in range(upto + 1)]
    for m in range(1, upto + 1):
        acc = 0
        for d in range(1, m + 1):
            acc += d * beta[m - d] * (fact[m - 1] // fact[m - d])
        beta[m] = acc
    return beta


def perm_B_mean(m: int) -> Fraction:
    """b_m by summing the cycle-length product over every cycle type of m."""
    if m == 0:
        return Fraction(1)
    return Fraction(_partition_sums(m)[1], math.factorial(m))


def z_pmf_sums_to_one(n: int) -> bool:
    """Integer-only normalization check: sum_m m * n!/(n-m)! * n^(n-m) == n^(n+1)."""
    acc = 0
    falling = 1
    for m in range(1, n + 1):
        falling *= n - m + 1
        acc += m * falling * n ** (n - m)
    return acc == n ** (n + 1)


def z_pmf(n: int) -> tuple[Fraction, ...]:
    """(P_n(Z=1), ..., P_n(Z=n)), P_n(Z=m) = n! m / ((n-m)! n^(m+1)), as exact rationals."""
    if n < 1:
        raise ValueError("n must be positive")
    probs = []
    falling = 1  # n! / (n-m)! for the current m
    for m in range(1, n + 1):
        falling *= n - m + 1
        probs.append(Fraction(falling * m, n ** (m + 1)))
    return tuple(probs)


def exact_E_T(n: int) -> Fraction:
    """E_n(T) = sum_m P_n(Z=m) * M_m, one Fraction per term."""
    return sum(
        (p * exact.perm_order_mean(m) for m, p in enumerate(z_pmf(n), start=1)),
        Fraction(0),
    )


def exact_E_B_conditional(n: int) -> Fraction:
    """E_n(B) = sum_m P_n(Z=m) * b_m, one Fraction per term."""
    beta = exact._perm_B_numerators(n)
    return sum(
        (p * Fraction(beta[m], math.factorial(m)) for m, p in enumerate(z_pmf(n), start=1)),
        Fraction(0),
    )
