"""Test oracles for exact's permutation means.

Partition enumeration for small m, independent of the order-count
recurrence in exact: every cycle type of m is enumerated, weighted by
the number of permutations that have it.  For b_m up to m = 500, the
O(m^2) exp-of-series convolution that exact's three-term recurrence
replaced.  The law of the cyclic-vertex count Z as exact rationals, the
integer-only check that it sums to one, and the term-by-term Fraction
sums for E_n(T) and E_n(B) that exact's single integer sum replaced.
"""

import math
from fractions import Fraction
from functools import lru_cache

from itermap import exact


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
