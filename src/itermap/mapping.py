"""Functional graphs of self-maps of {1..n}: cycle structure and period statistics.

A mapping f: [n] -> [n] induces a directed graph with edges v -> f(v).
Every weak component contains exactly one directed cycle with trees
hanging off it.  The period T(f) of the iterate sequence equals the lcm
of the cycle lengths; B(f) is their product with multiplicity; O(f), the
number of distinct iterates, equals T plus the largest tail height less
one and always satisfies |O - T| < n.  `analyze` keeps only what these
need: the cycle lengths, the number of cyclic vertices and the largest
tail height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MappingError(ValueError):
    """Invalid mapping input (bad target, wrong token count, empty domain)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; the CLI exits with code 5."""


@dataclass(frozen=True, eq=False)
class Mapping:
    """A total function on {1..n}; targets[i-1] holds f(i), 1-based.

    targets may be given as any int sequence; it is stored as a read-only
    int64 array and range-checked in one vectorised pass.
    """

    n: int
    targets: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise MappingError("empty domain")
        try:
            t = np.array(self.targets, dtype=np.int64)
        except (ValueError, OverflowError, TypeError):
            raise MappingError("invalid target") from None
        if t.shape != (self.n,):
            raise MappingError("length mismatch")
        if t.min() < 1 or t.max() > self.n:
            raise MappingError("invalid target")
        t.flags.writeable = False
        object.__setattr__(self, "targets", t)


@dataclass(frozen=True)
class CycleStructure:
    """What T, B and O need of the functional graph of one mapping.

    cycle_lengths holds the length of every cycle, ascending; num_cyclic
    counts the vertices on cycles; max_tail_height is the largest
    distance from a vertex to the cyclic set (0 iff f is a permutation).
    """

    cycle_lengths: tuple[int, ...]
    num_cyclic: int
    max_tail_height: int


@dataclass(frozen=True)
class PeriodStats:
    """Period statistics of one mapping: exact T, B, O and their logs."""

    T: int
    B: int
    O: int
    log_T: float
    log_B: float
    prime_exponents_T: dict[int, int]


def parse_mapping(text: str | bytes) -> Mapping:
    """Parse 'n t1 ... tn' (whitespace separated, 1-based targets)."""
    tokens = text.split()
    if not tokens:
        raise MappingError("empty domain")
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise MappingError(f"invalid token: {exc}") from None
    n = int(values[0])
    if n < 1:
        raise MappingError("empty domain")
    if len(values) != n + 1:
        raise MappingError("length mismatch")
    return Mapping(n, values[1:])


def _doubling(f: np.ndarray) -> np.ndarray:
    """Cyclic mask of f by pointer doubling along the last axis.

    f holds 0-based targets, one row (1-D) or a block of rows (2-D).  A
    tail is shorter than n, so f^(2^K) with 2^K >= n maps every vertex
    onto its cycle and its image is the cyclic set.  Only the current
    table is kept.
    """
    g = f
    for _ in range(max(1, (f.shape[-1] - 1).bit_length())):
        g = np.take_along_axis(g, g, axis=-1)
    mask = np.zeros(f.shape, dtype=bool)
    np.put_along_axis(mask, g, True, axis=-1)
    return mask


def _cycles(f: np.ndarray, cyclic: np.ndarray) -> list[int]:
    """Cycle lengths of one row f on its cyclic vertices (ascending array).

    Cycles come in the order of their smallest vertex.
    """
    verts = cyclic.tolist()
    succ = dict(zip(verts, f[cyclic].tolist()))
    seen: set[int] = set()
    lengths: list[int] = []
    for v in verts:
        if v in seen:
            continue
        start, u = len(seen), v
        while u not in seen:
            seen.add(u)
            u = succ[u]
        lengths.append(len(seen) - start)
    return lengths


def analyze(f: Mapping) -> CycleStructure:
    """Decompose the functional graph of f in O(n log n) time and O(n) space.

    The cyclic mask is checked to be exactly the cyclic set: f must
    permute it, and every vertex must reach it.
    """
    n = f.n
    t = f.targets - 1
    mask = _doubling(t)
    cyclic = np.flatnonzero(mask)
    image = t[cyclic]
    if not (mask[image].all() and np.unique(image).size == image.size):
        raise InvariantError("f does not permute the cyclic mask")
    lengths = _cycles(t, cyclic)

    # Tail heights by pointer jumping, with the cyclic vertices made fixed points.
    nxt = np.where(mask, np.arange(n), t)
    height = (~mask).astype(np.int64)
    for _ in range(max(1, (n - 1).bit_length())):
        height += height[nxt]
        nxt = nxt[nxt]
    if not mask[nxt].all():
        raise InvariantError("a vertex does not reach the cyclic mask")
    return CycleStructure(
        cycle_lengths=tuple(sorted(lengths)),
        num_cyclic=len(cyclic),
        max_tail_height=int(height.max()),
    )


def _smallest_prime_factors(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


_SPF: list[int] = [0, 1]


def _spf(limit: int) -> list[int]:
    global _SPF
    if limit >= len(_SPF):
        _SPF = _smallest_prime_factors(max(limit, 2 * len(_SPF)))
    return _SPF


def factorize(m: int) -> dict[int, int]:
    """Prime factorization via a cached smallest-prime-factor sieve."""
    spf = _spf(m)
    out: dict[int, int] = {}
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out[p] = e
    return out


def period_stats(cs: CycleStructure) -> PeriodStats:
    """T = lcm of cycle lengths, B = their product, O = T + max(h-1, 0).

    T is carried both as a big integer and as a prime -> max-exponent map
    so log T stays cheap at large n; it is checked against math.lcm.
    """
    exps: dict[int, int] = {}
    B = 1
    log_B = 0.0
    for length in cs.cycle_lengths:
        B *= length
        log_B += math.log(length)
        for p, e in factorize(length).items():
            if e > exps.get(p, 0):
                exps[p] = e
    T = 1
    log_T = 0.0
    for p, e in sorted(exps.items()):
        T *= p**e
        log_T += e * math.log(p)
    O = T + max(cs.max_tail_height - 1, 0)
    if T != math.lcm(*cs.cycle_lengths):
        raise InvariantError("T is not the lcm of the cycle lengths")
    return PeriodStats(T=T, B=B, O=O, log_T=log_T, log_B=log_B, prime_exponents_T=exps)


def stats_to_json_dict(f: Mapping, cs: CycleStructure, ps: PeriodStats) -> dict:
    """JSON-ready dict with big integers as decimal strings."""
    return {
        "n": f.n,
        "T": str(ps.T),
        "B": str(ps.B),
        "O": str(ps.O),
        "log_T": ps.log_T,
        "log_B": ps.log_B,
        "cycle_lengths": list(cs.cycle_lengths),
        "num_cyclic": cs.num_cyclic,
    }
