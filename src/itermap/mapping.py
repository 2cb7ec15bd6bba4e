"""Functional graphs of self-maps of {1..n}: cycle structure and period statistics.

A mapping f: [n] -> [n] induces a directed graph with edges v -> f(v).
Every weak component contains exactly one directed cycle with trees
hanging off it.  The period T(f) of the iterate sequence equals the lcm
of the cycle lengths; B(f) is their product with multiplicity; O(f), the
number of distinct iterates, equals T plus the preperiod excess and
always satisfies |O - T| < n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MappingError(ValueError):
    """Invalid mapping input (bad target, wrong token count, empty domain)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; the CLI exits with code 5."""


@dataclass(frozen=True)
class Mapping:
    """A total function on {1..n}; targets[i-1] holds f(i), 1-based."""

    n: int
    targets: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise MappingError("empty domain")
        if len(self.targets) != self.n:
            raise MappingError("length mismatch")
        for t in self.targets:
            if not 1 <= t <= self.n:
                raise MappingError("invalid target")


@dataclass(frozen=True)
class CycleStructure:
    """Decomposition of the functional graph of one mapping.

    cyclic_vertices are the v with f^t(v) = v for some t >= 1 (1-based).
    tail_heights[v-1] is the distance from v to the cyclic set (0 iff
    cyclic); component_profile maps component size d to the number of
    d-vertex weak components; nu is the total vertex count.
    """

    cyclic_vertices: frozenset[int]
    cycle_lengths: tuple[int, ...]
    tail_heights: tuple[int, ...]
    component_profile: dict[int, int]
    nu: int

    @property
    def num_cyclic(self) -> int:
        return len(self.cyclic_vertices)

    @property
    def max_tail_height(self) -> int:
        return max(self.tail_heights)


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
    if isinstance(text, bytes):
        text = text.decode("ascii")
    tokens = text.split()
    if not tokens:
        raise MappingError("empty domain")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise MappingError(f"invalid token: {exc}") from None
    n = values[0]
    if n < 1:
        raise MappingError("empty domain")
    if len(values) != n + 1:
        raise MappingError("length mismatch")
    return Mapping(n, tuple(values[1:]))


def _doubling(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pointer doubling along the last axis: (f^(2^K), cyclic mask), 2^K >= n.

    f holds 0-based targets, one row (1-D) or a block of rows (2-D).  A
    tail is shorter than n, so f^(2^K) maps every vertex onto its cycle
    and its image is the cyclic set.  Only the current table is kept.
    """
    g = f
    for _ in range(max(1, (f.shape[-1] - 1).bit_length())):
        g = np.take_along_axis(g, g, axis=-1)
    mask = np.zeros(f.shape, dtype=bool)
    np.put_along_axis(mask, g, True, axis=-1)
    return g, mask


def _cycles(f: np.ndarray, cyclic: np.ndarray) -> tuple[list[int], list[int]]:
    """Cycle lengths of one row f on its cyclic vertices, and their cycle ids.

    cyclic holds the cyclic vertices in ascending order; cycles are
    numbered by their smallest vertex, and ids[i] is the id of cyclic[i].
    """
    verts = cyclic.tolist()
    succ = dict(zip(verts, f[cyclic].tolist()))
    cid: dict[int, int] = {}
    lengths: list[int] = []
    for v in verts:
        if v in cid:
            continue
        start, u = len(cid), v
        while u not in cid:
            cid[u] = len(lengths)
            u = succ[u]
        lengths.append(len(cid) - start)
    return lengths, [cid[v] for v in verts]


def analyze(f: Mapping) -> CycleStructure:
    """Decompose the functional graph of f in O(n log n) time and O(n) space."""
    n = f.n
    t = np.array(f.targets, dtype=np.int64) - 1
    g, mask = _doubling(t)
    cyclic = np.flatnonzero(mask)
    lengths, ids = _cycles(t, cyclic)

    # A vertex's component is the cycle that f^(2^K) maps it onto.
    cycle_id = np.zeros(n, dtype=np.int64)
    cycle_id[cyclic] = ids
    sizes, counts = np.unique(np.bincount(cycle_id[g]), return_counts=True)
    profile = dict(zip(sizes.tolist(), counts.tolist()))

    # Tail heights by pointer jumping, with the cyclic vertices made fixed points.
    nxt = np.where(mask, np.arange(n), t)
    height = (~mask).astype(np.int64)
    for _ in range(max(1, (n - 1).bit_length())):
        height += height[nxt]
        nxt = nxt[nxt]

    if sum(lengths) != len(cyclic):
        raise InvariantError(f"cycle lengths sum to {sum(lengths)}, not to {len(cyclic)} cyclic vertices")
    if sum(d * a for d, a in profile.items()) != n:
        raise InvariantError(f"component sizes do not sum to n = {n}")
    return CycleStructure(
        cyclic_vertices=frozenset((cyclic + 1).tolist()),
        cycle_lengths=tuple(sorted(lengths)),
        tail_heights=tuple(height.tolist()),
        component_profile=profile,
        nu=n,
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
    so log T stays cheap at large n.
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
    if B % T:
        raise InvariantError("T does not divide B")
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
        "cycle_lengths": sorted(cs.cycle_lengths),
        "num_cyclic": cs.num_cyclic,
    }
