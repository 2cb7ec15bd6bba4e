"""Functional graphs of self-maps of {1..n}: cycle structure and period statistics.

A mapping f: [n] -> [n] induces a directed graph with edges v -> f(v).
Every weak component contains exactly one directed cycle with trees
hanging off it.  The period T(f) of the iterate sequence equals the lcm
of the cycle lengths; B(f) is their product with multiplicity; O(f), the
number of distinct iterates, equals T plus the largest tail height less
one and always satisfies |O - T| < n.  `analyze` keeps only what these
need: the cycle lengths, the number of cyclic vertices and the largest
tail height.  `period_logs` takes T from `math.lcm` of the lengths, for
`analyze` and the sampler alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MappingError(ValueError):
    """Invalid mapping input (bad target, wrong token count, empty domain)."""


class InvariantError(RuntimeError):
    """An internal consistency check failed; the CLI exits with code 5."""


class CeilingError(ValueError):
    """A size or parameter outside the supported domain; the CLI exits with code 4."""


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

    Cycles come in the order of their smallest vertex.  Every walk must
    stay in the mask and close at its start, which holds iff f permutes
    the mask.
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
            u = succ.get(u)  # None off the mask, where the walk stops
        if u != v:
            raise InvariantError("f does not permute the cyclic mask")
        lengths.append(len(seen) - start)
    return lengths


def _max_tail_height(f: np.ndarray, mask: np.ndarray) -> int:
    """Largest distance from a vertex of one row f to its cyclic mask.

    Tail heights by pointer jumping, with the masked vertices made fixed
    points.  Raises InvariantError unless every vertex reaches the mask,
    so a mask that lost a whole cycle is caught.
    """
    n = f.shape[-1]
    nxt = np.where(mask, np.arange(n), f)
    height = (~mask).astype(np.int64)
    for _ in range(max(1, (n - 1).bit_length())):
        height += height[nxt]
        nxt = nxt[nxt]
    if not mask[nxt].all():
        raise InvariantError("a vertex does not reach the cyclic mask")
    return int(height.max())


def analyze(f: Mapping) -> CycleStructure:
    """Decompose the functional graph of f in O(n log n) time and O(n) space.

    The cyclic mask is checked to be exactly the cyclic set: f must
    permute it (checked by `_cycles`), and every vertex must reach it
    (checked by `_max_tail_height`).
    """
    t = f.targets - 1
    mask = _doubling(t)
    cyclic = np.flatnonzero(mask)
    lengths = _cycles(t, cyclic)
    return CycleStructure(
        cycle_lengths=tuple(sorted(lengths)),
        num_cyclic=len(cyclic),
        max_tail_height=_max_tail_height(t, mask),
    )


def period_logs(lengths) -> tuple[int, float, float]:
    """(T, log T, log B) of cycle lengths; T is their lcm.

    log B sums the logs in the order given.  The sampler calls this too,
    so T has one route: `math.lcm`.
    """
    T = math.lcm(*lengths)
    return T, math.log(T), sum(math.log(L) for L in lengths)


def period_stats(cs: CycleStructure) -> PeriodStats:
    """T = lcm of cycle lengths, B = their product, O = T + max(h-1, 0)."""
    T, log_T, log_B = period_logs(cs.cycle_lengths)
    O = T + max(cs.max_tail_height - 1, 0)
    return PeriodStats(T=T, B=math.prod(cs.cycle_lengths), O=O, log_T=log_T, log_B=log_B)


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
