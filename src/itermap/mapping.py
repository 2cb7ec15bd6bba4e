"""Functional graphs of self-maps of {1..n}: cycle structure and period statistics.

A mapping f: [n] -> [n] induces a directed graph with edges v -> f(v).
Every weak component contains exactly one directed cycle with trees
hanging off it.  The period T(f) of the iterate sequence equals the lcm
of the cycle lengths; B(f) is their product with multiplicity; O(f), the
number of distinct iterates, equals T plus the largest tail height less
one and always satisfies |O - T| < n.  `analyze` returns one
PeriodStats record: T, B, O, their logs, and the cycle lengths, number
of cyclic vertices and largest tail height they are made of.  It and
the sampler's kernel `_cycle_rows` find the cyclic set by one route,
`_last_sets`: image rounds that each square f SQUARINGS times, O(n)
work on a random mapping.  T is `math.lcm` of the lengths
(`period_logs`), for `analyze` and the sampler.

A mapping file is 'n t1 ... tn': tokens [+-]?[0-9]+ separated by ASCII
whitespace, targets 1-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

_TOKEN = re.compile(rb"[+-]?[0-9]+")
_TOKEN_BYTES = b" \t\n\r\x0b\x0c+-0123456789"  # the grammar's bytes: ASCII whitespace, signs, digits
_INT64 = np.iinfo(np.int64)
SQUARINGS = 3  # squarings of f per image round of `_images`


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
class PeriodStats:
    """Period statistics of one mapping of [n]: exact T, B, O, their logs and what they need.

    cycle_lengths holds the length of every cycle, ascending; num_cyclic
    counts the vertices on cycles; max_tail_height is the largest
    distance from a vertex to the cyclic set (0 iff f is a permutation).
    """

    n: int
    T: int
    B: int
    O: int
    log_T: float
    log_B: float
    cycle_lengths: tuple[int, ...]
    num_cyclic: int
    max_tail_height: int


def _bad_token(data: bytes) -> bytes | None:
    """The first token of data outside [+-]?[0-9]+ or the int64 range, if any."""
    for tok in data.split():
        if not _TOKEN.fullmatch(tok) or not _INT64.min <= int(tok) <= _INT64.max:
            return tok
    return None


def _signs_open_tokens(data: bytes) -> bool:
    """Whether every + and - in data starts a token and is followed by a digit."""
    b = np.frombuffer(data, dtype=np.uint8)
    at = np.flatnonzero((b == ord("+")) | (b == ord("-")))
    before = b[at[at > 0] - 1].tobytes()
    after = b[np.minimum(at + 1, len(b) - 1)].tobytes()  # a final sign reads itself
    return (not before or before.isspace()) and (not after or after.isdigit())


def parse_mapping(text: str | bytes) -> Mapping:
    """Parse 'n t1 ... tn' (see the module docstring) into a Mapping.

    np.fromstring reads the numbers in C but is looser than the grammar:
    it reads "+ 2" as 2 and a lone sign as 0, and clamps values beyond
    int64.  So the bytes are checked first (only the grammar's bytes, and
    every sign opens a token before a digit), and a value at an int64
    bound sends the tokens through the exact `_bad_token`.  A str is read
    as its UTF-8 bytes, so non-ASCII digits and whitespace are invalid.
    """
    data = text.encode("utf-8", "replace") if isinstance(text, str) else text
    if not data or data.isspace():
        raise MappingError("empty domain")
    signed = b"+" in data or b"-" in data  # no sign, no scan: the usual input
    if data.translate(None, _TOKEN_BYTES) or signed and not _signs_open_tokens(data):
        raise MappingError(f"invalid token: {_bad_token(data)!r}")
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.max() == _INT64.max or values.min() == _INT64.min:
        bad = _bad_token(data)
        if bad is not None:
            raise MappingError(f"invalid token: {bad!r}")
    return Mapping(int(values[0]), values[1:])  # which checks n >= 1 and the token count


def _images(f: np.ndarray, squarings: int):
    """Yield (e_r, S_r), S_r = f^(e_r)(V), r = 1, 2, ..., ending at the cyclic set.

    f holds 0-based targets, one row (1-D) or a block of rows (2-D; two
    or more rows run as one graph with row offsets, so a one-row block
    costs no copy); each S_r is an ascending array of flat vertex
    indices.  Round r squares g, f^(2^(squarings (r-1))) on S_(r-1)
    relabelled 0..|S_(r-1)|-1, `squarings` times, so S_r = g(S_(r-1))
    and e_r = e_(r-1) + 2^(squarings r).  The first image that is the
    whole set is the cyclic set, as f permutes it; S_0 = V is not made.
    |f^k(V)| is about 2n/k on random mappings, so the work is O(n); on a
    long chain, where the sets barely shrink, it is O(n log n).
    """
    n = f.shape[-1]
    g = (f + np.arange(0, f.size, n)[:, None]).ravel() if f.size > n else f.ravel()
    S, e, step = None, 0, 1
    while True:
        for _ in range(squarings):
            g = g.take(g)
        keep = _image(g)
        if len(keep) == len(g):
            return
        S = keep if S is None else S.take(keep)
        step <<= squarings
        e += step
        yield e, S
        g = _relabel(g.take(keep), keep, len(g))


def _image(g: np.ndarray) -> np.ndarray:
    """The labels g maps something onto, ascending, from one scatter into a bool mark."""
    mark = np.zeros(g.size, dtype=bool)
    mark[g] = True
    return np.flatnonzero(mark)


def _relabel(x: np.ndarray, keep: np.ndarray, m: int) -> np.ndarray:
    """Positions in keep (distinct labels below m) of the values x, and 0 for a value not in keep.

    int32 while the labels fit, which keeps the largest round of
    `_images` near two rows of 8 bytes per vertex.
    """
    label = np.zeros(m, dtype=np.int32 if m < 2**31 else np.int64)
    label[keep] = np.arange(len(keep), dtype=label.dtype)
    return label.take(x)


def _last_sets(f: np.ndarray):
    """(R, e_(R-1), S_(R-1), cyclic set) of one `_images` run of R rounds.

    S_0 = V is None and e_0 = 0; for R = 0 (a permutation) the cyclic set is every vertex.
    """
    R, prev, last = 0, (0, None), (0, None)
    for R, sets in enumerate(_images(f, SQUARINGS), 1):
        prev, last = last, sets
    return R, *prev, last[1] if R else np.arange(f.size)


def _cycles(f: np.ndarray, cyclic: np.ndarray) -> list[int]:
    """Cycle lengths of one row f on its cyclic vertices (ascending array).

    Cycles come in the order of their smallest vertex.  Every walk must
    stay in the set and close at its start, which holds iff f permutes
    the set.
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
            u = succ.get(u)  # None off the set, where the walk stops
        if u != v:
            raise InvariantError("f does not permute the cyclic set")
        lengths.append(len(seen) - start)
    return lengths


def _cycle_rows(f: np.ndarray) -> list[list[int]]:
    """Each row's cycle lengths of f, a row or a block: the sampler's cycle kernel.

    One `_last_sets` run gives the cyclic set, as in `analyze`; it is cut
    at the row starts, and `_cycles` walks each row's part.  The walk
    catches a set that holds a tail vertex or lacks part of a cycle, but
    not one that lacks a whole cycle.
    """
    cyclic = _last_sets(f)[3]
    n = f.shape[-1]
    cuts = np.searchsorted(cyclic, np.arange(0, f.size + 1, n)).tolist()
    rows = enumerate(zip(f.reshape(-1, n), cuts, cuts[1:]))
    return [_cycles(row, cyclic[lo:hi] - r * n) for r, (row, lo, hi) in rows]


def _max_tail_height(f: np.ndarray, R: int, e: int, prev: np.ndarray | None, cyclic: np.ndarray) -> int:
    """Largest distance from a vertex of one row f to its cyclic set, from `_last_sets(f)`.

    The height lies in (e_(R-1), e_R], and f maps S_(R-1) into itself,
    so the loop restarts on f restricted to S_(R-1), adding e_(R-1),
    with the cyclic set merged into one fixed point so that only tail
    vertices are left to run.  At R = 1 the height left is at most
    2^SQUARINGS, and a run with one f step per round counts it.
    """
    height = 0
    while R:
        tail = np.ones(len(f), dtype=bool)
        tail[cyclic] = False
        keep = np.concatenate((cyclic[:1], np.flatnonzero(tail) if prev is None else prev[tail.take(prev)]))
        f, height = _relabel(f.take(keep), keep, len(f)), height + e  # the cyclic set falls on 0
        del tail, keep  # before the restart's own peak
        if R == 1:
            return height + sum(1 for _ in _images(f, 0))
        R, e, prev, cyclic = _last_sets(f)
    return height


def analyze(f: Mapping) -> PeriodStats:
    """The PeriodStats of f in O(n) space and, on a random mapping, O(n) work.

    One `_last_sets` run, as in the sampler's `_cycle_rows`, gives the
    cyclic set, which `_cycles` walks, and the set before it, where
    `_max_tail_height` restarts at the largest tail height h.  T is the
    lcm of the cycle lengths, B their product and O = T + max(h - 1, 0).
    """
    t = f.targets - 1
    R, e, prev, cyclic = _last_sets(t)
    lengths = tuple(sorted(_cycles(t, cyclic)))
    height = _max_tail_height(t, R, e, prev, cyclic)
    T, log_T, log_B = period_logs(lengths)
    return PeriodStats(
        n=f.n,
        T=T,
        B=math.prod(lengths),
        O=T + max(height - 1, 0),
        log_T=log_T,
        log_B=log_B,
        cycle_lengths=lengths,
        num_cyclic=sum(lengths),
        max_tail_height=height,
    )


def period_logs(lengths) -> tuple[int, float, float]:
    """(T, log T, log B) of cycle lengths; T is their lcm.

    log B sums the logs in the order given.  The sampler calls this too,
    so T has one route: `math.lcm`.
    """
    T = math.lcm(*lengths)
    return T, math.log(T), sum(math.log(L) for L in lengths)
