"""Functional graphs of self-maps of {1..n}: cycle structure and period statistics.

A mapping f: [n] -> [n] induces a directed graph with edges v -> f(v).
Every weak component contains exactly one directed cycle with trees
hanging off it.  The period T(f) of the iterate sequence equals the lcm
of the cycle lengths; B(f) is their product with multiplicity; O(f), the
number of distinct iterates, equals T plus the largest tail height less
one and always satisfies |O - T| < n.  `analyze` returns one
PeriodStats record: T, B, O, their logs, and the cycle lengths, number
of cyclic vertices and largest tail height they are made of, from one
image-shrinking run, O(n) work on a random mapping; the sampler's kernel
`_cycle_rows` finds the cyclic set by pointer doubling.  T is `math.lcm`
of the lengths (`period_logs`), for `analyze` and the sampler.

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
SHRINK_ABOVE = 2**17  # `_cyclic_set` shrinks larger sets by image rounds first: doubling alone lost from 3e6


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


def _images(f: np.ndarray):
    """Yield the image sets S_j = f^(2^j - 1)(V), j = 0, 1, ..., ending at the cyclic set.

    f holds 0-based targets, one row (1-D) or a block of rows (2-D; two
    or more rows run as one graph with row offsets, so a one-row block
    costs no copy); each S_j is an ascending array of flat vertex
    indices.  g = f^(2^j) is kept on S_j only, relabelled
    0..|S_j|-1: S_{j+1} = g(S_j) (`_image`), and g maps S_{j+1} into
    itself, so f^(2^(j+1)) on S_{j+1} is g o g there.  The loop stops
    at the first S_{j+1} = S_j, which is then the cyclic set, or at S_J
    with 2^J >= n, past every tail.  The sets shrink about geometrically
    on random mappings (|f^k(V)| is about 2n/k), so the work is O(n);
    where they barely shrink, as on a long chain, it is O(n log n).
    """
    n = f.shape[-1]
    g = (f + np.arange(0, f.size, n)[:, None]).ravel() if f.size > n else f.ravel()
    S = None  # S_0, every vertex, is made for the caller only
    yield np.arange(g.size)
    for _ in range((n - 1).bit_length()):
        keep = _image(g)
        if len(keep) == len(g):
            return
        S = keep if S is None else S.take(keep)
        yield S
        g = _relabel(g.take(g.take(keep)), keep, len(g))


def _image(g: np.ndarray) -> np.ndarray:
    """The labels g maps something onto, ascending, from one scatter into a bool mark."""
    mark = np.zeros(g.size, dtype=bool)
    mark[g] = True
    return np.flatnonzero(mark)


def _relabel(x: np.ndarray, keep: np.ndarray, m: int) -> np.ndarray:
    """Positions in keep (ascending labels below m) of the values x, all in keep.

    int32 while the labels fit, which keeps the largest round of
    `_images` near two rows of 8 bytes per vertex.
    """
    label = np.empty(m, dtype=np.int32 if m < 2**31 else np.int64)
    label[keep] = np.arange(len(keep), dtype=label.dtype)
    return label.take(x)


def _last_sets(f: np.ndarray):
    """(J, S_(J-1), S_J) of one `_images` run; S_(J-1) only if J > 1 (a restart)."""
    prev = last = None
    for J, S in enumerate(_images(f)):
        prev, last = (last if J > 1 else None), S
    return J, prev, last


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


def _cyclic_set(f: np.ndarray) -> np.ndarray:
    """The cyclic set of f, a row or a block (as in `_images`), as ascending flat indices.

    C = h(V) for h = f^(2^J), J = isqrt(n).bit_length() + 1 squarings: 2^J >
    2 sqrt(n) passes the largest tail of 93% to 99.8% of random rows at n =
    1e2..1e5.  C is closed under f, so it is the cyclic set exactly when f,
    or equally its power h, is injective on it; until then h is squared
    once more.  Sets above SHRINK_ABOVE first take image rounds, as
    `_images` does, each one of the squarings, on the set S they leave.
    """
    n = f.shape[-1]
    h = (f + np.arange(0, f.size, n)[:, None]).ravel() if f.size > n else f.ravel()
    S, squarings = None, math.isqrt(n).bit_length() + 1
    while len(h) > SHRINK_ABOVE and len(keep := _image(h)) < len(h):
        S = keep if S is None else S.take(keep)  # before the relabelling, so S_j is freed first
        h, squarings = _relabel(h.take(h.take(keep)), keep, len(h)), squarings - 1
    for _ in range(squarings):
        h = h.take(h)
    while True:
        C = _image(h)
        mark = np.zeros(len(h), dtype=bool)
        mark[h.take(C)] = True  # h(C) lies in C, and fills it exactly when h is injective on C
        if np.count_nonzero(mark) == len(C):
            return C if S is None else S.take(C)
        h = h.take(h)


def _cycle_rows(f: np.ndarray) -> list[list[int]]:
    """Each row's cycle lengths of f, a row or a block: the sampler's cycle kernel.

    `_cyclic_set` runs once; the cyclic set is cut at the row starts,
    and `_cycles`, as in `analyze`, walks each row's part.  The walk
    catches a set that holds a tail vertex or lacks part of a cycle, but
    not one that lacks a whole cycle.
    """
    cyclic = _cyclic_set(f)
    n = f.shape[-1]
    cuts = np.searchsorted(cyclic, np.arange(0, f.size + 1, n)).tolist()
    rows = enumerate(zip(f.reshape(-1, n), cuts, cuts[1:]))
    return [_cycles(row, cyclic[lo:hi] - r * n) for r, (row, lo, hi) in rows]


def _max_tail_height(f: np.ndarray, J: int, prev: np.ndarray | None) -> int:
    """Largest distance from a vertex of one row f to its cyclic set, from `_last_sets(f)`.

    Each set before S_J strictly holds the cyclic set, so the height lies
    in [2^(J-1), 2^J).  S_(J-1) is 2^(J-1) - 1 steps in and f maps it into
    itself, so the loop restarts on f restricted to it until J <= 1, each
    restart taking the leading bit off the height left.
    """
    height = 0
    while J > 1:
        height += 2 ** (J - 1) - 1
        f = _relabel(f.take(prev), prev, len(f))
        J, prev, _ = _last_sets(f)
    return height + J


def analyze(f: Mapping) -> PeriodStats:
    """The PeriodStats of f in O(n) space and, on a random mapping, O(n) work.

    One `_images` run gives the cyclic set, which `_cycles` walks, and
    the set before it, where `_max_tail_height` restarts at the largest
    tail height h.  T is the lcm of the cycle lengths, B their product
    and O = T + max(h - 1, 0).
    """
    t = f.targets - 1
    J, prev, cyclic = _last_sets(t)
    lengths = tuple(sorted(_cycles(t, cyclic)))
    height = _max_tail_height(t, J, prev)
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
