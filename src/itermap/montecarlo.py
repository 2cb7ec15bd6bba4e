"""Reproducible sampling of uniform random mappings at large n.

Samples are drawn in ceil(samples / DEFAULT_BLOCK) blocks of nearly
equal size; block b uses the generator
PCG64(SeedSequence(entropy=seed, spawn_key=(b,))), so results are
bit-identical for a given (n, samples, seed) no matter how the blocks
would be scheduled.  Each block is drawn from its stream in
chunks of max(1, CHUNK_VERTICES // n) rows, the last one possibly
shorter; a k-row matrix holds the same values as k row draws, so the
chunk size does not change the output.  Each chunk goes through one
call of mapping._cycle_rows, the cycle kernel: the cyclic set by the
image rounds of `analyze` and its cycle walk, which raises
mapping.InvariantError unless f permutes that set.  log T and log B come
from mapping.period_logs, as in `analyze`.

The kernel runs on a few worker threads (numpy's gathers release the
GIL) while the main thread keeps drawing chunks in stream order; each
sample is added to running sums in that same order, so the output does
not depend on the number of threads.

Only numpy is needed, so `simulate` starts without scipy; the tests'
chi-square of the Z counts is in tests/montecarlo_reference.py.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import asymptotics, mapping

HIST_BINS = 41          # over [-4, 4], plus two overflow bins; fixed forever
HIST_LO, HIST_HI = -4.0, 4.0
CHUNK_VERTICES = 2**16  # vertices drawn and analysed at once, unless one row holds more
MAX_WORKERS = 4         # beyond this the serial draw bounds the rate
MAX_N = 10**7
DEFAULT_BLOCK = 256      # the most samples in one block


@dataclass
class StatSummary:
    """Accumulated statistics of one experiment."""

    n: int
    samples: int
    seed: int
    blocks: int
    mean_log_T: float
    var_log_T: float
    mean_log_B: float
    var_log_B: float
    mean_diff: float        # log B - log T
    var_diff: float
    frac_norm_nonpos: float  # empirical P((log T - a_n)/b_n <= 0)
    hist: np.ndarray         # HIST_BINS + 2 counts (underflow, bins, overflow)
    z_counts: np.ndarray     # index m = 0..n


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The documented split: PCG64 seeded by SeedSequence(seed, spawn_key=(block,))."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    )


def _samples(f) -> list[tuple[int, float, float]]:
    """(Z, log T, log B) of each row of the chunk f."""
    return [(sum(lengths), *mapping.period_logs(lengths)[1:]) for lengths in mapping._cycle_rows(f)]


def _workers() -> int:
    """Worker threads for the cycle kernel: the usable CPUs, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_WORKERS, cpus)


def _draws(n: int, seed: int, samples: int):
    """Each block's rows in stream order, as matrices of max(1, CHUNK_VERTICES // n) rows.

    Block sizes are integers worked out one block at a time: nothing grows with samples.
    """
    rows = max(1, CHUNK_VERTICES // n)
    blocks = -(-samples // DEFAULT_BLOCK)
    base, extra = divmod(samples, blocks)
    for b in range(blocks):
        bs = base + (b < extra)
        rng = block_rng(seed, b)
        for done in range(0, bs, rows):
            yield rng.integers(0, n, size=(min(rows, bs - done), n), dtype=np.int64)


def _in_order(draws, pool: ThreadPoolExecutor, workers: int):
    """_samples of every draw, yielded in draw order.

    At most workers + 1 draws are submitted and not yet yielded (one
    running per worker and one queued), so chunks are drawn only as fast
    as they are analysed.
    """
    pending: deque = deque()
    for f in draws:
        pending.append(pool.submit(_samples, f))
        if len(pending) == workers + 1:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_experiment(n: int, samples: int, seed: int) -> StatSummary:
    """Sample `samples` uniform mappings of [n] and accumulate StatSummary.

    Deterministic for fixed (n, samples, seed); the samples fall into
    ceil(samples / DEFAULT_BLOCK) blocks.  One ordered loop serves every
    n: `_draws` yields each block in chunks of rows (it alone reads
    CHUNK_VERTICES), w = _workers() threads run `_samples`, the cycle
    kernel, on the chunks, and each sample goes into running sums in draw
    order, so the output is that of a serial loop and memory is O(1) in
    `samples`.  Raises CeilingError before any draw for n outside
    [1, MAX_N], samples < 1 or seed < 0.  Raises mapping.InvariantError
    unless f permutes each sample's cyclic set; a worker's error is
    raised here unchanged, after the pool has shut down.

    Memory is bounded in chunks of at most max(n, CHUNK_VERTICES)
    vertices, 8 bytes each: at most w + 1 drawn chunks are alive (w
    running, one queued or being drawn).  A running worker holds g and
    g o g while it squares in the first image round, two chunks
    (tracemalloc: 2.00 at n = 100, 1e4, 1e5, 1e6 and 1e7); the later
    rounds run on f^8(V), about a quarter of the vertices, relabelled in
    int32.  z_counts (n + 1 int64) is one more: about 3w + 2 chunks, some
    1.2 GB at MAX_N with 4 workers.
    """
    if n < 1 or n > MAX_N:
        raise mapping.CeilingError("experiment too large")
    if samples < 1:
        raise mapping.CeilingError("samples must be positive")
    if seed < 0:
        raise mapping.CeilingError("seed must be non-negative")
    blocks = -(-samples // DEFAULT_BLOCK)  # as in _draws
    a_n, b_n = asymptotics.harris_params(max(n, 2))
    s_T = s2_T = s_B = s2_B = s_d = s2_d = 0.0  # sums of log T, log B, log B - log T, squares
    nonpos = 0
    hist = np.zeros(HIST_BINS + 2, dtype=np.int64)
    z_counts = np.zeros(n + 1, dtype=np.int64)

    workers = _workers()
    pool = ThreadPoolExecutor(workers)
    try:
        for results in _in_order(_draws(n, seed, samples), pool, workers):
            for z, log_T, log_B in results:
                diff = log_B - log_T
                s_T += log_T
                s2_T += log_T * log_T
                s_B += log_B
                s2_B += log_B * log_B
                s_d += diff
                s2_d += diff * diff
                norm = (log_T - a_n) / b_n
                nonpos += norm <= 0.0
                if norm < HIST_LO:
                    hist[0] += 1
                elif norm >= HIST_HI:
                    hist[-1] += 1
                else:
                    hist[1 + int((norm - HIST_LO) / (HIST_HI - HIST_LO) * HIST_BINS)] += 1
                z_counts[z] += 1
    finally:
        pool.shutdown(cancel_futures=True)

    mean_T, mean_B, mean_d = s_T / samples, s_B / samples, s_d / samples
    return StatSummary(
        n=n,
        samples=samples,
        seed=seed,
        blocks=blocks,
        mean_log_T=mean_T,
        var_log_T=max(s2_T / samples - mean_T**2, 0.0),
        mean_log_B=mean_B,
        var_log_B=max(s2_B / samples - mean_B**2, 0.0),
        mean_diff=mean_d,
        var_diff=max(s2_d / samples - mean_d**2, 0.0),
        frac_norm_nonpos=nonpos / samples,
        hist=hist,
        z_counts=z_counts,
    )


def hist_bin_edges() -> np.ndarray:
    """Edges of the fixed normalized-log-T histogram (without overflow bins)."""
    return np.linspace(HIST_LO, HIST_HI, HIST_BINS + 1)
