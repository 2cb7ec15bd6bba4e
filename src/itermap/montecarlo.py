"""Reproducible sampling of uniform random mappings at large n.

Samples are drawn in fixed-size blocks; block b uses the generator
PCG64(SeedSequence(entropy=seed, spawn_key=(b,))), so results are
bit-identical for a given (n, samples, seed, blocks) no matter how the
blocks would be scheduled.  Up to BATCH_N_MAX a block is drawn and
analysed as one matrix; above it, row by row from the same stream, so
memory stays O(n) per sample.  Per sample the cyclic set is found by
pointer doubling (mapping._doubling, O(n) memory per sample), the cycle
lengths by a walk over the cyclic vertices only, which raises
mapping.InvariantError unless f permutes the cyclic set, and log T and
log B by mapping.period_logs, the route `analyze` takes.  The first
sample of every block also runs mapping._max_tail_height, which raises
unless every vertex reaches the cyclic set.

From PARALLEL_N_MIN on, the per-sample kernel runs on a few worker
threads (numpy's gathers release the GIL) while the main thread keeps
drawing rows in stream order; results are accumulated in that same
order, so the output does not depend on the number of threads.  Below
it, the GIL held by the cycle walk costs more than the threads save,
and the same ordered loop runs inline.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from . import asymptotics, mapping
from .exact import ZDistribution

HIST_BINS = 41          # over [-4, 4], plus two overflow bins; fixed forever
HIST_LO, HIST_HI = -4.0, 4.0
BATCH_N_MAX = 1024      # analyze whole blocks as matrices up to this n
PARALLEL_N_MIN = 2**15  # run the per-row kernel on worker threads from this n
MAX_WORKERS = 4         # beyond this the serial draw bounds the rate
MAX_N = 10**7
DEFAULT_BLOCK = 256
GOF_MIN_EXPECTED = 5.0  # least expected count of a pooled chi-square bin


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


@dataclass
class _Accum:
    count: int = 0
    s_logT: float = 0.0
    s2_logT: float = 0.0
    s_logB: float = 0.0
    s2_logB: float = 0.0
    s_diff: float = 0.0
    s2_diff: float = 0.0
    nonpos: int = 0
    hist: np.ndarray = field(default_factory=lambda: np.zeros(HIST_BINS + 2, dtype=np.int64))
    z_counts: np.ndarray | None = None


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """The documented split: PCG64 seeded by SeedSequence(seed, spawn_key=(block,))."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(block_index,)))
    )


def _sample(f_row, mask_row) -> tuple[int, float, float]:
    """(Z, log T, log B) of one row from its cyclic mask."""
    cyclic = np.flatnonzero(mask_row)
    _, log_T, log_B = mapping.period_logs(mapping._cycles(f_row, cyclic))
    return len(cyclic), log_T, log_B


def _row_sample(f_row, first_in_block: bool) -> tuple[int, float, float]:
    """_sample of one row from its own mask, after the reach check on a block's first row."""
    mask = mapping._doubling(f_row)
    if first_in_block:
        mapping._max_tail_height(f_row, mask)
    return _sample(f_row, mask)


def _consume_sample(acc: _Accum, z, log_T, log_B, a_n, b_n):
    diff = log_B - log_T
    acc.count += 1
    acc.s_logT += log_T
    acc.s2_logT += log_T * log_T
    acc.s_logB += log_B
    acc.s2_logB += log_B * log_B
    acc.s_diff += diff
    acc.s2_diff += diff * diff
    norm = (log_T - a_n) / b_n
    if norm <= 0.0:
        acc.nonpos += 1
    if norm < HIST_LO:
        acc.hist[0] += 1
    elif norm >= HIST_HI:
        acc.hist[-1] += 1
    else:
        b = int((norm - HIST_LO) / (HIST_HI - HIST_LO) * HIST_BINS)
        acc.hist[1 + b] += 1
    acc.z_counts[z] += 1


def _workers() -> int:
    """Worker threads for the per-row kernel: the usable CPUs, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_WORKERS, cpus)


def _rows(n: int, seed: int, sizes: list[int]):
    """(row, first_in_block) for every sample, drawn one row at a time in stream order."""
    for b, bs in enumerate(sizes):
        rng = block_rng(seed, b)
        for i in range(bs):
            yield rng.integers(0, n, size=n, dtype=np.int64), i == 0


def _in_order(rows, pool: ThreadPoolExecutor | None, workers: int):
    """_row_sample of every row, yielded in draw order.

    Inline when pool is None.  Otherwise at most workers + 1 rows are
    submitted and not yet yielded (one running per worker and one
    queued), so rows are drawn only as fast as they are analysed.
    """
    if pool is None:
        for row in rows:
            yield _row_sample(*row)
        return
    pending: deque = deque()
    for row in rows:
        pending.append(pool.submit(_row_sample, *row))
        if len(pending) == workers + 1:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_experiment(
    n: int,
    samples: int,
    seed: int,
    blocks: int | None = None,
) -> StatSummary:
    """Sample `samples` uniform mappings of [n] and accumulate StatSummary.

    Deterministic for fixed (n, samples, seed, blocks); blocks defaults
    to ceil(samples / 256).  Raises mapping.InvariantError if a sample's
    cyclic mask fails its check, or if a vertex of a block's first
    sample does not reach it.

    From PARALLEL_N_MIN on, w = _workers() threads run the per-row
    kernel and the output is that of the serial loop.  Memory is then
    bounded in rows of 8n bytes: at most w + 1 drawn rows are alive
    (w running, one queued or being drawn), and each running worker
    holds two more while it doubles (three in a block's reach check).
    That is about 3w + 1 rows, some 1 GB at MAX_N with 4 workers.  A
    worker's InvariantError is raised here unchanged, after the pool
    has shut down.
    """
    if n < 1 or n > MAX_N:
        raise mapping.CeilingError("experiment too large")
    if samples < 1:
        raise mapping.CeilingError("samples must be positive")
    if blocks is None:
        blocks = math.ceil(samples / DEFAULT_BLOCK)
    blocks = max(1, min(blocks, samples))
    a_n, b_n = asymptotics.harris_params(max(n, 2))
    acc = _Accum()
    acc.z_counts = np.zeros(n + 1, dtype=np.int64)

    base = samples // blocks
    extra = samples % blocks
    sizes = [base + (1 if b < extra else 0) for b in range(blocks)]
    if n <= BATCH_N_MAX:
        for b, bs in enumerate(sizes):
            fmat = block_rng(seed, b).integers(0, n, size=(bs, n), dtype=np.int64)
            mask = mapping._doubling(fmat)
            mapping._max_tail_height(fmat[0], mask[0])
            for row, mask_row in zip(fmat, mask):
                _consume_sample(acc, *_sample(row, mask_row), a_n, b_n)
    else:
        workers = _workers()
        pool = ThreadPoolExecutor(workers) if n >= PARALLEL_N_MIN else None
        try:
            for result in _in_order(_rows(n, seed, sizes), pool, workers):
                _consume_sample(acc, *result, a_n, b_n)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    cnt = acc.count
    mean_T = acc.s_logT / cnt
    mean_B = acc.s_logB / cnt
    mean_d = acc.s_diff / cnt
    return StatSummary(
        n=n,
        samples=cnt,
        seed=seed,
        blocks=blocks,
        mean_log_T=mean_T,
        var_log_T=max(acc.s2_logT / cnt - mean_T**2, 0.0),
        mean_log_B=mean_B,
        var_log_B=max(acc.s2_logB / cnt - mean_B**2, 0.0),
        mean_diff=mean_d,
        var_diff=max(acc.s2_diff / cnt - mean_d**2, 0.0),
        frac_norm_nonpos=acc.nonpos / cnt,
        hist=acc.hist,
        z_counts=acc.z_counts,
    )


def z_gof(z_counts: np.ndarray, pmf: ZDistribution | np.ndarray) -> tuple[float, float]:
    """Pearson chi-square of observed Z counts against the exact pmf.

    Consecutive m are pooled (ascending, remainder merged into the last
    bin) until every retained bin expects at least GOF_MIN_EXPECTED counts.
    Returns (chi2, p-value from the regularized upper incomplete gamma).
    """
    counts = np.asarray(z_counts[1:], dtype=np.float64)  # m = 1..n
    n = counts.size
    samples = counts.sum()
    if isinstance(pmf, ZDistribution):
        probs = np.array([float(p) for p in pmf.pmf])
    else:
        probs = np.asarray(pmf, dtype=np.float64)
    expected = probs * samples

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    co = ce = 0.0
    for m in range(n):
        co += counts[m]
        ce += expected[m]
        if ce >= GOF_MIN_EXPECTED:
            obs_bins.append(co)
            exp_bins.append(ce)
            co = ce = 0.0
    if ce > 0 or co > 0:
        if exp_bins:
            obs_bins[-1] += co
            exp_bins[-1] += ce
        else:
            obs_bins.append(co)
            exp_bins.append(ce)
    if len(exp_bins) < 2:
        raise mapping.CeilingError("insufficient data")
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    df = len(exp) - 1
    pvalue = float(gammaincc(df / 2.0, chi2 / 2.0))
    return chi2, pvalue


def hist_bin_edges() -> np.ndarray:
    """Edges of the fixed normalized-log-T histogram (without overflow bins)."""
    return np.linspace(HIST_LO, HIST_HI, HIST_BINS + 1)
