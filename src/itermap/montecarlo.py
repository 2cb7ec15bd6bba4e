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
log B by mapping.period_logs, the route `analyze` takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc

from . import asymptotics, mapping
from .exact import ZDistribution

HIST_BINS = 41          # over [-4, 4], plus two overflow bins; fixed forever
HIST_LO, HIST_HI = -4.0, 4.0
BATCH_N_MAX = 1024      # analyze whole blocks as matrices up to this n
MAX_N = 10**7
DEFAULT_BLOCK = 256


class ResourceError(ValueError):
    pass


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


def _consume_sample(acc: _Accum, f_row, mask_row, a_n, b_n):
    cyclic = np.flatnonzero(mask_row)
    _, log_T, log_B = mapping.period_logs(mapping._cycles(f_row, cyclic))
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
    acc.z_counts[len(cyclic)] += 1


def run_experiment(
    n: int,
    samples: int,
    seed: int,
    blocks: int | None = None,
) -> StatSummary:
    """Sample `samples` uniform mappings of [n] and accumulate StatSummary.

    Deterministic for fixed (n, samples, seed, blocks); blocks defaults
    to ceil(samples / 256).  Raises mapping.InvariantError if a sample's
    cyclic mask fails its check.
    """
    if n < 1 or n > MAX_N:
        raise ResourceError("experiment too large")
    if samples < 1:
        raise ResourceError("samples must be positive")
    if blocks is None:
        blocks = math.ceil(samples / DEFAULT_BLOCK)
    blocks = max(1, min(blocks, samples))
    a_n, b_n = asymptotics.harris_params(max(n, 2))
    acc = _Accum()
    acc.z_counts = np.zeros(n + 1, dtype=np.int64)

    base = samples // blocks
    extra = samples % blocks
    for b in range(blocks):
        bs = base + (1 if b < extra else 0)
        if bs == 0:
            continue
        rng = block_rng(seed, b)
        if n <= BATCH_N_MAX:
            fmat = rng.integers(0, n, size=(bs, n), dtype=np.int64)
            mask = mapping._doubling(fmat)
            for row, mask_row in zip(fmat, mask):
                _consume_sample(acc, row, mask_row, a_n, b_n)
        else:
            for _ in range(bs):
                row = rng.integers(0, n, size=n, dtype=np.int64)
                _consume_sample(acc, row, mapping._doubling(row), a_n, b_n)

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


def z_gof(
    z_counts: np.ndarray, pmf: ZDistribution | np.ndarray, min_expected: float = 5.0
) -> tuple[float, float]:
    """Pearson chi-square of observed Z counts against the exact pmf.

    Consecutive m are pooled (ascending, remainder merged into the last
    bin) until every retained bin expects at least min_expected counts.
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
        if ce >= min_expected:
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
        raise ResourceError("insufficient data")
    obs = np.array(obs_bins)
    exp = np.array(exp_bins)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    df = len(exp) - 1
    pvalue = float(gammaincc(df / 2.0, chi2 / 2.0))
    return chi2, pvalue


def hist_bin_edges() -> np.ndarray:
    """Edges of the fixed normalized-log-T histogram (without overflow bins)."""
    return np.linspace(HIST_LO, HIST_HI, HIST_BINS + 1)
