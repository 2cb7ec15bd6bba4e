import dataclasses
import functools
import itertools
import math
import threading
import time

import numpy as np
import pytest

import exact_reference
import mapping_faults
import mapping_reference
import montecarlo_reference
from itermap import asymptotics, mapping, montecarlo
from itermap.mapping import _cycle_rows, _cycles, _cyclic_set, _last_sets


class TestDeterminism:
    def test_repeat_is_identical(self):
        a = montecarlo.run_experiment(200, 300, seed=7)
        b = montecarlo.run_experiment(200, 300, seed=7)
        assert a.mean_log_T == b.mean_log_T
        assert a.var_log_B == b.var_log_B
        assert np.array_equal(a.hist, b.hist)
        assert np.array_equal(a.z_counts, b.z_counts)

    def test_seed_changes_output(self):
        a = montecarlo.run_experiment(200, 300, seed=7)
        b = montecarlo.run_experiment(200, 300, seed=8)
        assert not np.array_equal(a.z_counts, b.z_counts)

    def test_block_rng_is_documented_split(self):
        rng = montecarlo.block_rng(42, 3)
        ref = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=42, spawn_key=(3,)))
        )
        assert np.array_equal(rng.integers(0, 100, 50), ref.integers(0, 100, 50))

    # odd and even n, below and above CHUNK_VERTICES
    @pytest.mark.parametrize(
        "n", [1025, 1026, montecarlo.CHUNK_VERTICES + 1, montecarlo.CHUNK_VERTICES + 2]
    )
    def test_chunks_are_row_draws(self, monkeypatch, n):
        # a k x n matrix from block_rng holds the values of k successive row draws,
        # so chunks of any size, a short last one included, are the row stream
        k = max(1, montecarlo.CHUNK_VERTICES // n)
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 2 * k + 1)
        rows = []
        for b, bs in enumerate([2 * k + 1, 2 * k]):  # 4k + 1 samples: the first block is larger
            rng = montecarlo.block_rng(9, b)
            rows += [rng.integers(0, n, size=n, dtype=np.int64) for _ in range(bs)]
        matrix = montecarlo.block_rng(9, 0).integers(0, n, size=(3, n), dtype=np.int64)
        assert np.array_equal(matrix, rows[:3])
        chunks = list(montecarlo._draws(n, 9, 4 * k + 1))
        assert [len(c) for c in chunks] == [k, k, 1, k, k]
        assert np.array_equal(np.concatenate(chunks), rows)

    @pytest.mark.parametrize("samples", [10**12, 10**400], ids=["1e12", "1e400"])
    def test_first_chunk_of_a_huge_run(self, samples):
        # block sizes are worked out block by block in integers, so the first chunk
        # comes at once: no list of ceil(samples / DEFAULT_BLOCK) sizes (31 GB at
        # 1e12) and no float of samples (it overflows at 1e400) is built before it
        n = 1000
        first = next(montecarlo._draws(n, 3, samples))
        rows = montecarlo.CHUNK_VERTICES // n
        assert np.array_equal(first, montecarlo.block_rng(3, 0).integers(0, n, size=(rows, n), dtype=np.int64))


class TestInvariants:
    def test_no_violations_small(self):
        s = montecarlo.run_experiment(50, 2000, seed=1)
        assert s.samples == 2000
        assert int(s.hist.sum()) == 2000
        assert int(s.z_counts.sum()) == 2000

    def test_no_violations_large_n_path(self):
        # one block of 50 rows of 2000, drawn as a chunk of 32 rows and one of 18
        s = montecarlo.run_experiment(2000, 50, seed=3)
        assert s.mean_log_B >= s.mean_log_T

    def test_means_match_reference(self):
        # the same rows through the pure-Python reference, T by gcd and B as a product
        n, samples = 300, 200
        s = montecarlo.run_experiment(n, samples, seed=5)  # one block
        rows = montecarlo.block_rng(5, 0).integers(0, n, size=(samples, n), dtype=np.int64)
        sum_log_T = sum_log_B = 0.0
        for row in rows:
            lengths = mapping_reference.analyze(mapping.Mapping(n, row + 1)).cycle_lengths
            sum_log_T += math.log(functools.reduce(lambda a, b: a * b // math.gcd(a, b), lengths))
            sum_log_B += math.log(math.prod(lengths))
        assert math.isclose(s.mean_log_T, sum_log_T / samples, rel_tol=1e-12)
        assert math.isclose(s.mean_log_B, sum_log_B / samples, rel_tol=1e-12)

    # each fault on the sampler's kernel `_cyclic_set`: one 8-row chunk at n = 100 and
    # at n = 2000, four 2-row chunks at n = 2**15; in the first row at each n, vertex 1
    # (0-based) is a tail vertex, the largest cyclic vertex lies on a cycle of length
    # >= 2 and some tail is at least 2 high, so each fault trips the walk there
    @pytest.mark.parametrize("n", [100, 2000, 2**15])
    @pytest.mark.parametrize("fault", list(mapping_faults.FAULTS))
    def test_loop_faults_raise(self, monkeypatch, fault, n):
        first = montecarlo.block_rng(0, 0).integers(0, n, size=n, dtype=np.int64)
        _, message = mapping_faults.install(fault, monkeypatch.setattr, mapping_faults.SAMPLER)
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            _cycle_rows(first)
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            montecarlo.run_experiment(n, 8, seed=0)

    def test_resource_errors(self):
        with pytest.raises(mapping.CeilingError, match="experiment too large"):
            montecarlo.run_experiment(montecarlo.MAX_N + 1, 1, seed=0)
        with pytest.raises(mapping.CeilingError):
            montecarlo.run_experiment(10, 0, seed=0)

    def test_bad_seed(self, monkeypatch):
        # rejected before the first draw, as samples < 1 is
        monkeypatch.setattr(montecarlo, "block_rng", None)  # any draw would raise TypeError
        with pytest.raises(mapping.CeilingError, match="^seed must be non-negative$"):
            montecarlo.run_experiment(10, 5, -1)


class TestKernelPaths:
    # a 16-row chunk, and a one-row chunk, which `_cyclic_set` runs without row offsets
    @pytest.mark.parametrize("n, rows", [(1024, 16), (2000, 1)])
    def test_1d_and_2d_agree_row_by_row(self, n, rows):
        fmat = montecarlo.block_rng(4, 0).integers(0, n, size=(rows, n), dtype=np.int64)
        block = _cycle_rows(fmat)
        assert len(block) == rows
        for row, lengths in zip(fmat, block):
            assert _cycle_rows(row) == [lengths]
            ref = mapping_reference.analyze(mapping.Mapping(n, row + 1))
            assert tuple(sorted(lengths)) == ref.cycle_lengths
            assert set((_cyclic_set(row) + 1).tolist()) == ref.cyclic_vertices

    def test_one_kernel_run_per_chunk(self, monkeypatch):
        # one `_cyclic_set` run per chunk, here each block of 3 rows: the walk reads
        # its cyclic set, cut at the row starts; `analyze`'s `_last_sets` never runs
        real = mapping._cyclic_set
        shapes = []

        def counted(g):
            shapes.append(g.shape)
            return real(g)

        monkeypatch.setattr(mapping, "_cyclic_set", counted)
        monkeypatch.setattr(mapping, "_last_sets", None)
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 3)
        montecarlo.run_experiment(2000, 6, seed=0)
        montecarlo.run_experiment(100, 6, seed=0)
        assert shapes == [(3, 2000)] * 2 + [(3, 100)] * 2

    def test_cycles_in_order_of_smallest_vertex(self):
        # the sampler's float sums run over the lengths in this order
        f = np.array([4, 3, 1, 2, 0, 5], dtype=np.int64)  # cycles (0 4), (1 3 2), (5)
        assert _cycle_rows(f) == [[2, 3, 1]]


def _serial_summary(n, seed, sizes):
    """StatSummary of the rows of run_experiment, accumulated in draw order by a plain loop.

    Each row's cyclic set comes from `analyze`'s kernel `_last_sets`, not the sampler's.
    """
    a_n, b_n = asymptotics.harris_params(n)
    sums = [0.0] * 6  # log T, its square, log B, its square, diff, its square
    nonpos = 0
    hist = np.zeros(montecarlo.HIST_BINS + 2, dtype=np.int64)
    z_counts = np.zeros(n + 1, dtype=np.int64)
    for b, bs in enumerate(sizes):
        rng = montecarlo.block_rng(seed, b)
        for _ in range(bs):
            row = rng.integers(0, n, size=n, dtype=np.int64)
            cyclic = _last_sets(row)[2]
            _, log_T, log_B = mapping.period_logs(_cycles(row, cyclic))
            for i, x in enumerate((log_T, log_B, log_B - log_T)):
                sums[2 * i] += x
                sums[2 * i + 1] += x * x
            norm = (log_T - a_n) / b_n
            nonpos += norm <= 0.0
            if norm < montecarlo.HIST_LO:
                hist[0] += 1
            elif norm >= montecarlo.HIST_HI:
                hist[-1] += 1
            else:
                # Writing the sampler's bin scale as (norm - HIST_LO) * HIST_BINS / width
                # is an equivalent mutant: width = 8 is a power of two, so dividing by it
                # is exact before or after the product, and both forms round the same
                # product once (2e6 uniform draws on [-4, 4): no bin differs).  The
                # mutant log_T**2 for log_T * log_T is not equivalent: glibc's pow rounds
                # about 7 in 10000 squares one ulp off the product (log(733)**2 among them),
                # which test_squares_are_products catches.
                width = montecarlo.HIST_HI - montecarlo.HIST_LO
                hist[1 + int((norm - montecarlo.HIST_LO) / width * montecarlo.HIST_BINS)] += 1
            z_counts[len(cyclic)] += 1
    cnt = sum(sizes)
    means = [sums[2 * i] / cnt for i in range(3)]
    var = [max(sums[2 * i + 1] / cnt - means[i] ** 2, 0.0) for i in range(3)]
    return montecarlo.StatSummary(
        n=n, samples=cnt, seed=seed, blocks=len(sizes),
        mean_log_T=means[0], var_log_T=var[0], mean_log_B=means[1], var_log_B=var[1],
        mean_diff=means[2], var_diff=var[2], frac_norm_nonpos=nonpos / cnt,
        hist=hist, z_counts=z_counts,
    )


def _assert_equal_summaries(s, ref):
    """Every StatSummary field equal bit for bit."""
    for f in dataclasses.fields(montecarlo.StatSummary):
        a, b = getattr(s, f.name), getattr(ref, f.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


class TestSerialLoop:
    # blocks of 14 and 13 rows, each one chunk; blocks of several chunks are below
    @pytest.mark.parametrize("n", [100, 2000])
    def test_equals_serial_loop(self, monkeypatch, n):
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 14)
        s = montecarlo.run_experiment(n, 40, 4)
        _assert_equal_summaries(s, _serial_summary(n, 4, (14, 13, 13)))

    def test_short_last_chunk(self, monkeypatch):
        # a 7-row block in chunks of 3, 3 and 1 rows, from one stream
        monkeypatch.setattr(montecarlo, "CHUNK_VERTICES", 300)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
        s = montecarlo.run_experiment(100, 7, 4)
        _assert_equal_summaries(s, _serial_summary(100, 4, (7,)))

    # n = 50: one-row chunks (CHUNK_VERTICES below n) in blocks of 3 and 2 rows; one
    # block in six chunks of six rows; blocks of 34, 33 and 33 rows, each ending in a
    # short chunk of 4 or 3 rows
    @pytest.mark.parametrize(
        "chunk, samples, block, rows",
        [(40, 5, 3, [1] * 5), (300, 36, 36, [6] * 6), (300, 100, 34, [6] * 15 + [4, 3, 3])],
        ids=["one-row", "several-rows", "short-last"],
    )
    def test_z_counts_count_every_sample(self, monkeypatch, chunk, samples, block, rows):
        real = mapping._cycle_rows
        seen = []
        monkeypatch.setattr(mapping, "_cycle_rows", lambda f: seen.append(len(f)) or real(f))
        monkeypatch.setattr(montecarlo, "CHUNK_VERTICES", chunk)
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", block)
        s = montecarlo.run_experiment(50, samples, 5)
        assert s.blocks == math.ceil(samples / block)
        assert sorted(seen) == sorted(rows)
        assert len(s.z_counts) == 51 and s.z_counts[0] == 0
        assert int(s.z_counts.sum()) == samples

    def test_squares_are_products(self, monkeypatch):
        # log T alternates between log 733 and log 2, in draw order in both loops,
        # so the sums of squares, and var_log_T, differ if one side squares by pow
        real = mapping.period_logs

        def alternating():
            logs = itertools.cycle((math.log(733), math.log(2)))
            return lambda lengths: (0, next(logs), real(lengths)[2])

        monkeypatch.setattr(mapping, "period_logs", alternating())
        s = montecarlo.run_experiment(100, 9, 4)
        monkeypatch.setattr(mapping, "period_logs", alternating())
        _assert_equal_summaries(s, _serial_summary(100, 4, (9,)))


class TestThreadedPath:
    def test_equals_serial_loop(self, monkeypatch):
        # two rows per chunk; the kernel is slowed down on the first chunk of every
        # block, so that chunk finishes after the chunks drawn behind it, and with
        # three workers (on any host) completion order is not draw order
        n, seed = montecarlo.CHUNK_VERTICES // 2, 6
        firsts = [
            montecarlo.block_rng(seed, b).integers(0, n, size=(2, n), dtype=np.int64)
            for b in range(3)
        ]
        real = mapping._cyclic_set
        slowed = []

        def slow(f):
            if any(np.array_equal(f, first) for first in firsts):
                slowed.append(f.shape)
                time.sleep(0.05)
            return real(f)

        monkeypatch.setattr(mapping, "_cyclic_set", slow)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 5)
        s = montecarlo.run_experiment(n, 13, seed)
        assert slowed == [(2, n)] * 3
        _assert_equal_summaries(s, _serial_summary(n, seed, (5, 4, 4)))

    def test_worker_error_propagates_and_pool_shuts_down(self, monkeypatch):
        _, message = mapping_faults.install("tail_vertex_added", monkeypatch.setattr, mapping_faults.SAMPLER)
        before = threading.active_count()
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            montecarlo.run_experiment(2**15, 20, seed=0)
        assert threading.active_count() == before


class TestAgainstExact:
    def test_n2_z_frequency(self):
        # P(Z=1) = P(Z=2) = 1/2 at n = 2
        s = montecarlo.run_experiment(2, 20000, seed=11)
        frac = s.z_counts[1] / 20000
        assert abs(frac - 0.5) < 0.02

    def test_mean_z_within_three_se(self):
        n, samples = 100, 5000
        s = montecarlo.run_experiment(n, samples, seed=13)
        pmf = [float(p) for p in exact_reference.z_pmf(n)]
        mean = sum(m * p for m, p in enumerate(pmf, start=1))
        var = sum(m * m * p for m, p in enumerate(pmf, start=1)) - mean * mean
        obs = float(np.dot(np.arange(n + 1), s.z_counts)) / samples
        assert abs(obs - mean) <= 3 * math.sqrt(var / samples)


class TestGof:
    def test_true_pmf_rarely_rejected(self):
        # 20 independent experiments against the true Z pmf at n = 30
        pmf = exact_reference.z_pmf(30)
        ok = 0
        for seed in range(20):
            s = montecarlo.run_experiment(30, 2000, seed=1000 + seed)
            _, p = montecarlo_reference.z_gof(s.z_counts, pmf)
            ok += p > 0.001
        assert ok >= 18

    def test_wrong_pmf_rejected(self):
        s = montecarlo.run_experiment(30, 5000, seed=2)
        wrong = np.full(30, 1.0 / 30)
        _, p = montecarlo_reference.z_gof(s.z_counts, wrong)
        assert p < 1e-6

    def test_insufficient_data(self):
        with pytest.raises(mapping.CeilingError, match="insufficient data"):
            montecarlo_reference.z_gof(np.array([0, 3, 1]), np.array([0.5, 0.5]))

    def test_hist_edges(self):
        e = montecarlo.hist_bin_edges()
        assert e[0] == -4.0 and e[-1] == 4.0
        assert len(e) == montecarlo.HIST_BINS + 1
