import dataclasses
import functools
import math
import threading
import time

import numpy as np
import pytest

import mapping_faults
import mapping_reference
from itermap import asymptotics, exact, mapping, montecarlo
from itermap.mapping import _cycles, _doubling


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


class TestInvariants:
    def test_no_violations_small(self):
        s = montecarlo.run_experiment(50, 2000, seed=1)
        assert s.samples == 2000
        assert int(s.hist.sum()) == 2000
        assert int(s.z_counts.sum()) == 2000

    def test_no_violations_large_n_path(self):
        # n above the batch threshold exercises the per-row 1-D kernel path
        s = montecarlo.run_experiment(2000, 50, seed=3)
        assert s.mean_log_B >= s.mean_log_T

    def test_means_match_reference(self):
        # the same rows through the pure-Python reference, T by gcd and B as a product
        n, samples = 300, 200
        s = montecarlo.run_experiment(n, samples, seed=5, blocks=1)
        rows = montecarlo.block_rng(5, 0).integers(0, n, size=(samples, n), dtype=np.int64)
        sum_log_T = sum_log_B = 0.0
        for row in rows:
            lengths = mapping_reference.analyze(mapping.Mapping(n, row + 1)).cycle_lengths
            sum_log_T += math.log(functools.reduce(lambda a, b: a * b // math.gcd(a, b), lengths))
            sum_log_B += math.log(math.prod(lengths))
        assert math.isclose(s.mean_log_T, sum_log_T / samples, rel_tol=1e-12)
        assert math.isclose(s.mean_log_B, sum_log_B / samples, rel_tol=1e-12)

    # batched at n = 100 and per row at n = 2000; among these rows vertex 1
    # (0-based) is a tail vertex and vertex 0 lies on a cycle of length >= 2
    @pytest.mark.parametrize("n", [100, 2000])
    @pytest.mark.parametrize("fault", ["tail_vertex_added", "cyclic_vertex_missing"])
    def test_mask_faults_raise(self, monkeypatch, fault, n):
        _, message = mapping_faults.install(fault, monkeypatch.setattr)
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            montecarlo.run_experiment(n, 200, seed=0)

    # batched, per row inline and per row on threads; each first row has a fixed point,
    # and the reach check of that row is the only check the fault trips
    @pytest.mark.parametrize("n, seed", [(100, 0), (2000, 1), (montecarlo.PARALLEL_N_MIN, 0)])
    def test_lost_cycle_raises(self, monkeypatch, n, seed):
        first = montecarlo.block_rng(seed, 0).integers(0, n, size=n, dtype=np.int64)
        assert (first == np.arange(n)).any()
        _, message = mapping_faults.install("fixed_points_cleared", monkeypatch.setattr)
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            montecarlo.run_experiment(n, 8, seed=seed)

    def test_resource_errors(self):
        with pytest.raises(mapping.CeilingError, match="experiment too large"):
            montecarlo.run_experiment(montecarlo.MAX_N + 1, 1, seed=0)
        with pytest.raises(mapping.CeilingError):
            montecarlo.run_experiment(10, 0, seed=0)


class TestKernelPaths:
    # one block at the batched path's largest n, one row above it
    @pytest.mark.parametrize("n, rows", [(montecarlo.BATCH_N_MAX, 16), (2000, 1)])
    def test_1d_and_2d_agree_row_by_row(self, n, rows):
        fmat = montecarlo.block_rng(4, 0).integers(0, n, size=(rows, n), dtype=np.int64)
        mask2 = _doubling(fmat)
        for row, mask_row in zip(fmat, mask2):
            mask1 = _doubling(row)
            assert np.array_equal(mask1, mask_row)
            lengths = _cycles(row, np.flatnonzero(mask1))
            assert lengths == _cycles(row, np.flatnonzero(mask_row))
            ref = mapping_reference.analyze(mapping.Mapping(n, row + 1))
            assert tuple(sorted(lengths)) == ref.cycle_lengths
            assert set((np.flatnonzero(mask1) + 1).tolist()) == ref.cyclic_vertices


    def test_cycles_in_order_of_smallest_vertex(self):
        # the sampler's float sums run over the lengths in this order
        f = np.array([4, 3, 1, 2, 0, 5], dtype=np.int64)  # cycles (0 4), (1 3 2), (5)
        assert _cycles(f, np.flatnonzero(_doubling(f))) == [2, 3, 1]


def _serial_summary(n, seed, sizes):
    """StatSummary of the rows of run_experiment, accumulated in draw order by a plain loop."""
    a_n, b_n = asymptotics.harris_params(n)
    sums = [0.0] * 6  # log T, its square, log B, its square, diff, its square
    nonpos = 0
    hist = np.zeros(montecarlo.HIST_BINS + 2, dtype=np.int64)
    z_counts = np.zeros(n + 1, dtype=np.int64)
    for b, bs in enumerate(sizes):
        rng = montecarlo.block_rng(seed, b)
        for _ in range(bs):
            row = rng.integers(0, n, size=n, dtype=np.int64)
            cyclic = np.flatnonzero(_doubling(row))
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


class TestThreadedPath:
    def test_equals_serial_loop(self, monkeypatch):
        # the first row of every block also runs the reach check; slowed down, it
        # finishes after the rows drawn behind it, so with three workers (on any
        # host) completion order is not draw order
        real = mapping._max_tail_height

        def slow(f, mask):
            time.sleep(0.05)
            return real(f, mask)

        monkeypatch.setattr(mapping, "_max_tail_height", slow)
        monkeypatch.setattr(montecarlo, "_workers", lambda: 3)
        n, seed = montecarlo.PARALLEL_N_MIN, 6
        s = montecarlo.run_experiment(n, 13, seed, blocks=3)
        ref = _serial_summary(n, seed, (5, 4, 4))
        for f in dataclasses.fields(montecarlo.StatSummary):
            a, b = getattr(s, f.name), getattr(ref, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    def test_worker_error_propagates_and_pool_shuts_down(self, monkeypatch):
        _, message = mapping_faults.install("tail_vertex_added", monkeypatch.setattr)
        before = threading.active_count()
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            montecarlo.run_experiment(montecarlo.PARALLEL_N_MIN, 20, seed=0)
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
        pmf = [float(p) for p in exact.z_pmf(n).pmf]
        mean = sum(m * p for m, p in enumerate(pmf, start=1))
        var = sum(m * m * p for m, p in enumerate(pmf, start=1)) - mean * mean
        obs = float(np.dot(np.arange(n + 1), s.z_counts)) / samples
        assert abs(obs - mean) <= 3 * math.sqrt(var / samples)


class TestGof:
    def test_true_pmf_rarely_rejected(self):
        # 20 independent experiments against the true Z pmf at n = 30
        pmf = exact.z_pmf(30)
        ok = 0
        for seed in range(20):
            s = montecarlo.run_experiment(30, 2000, seed=1000 + seed)
            _, p = montecarlo.z_gof(s.z_counts, pmf)
            ok += p > 0.001
        assert ok >= 18

    def test_wrong_pmf_rejected(self):
        s = montecarlo.run_experiment(30, 5000, seed=2)
        wrong = np.full(30, 1.0 / 30)
        _, p = montecarlo.z_gof(s.z_counts, wrong)
        assert p < 1e-6

    def test_insufficient_data(self):
        with pytest.raises(mapping.CeilingError, match="insufficient data"):
            montecarlo.z_gof(np.array([0, 3, 1]), np.array([0.5, 0.5]))

    def test_hist_edges(self):
        e = montecarlo.hist_bin_edges()
        assert e[0] == -4.0 and e[-1] == 4.0
        assert len(e) == montecarlo.HIST_BINS + 1
