import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ndtr

import itermap
import mapping_faults
from itermap import asymptotics, cli, exact, montecarlo, renyi, series
from itermap.mapping import CeilingError, InvariantError, MappingError

ANALYZE_2E5_SHA256 = "15a3ad673a98ea9da4406212f6742645b0fe901f740cddf466d804f416f63d88"
# sha256 of series stdout, recorded when h_d below d = 16 became a ratio of
# integers and above it the Stirling series, and the saddle point the closed
# form of g: every c_d within 7e-16 and every s_star, rankin_log_bound
# and A_n within 6e-16 of 40- to 50-digit mpmath
SERIES_SHA256 = {
    # each log_E_B within 3e-16 of the exact value, unchanged since it was the sum over P_n(Z=m) b_m
    ("--degree", "2000", "--eval-n", "1", "2", "7", "100", "999", "2000"):
        "375cea31d8474fea10f41e50e57fabad4034450d53ac1b0b3718eaf342cd0fff",
    # rows 201-205 have empty exact columns
    ("--degree", "205", "--renyi-table"):
        "1ce5daa2a626536b421ecfb730f95623b3ef17b48f08cced9e3568c8a635578b",
}
# sha256 of the series and exact stdout, and of exact's stderr, at the sizes
# the benchmark runs; the series pin was renewed with the closed form of g,
# the exact pins recorded before the exact means became one integer sum each
SERIES_20000_SHA256 = "fef7037d5d938e5a8f606cf6f0c92bf3e873d016d31f94c286ee744ed6d6ed23"
EXACT_40_SHA256 = "dce2e5c1504d0b78913d1f685433b3f414e8b1ab0c95ff6cf5d3f3fcc3e2b5ed"
EXACT_40_STDERR_SHA256 = "314b75b1c1639fa822f8f61cc4dda2777ff407affc55c7e2517d4f6d3f24a067"
# sha256 of asymptotics stdout, renewed when I came from one fixed Gauss rule
# within an ulp of its 40-digit value (16 of 20 cells moved, at most 6.0e-12
# relative); each log P_n(Z=m0) within 3e-15 relative of a 40-digit mpmath value
ASYMPTOTICS_SHA256 = "76e180e8ff3cde9a433100f979f53e28201b5cda43055fafdd49978100922125"
# sha256 of simulate stdout and of its --histogram file (seed 0), recorded while the
# sampler still took the cyclic set from the image-shrinking loop: chunks of 65 rows,
# one-row chunks, and one row of 3e5 vertices
SIMULATE_SHA256 = {
    ("1000", "2000"): (
        "cdea47a1ee2e5a8a60cd028d1a6420139e0bcac6a0b651a032026758f66f4571",
        "60ff000233032acc28ebd370f6b310017429e7a3397bf660344a37a12204c556",
    ),
    ("100000", "16"): (
        "ffb2b9e0d961412b7d75ded6b763d61d379fe97bde7a80ee7bd011698f98b421",
        "628d42c835e9ec82b23528ef519925452f897726ce707083740d8100182748e6",
    ),
    ("300000", "4"): (
        "ab7439810e6a511c9b96a4bb6919452841a2afed8b4a6e267a804a046639ec32",
        "595309447e7246f3ad79e81ac8102841f9a40c92269df0971ef697ed165f189c",
    ),
}
# every option string of each subcommand; an option no caller sets belongs in a constant
OPTIONS = {
    "analyze": ["--help", "--out", "-h", "input"],
    "exact": ["--help", "--n", "--orders", "--out", "-h"],
    "series": ["--degree", "--eval-n", "--help", "--out", "--precision", "--renyi-table", "-h"],
    "asymptotics": ["--help", "--n", "--out", "-h"],
    "constants": ["--help", "--out", "-h"],
    "simulate": ["--help", "--histogram", "--n", "--out", "--samples", "--seed", "-h"],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_basic(self, capsys, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("5 2 1 4 5 3\n")
        code, out, _ = run(capsys, "analyze", str(p))
        assert code == 0
        payload = json.loads(out)
        assert payload["T"] == "6" and payload["B"] == "6" and payload["O"] == "6"

    def test_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 0 1\n")
        code, _, err = run(capsys, "analyze", str(p))
        assert code == cli.EXIT_PARSE
        assert "invalid target" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope"))
        assert code == cli.EXIT_IO
        assert "error" in err

    # a non-ASCII byte, a target too large for int64, and signs apart from their digits
    @pytest.mark.parametrize(
        "data",
        [
            b"2 2 \xc3\xa9", b"2 2 99999999999999999999\n",
            b"2 1 + 2", b"+ 2 1 2", b"2 1 2 -", b"2 1-2", b"2 1 \x002", b"2 1 \xff", b"2 1 1_0",
        ],
    )
    def test_bad_token(self, capsys, tmp_path, data):
        p = tmp_path / "f.txt"
        p.write_bytes(data)
        code, out, err = run(capsys, "analyze", str(p))
        assert code == cli.EXIT_PARSE
        assert out == "" and err.startswith("error: invalid token")

    def test_invariant_violation(self, capsys, tmp_path, monkeypatch):
        for fault in mapping_faults.FAULTS:
            with monkeypatch.context() as m:
                text, message = mapping_faults.install(fault, m.setattr)
                p = tmp_path / f"{fault}.txt"
                p.write_text(text + "\n")
                code, out, err = run(capsys, "analyze", str(p))
            assert (fault, code, out, err) == (fault, cli.EXIT_INVARIANT, "", f"error: {message}\n")

    def test_invariant_violation_optimized(self, tmp_path):
        # python -O strips asserts; the typed checks must still fire
        script = (
            "import sys, mapping_faults; from itermap import cli; "
            "text, _ = mapping_faults.install(sys.argv[1]); "
            "open(sys.argv[2], 'w').write(text); "
            "sys.exit(cli.main(['analyze', sys.argv[2]]))"
        )
        src = os.path.dirname(os.path.dirname(itermap.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        for fault, (*_, message) in mapping_faults.FAULTS.items():
            r = subprocess.run(
                [sys.executable, "-O", "-c", script, fault, str(tmp_path / f"{fault}.txt")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (fault, r.returncode, r.stdout, r.stderr) == (
                fault, cli.EXIT_INVARIANT, "", f"error: {message}\n"
            )

    def test_output_pinned(self, capsys, tmp_path):
        # sha256 of the analyze JSON for one seeded n = 2e5 mapping, recorded
        # before the parse and analyze paths moved to numpy arrays
        n = 200_000
        targets = np.random.default_rng(1).integers(1, n + 1, size=n)
        p = tmp_path / "f.txt"
        p.write_text(f"{n}\n" + "\n".join(map(str, targets.tolist())) + "\n")
        code, out, _ = run(capsys, "analyze", str(p))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_2E5_SHA256


class TestExact:
    def test_table_with_crosschecks(self, capsys):
        code, out, err = run(capsys, "exact", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,E_T_num,E_T_den,E_B_num,E_B_den"
        assert lines[2] == "2,5,4,5,4"
        assert lines[4] == "4,431,256,437,256"
        assert err.count("PASS") == 4 and "FAIL" not in err

    def test_crosscheck_can_fail(self, capsys, monkeypatch):
        # one edited sum of T at n = 2 and one of B at n = 3
        sums = list(exact.BRUTE_FORCE_SUMS)
        sums[1], sums[2] = (4, 5), (40, 41)
        monkeypatch.setattr(exact, "BRUTE_FORCE_SUMS", tuple(sums))
        code, out, err = run(capsys, "exact", "--n", "3")
        assert code == cli.EXIT_INVARIANT
        assert out.startswith("n,E_T_num")
        assert err.splitlines() == [
            "n=1 brute-force cross-check: PASS",
            "n=2 brute-force cross-check: FAIL",
            "n=3 brute-force cross-check: FAIL",
            "error: brute-force cross-check failed for n = [2, 3]",
        ]

    def test_output_pinned(self, capsys):
        code, out, err = run(capsys, "exact", "--n", "40")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXACT_40_SHA256
        assert hashlib.sha256(err.encode()).hexdigest() == EXACT_40_STDERR_SHA256

    def test_orders_table(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "4", "--orders")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,M_num,M_den,b_num,b_den"
        assert lines[4] == "4,67,24,73,24"

    def test_ceiling(self, capsys, monkeypatch):
        # the ceiling is exact's own, and it is checked before any row is built
        real = exact.perm_order_mean
        for argv in (("--n", "100", "--orders"), ("--n", "61")):
            calls = []
            monkeypatch.setattr(exact, "perm_order_mean", lambda m: calls.append(m) or real(m))
            code, out, err = run(capsys, "exact", *argv)
            assert (code, out, err) == (cli.EXIT_CEILING, "", "error: order-count table too large\n")
            assert calls == [int(argv[1])]

    @pytest.mark.parametrize("orders", [(), ("--orders",)])
    def test_nonpositive_n(self, capsys, orders):
        code, out, err = run(capsys, "exact", "--n", "0", *orders)
        assert (code, out, err) == (cli.EXIT_CEILING, "", "error: n must be positive\n")


class TestSeries:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "100", "--eval-n", "50", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,log_E_B,rankin_log_bound")
        assert len(lines) == 3

    def test_renyi_table(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "10", "--renyi-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,U_d,kappa_num,kappa_den,Q_d,c_d"
        assert lines[3].startswith("3,17,27,17,")

    def test_renyi_table_nonpositive_degree(self, capsys):
        code, out, err = run(capsys, "series", "--degree", "0", "--renyi-table")
        assert (code, out, err) == (cli.EXIT_CEILING, "", "error: degree must be positive\n")

    def test_renyi_table_degree_above_cap(self, capsys, monkeypatch):
        # the cap is checked before q_and_c allocates its O(degree) table
        def unbounded(degree):
            raise AssertionError(f"q_and_c({degree}) called above the cap")

        monkeypatch.setattr(renyi, "q_and_c", unbounded)
        cap = series.DEGREE_CAP_DEFAULT
        code, out, err = run(capsys, "series", "--degree", str(cap + 1), "--renyi-table")
        message = f"error: degree {cap + 1} is above the cap {cap}\n"
        assert (code, out, err) == (cli.EXIT_CEILING, "", message)

    def test_renyi_table_precision(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "3", "--renyi-table", "--precision", "64")
        assert code == 0
        assert out.strip().splitlines()[2] == "2,3,4,3,0.40600584970983805,0.06766764161830643"

    def test_precision_needs_renyi_table(self, capsys):
        code, out, err = run(capsys, "series", "--degree", "100", "--precision", "80", "--eval-n", "50")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: --precision applies only to --renyi-table\n"

    @pytest.mark.parametrize("bits", ["59", "53", "0", "-5"])
    def test_low_precision_rejected(self, capsys, bits):
        code, out, err = run(capsys, "series", "--degree", "3", "--renyi-table", "--precision", bits)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == f"error: --precision must be at least 60 bits, got {bits}\n"

    def test_eval_above_degree(self, capsys):
        # --degree sets only the default n; --eval-n reads no coefficient table
        code, out, _ = run(capsys, "series", "--degree", "10", "--eval-n", "50")
        assert code == 0 and out.splitlines()[1].startswith("50,")

    def test_eval_above_cap(self, capsys):
        cap = series.DEGREE_CAP_DEFAULT
        code, out, err = run(capsys, "series", "--degree", "10", "--eval-n", "50", str(cap + 1))
        assert (code, out, err) == (cli.EXIT_CEILING, "", f"error: n = {cap + 1} is above the cap {cap}\n")

    @pytest.mark.parametrize("argv", sorted(SERIES_SHA256), ids=lambda argv: argv[2])
    def test_output_pinned(self, capsys, argv):
        code, out, _ = run(capsys, "series", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SERIES_SHA256[argv]

    def test_output_pinned_at_benchmark_size(self, capsys):
        argv = ("--degree", "20000", "--eval-n", "5000", "10000", "20000")
        code, out, _ = run(capsys, "series", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SERIES_20000_SHA256

    # the pair of table options, and the removed options: the exact-rational
    # mode, the coefficient table, the exact-column ceiling of --renyi-table
    # and the eps of asymptotics
    @pytest.mark.parametrize(
        "options",
        [
            ("--renyi-table", "--eval-n", "3"),
            ("--coefficients",),
            ("--mode", "exact"),
            ("--exact-ceiling", "5"),
            ("asymptotics", "--n", "1000", "--eps", "0.1"),
        ],
        ids=lambda options: " ".join(options),
    )
    def test_rejected_options(self, capsys, options):
        argv = list(options) if options[0] == "asymptotics" else ["series", "--degree", "5", *options]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        assert exc.value.code == cli.EXIT_PARSE
        assert out.out == "" and ": error: " in out.err

    def test_other_errors_propagate(self, capsys, monkeypatch):
        def broken(n):
            raise NotImplementedError

        monkeypatch.setattr(series, "saddle_point", broken)
        with pytest.raises(NotImplementedError):
            run(capsys, "series", "--degree", "100", "--eval-n", "100")

        # a ValueError outside EXIT_CODES is not caught for its base class
        def unmapped(*args, **kwargs):
            raise ValueError("unmapped")

        monkeypatch.setattr(montecarlo, "run_experiment", unmapped)
        with pytest.raises(ValueError, match="unmapped"):
            run(capsys, "simulate", "--n", "100", "--samples", "10")


class TestConstants:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "constants")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["I", "beta0", "k0"]
        assert 3.35 <= payload["k0"] <= 3.37


class TestAsymptotics:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--n", "10000", "100000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,leading,lower_log,upper_log,x_star,m_star"
        assert len(lines) == 3

    def test_small_n_rejected(self, capsys):
        code, _, err = run(capsys, "asymptotics", "--n", "10")
        assert code == cli.EXIT_CEILING

    @pytest.mark.parametrize("n", [10**160, 10**400], ids=["1e160", "1e400"])
    def test_huge_n_rejected(self, capsys, n):
        # n * n overflows a float past 1.3e154; n is refused before any float arithmetic
        code, out, err = run(capsys, "asymptotics", "--n", "1000", str(n))
        cap = asymptotics.Z_LAW_MAX_M**2
        assert (code, out, err) == (cli.EXIT_CEILING, "", f"error: n is above the cap {cap}\n")

    def test_output_pinned(self, capsys):
        code, out, _ = run(capsys, "asymptotics", "--n", "100", "1000", "100000", "1000000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ASYMPTOTICS_SHA256

    def test_other_errors_propagate(self, capsys, monkeypatch):
        def broken(n):
            raise RecursionError

        monkeypatch.setattr(asymptotics, "en_T_estimate", broken)
        with pytest.raises(RecursionError):
            run(capsys, "asymptotics", "--n", "10000")


class TestSimulate:
    def test_csv_and_histogram(self, capsys, tmp_path):
        hpath = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "simulate", "--n", "100", "--samples", "200", "--seed", "1",
            "--histogram", str(hpath),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,samples,seed,blocks,mean_log_T")
        assert lines[1].startswith("100,200,1,")
        hlines = hpath.read_text().strip().splitlines()
        assert hlines[0] == "bin_low,bin_high,count,phi_delta"
        assert hlines[1].startswith("-inf,")

    def test_one_chunk_per_block_pinned_n2000(self, capsys, monkeypatch):
        # blocks of 14 and 13 rows, each drawn as one chunk (a chunk holds up to
        # 32 rows of 2000); the CSV is the one that whole-block draws, and then
        # row-by-row draws of the same PCG64 stream, gave
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 14)
        code, out, _ = run(capsys, "simulate", "--n", "2000", "--samples", "40", "--seed", "4")
        assert code == 0
        assert out.splitlines()[1] == (
            "2000,40,4,3,6.765463099468809,4.464771109175992,8.513703452175985,"
            "8.787902377998776,1.7482403527071757,3.2537184659738987,0.6"
        )

    def test_one_chunk_per_block_pinned_n100(self, capsys, monkeypatch):
        # two blocks of 150 rows, each drawn as one chunk; the line is the one
        # printed while the running sums were kept in a separate record
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 150)
        code, out, _ = run(capsys, "simulate", "--n", "100", "--samples", "300", "--seed", "4")
        assert code == 0
        assert out.splitlines()[1] == (
            "100,300,4,2,2.449543962124768,1.3256910478773083,2.9753816018225017,"
            "1.9440515960310805,0.5258376396977349,0.5852378717175878,0.6133333333333333"
        )

    def test_one_row_chunks_pinned(self, capsys, monkeypatch):
        # n = 40000 fills a chunk with one row, in three blocks of 4 rows; the CSV line
        # is the one the serial row-by-row loop gave before the kernel ran on worker threads
        monkeypatch.setattr(montecarlo, "DEFAULT_BLOCK", 4)
        code, out, _ = run(capsys, "simulate", "--n", "40000", "--samples", "12", "--seed", "4")
        assert code == 0
        assert out.splitlines()[1] == (
            "40000,12,4,3,9.870518864224946,15.593021418973038,13.32797467768772,"
            "29.986466195893883,3.4574558134627744,5.055241888350855,0.8333333333333334"
        )

    def test_sim_large_pinned_and_histogram_cdf(self, capsys, tmp_path):
        # the benchmark's sim-large configuration, one row of n > CHUNK_VERTICES
        # per chunk; the CSV line is the one printed when the histogram took its
        # normal cdf from scipy's ndtr
        hpath = tmp_path / "hist.csv"
        code, out, _ = run(
            capsys, "simulate", "--n", "100000", "--samples", "128", "--seed", "0",
            "--histogram", str(hpath),
        )
        assert code == 0
        assert out == (
            "n,samples,seed,blocks,mean_log_T,var_log_T,mean_log_B,var_log_B,"
            "mean_diff,var_diff,frac_norm_nonpos\r\n"
            "100000,128,0,1,12.458471105638058,15.689205121162615,16.919299177073786,"
            "34.86120790164034,4.460828071435719,12.112039775521183,0.8515625\r\n"
        )
        # the standard library's cdf against scipy's ndtr at every edge
        edges = montecarlo.hist_bin_edges()
        cdf = np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in edges.tolist()])
        assert len(edges) == 42
        assert np.max(np.abs(cdf - ndtr(edges))) <= 2.3e-16
        # each phi_delta is count - 128 (Phi(hi) - Phi(lo)) with Phi = ndtr,
        # up to the two cdf errors scaled by 128 and a few ulp of the difference
        rows = list(csv.reader(hpath.read_text().splitlines()))
        assert rows[1][:2] == ["-inf", "np.float64(-4.0)"]
        assert rows[-1][:2] == ["np.float64(4.0)", "inf"]
        for lo, hi, count, delta in rows[2:-1]:
            phi = ndtr(np.array([float(lo), float(hi)]))
            ref = int(count) - (phi[1] - phi[0]) * 128
            assert abs(float(delta) - ref) <= 2 * 2.3e-16 * 128 + 4 * math.ulp(abs(ref))

    @pytest.mark.parametrize("n, samples", list(SIMULATE_SHA256), ids=lambda v: v)
    def test_output_pinned(self, capsys, tmp_path, n, samples):
        hpath = tmp_path / "hist.csv"
        code, out, _ = run(capsys, "simulate", "--n", n, "--samples", samples, "--histogram", str(hpath))
        assert code == 0
        digests = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(hpath.read_bytes()).hexdigest())
        assert digests == SIMULATE_SHA256[n, samples]

    def test_unwritable_histogram(self, capsys, tmp_path):
        # the histogram path is opened before the summary CSV is written
        path = tmp_path / "missing" / "x"
        code, out, err = run(
            capsys, "simulate", "--n", "50", "--samples", "3", "--histogram", str(path)
        )
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert (code, out) == (cli.EXIT_IO, "")
        assert errors == [f"error: [Errno 2] No such file or directory: '{path}'"]

    @pytest.mark.parametrize("fault", list(mapping_faults.FAULTS))
    def test_invariant_violation(self, capsys, monkeypatch, fault):
        _, message = mapping_faults.install(fault, monkeypatch.setattr)
        code, out, err = run(capsys, "simulate", "--n", "100", "--samples", "200")
        assert (code, out, err) == (cli.EXIT_INVARIANT, "", f"error: {message}\n")

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "100000000", "--samples", "1")
        assert code == cli.EXIT_CEILING

    def test_bad_seed(self, capsys):
        code, out, err = run(capsys, "simulate", "--n", "100", "--samples", "10", "--seed", "-1")
        assert (code, out, err) == (cli.EXIT_CEILING, "", "error: seed must be non-negative\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "INPUT"),
        ("exact", "--n", "3"),
        ("series", "--degree", "5", "--renyi-table"),
        ("asymptotics", "--n", "1000"),
        ("constants",),
        ("simulate", "--n", "100", "--samples", "10"),
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out(capsys, tmp_path, argv):
    src = tmp_path / "f.txt"
    src.write_text("3 2 3 1\n")
    path = tmp_path / "missing" / "out"
    argv = [str(src) if a == "INPUT" else a for a in argv]
    code, out, err = run(capsys, *argv, "--out", str(path))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, out) == (cli.EXIT_IO, "")
    assert errors == [f"error: [Errno 2] No such file or directory: '{path}'"]
    assert err.endswith(errors[0] + "\n")


@pytest.mark.parametrize(
    "exc, code",
    [
        (MappingError, cli.EXIT_PARSE),
        (cli.UsageError, cli.EXIT_PARSE),
        (OSError, cli.EXIT_IO),
        (CeilingError, cli.EXIT_CEILING),
        (InvariantError, cli.EXIT_INVARIANT),
    ],
)
def test_exit_code_map(capsys, monkeypatch, exc, code):
    def failing(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_constants", failing)
    assert run(capsys, "constants") == (code, "", "error: boom\n")


def test_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, so no other test has imported scipy yet
    src = tmp_path / "f.txt"
    src.write_text("3 2 3 1\n")
    out = str(tmp_path / "out")
    argvs = [
        ["simulate", "--n", "2000", "--samples", "4", "--histogram", str(tmp_path / "h.csv")],
        ["simulate", "--n", "2000", "--samples", "4"],
        ["analyze", str(src), "--out", out],
        ["exact", "--n", "5", "--out", out],
        ["constants", "--out", out],
    ]
    # constants() builds its Gauss nodes on first use, so no import loads numpy.polynomial
    script = (
        "import json, sys; "
        "from itermap import asymptotics, cli, exact, mapping, montecarlo; "
        "polynomial = 'numpy.polynomial' in sys.modules; "
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
        "print(json.dumps([polynomial, codes, "
        "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
    )
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(itermap.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    polynomial, codes, scipy_modules = json.loads(r.stdout.splitlines()[-1])
    assert not polynomial
    assert codes == [cli.EXIT_OK] * len(argvs)
    assert scipy_modules == []


def test_byte_identical_reruns(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "simulate", "--n", "300", "--samples", "100", "--seed", "9"
        )
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]

    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "series", "--degree", "200", "--eval-n", "200")
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]


def test_option_inventory():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: sorted(s for a in p._actions for s in a.option_strings or [a.dest])
        for name, p in sub.choices.items()
    }
    assert found == OPTIONS


# --precision alone sets the Q_d precision; no setting comes from the environment
class TestEnvironment:
    def test_bad_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ITERMAP_PRECISION_BITS", "high")
        code, out, err = run(capsys, "exact", "--n", "3")
        assert code == cli.EXIT_OK
        assert out.startswith("n,E_T_num") and "error" not in err

    def test_precision_env_ignored_without_renyi_table(self, capsys, monkeypatch):
        argv = ("series", "--degree", "100", "--eval-n", "50")
        code, plain, _ = run(capsys, *argv)
        monkeypatch.setenv("ITERMAP_PRECISION_BITS", "80")
        assert run(capsys, *argv) == (code, plain, "") and code == 0
