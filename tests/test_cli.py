import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import itermap
import mapping_faults
from itermap import asymptotics, cli, exact, montecarlo, series
from itermap.mapping import CeilingError, InvariantError, MappingError

ANALYZE_2E5_SHA256 = "15a3ad673a98ea9da4406212f6742645b0fe901f740cddf466d804f416f63d88"


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

    # a non-ASCII byte, and a target too large for int64
    @pytest.mark.parametrize("data", [b"2 2 \xc3\xa9", b"2 2 99999999999999999999\n"])
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
        monkeypatch.setattr(exact, "brute_force_expectations", lambda k: (Fraction(k), Fraction(1)))
        code, out, err = run(capsys, "exact", "--n", "3")
        assert code == cli.EXIT_INVARIANT
        assert out.startswith("n,E_T_num")
        assert err.splitlines() == [
            "n=1 brute-force cross-check: PASS",
            "n=2 brute-force cross-check: FAIL",
            "n=3 brute-force cross-check: FAIL",
        ]

    def test_orders_table(self, capsys):
        code, out, _ = run(capsys, "exact", "--n", "4", "--orders")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,M_num,M_den,b_num,b_den"
        assert lines[4] == "4,67,24,73,24"

    def test_ceiling(self, capsys):
        code, _, err = run(capsys, "exact", "--n", "100", "--orders")
        assert code == cli.EXIT_CEILING
        assert "too large" in err

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

    def test_coefficients(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "5", "--coefficients")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,e_coeff,mu"
        assert lines[1].startswith("0,1.0,1.0")

    def test_renyi_table(self, capsys):
        code, out, _ = run(capsys, "series", "--degree", "10", "--renyi-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,U_d,kappa_num,kappa_den,Q_d,c_d"
        assert lines[3].startswith("3,17,27,17,")

    def test_renyi_table_nonpositive_degree(self, capsys):
        code, out, err = run(capsys, "series", "--degree", "0", "--renyi-table")
        assert (code, out, err) == (cli.EXIT_CEILING, "", "error: degree must be positive\n")

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
        code, _, err = run(capsys, "series", "--degree", "10", "--eval-n", "50")
        assert code == cli.EXIT_CEILING
        assert "degree above configured cap" in err

    def test_invariant_violation(self, capsys, monkeypatch):
        real = series._g_sums

        def g3_positive(s, orders):
            vals = real(s, orders)
            return vals[:3] + (abs(vals[3]),) if len(vals) == 4 else vals

        monkeypatch.setattr(series, "_g_sums", g3_positive)
        code, out, err = run(capsys, "series", "--degree", "100", "--eval-n", "100")
        assert code == cli.EXIT_INVARIANT
        assert out == "" and err.startswith("error: saddle point at n=100: need g'' > 0 > g'''")

    def test_saddle_no_convergence(self, capsys, monkeypatch):
        monkeypatch.setattr(series, "NEWTON_MAX_STEPS", 1)
        code, out, err = run(capsys, "series", "--degree", "100", "--eval-n", "100")
        assert (code, out, err) == (
            cli.EXIT_INVARIANT, "", "error: saddle search did not converge at n=100\n"
        )

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
        assert 3.35 <= payload["k0"] <= 3.37
        assert payload["quadrature_error"] < 1e-8

    def test_bad_tolerance(self, capsys):
        code, _, err = run(capsys, "constants", "--tolerance", "1")
        assert code == cli.EXIT_CEILING
        assert "tolerance error" in err


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

    def test_invariant_violation(self, capsys, monkeypatch):
        monkeypatch.setattr(asymptotics, "stong_logM", lambda m: math.inf)
        code, out, err = run(capsys, "asymptotics", "--n", "10000")
        assert code == cli.EXIT_INVARIANT
        assert out == "" and err == "error: lower bound exceeded upper bound\n"

    def test_other_errors_propagate(self, capsys, monkeypatch):
        def broken(n, eps):
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

    def test_per_row_path_pinned(self, capsys):
        # n above BATCH_N_MAX draws one row at a time; the CSV is the one the
        # whole-block draw gave, so the per-row draws keep the PCG64 stream
        code, out, _ = run(
            capsys, "simulate", "--n", "2000", "--samples", "40", "--blocks", "3", "--seed", "4"
        )
        assert code == 0
        assert out.splitlines()[1] == (
            "2000,40,4,3,6.765463099468809,4.464771109175992,8.513703452175985,"
            "8.787902377998776,1.7482403527071757,3.2537184659738987,0.6"
        )

    def test_threaded_path_pinned(self, capsys):
        # n = 40000 >= PARALLEL_N_MIN runs the kernel on worker threads; the CSV
        # line is the one the serial per-row loop gave before threads were added
        code, out, _ = run(
            capsys, "simulate", "--n", "40000", "--samples", "12", "--blocks", "3", "--seed", "4"
        )
        assert code == 0
        assert out.splitlines()[1] == (
            "40000,12,4,3,9.870518864224946,15.593021418973038,13.32797467768772,"
            "29.986466195893883,3.4574558134627744,5.055241888350855,0.8333333333333334"
        )

    # the first row of seed 0 at n = 100 has a fixed point, so fixed_points_cleared trips
    @pytest.mark.parametrize(
        "fault", ["tail_vertex_added", "cyclic_vertex_missing", "fixed_points_cleared"]
    )
    def test_invariant_violation(self, capsys, monkeypatch, fault):
        _, message = mapping_faults.install(fault, monkeypatch.setattr)
        code, out, err = run(capsys, "simulate", "--n", "100", "--samples", "200")
        assert (code, out, err) == (cli.EXIT_INVARIANT, "", f"error: {message}\n")

    def test_too_large(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "100000000", "--samples", "1")
        assert code == cli.EXIT_CEILING


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


class TestEnvironment:
    def test_bad_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.PRECISION_ENV, "high")
        code, out, err = run(capsys, "exact", "--n", "3")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: ITERMAP_PRECISION_BITS must be an integer, got 'high'\n"

    def test_precision_env_ignored_without_renyi_table(self, capsys, monkeypatch):
        argv = ("series", "--degree", "100", "--eval-n", "50")
        code, plain, _ = run(capsys, *argv)
        monkeypatch.setenv(cli.PRECISION_ENV, "80")
        assert run(capsys, *argv) == (code, plain, "") and code == 0

    def test_precision_env_sets_table_default(self, capsys, monkeypatch):
        argv = ("series", "--degree", "3", "--renyi-table")
        explicit = run(capsys, *argv, "--precision", "64")
        monkeypatch.setenv(cli.PRECISION_ENV, "64")
        assert run(capsys, *argv) == explicit

    @pytest.mark.parametrize("bits", ["59", "53", "-5"])
    def test_low_precision_env(self, capsys, monkeypatch, bits):
        monkeypatch.setenv(cli.PRECISION_ENV, bits)
        code, out, err = run(capsys, "series", "--degree", "3", "--renyi-table")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == f"error: ITERMAP_PRECISION_BITS must be at least 60 bits, got {bits}\n"
