"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible under pytest -s).
Criterion 10 is a diagnostic: it always reports the measured value but
gates only when ITERMAP_GATE_HARRIS=1 is set.
"""

import math
import os
import subprocess
import sys

import exact_reference
import itermap
import montecarlo_reference
import renyi_reference
import series_reference
from itermap import asymptotics, exact, montecarlo, renyi, series


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_01_oracle_equivalence_exact():
    ok = True
    for n in range(1, 8):
        bt, bb = exact_reference.brute_force_expectations(n)
        ok = ok and exact.exact_E_T(n) == bt
        ok = ok and exact.exact_E_B_conditional(n) == bb
        ok = ok and series_reference.expected_B_exact(n) == bb
    assert report(1, ok, "exact E_T / E_B routes equal full enumeration for n = 1..7")


def test_02_z_distribution_normalized():
    ok = all(exact_reference.z_pmf_sums_to_one(n) for n in range(1, 501))
    assert report(2, ok, "cyclic-count pmf sums to 1 exactly for all n <= 500")


def test_03_constants():
    c = asymptotics.constants()
    ok = 3.35 <= c.k0 <= 3.37
    ok = ok and abs(c.beta0**2 - 8 * c.I) <= 8e-8
    assert report(3, ok, f"k0 = {c.k0:.6f} in [3.35, 3.37], beta0^2 = 8I to tolerance")


def test_04_log_E_B_leading_order():
    r1 = series.log_expected_B(10000) / (1.5 * 10000 ** (1 / 3))
    r2 = series.log_expected_B(20000) / (1.5 * 20000 ** (1 / 3))
    ok = 0.7 <= r1 <= 1.3 and 0.75 <= r2 <= 1.25
    assert report(4, ok, f"log E_B ratio to (3/2) n^(1/3): {r1:.4f} at n=1e4, {r2:.4f} at n=2e4")


def test_05_rankin_never_violated():
    tab = series_reference.mu_table(20000)
    violations = 0
    for n in range(1, 20001):
        try:
            series_reference.rankin_bound(n, 0.5 * n ** (-2 / 3), tab)
        except RuntimeError:
            violations += 1
    assert report(5, violations == 0, f"Rankin upper bound violations for n <= 2e4: {violations}")


def test_06_saddle_point_scalings():
    rep = series.saddle_point(10**6)
    n = 10**6
    r_s = rep.s_star * 2 * n ** (2 / 3)
    r_A = rep.A_n / (3 * n ** (5 / 3))
    r_g3 = abs(rep.g3) / (15 * n ** (7 / 3))
    odlyzko_ok = abs(rep.g3) <= rep.g2**1.5
    ok = 0.9 <= r_s <= 1.1 and 0.9 <= r_A <= 1.1 and 0.85 <= r_g3 <= 1.15
    ok = ok and odlyzko_ok
    assert report(
        6,
        ok,
        f"saddle at n=1e6: s ratio {r_s:.4f}, A ratio {r_A:.4f}, g''' ratio {r_g3:.4f}, "
        f"|g'''| <= A^(3/2): {odlyzko_ok}",
    )


def test_07_connected_mapping_cycle_count():
    ok = True
    details = []
    for d in (10**2, 10**3, 10**4):
        ratio = renyi_reference.kappa_float(d) / math.sqrt(2 * d / math.pi)
        ok = ok and abs(ratio - 1) <= 5 / math.sqrt(d)
        details.append(f"{ratio:.4f}")
    for d in range(1, 8):
        ok = ok and renyi.connected_count(d) == exact_reference.enumerate_summary(d).connected_count
    assert report(
        7, ok, f"kappa_d / sqrt(2d/pi) = {', '.join(details)}; U_d matches enumeration d <= 7"
    )


def test_08_exact_M60_magnitude():
    logM = math.log(exact.perm_order_mean(60))
    target = asymptotics.constants().beta0 * math.sqrt(60 / math.log(60))
    ratio = logM / target
    assert report(8, 0.5 <= ratio <= 1.5, f"log M_60 / (beta0 sqrt(60/log 60)) = {ratio:.4f}")


def test_09_monte_carlo_invariants_and_gof():
    # run_experiment raises mapping.InvariantError on a failed check, so
    # returning is the invariant gate
    for n, samples in ((10**4, 10**4), (10**5, 10**3)):
        montecarlo.run_experiment(n, samples, seed=20260825)
    s = montecarlo.run_experiment(100, 10**5, seed=20260825)
    _, p = montecarlo_reference.z_gof(s.z_counts, exact_reference.z_pmf(100))
    ok = p > 0.001
    assert report(9, ok, f"invariant checks pass; Z chi-square p = {p:.4f} at n=100")


def test_10_harris_centering_diagnostic():
    s = montecarlo.run_experiment(10**5, 10**4, seed=20260825)
    frac = s.frac_norm_nonpos
    ok = 0.35 <= frac <= 0.65
    report(
        10,
        ok,
        f"P((log T - a_n)/b_n <= 0) = {frac:.4f} at n=1e5 "
        "(diagnostic; convergence to 1/2 is slower than desk scale)",
    )
    if os.environ.get("ITERMAP_GATE_HARRIS") == "1":
        assert ok


def test_11_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "itermap",
        "simulate", "--n", "500", "--samples", "400", "--seed", "77",
    ]
    # the child finds the same itermap as this process, installed or not
    src = os.path.dirname(os.path.dirname(itermap.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    outs = []
    for i in range(2):
        hist = tmp_path / f"h{i}.csv"
        r = subprocess.run(
            argv + ["--histogram", str(hist)], capture_output=True, check=True, env=env
        )
        outs.append(r.stdout + hist.read_bytes())
    ok = outs[0] == outs[1]
    assert report(11, ok, "identical configuration produces byte-identical output")
