"""Command-line entry point.

Subcommands: analyze, exact, series, asymptotics, constants, simulate.
Outputs are byte-stable for identical configuration.  Each cmd_* is
straight-line code; main alone maps a failure to its exit code
(EXIT_CODES) and prints it as one "error: ..." line on stderr:
0 success, 2 input parse or usage failure (MappingError, UsageError),
3 I/O failure (OSError), 4 a size or parameter outside the supported
domain (CeilingError), 5 internal invariant violation (InvariantError).
Any other exception propagates.  `exact` also exits 5, after writing
its table, when a brute-force cross-check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .mapping import CeilingError, InvariantError, MappingError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_CEILING = 4
EXIT_INVARIANT = 5

PRECISION_ENV = "ITERMAP_PRECISION_BITS"


class UsageError(ValueError):
    """An option value or combination the CLI rejects; exit code 2."""


EXIT_CODES = {
    MappingError: EXIT_PARSE,
    UsageError: EXIT_PARSE,
    OSError: EXIT_IO,
    CeilingError: EXIT_CEILING,
    InvariantError: EXIT_INVARIANT,
}


def _check_precision(bits: int, source: str) -> int:
    # mpmath's Q_d rounds correctly to float64 from 60 bits (checked for d <= 800), not below
    if bits < 60:
        raise UsageError(f"{source} must be at least 60 bits, got {bits}")
    return bits


def _default_precision() -> int | None:
    raw = os.environ.get(PRECISION_ENV)
    if not raw:
        return None
    try:
        bits = int(raw)
    except ValueError:
        raise UsageError(f"{PRECISION_ENV} must be an integer, got {raw!r}") from None
    return _check_precision(bits, PRECISION_ENV)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_analyze(args) -> int:
    from . import mapping

    with open(args.input, "rb") as fh:
        text = fh.read()
    f = mapping.parse_mapping(text)
    cs = mapping.analyze(f)
    ps = mapping.period_stats(cs)
    _write_text(args.out, _json_dumps(mapping.stats_to_json_dict(f, cs, ps)))
    return EXIT_OK


def cmd_exact(args) -> int:
    from . import exact

    n = args.n
    if n < 1:
        raise CeilingError("n must be positive")
    buf = io.StringIO()
    writer = csv.writer(buf)
    ok = True
    if args.orders:
        if n > exact.M_MAX_DEFAULT:
            raise CeilingError("order-count table too large")
        writer.writerow(["m", "M_num", "M_den", "b_num", "b_den"])
        for m in range(1, n + 1):
            M = exact.perm_order_mean(m)
            b = exact.perm_B_mean(m)
            writer.writerow([m, M.numerator, M.denominator, b.numerator, b.denominator])
    else:
        writer.writerow(["n", "E_T_num", "E_T_den", "E_B_num", "E_B_den"])
        rows = [(k, exact.exact_E_T(k), exact.exact_E_B_conditional(k)) for k in range(1, n + 1)]
        for k, et, eb in rows:
            writer.writerow([k, et.numerator, et.denominator, eb.numerator, eb.denominator])
        # oracle cross-checks against full enumeration
        for k, et, eb in rows[:7]:
            match = exact.brute_force_expectations(k) == (et, eb)
            print(f"n={k} brute-force cross-check: {'PASS' if match else 'FAIL'}", file=sys.stderr)
            ok = ok and match
    _write_text(args.out, buf.getvalue())
    return EXIT_OK if ok else EXIT_INVARIANT


def cmd_series(args) -> int:
    from . import renyi, series

    if args.precision is not None:
        if not args.renyi_table:
            raise UsageError("--precision applies only to --renyi-table")
        _check_precision(args.precision, "--precision")
    bits = args.env_precision if args.precision is None else args.precision
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.renyi_table:
        if args.degree < 1:
            raise CeilingError("degree must be positive")
        writer.writerow(["d", "U_d", "kappa_num", "kappa_den", "Q_d", "c_d"])
        tab = renyi.renyi_table(args.degree, exact_upto=min(args.degree, args.exact_ceiling))
        for d in range(1, args.degree + 1):
            if d <= tab.exact_upto:
                kap = tab.kappa_exact[d - 1]
                u, knum, kden = tab.U[d - 1], kap.numerator, kap.denominator
            else:
                u, knum, kden = "", "", ""
            q = renyi.q_factor(d, bits) if bits else float(tab.Q[d - 1])
            writer.writerow([d, u, knum, kden, repr(q), repr(float(tab.c[d - 1]))])
        _write_text(args.out, buf.getvalue())
        return EXIT_OK
    table = series.mu_table(args.degree, args.mode)
    if args.coefficients:
        writer.writerow(["m", "e_coeff", "mu"])
        for m in range(args.degree + 1):
            writer.writerow([m, repr(float(table.e[m])), repr(float(table.mu[m]))])
    else:
        writer.writerow(["n", "log_E_B", "rankin_log_bound", "s_star", "A_n"])
        for n in args.eval_n or [args.degree]:
            if n > args.degree:
                raise CeilingError("degree above configured cap")
            rep = series.saddle_point(n)
            row = [
                n,
                repr(series.log_expected_B(n, table)),
                repr(rep.rankin_log_value),
                repr(rep.s_star),
                repr(rep.A_n),
            ]
            writer.writerow(row)
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    from . import asymptotics

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "leading", "lower_log", "upper_log", "x_star", "m_star"])
    for n in args.n:
        est = asymptotics.en_T_estimate(n, eps=args.eps)
        writer.writerow(
            [n]
            + [repr(v) for v in (est.leading, est.lower_log, est.upper_log, est.x_star, est.m_star)]
        )
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def cmd_constants(args) -> int:
    from . import asymptotics

    c = asymptotics.compute_constants(args.tolerance)
    if not 3.35 <= c.k0 <= 3.37:
        raise InvariantError("k0 outside expected range")
    payload = {
        "I": c.I,
        "beta0": c.beta0,
        "k0": c.k0,
        "quadrature_error": c.quadrature_error,
    }
    _write_text(args.out, _json_dumps(payload))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from scipy.special import ndtr

    from . import montecarlo

    summary = montecarlo.run_experiment(args.n, args.samples, args.seed, blocks=args.blocks)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        [
            "n", "samples", "seed", "blocks",
            "mean_log_T", "var_log_T", "mean_log_B", "var_log_B",
            "mean_diff", "var_diff", "frac_norm_nonpos",
        ]
    )
    writer.writerow(
        [
            summary.n, summary.samples, summary.seed, summary.blocks,
            repr(summary.mean_log_T), repr(summary.var_log_T),
            repr(summary.mean_log_B), repr(summary.var_log_B),
            repr(summary.mean_diff), repr(summary.var_diff),
            repr(summary.frac_norm_nonpos),
        ]
    )
    _write_text(args.out, buf.getvalue())
    if args.histogram:
        edges = montecarlo.hist_bin_edges()
        hbuf = io.StringIO()
        hw = csv.writer(hbuf)
        hw.writerow(["bin_low", "bin_high", "count", "phi_delta"])
        hw.writerow(["-inf", repr(edges[0]), int(summary.hist[0]), ""])
        total = summary.samples
        cdf = ndtr(edges).tolist()
        for i in range(len(edges) - 1):
            lo, hi = float(edges[i]), float(edges[i + 1])
            expected = (cdf[i + 1] - cdf[i]) * total
            hw.writerow([repr(lo), repr(hi), int(summary.hist[1 + i]), repr(int(summary.hist[1 + i]) - expected)])
        hw.writerow([repr(edges[-1]), "inf", int(summary.hist[-1]), ""])
        _write_text(args.histogram, hbuf.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itermap",
        description="Statistics of iterated functions on a finite set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="period statistics of one mapping file")
    p.add_argument("input", help="mapping file: n followed by n 1-based targets")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("exact", help="exact expectations E_n(T), E_n(B)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orders", action="store_true", help="emit the (m, M_m, b_m) table instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("series", help="generating-function route to E_n(B)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "float"], default="float")
    p.add_argument("--precision", type=int, default=None,
                   help=f"mpmath bits (>= 60) for the Q_d column of --renyi-table (default ${PRECISION_ENV})")
    p.add_argument("--coefficients", action="store_true", help="emit (m, e_coeff, mu) table")
    p.add_argument("--renyi-table", action="store_true",
                   help="emit the (d, U_d, kappa, Q_d, c_d) connected-mapping table")
    p.add_argument("--exact-ceiling", type=int, default=200,
                   help="largest d carried exactly in the renyi table")
    p.add_argument("--eval-n", dest="eval_n", type=int, nargs="*", default=None)
    p.add_argument("--out", default=None)
    # ITERMAP_PRECISION_BITS is checked whatever the subcommand; only --renyi-table reads it
    p.set_defaults(func=cmd_series, env_precision=_default_precision())

    p = sub.add_parser("asymptotics", help="asymptotic bracket for log E_n(T)")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("constants", help="the constants I, beta0, k0 by quadrature")
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("simulate", help="Monte-Carlo sampling of random mappings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--histogram", default=None, help="write the normalized-log-T histogram CSV here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
