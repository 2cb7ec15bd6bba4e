"""Command-line entry point.

Subcommands: analyze, exact, series, asymptotics, constants, simulate.
Outputs are byte-stable for identical configuration.  Each cmd_* is
straight-line code that returns nothing; main alone maps a failure to
its exit code (EXIT_CODES) and prints it as one "error: ..." line on stderr:
0 success, 2 input parse or usage failure (MappingError, UsageError),
3 I/O failure (OSError), 4 a size or parameter outside the supported
domain (CeilingError), 5 a failed check of computed data (InvariantError).
Any other exception propagates.  InvariantError is raised at two sites
only, the cycle walk mapping._cycles and exact's cross-check, as a check
no input can trip is not kept.  `exact` sums each E_n(T) and E_n(B)
as one integer over n^(n+1) n!, checks n <= 7 against the recorded sums
of T and B over all n^n mappings (exact.BRUTE_FORCE_SUMS, which
tests/exact_reference.py regenerates by enumeration), and raises
InvariantError after writing its table when such a cross-check fails,
so main exits 5 there too.  Every output file is opened before any
text is written, so an unwritable path leaves stdout empty.  `series --eval-n`
builds no coefficient table (--degree only sets its default n) and
checks every n against series.DEGREE_CAP_DEFAULT before computing any
row, and `--renyi-table` checks --degree so before q_and_c allocates.
Each cmd_* imports the modules it needs; analyze, exact, constants and
simulate load no scipy.  `analyze` prints the one record mapping.analyze
returns, with T, B and O as decimal strings.  Settings come from options
alone, never the environment; one with a single value in use is a module
constant (renyi.EXACT_MAX_D, asymptotics.EPS, montecarlo.DEFAULT_BLOCK;
`constants` prints the cached asymptotics.constants()).  Every CSV goes
through `_csv`; the simulate and asymptotics CSVs and the analyze and
constants JSON name each field they read once.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys

from .mapping import CeilingError, InvariantError, MappingError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_CEILING = 4
EXIT_INVARIANT = 5


class UsageError(ValueError):
    """An option value or combination the CLI rejects; exit code 2."""


EXIT_CODES = {
    MappingError: EXIT_PARSE,
    UsageError: EXIT_PARSE,
    OSError: EXIT_IO,
    CeilingError: EXIT_CEILING,
    InvariantError: EXIT_INVARIANT,
}


def _write_text(*outputs: tuple[str | None, str]) -> None:
    """Write each (path, text) in turn after opening every file; None or "-" is stdout."""
    with contextlib.ExitStack() as stack:
        handles = [
            sys.stdout if path in (None, "-") else stack.enter_context(open(path, "w"))
            for path, _ in outputs
        ]
        for fh, (_, text) in zip(handles, outputs):
            fh.write(text)


def _csv(header, rows) -> str:
    """A CSV table: the header row, then each row; csv writes a float as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def cmd_analyze(args) -> None:
    from . import mapping

    with open(args.input, "rb") as fh:
        text = fh.read()
    ps = mapping.analyze(mapping.parse_mapping(text))
    fields = ("n", "T", "B", "O", "log_T", "log_B", "cycle_lengths", "num_cyclic")
    payload = {key: getattr(ps, key) for key in fields}
    payload.update({key: str(payload[key]) for key in ("T", "B", "O")})
    _write_text((args.out, _json_dumps(payload)))


def cmd_exact(args) -> None:
    from fractions import Fraction

    from . import exact

    n = args.n
    if n < 1:
        raise CeilingError("n must be positive")
    exact.perm_order_mean(n)  # both tables need M_1..M_n: fail before building any row
    failed = []
    if args.orders:
        header = ["m", "M_num", "M_den", "b_num", "b_den"]
        rows = [(m, exact.perm_order_mean(m), exact.perm_B_mean(m)) for m in range(1, n + 1)]
    else:
        header = ["n", "E_T_num", "E_T_den", "E_B_num", "E_B_den"]
        rows = [(k, exact.exact_E_T(k), exact.exact_E_B_conditional(k)) for k in range(1, n + 1)]
        # oracle cross-checks against the recorded sums over all k^k mappings
        for (k, et, eb), (sum_T, sum_B) in zip(rows, exact.BRUTE_FORCE_SUMS):
            match = (Fraction(sum_T, k**k), Fraction(sum_B, k**k)) == (et, eb)
            print(f"n={k} brute-force cross-check: {'PASS' if match else 'FAIL'}", file=sys.stderr)
            if not match:
                failed.append(k)
    cells = ([k, x.numerator, x.denominator, y.numerator, y.denominator] for k, x, y in rows)
    _write_text((args.out, _csv(header, cells)))
    if failed:
        raise InvariantError(f"brute-force cross-check failed for n = {failed}")


def cmd_series(args) -> None:
    from . import renyi, series

    bits = args.precision
    if bits is not None:
        if not args.renyi_table:
            raise UsageError("--precision applies only to --renyi-table")
        # mpmath's Q_d rounds correctly to float64 from 60 bits (checked for d <= 800), not below
        if bits < 60:
            raise UsageError(f"--precision must be at least 60 bits, got {bits}")
    if args.renyi_table:
        if args.degree < 1:
            raise CeilingError("degree must be positive")
        if args.degree > series.DEGREE_CAP_DEFAULT:
            raise CeilingError(f"degree {args.degree} is above the cap {series.DEGREE_CAP_DEFAULT}")
        Q, c = renyi.q_and_c(args.degree)
        rows = []
        for d in range(1, args.degree + 1):
            if d <= renyi.EXACT_MAX_D:
                kap = renyi.kappa_exact(d)
                u, knum, kden = renyi.connected_count(d), kap.numerator, kap.denominator
            else:
                u, knum, kden = "", "", ""
            q = renyi.q_factor(d, bits) if bits else float(Q[d - 1])
            rows.append([d, u, knum, kden, repr(q), repr(float(c[d - 1]))])
        text = _csv(["d", "U_d", "kappa_num", "kappa_den", "Q_d", "c_d"], rows)
    else:
        ns = args.eval_n or [args.degree]
        # the cap guards only log_expected_B's O(n) floats (saddle_point is O(1)): check every n first
        if max(ns) > series.DEGREE_CAP_DEFAULT:
            raise CeilingError(f"n = {max(ns)} is above the cap {series.DEGREE_CAP_DEFAULT}")
        rows = []
        for n in ns:
            rep = series.saddle_point(n)
            rows.append([n, series.log_expected_B(n), rep.rankin_log_value, rep.s_star, rep.A_n])
        text = _csv(["n", "log_E_B", "rankin_log_bound", "s_star", "A_n"], rows)
    _write_text((args.out, text))


def cmd_asymptotics(args) -> None:
    from . import asymptotics

    columns = ("leading", "lower_log", "upper_log", "x_star", "m_star")
    rows = []
    for n in args.n:
        est = asymptotics.en_T_estimate(n)
        rows.append([n, *(getattr(est, c) for c in columns)])
    _write_text((args.out, _csv(["n", *columns], rows)))


def cmd_constants(args) -> None:
    from . import asymptotics

    c = asymptotics.constants()
    payload = {key: getattr(c, key) for key in ("I", "beta0", "k0")}
    _write_text((args.out, _json_dumps(payload)))


def cmd_simulate(args) -> None:
    from . import montecarlo

    summary = montecarlo.run_experiment(args.n, args.samples, args.seed)
    columns = (
        "n", "samples", "seed", "blocks",
        "mean_log_T", "var_log_T", "mean_log_B", "var_log_B",
        "mean_diff", "var_diff", "frac_norm_nonpos",
    )
    outputs = [(args.out, _csv(columns, [[getattr(summary, c) for c in columns]]))]
    if args.histogram:
        edges = montecarlo.hist_bin_edges()
        xs = edges.tolist()
        cdf = [0.5 * math.erfc(-x / math.sqrt(2)) for x in xs]  # standard normal cdf
        rows = [["-inf", repr(edges[0]), int(summary.hist[0]), ""]]
        for i, count in enumerate(summary.hist[1:-1].tolist()):
            expected = (cdf[i + 1] - cdf[i]) * summary.samples
            rows.append([repr(xs[i]), repr(xs[i + 1]), count, repr(count - expected)])
        rows.append([repr(edges[-1]), "inf", int(summary.hist[-1]), ""])
        outputs.append((args.histogram, _csv(["bin_low", "bin_high", "count", "phi_delta"], rows)))
    _write_text(*outputs)


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
    p.add_argument("--precision", type=int, default=None,
                   help="mpmath bits (>= 60) for the Q_d column of --renyi-table (default: scipy float64)")
    emit = p.add_mutually_exclusive_group()
    emit.add_argument("--renyi-table", action="store_true",
                      help="emit the (d, U_d, kappa, Q_d, c_d) connected-mapping table")
    emit.add_argument("--eval-n", dest="eval_n", type=int, nargs="*", default=None,
                      help="emit (n, log_E_B, rankin_log_bound, s_star, A_n) rows (default n = degree)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("asymptotics", help="asymptotic bracket for log E_n(T)")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("constants", help="the constants I, beta0, k0 by quadrature")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("simulate", help="Monte-Carlo sampling of random mappings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--histogram", default=None, help="write the normalized-log-T histogram CSV here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
