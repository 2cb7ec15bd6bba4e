"""Value checker for the outputs of one workload run.

Outputs are parsed by column or key name.  Integers (big-int T, B, O,
histogram counts, Fraction numerators and denominators) are compared
exactly and floats to REL_TOL.  At the default seed, and always for the
deterministic `analytic` workload, every value is compared with the
golden outputs in `golden/`; a column that is not required may be
dropped, but a value that is present must match.  At every seed the
invariants below must hold.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

REL_TOL = 1e-9
ABS_TOL = 1e-12

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Columns or keys each output must have, by output kind (the subcommand
# for --out, the role for other files, the function for library calls).
REQUIRED = {
    "simulate": ("n", "samples", "seed", "blocks", "mean_log_T", "var_log_T", "mean_log_B",
                 "var_log_B", "mean_diff", "var_diff", "frac_norm_nonpos"),
    "histogram": ("bin_low", "bin_high", "count", "phi_delta"),
    "series": ("n", "log_E_B", "rankin_log_bound", "s_star", "A_n"),
    "exact": ("n", "E_T_num", "E_T_den", "E_B_num", "E_B_den"),
    "asymptotics": ("n", "leading", "lower_log", "upper_log", "x_star", "m_star"),
    "constants": ("I", "beta0", "k0"),
    "analyze": ("n", "T", "B", "O", "log_T", "log_B", "cycle_lengths", "num_cyclic"),
    "saddle_point": ("n", "s_star", "g0", "g1", "g2", "g3", "A_n", "rankin_log_value"),
}
JSON_KINDS = ("analyze", "constants")
BRUTE_FORCE = "brute-force cross-check"


def kind(call: dict, role: str = "out") -> str:
    if "lib" in call:
        return call["lib"].rsplit(".", 1)[1]
    return call["argv"][0] if role == "out" else role


def observe(call: dict, result: dict, files: dict[str, str | None]) -> dict:
    """The parsed outputs of one call: exit code, files, return value, brute-force lines."""
    obs: dict = {"code": result["code"]}
    for role, text in files.items():
        if text is None:
            obs[role] = None
        elif kind(call, role) in JSON_KINDS:
            obs[role] = json.loads(text)
        else:
            obs[role] = list(csv.DictReader(io.StringIO(text)))
    if "lib" in call:
        obs["value"] = result["value"]
    lines = [ln for ln in result["stderr"].splitlines() if BRUTE_FORCE in ln]
    if lines:
        obs["brute_force"] = lines
    return obs


def _number(v):
    """int for integer literals, float for float literals, else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        for conv in (int, float):
            try:
                return conv(v)
            except ValueError:
                pass
    return None


def same_value(golden, actual) -> bool:
    if isinstance(golden, list) and isinstance(actual, list):
        return len(golden) == len(actual) and all(map(same_value, golden, actual))
    g, a = _number(golden), _number(actual)
    if g is None or a is None:
        return golden == actual
    if isinstance(g, int) and isinstance(a, int):
        return g == a
    if math.isinf(g) or math.isinf(a) or math.isnan(g) or math.isnan(a):
        return str(float(g)) == str(float(a))
    return math.isclose(g, a, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare_record(where: str, golden: dict, actual: dict) -> list[str]:
    # A missing column is an error only when required, which check_invariants reports.
    return [
        f"{where}: {key} = {actual[key]!r}, golden {g!r}"
        for key, g in golden.items()
        if key in actual and not same_value(g, actual[key])
    ]


def compare_golden(golden: list[dict], actual: list[dict]) -> list[str]:
    """Every golden value that is still present must match."""
    errors = []
    for i, (g, a) in enumerate(zip(golden, actual)):
        for role in g:
            if role == "code":
                continue  # a non-zero exit is reported by check_invariants
            if role == "brute_force":
                if a.get(role) != g[role]:
                    errors.append(f"call {i}: {role} = {a.get(role)!r}, golden {g[role]!r}")
                continue
            if a.get(role) is None:
                continue  # reported by check_invariants
            where = f"call {i} {role}"
            if isinstance(g[role], list):
                if len(g[role]) != len(a[role]):
                    errors.append(f"{where}: {len(a[role])} rows, golden {len(g[role])}")
                    continue
                for r, (grow, arow) in enumerate(zip(g[role], a[role])):
                    errors += _compare_record(f"{where} row {r}", grow, arow)
            else:
                errors += _compare_record(where, g[role], a[role])
    return errors


def _records(obs):
    return obs if isinstance(obs, list) else [obs]


def check_invariants(calls: list[dict], actual: list[dict]) -> list[str]:
    """Checks that hold at every seed."""
    errors = []
    for i, (call, a) in enumerate(zip(calls, actual)):
        errors += _call_invariants(i, call, a)
    return errors


def _call_invariants(i: int, call: dict, a: dict) -> list[str]:
    if a["code"] != 0:
        return [f"call {i}: exit code {a['code']}"]
    errors = []
    roles = list(call.get("files", {})) + (["value"] if "lib" in call else [])
    for role in roles:
        if not a.get(role):
            errors.append(f"call {i}: no {role} output")
            continue
        missing = {k for r in _records(a[role]) for k in REQUIRED[kind(call, role)] if k not in r}
        errors += [f"call {i} {role}: required column {k!r} missing" for k in sorted(missing)]
    errors += [f"call {i}: {ln}" for ln in a.get("brute_force", ()) if not ln.endswith("PASS")]
    if errors:
        return errors
    if kind(call) == "simulate":
        return _simulate_invariants(i, call["argv"], a)
    if kind(call) == "analyze":
        return _analyze_invariants(i, a["out"])
    return []


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _simulate_invariants(i: int, argv: list[str], a: dict) -> list[str]:
    errors = []
    (row,) = a["out"]
    for col in ("n", "samples", "seed"):
        if int(row[col]) != int(_flag(argv, f"--{col}")):
            errors.append(f"call {i}: {col} = {row[col]}, requested {_flag(argv, f'--{col}')}")
    errors += [f"call {i}: {col} = {row[col]}" for col in row if col.startswith("viol_") and int(row[col])]
    if "histogram" in a:
        total = sum(int(r["count"]) for r in a["histogram"])
        if total != int(row["samples"]):
            errors.append(f"call {i}: histogram counts sum to {total}, samples {row['samples']}")
    return errors


def _analyze_invariants(i: int, out: dict) -> list[str]:
    errors = []
    lengths = [int(x) for x in out["cycle_lengths"]]
    T, B, O, n = int(out["T"]), int(out["B"]), int(out["O"]), int(out["n"])
    if T != math.lcm(*lengths):
        errors.append(f"call {i}: T = {T} is not the lcm of cycle_lengths")
    if B != math.prod(lengths):
        errors.append(f"call {i}: B = {B} is not the product of cycle_lengths")
    if sum(lengths) != int(out["num_cyclic"]):
        errors.append(f"call {i}: sum(cycle_lengths) = {sum(lengths)}, num_cyclic {out['num_cyclic']}")
    if not 0 <= O - T < n:
        errors.append(f"call {i}: O - T = {O - T} outside [0, n)")
    if not math.isclose(float(out["log_T"]), math.log(T), rel_tol=REL_TOL, abs_tol=ABS_TOL):
        errors.append(f"call {i}: log_T = {out['log_T']} but log(T) = {math.log(T)}")
    return errors


def load_golden(workload: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def check_run(calls: list[dict], actual: list[dict], inputs: dict, golden: dict | None) -> list[str]:
    """All errors of one workload run; golden is None where only invariants apply."""
    try:
        errors = check_invariants(calls, actual)
        if golden is not None:
            errors += compare_golden(golden["calls"], actual)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    if golden is not None:
        for key, value in golden["inputs"].items():
            if inputs.get(key) != value:
                errors.append(f"input {key} = {inputs.get(key)!r}, golden {value!r}")
    return errors
