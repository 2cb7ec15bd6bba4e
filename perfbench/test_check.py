"""Tests of the benchmark's value checker: each perturbed output must be rejected.

    python3 -m pytest perfbench/test_check.py
"""

import copy

import pytest

import check
import workloads
from check import check_run as errors


def case(name: str, golden: bool = True):
    """(calls, observed outputs, inputs, golden or None) built from the golden file."""
    g = check.load_golden(name)
    inputs = {"mapping": "mapping.txt", **g["inputs"]}
    calls = workloads.calls(name, workloads.DEFAULT_SEED, ".", inputs)
    return calls, copy.deepcopy(g["calls"]), inputs, g if golden else None


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("golden", [True, False])
def test_golden_outputs_pass(name, golden):
    assert errors(*case(name, golden)) == []


def test_perturbed_fraction_fails():
    calls, obs, inputs, golden = case("analytic")
    row = obs[1]["out"][20]
    row["E_T_num"] = str(int(row["E_T_num"]) + 1)
    assert any("E_T_num" in e for e in errors(calls, obs, inputs, golden))


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("golden", [True, False])
def test_nonzero_exit_fails(name, golden):
    calls, obs, inputs, g = case(name, golden)
    obs[-1]["code"] = 5
    assert any("exit code 5" in e for e in errors(calls, obs, inputs, g))


@pytest.mark.parametrize("golden", [True, False])
def test_histogram_not_summing_to_samples_fails(golden):
    calls, obs, inputs, g = case("sim-large", golden)
    # Moving one count between bins keeps the sum: only the golden catches it.
    hist = obs[0]["histogram"]
    hist[20]["count"] = str(int(hist[20]["count"]) + 1)
    assert any("histogram counts sum" in e for e in errors(calls, obs, inputs, g))


@pytest.mark.parametrize("golden", [True, False])
def test_missing_required_column_fails(golden):
    calls, obs, inputs, g = case("sim-large", golden)
    del obs[0]["out"][0]["mean_log_T"]
    assert any("required column 'mean_log_T' missing" in e for e in errors(calls, obs, inputs, g))


@pytest.mark.parametrize("golden", [True, False])
def test_dropped_optional_column_passes(golden):
    calls, obs, inputs, g = case("sim-large", golden)
    del obs[0]["out"][0]["viol_denes"]
    assert errors(calls, obs, inputs, g) == []


@pytest.mark.parametrize("golden", [True, False])
def test_wrong_T_fails(golden):
    calls, obs, inputs, g = case("analyze-1e6", golden)
    out = obs[0]["out"]
    out["T"] = str(2 * int(out["T"]))
    assert any("T = " in e for e in errors(calls, obs, inputs, g))


def test_wrong_num_cyclic_fails():
    calls, obs, inputs, _ = case("analyze-1e6", golden=False)
    obs[0]["out"]["num_cyclic"] += 1
    assert any("num_cyclic" in e for e in errors(calls, obs, inputs, None))


def test_changed_input_fails():
    calls, obs, inputs, g = case("analyze-1e6")
    inputs["mapping_sha256"] = "0" * 64
    assert any("mapping_sha256" in e for e in errors(calls, obs, inputs, g))


def test_brute_force_fail_line_fails():
    calls, obs, inputs, _ = case("analytic", golden=False)
    obs[1]["brute_force"][3] = obs[1]["brute_force"][3].replace("PASS", "FAIL")
    assert any("FAIL" in e for e in errors(calls, obs, inputs, None))


@pytest.mark.parametrize("rel, ok", [(1e-12, True), (1e-6, False)])
def test_float_tolerance(rel, ok):
    calls, obs, inputs, g = case("analytic")
    row = obs[0]["out"][1]
    row["log_E_B"] = repr(float(row["log_E_B"]) * (1 + rel))
    assert (errors(calls, obs, inputs, g) == []) == ok


def test_changed_optional_value_fails():
    calls, obs, inputs, g = case("sim-large")
    obs[0]["out"][0]["crosscheck_max_rel"] = "0.001"
    assert any("crosscheck_max_rel" in e for e in errors(calls, obs, inputs, g))


def test_malformed_output_fails():
    calls, obs, inputs, _ = case("sim-large", golden=False)
    obs[0]["out"][0]["samples"] = "many"
    assert errors(calls, obs, inputs, None)
