"""Command-line interface: JSON reports, schema conformance, exit codes."""

from __future__ import annotations

import gc
import json
import math
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import cli
from entwit.cli import run

from _support import rng, round_floats

with resources.files("entwit").joinpath(
        "schemas/report_document.schema.json").open(encoding="utf-8") as _h:
    SCHEMA = json.load(_h)

VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def invoke(capsys, *argv):
    """Run the CLI in-process; return (exit code, parsed stdout, stderr)."""
    code = run(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if code == 0 and captured.out else None
    if doc is not None:
        VALIDATOR.validate(doc)
    return code, doc, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def walk_floats(node):
    if isinstance(node, bool):
        return
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from walk_floats(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_floats(value)


# --- happy paths -------------------------------------------------------------


def test_cmatrix_report(capsys):
    code, doc, _ = invoke(capsys, "cmatrix", "--n", "200")
    assert code == 0
    assert doc["command"] == "cmatrix"
    assert doc["inputs"] == {"n": 200, "p": 1.0, "tol": 1e-10}
    res = doc["results"]
    assert abs(res["lambda_min"] - (-0.04495375427909592)) < 1e-9
    assert abs(res["vmax"] - 1.2192371487761064) < 1e-9
    assert len(res["eigenvector_head"]) == 8
    assert res["eigenvector_head"][0] > 0.9  # dominated by the lowest level
    assert doc["meta"]["tolerances"]["violation"] == 1e-9


def test_cmatrix_default_tolerance_output_frozen(capsys):
    code, doc, _ = invoke(capsys, "cmatrix", "--n", "200")
    assert code == 0
    assert doc["results"] == {
        "lambda_min": -0.0449537542791,
        "eigenvector_head": [0.995874887735, 0.089536629992, 0.0144357812492,
                             0.00276729034291, 0.000577302508792, 0.000126651899886,
                             2.87301823639e-05, 6.67444576025e-06],
        "vmax": 1.21923714878,
    }


def test_cmatrix_oversized_tolerance_exits_1(capsys):
    # bisection to 1e3 would report an interior eigenvalue, 454.9
    assert run(["cmatrix", "--n", "200", "--tol", "1e3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not the smallest" in captured.err


def test_cmatrix_trivial_truncation(capsys):
    code, doc, _ = invoke(capsys, "cmatrix", "--n", "0")
    assert code == 0
    res = doc["results"]
    assert res["lambda_min"] == 0.0
    assert res["eigenvector_head"] == [1.0]
    assert res["vmax"] == 1.0


def test_psi2_scan_report(capsys):
    code, doc, _ = invoke(capsys, "psi2", "--scan", "9")
    assert code == 0
    scan = doc["results"]["scan"]
    assert len(scan["grid"]) == 9 and len(scan["values"]) == 9
    assert abs(scan["best"] - 1.198358336218877) < 1e-6
    assert abs(scan["argbest"] - 0.9965926760297167) < 1e-3


def test_mixture_report_matches_closed_form(capsys):
    code, doc, _ = invoke(capsys, "mixture", "--p", "0.7",
                          "--coeffs", "0.8,0.6")
    assert code == 0
    res = doc["results"]
    want = 0.25 + 0.7 * 1.68
    assert abs(res["closed_form_lhs"] - want) < 1e-12
    assert abs(res["report"]["lhs"] - want) < 1e-9
    assert res["report"]["violated"] is False
    assert doc["meta"]["cutoffs"] == {"state": 6}


def test_squeezed_report(capsys):
    code, doc, _ = invoke(capsys, "squeezed", "--lambda", "0.5")
    assert code == 0
    res = doc["results"]
    # the report quantizes floats to 12 significant digits
    assert abs(res["closed_form_v"] - 25.0 / 9.0) < 1e-10
    assert abs(res["report"]["V"] - res["closed_form_v"]) < 1e-6
    assert res["report"]["violated"] is True
    assert doc["meta"]["cutoffs"] == {"state": 20}


def test_bell_ramanujan_report(capsys):
    code, doc, _ = invoke(capsys, "bell", "--parties", "2",
                          "--condition", "ramanujan")
    assert code == 0
    assert doc["inputs"]["n"] == 2
    rep = doc["results"]["report"]
    assert abs(rep["lhs"] - 6.0) < 1e-9 and abs(rep["rhs"] - 2.0) < 1e-9
    assert rep["violated"] is True

    code, doc, _ = invoke(capsys, "bell", "--parties", "2",
                          "--condition", "ramanujan", "--n", "4")
    assert code == 0
    rep = doc["results"]["report"]
    assert abs(rep["lhs"] - 18.0) < 1e-9 and abs(rep["rhs"] - 2.0) < 1e-9


def test_bell_uffink_report(capsys):
    code, doc, _ = invoke(capsys, "bell", "--parties", "2",
                          "--condition", "uffink")
    assert code == 0
    assert "n" not in doc["inputs"]
    rep = doc["results"]["report"]
    assert abs(rep["lhs"] - 4.0) < 1e-9 and abs(rep["rhs"] - 4.0) < 1e-9
    assert rep["violated"] is False


def test_bell_variance_report(capsys):
    code, doc, _ = invoke(capsys, "bell", "--parties", "4",
                          "--condition", "variance")
    assert code == 0
    rep = doc["results"]["report"]
    assert rep["lhs"] < 1e-9 and abs(rep["rhs"] - 1.0) < 1e-9
    assert rep["violated"] is True

    code, doc, _ = invoke(capsys, "bell", "--parties", "3",
                          "--condition", "variance")
    assert code == 0
    rep = doc["results"]["report"]
    assert rep["lhs"] < 1e-6 and rep["rhs"] < 1e-12
    assert rep["violated"] is False


def test_sizes_beyond_dense_lifting(capsys):
    # a dense lifted operator here would take several GB (D = 132, side 2^14)
    code, doc, _ = invoke(capsys, "squeezed", "--lambda", "0.9")
    assert code == 0
    assert doc["meta"]["cutoffs"] == {"state": 132}
    res = doc["results"]
    assert abs(res["closed_form_v"] - 90.7506925208) < 1e-6
    assert abs(res["report"]["V"] - res["closed_form_v"]) < 1e-6

    code, doc, _ = invoke(capsys, "bell", "--parties", "14", "--condition", "variance")
    assert code == 0
    rep = doc["results"]["report"]
    assert rep["lhs"] < 1e-12 and abs(rep["rhs"] - 1.0) < 1e-12
    assert rep["violated"] is True


def test_schmidt_report(capsys):
    code, doc, _ = invoke(capsys, "schmidt", "--alpha", "0.6,0",
                          "--beta", "0.8,0")
    assert code == 0
    rep = doc["results"]["report"]
    assert rep["violated"] is True
    assert abs(rep["V"] - 1.0 / 0.0784) < 1e-8
    assert doc["inputs"] == {"alpha": [0.6, 0.0], "beta": [0.8, 0.0]}


def test_identity_reports(capsys):
    code, doc, _ = invoke(capsys, "identity", "--name", "complex_norm")
    assert code == 0
    assert doc["results"] == {"valid": True}
    assert "n" not in doc["inputs"]

    code, doc, _ = invoke(capsys, "identity", "--name", "ramanujan", "--n", "3")
    assert code == 0
    assert doc["results"] == {"valid": False}
    assert doc["inputs"] == {"name": "ramanujan", "n": 3}


def test_eval_reports(capsys):
    code, doc, _ = invoke(
        capsys, "eval",
        "--expr-lhs", "(a*b - a'*b')^2 + (a*b' + a'*b)^2",
        "--expr-rhs", "(a^2 + a'^2)*(b^2 + b'^2)")
    assert code == 0
    assert doc["results"] == {"equal": True}

    code, doc, _ = invoke(capsys, "eval", "--expr-lhs", "a", "--expr-rhs", "b")
    assert code == 0
    assert doc["results"] == {"equal": False}


# --- the witness subcommand --------------------------------------------------


def test_witness_spin_quadruple_on_bell(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "bell", "params": {"parties": 2}})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "variance_product")
    assert code == 0
    rep = doc["results"]["report"]
    assert rep["violated"] is True and rep["V"] is None
    assert doc["meta"]["cutoffs"] == {}  # two-level families have no cutoff

    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "variance_sum")
    assert code == 0
    rep = doc["results"]["report"]
    assert abs(rep["lhs"]) < 1e-12 and abs(rep["rhs"] - 2.0) < 1e-12


def test_witness_ramanujan_power_selection(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "bell", "params": {"parties": 2}})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy",
                      "n": 4})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "ramanujan")
    assert code == 0
    rep = doc["results"]["report"]
    assert abs(rep["lhs"] - 18.0) < 1e-9 and abs(rep["rhs"] - 2.0) < 1e-9


@pytest.mark.parametrize("bad,shown", [(2.5, "2.5"), (True, "True")])
def test_witness_refuses_non_integer_power(capsys, tmp_path, bad, shown):
    state = write_json(tmp_path, "state.json",
                       {"family": "bell", "params": {"parties": 2}})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy", "n": bad})
    assert run(["witness", "--state", state, "--ops", ops, "--condition", "ramanujan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: 'n' must be an integer, got {shown}\n"


def test_witness_multipartite_lists(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "bell", "params": {"parties": 3}})
    ops = write_json(tmp_path, "ops.json",
                     {"A": ["sx", "sx", "sx"], "Aprime": ["sy", "sy", "sy"]})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "multipartite")
    assert code == 0
    rep = doc["results"]["report"]
    assert rep["violated"] is False
    assert rep["details"]["n_parties"] == 3.0


def test_witness_quadratures_on_fock_pair(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "fock_pair", "params": {"c": [0.8, 0.6]},
                        "cutoff": 8})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "x", "Aprime": "p", "B": "p", "Bprime": "x"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "four_variance")
    assert code == 0
    assert doc["meta"]["cutoffs"] == {"state": 8}
    assert doc["inputs"]["state"]["family"] == "fock_pair"


def test_witness_block_spins_on_squeezed(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "squeezed", "params": {"lambda": 0.3}})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "blockx", "Aprime": "blocky",
                      "B": "blockx", "Bprime": "blocky"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "variance_product")
    assert code == 0
    assert doc["meta"]["cutoffs"] == {"state": 12}
    rep = doc["results"]["report"]
    want_v = ((1.0 + 0.09) / (1.0 - 0.09)) ** 2
    assert rep["violated"] is True
    assert abs(rep["V"] - want_v) < 1e-6


def test_witness_uffink_on_schmidt(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "schmidt",
                        "params": {"alpha": 0.6, "beta": 0.8}})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "uffink")
    assert code == 0
    rep = doc["results"]["report"]
    assert set(rep) == {"name", "lhs", "rhs", "delta", "V", "violated",
                        "details"}


# --- exit codes and diagnostics ----------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run(["cmatrix"]) == 2                      # missing --n
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["bell", "--parties", "3", "--condition", "ramanujan"]) == 2
    capsys.readouterr()
    assert run(["bell", "--parties", "4", "--condition", "uffink"]) == 2
    capsys.readouterr()
    assert run(["schmidt", "--alpha", "0.6", "--beta", "0.8,0"]) == 2
    err = capsys.readouterr().err
    assert "re,im" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cmatrix", "--n", "-1"],
        ["psi2", "--scan", "2"],
        ["mixture", "--p", "1.5", "--coeffs", "1"],
        ["mixture", "--p", "0.5", "--coeffs", "0.8,0.6", "--cutoff", "3"],
        ["squeezed", "--lambda", "1.0"],
        ["identity", "--name", "ramanujan"],
        ["eval", "--expr-lhs", "a +", "--expr-rhs", "a"],
    ],
)
def test_domain_errors_exit_1(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cmatrix_non_finite_tolerance_exits_1(capsys, tol):
    assert run(["cmatrix", "--n", "200", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # the dense two-mode state alone is 640 GB
        ["squeezed", "--lam", "0.5", "--cutoff", "200000"],
        # the pure component alone is 640 GB
        ["mixture", "--p", "0.5", "--coeffs", "0.8,0.6", "--cutoff", "200000"],
    ],
)
def test_oversized_states_refused_exit_1(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "physical memory" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("parties", [40, 1000, 1023])
def test_bell_past_the_dense_limit_runs_on_sparse_amplitudes(capsys, parties):
    # a dense 40-party state would take 16 TiB; the sparse one holds two entries
    code, doc, err = invoke(capsys, "bell", "--parties", str(parties), "--condition", "variance")
    assert code == 0 and err == ""
    report = doc["results"]["report"]
    even = parties % 2 == 0
    assert report["lhs"] == 0.0
    assert report["rhs"] == (1.0 if even else 0.0)
    assert report["violated"] is even


@pytest.mark.parametrize("parties", ["1024", "1000000000000"])
def test_multipartite_bound_past_the_float_range_exits_1(capsys, parties):
    # refused before the per-party operator lists are built
    assert run(["bell", "--parties", parties, "--condition", "variance"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert "at most 1023 parties" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["cmatrix", "--n", "1000000000000"],
        ["psi2", "--scan", "1000000000000"],
    ],
)
def test_oversized_solves_refused_exit_1(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "physical memory" in captured.err and "Traceback" not in captured.err


def test_cmatrix_tiny_tolerance_terminates(capsys):
    # once the bracket is one ulp wide it cannot shrink below 1e-300; run in
    # a child so that a bisection that never stops fails instead of hanging
    proc = subprocess.run(
        [sys.executable, "-m", "entwit.cli", "cmatrix", "--n", "5", "--tol", "1e-300"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    lam = json.loads(proc.stdout)["results"]["lambda_min"]
    code, doc, _ = invoke(capsys, "cmatrix", "--n", "5")
    assert code == 0
    assert abs(lam - doc["results"]["lambda_min"]) < 1e-12


def test_mixture_beyond_dense_density_size(capsys):
    # two 230 KB ensemble vectors where the density would take 3.3 GB
    code, doc, _ = invoke(capsys, "mixture", "--p", "0.5", "--coeffs", "0.8,0.6",
                          "--cutoff", "120")
    assert code == 0
    res = doc["results"]
    assert abs(res["report"]["lhs"] - res["closed_form_lhs"]) < 1e-9


def test_mixture_at_the_smallest_cutoff_matches_closed_form(capsys):
    # D = 2N + 3 leaves the two spare levels x and p reach from level 2N
    code, doc, _ = invoke(capsys, "mixture", "--p", "0.5", "--coeffs", "0.8,0.6",
                          "--cutoff", "5")
    assert code == 0
    res = doc["results"]
    assert abs(res["report"]["lhs"] - res["closed_form_lhs"]) < 1e-12
    assert res["report"]["violated"] is False


def test_eval_error_reports_offset(capsys):
    assert run(["eval", "--expr-lhs", "a + q", "--expr-rhs", "a"]) == 1
    err = capsys.readouterr().err
    assert "unknown identifier 'q'" in err and "offset 4" in err


def test_eval_reports_a_non_ascii_digit_at_its_offset(capsys):
    assert run(["eval", "--expr-lhs", "a^\u00b2", "--expr-rhs", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown identifier '\u00b2' at offset 2\n"


def test_eval_walks_a_long_flat_sum(capsys):
    code, doc, err = invoke(capsys, "eval", "--expr-lhs", "+".join(["a"] * 5000),
                            "--expr-rhs", "5000*a")
    assert (code, err) == (0, "")
    assert doc["results"] == {"equal": True}


def test_eval_refuses_deep_nesting_at_its_offset(capsys):
    assert run(["eval", "--expr-lhs", "(" * 500 + "a" + ")" * 500, "--expr-rhs", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression nested deeper than 100 levels at offset 100\n"


def test_eval_refuses_an_oversized_power_before_it_allocates(capsys):
    start = time.perf_counter()
    assert run(["eval", "--expr-lhs", "2^(10^12)", "--expr-rhs", "a"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a polynomial power of 1000000000000 needs 466 GiB")
    assert captured.err.count("\n") == 1


def test_witness_file_errors_exit_1(capsys, tmp_path):
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    missing = str(tmp_path / "nowhere.json")
    assert run(["witness", "--state", missing, "--ops", ops,
                "--condition", "uffink"]) == 1
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert run(["witness", "--state", str(broken), "--ops", ops,
                "--condition", "uffink"]) == 1
    capsys.readouterr()

    unknown = write_json(tmp_path, "state.json",
                         {"family": "w-state", "params": {}})
    assert run(["witness", "--state", unknown, "--ops", ops,
                "--condition", "uffink"]) == 1
    capsys.readouterr()


def test_witness_operator_mismatch_exits_1(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "fock_pair", "params": {"c": [1.0]},
                        "cutoff": 6})
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sz", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    assert run(["witness", "--state", state, "--ops", ops,
                "--condition", "uffink"]) == 1
    err = capsys.readouterr().err
    assert "two-level factor" in err


def test_witness_block_spins_need_an_even_cutoff(capsys, tmp_path):
    state = write_json(tmp_path, "state.json",
                       {"family": "fock_pair", "params": {"c": [1.0]}, "cutoff": 3})
    ops = write_json(tmp_path, "ops.json", {"A": "blockx", "Aprime": "blocky",
                                            "B": "blockx", "Bprime": "blocky"})
    assert run(["witness", "--state", state, "--ops", ops, "--condition", "uffink"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block_spin needs an even dim, got 3\n"


SPIN_OPS = {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"}


@pytest.mark.parametrize("parties,ops,condition,message", [
    (2, ["sx", "sy"], "uffink", "operator spec must be a JSON object"),
    (2, {**SPIN_OPS, "C": "sz"}, "uffink", "operator spec has unknown fields ['C']"),
    (2, {"A": "sx", "Aprime": "sy"}, "uffink", "operator spec is missing fields ['B', 'Bprime']"),
    (2, {**SPIN_OPS, "B": 3}, "uffink", "operator names must be strings, got 3"),
    (2, {**SPIN_OPS, "B": "sw"}, "uffink", "unknown builtin operator 'sw'"),
    (2, {"A": "sx", "Aprime": "sy"}, "multipartite", "needs lists under 'A' and 'Aprime'"),
    (2, {"A": ["sx"] * 3, "Aprime": ["sy"] * 3}, "multipartite",
     "need one operator name per factor (2 factors)"),
    (3, SPIN_OPS, "uffink", "condition 'uffink' is bipartite; state has 3 factors"),
    # non-string names of other types, last so that the rows above keep their ids
    (2, {**SPIN_OPS, "B": ["sy"]}, "uffink", "operator names must be strings, got ['sy']"),
    (2, {**SPIN_OPS, "B": {"sy": 1}}, "uffink",
     "operator names must be strings, got {'sy': 1}"),
])
def test_witness_refuses_bad_operator_specs(capsys, tmp_path, parties, ops, condition, message):
    state = write_json(tmp_path, "state.json", {"family": "bell", "params": {"parties": parties}})
    assert run(["witness", "--state", state, "--ops", write_json(tmp_path, "ops.json", ops),
                "--condition", condition]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv,message", [
    (["mixture", "--p", "0.5", "--coeffs", "1,x"], "expected comma-separated numbers"),
    (["schmidt", "--alpha", "1,x", "--beta", "0.8,0"], "expected 're,im' with numeric parts"),
    # an input the command would echo and then ignore
    (["identity", "--name", "complex_norm", "--n", "3"], "--n applies to --name ramanujan only"),
    (["bell", "--parties", "4", "--condition", "variance", "--n", "4"],
     "--n applies to --condition ramanujan only"),
    (["bell", "--parties", "2", "--condition", "uffink", "--n", "2"],
     "--n applies to --condition ramanujan only"),
])
def test_refused_arguments_exit_2(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_squeezed_echoes_its_cutoff(capsys):
    code, doc, _ = invoke(capsys, "squeezed", "--lambda", "0.5", "--cutoff", "24")
    assert code == 0
    assert doc["inputs"] == {"lambda": 0.5, "cutoff": 24}
    assert doc["meta"]["cutoffs"] == {"state": 24}


# --- output formatting -------------------------------------------------------


def test_floats_round_to_twelve_significant_digits(capsys):
    for argv in (["cmatrix", "--n", "50"],
                 ["squeezed", "--lambda", "0.7"],
                 ["psi2", "--scan", "5"]):
        code, doc, _ = invoke(capsys, *argv)
        assert code == 0
        floats = list(walk_floats(doc))
        assert floats
        for value in floats:
            assert value == float(f"{value:.12g}")
            assert math.isfinite(value)


def test_output_is_deterministic(capsys):
    code, _, _ = invoke(capsys, "psi2", "--scan", "7")
    assert code == 0
    first = run(["psi2", "--scan", "7"])
    out1 = capsys.readouterr().out
    second = run(["psi2", "--scan", "7"])
    out2 = capsys.readouterr().out
    assert first == second == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["cmatrix", "--help"], ["psi2", "--help"], ["mixture", "--help"],
        ["squeezed", "--help"], ["bell", "--help"], ["schmidt", "--help"],
        ["identity", "--help"], ["eval", "--help"], ["witness", "--help"],
    ],
)
def test_help_exits_zero(capsys, argv):
    assert run(argv) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "entwit.cli", "identity", "--name",
         "complex_norm"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    VALIDATOR.validate(doc)
    assert doc["results"] == {"valid": True}


def test_package_main_matches_cli_module():
    argv = ["identity", "--name", "complex_norm"]
    outputs = [subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, timeout=120)
               for module in ("entwit", "entwit.cli")]
    assert [proc.returncode for proc in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout


def test_run_leaves_the_freeze_count_unchanged(capsys):
    before = gc.get_freeze_count()
    for argv in (["cmatrix", "--n", "20"], ["cmatrix", "--n", "-1"], ["cmatrix"]):
        run(argv)
        assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_main_freezes_only_after_run_returns(monkeypatch):
    events = []

    def exit_(code):
        events.append(("exit", code))
        raise SystemExit(code)

    monkeypatch.setattr(cli, "run", lambda: events.append("run") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "exit", exit_)
    with pytest.raises(SystemExit):
        cli.main()
    assert events == ["run", "freeze", ("exit", 3)]


@pytest.mark.parametrize("argv,code", [
    (["cmatrix", "--n", "20"], 0),
    (["squeezed", "--lambda", "0.5"], 0),
    (["eval", "--expr-lhs", "a + q", "--expr-rhs", "a"], 1),
    (["cmatrix", "--n", "-1"], 1),
    (["cmatrix"], 2),
    ([], 2),
])
def test_module_children_match_in_process_run(capsys, argv, code):
    assert run(argv) == code
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "entwit", *argv],
                          capture_output=True, timeout=120)
    assert proc.returncode == code
    assert proc.stdout.decode() == captured.out
    assert proc.stderr.decode() == captured.err


def test_main_keeps_the_exit_handlers():
    # the process exits through the interpreter's own shutdown, so atexit
    # handlers (coverage.py's among them) still run after the freeze
    code = ("import atexit, sys; atexit.register(lambda: print('handler ran', file=sys.stderr)); "
            "from entwit.cli import main; main()")
    proc = subprocess.run([sys.executable, "-c", code, "cmatrix", "--n", "-1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: truncation order must be non-negative, got -1\nhandler ran\n"


def _float_list(seed: int, size: int) -> list[float]:
    """``size`` floats from subnormal to 1e300 in magnitude, with zeros of
    both signs."""
    gen = np.random.default_rng(seed)
    values = gen.standard_normal(size) * 10.0 ** gen.integers(-320, 300, size)
    values[gen.integers(0, size, 3)] = -0.0
    values[gen.integers(0, size, 3)] = 0.0
    return values.tolist()


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([-0.0, 1e16, 5e-324, 1.5e-310, 0.1 + 0.2, 123456789012.5,
                     "\u03c8\u2082 na\u00efve", "\U0001d4d2 \u2028"]))
_FLOAT_LISTS = st.builds(_float_list, st.integers(0, 2**32 - 1),
                         st.sampled_from([1, cli._SLICE, cli._SLICE + 1, 2 * cli._SLICE + 7]))
_DOCUMENTS = st.recursive(
    _SCALARS | _FLOAT_LISTS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
def test_writer_matches_rounded_json_dumps(doc):
    pieces: list[str] = []
    cli._write_json(doc, pieces.append)
    assert "".join(pieces) == json.dumps(round_floats(doc), indent=2)


def written(doc) -> str:
    pieces: list[str] = []
    cli._write_json(doc, pieces.append)
    return "".join(pieces)


_SPECIAL_FLOATS = ([0.0, -0.0, 1.0, -3.0, 2.0 ** 53, 1e300, math.nan, math.inf, -math.inf,
                    5e-324, -1.5e-310, 2.2250738585072014e-308, 1e-300, 1.5e-30, 1e-5, 1.5e-5,
                    123456789012.5, 999999999999.5]
                   + [sign * m * 10.0 ** e for e in range(12, 18)
                      for m in (1.0, 1.5, 9.9999999999996) for sign in (1.0, -1.0)])


def test_writer_matches_json_dumps_float_by_float():
    # one float per list, so each takes the one-join path or the fallback on its own
    bits = rng(61).integers(0, 2**64, size=20000, dtype=np.uint64)
    for value in _SPECIAL_FLOATS + bits.view(np.float64).tolist():
        assert written([value]) == json.dumps(round_floats([value]), indent=2)
        assert written({"x": [[value, 0.5]]}) == json.dumps(round_floats({"x": [[value, 0.5]]}),
                                                             indent=2)


def test_writer_falls_back_only_on_the_slices_that_need_it(monkeypatch):
    gen = rng(62)
    size = 3 * cli._SLICE
    # magnitudes 1e-4 to 1e4: 12 significant digits keep a fractional part
    values = (gen.standard_normal(size) * 10.0 ** gen.integers(-4, 4, size)).tolist()
    documents = [values[:cli._SLICE - 1] + [special] for special in _SPECIAL_FLOATS]
    values[cli._SLICE + 17] = -0.0       # the second slice takes the C encoder
    wants = [json.dumps(round_floats(doc), indent=2) for doc in documents]
    slices, dumps = [], json.dumps

    def recording(obj, **kwargs):
        slices.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", recording)
    for doc, want in zip(documents, wants):
        assert written(doc) == want
    assert 0 < len(slices) < len(documents)  # the others were written in one join
    del slices[:]
    assert written(values) == dumps(round_floats(values), indent=2)
    assert slices == [round_floats(values[cli._SLICE:2 * cli._SLICE])]


def test_psi2_document_is_written_in_bounded_pieces(monkeypatch):
    pieces: list[str] = []

    class Recorder:
        def write(self, text):
            pieces.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert run(["psi2", "--scan", "20000"]) == 0
    text = "".join(pieces)
    assert len(text) > 900_000
    assert max(map(len, pieces)) <= 256 << 10
    assert text == json.dumps(round_floats(json.loads(text)), indent=2) + "\n"


# --- import hygiene: each subcommand loads only what it runs -----------------


def loaded_after(code):
    """Run ``code`` in a fresh interpreter; return the numpy, entwit,
    dataclasses and inspect modules it left in ``sys.modules``."""
    report = ("\nimport json, sys\n"
              "json.dump(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('numpy', 'entwit', 'dataclasses', 'inspect')), sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code + report],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_importing_the_cli_loads_no_numpy():
    assert "numpy" not in loaded_after("import entwit.cli")


def test_identity_and_eval_run_without_numpy():
    loaded = loaded_after(
        "from entwit.cli import run\n"
        "assert run(['identity', '--name', 'ramanujan', '--n', '4']) == 0\n"
        "assert run(['eval', '--expr-lhs', \"(a*b - a'*b')^2 + (a*b' + a'*b)^2\",\n"
        "            '--expr-rhs', \"(a^2 + a'^2)*(b^2 + b'^2)\"]) == 0")
    assert "entwit.polyid" in loaded
    assert "numpy" not in loaded


def test_witnesses_load_no_polyid():
    loaded = loaded_after("import entwit.witnesses")
    assert "entwit.witnesses" in loaded
    assert "entwit.polyid" not in loaded


def test_cmatrix_loads_neither_polyid_nor_witnesses():
    loaded = loaded_after("from entwit.cli import run\n"
                          "assert run(['cmatrix', '--n', '50']) == 0")
    assert "entwit.optimize" in loaded
    assert not loaded & {"entwit.polyid", "entwit.witnesses"}


def test_cli_identity_and_eval_load_neither_dataclasses_nor_inspect():
    assert not loaded_after("import entwit.cli") & {"dataclasses", "inspect"}
    loaded = loaded_after(
        "from entwit.cli import run\n"
        "assert run(['identity', '--name', 'ramanujan', '--n', '4']) == 0\n"
        "assert run(['eval', '--expr-lhs', 'a*b', '--expr-rhs', 'b*a']) == 0")
    assert "entwit.polyid" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("code", [
    pytest.param("from entwit.cli import run\n"
                 "assert run(['squeezed', '--lambda', '0.5']) == 0",
                 id="squeezed-run"),
    "import entwit.witnesses",
])
def test_numpy_runs_load_no_dataclasses(code):
    loaded = loaded_after(code)
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_spin_family_runs_load_no_numpy():
    # bell and schmidt, and witness on a spin family with spin operators,
    # evaluate on sparse amplitudes
    loaded = loaded_after(
        "import json, tempfile, os\n"
        "from entwit.cli import run\n"
        "assert run(['bell', '--parties', '2', '--condition', 'ramanujan', '--n', '4']) == 0\n"
        "assert run(['bell', '--parties', '1000', '--condition', 'variance']) == 0\n"
        "assert run(['schmidt', '--alpha', '0.6,0', '--beta', '0,0.8']) == 0\n"
        "d = tempfile.mkdtemp()\n"
        "for name, doc in (('s.json', {'family': 'schmidt', 'params': {'alpha': 0.6, "
        "'beta': 0.8}}), ('o.json', {'A': 'sx', 'Aprime': 'sy', 'B': 'sz', 'Bprime': 'sx'})):\n"
        "    json.dump(doc, open(os.path.join(d, name), 'w'))\n"
        "assert run(['witness', '--state', os.path.join(d, 's.json'), '--ops',\n"
        "            os.path.join(d, 'o.json'), '--condition', 'uffink']) == 0")
    assert {"entwit.pauli", "entwit.conditions"} <= loaded
    assert not loaded & {"numpy", "entwit.hilbert", "entwit.witnesses", "entwit.states"}


def test_importing_the_cli_loads_no_new_module():
    assert not loaded_after("import entwit.cli") & {"entwit.pauli", "entwit.conditions"}


@pytest.mark.parametrize("argv", [["cmatrix", "--n", "50"], ["psi2", "--scan", "50"]])
def test_cmatrix_and_psi2_run_without_numpy(argv):
    loaded = loaded_after(f"from entwit.cli import run\nassert run({argv!r}) == 0")
    assert "entwit.optimize" in loaded
    assert not loaded & {"numpy", "entwit.hilbert"}


def test_cmatrix_refuses_bad_weight_before_the_solve(capsys, monkeypatch):
    import entwit.optimize

    def solve(*args):
        raise AssertionError("the eigen-solve ran before --p was checked")

    monkeypatch.setattr(entwit.optimize, "_eigenpair", solve)
    assert run(["cmatrix", "--n", "200000", "--p", "1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mixing weight must lie in [0, 1], got 1.5\n"


def test_reader_closing_early_leaves_no_traceback():
    # the reader closes the pipe before the document is written, as a `head`
    # that has read enough does; the command exits 1 without a traceback
    with subprocess.Popen([sys.executable, "-m", "entwit.cli", "cmatrix", "--n", "20000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("spec,field", [
    ({"family": "bell", "params": {"parties": 2.7}}, "parties"),
    ({"family": "bell", "params": {"parties": "3"}}, "parties"),
    ({"family": "bell", "params": {"parties": True}}, "parties"),
    ({"family": "bell", "params": {"parties": None}}, "parties"),
    ({"family": "squeezed", "params": {"lambda": 0.3}, "cutoff": 8.9}, "cutoff"),
    ({"family": "squeezed", "params": {"lambda": 0.3}, "cutoff": "8"}, "cutoff"),
])
def test_witness_rejects_non_integer_state_fields(capsys, tmp_path, spec, field):
    state = write_json(tmp_path, "state.json", spec)
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    assert run(["witness", "--state", state, "--ops", ops,
                "--condition", "uffink"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"'{field}' must be an integer" in captured.err


@pytest.mark.parametrize("spec,field", [
    ({"family": "squeezed", "params": {"lambda": "0.5"}}, "lambda"),
    ({"family": "psi2", "params": {"c0": True}}, "c0"),
    ({"family": "vacuum_mixture", "params": {"p": "0.5", "c": [1.0]}}, "p"),
    ({"family": "fock_pair", "params": {"c": ["1"]}}, "c"),
    ({"family": "schmidt", "params": {"alpha": True, "beta": 0.0}}, "alpha"),
    ({"family": "schmidt", "params": {"alpha": 1.0, "beta": [0.0, "0"]}}, "beta"),
])
def test_witness_rejects_non_real_state_fields(capsys, tmp_path, spec, field):
    state = write_json(tmp_path, "state.json", spec)
    # the state is built, and refused, before the operators are read
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    assert run(["witness", "--state", state, "--ops", ops,
                "--condition", "uffink"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"'{field}' must be a real number" in captured.err


@pytest.mark.parametrize("spec,message", [
    ({"family": "bell", "params": 5}, "error: state params must be a mapping, got 5\n"),
    ({"family": ["bell"]}, "error: unknown state family ['bell']; expected one of "),
    # a cutoff the spin families would echo and ignore
    ({"family": "bell", "params": {"parties": 3}, "cutoff": 5},
     "error: family 'bell' has no Fock cutoff, got 5\n"),
    ({"family": "schmidt", "params": {"alpha": 0.6, "beta": 0.8}, "cutoff": 5},
     "error: family 'schmidt' has no Fock cutoff, got 5\n"),
])
def test_witness_refuses_state_fields_of_the_wrong_type(capsys, tmp_path, spec, message):
    state = write_json(tmp_path, "state.json", spec)
    ops = write_json(tmp_path, "ops.json",
                     {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    assert run(["witness", "--state", state, "--ops", ops,
                "--condition", "uffink"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


# --- one evaluation path -----------------------------------------------------


def handler_results(*argv):
    """The unrounded ``results`` of the handler a command line selects."""
    args = cli._build_parser().parse_args(list(argv))
    return cli._HANDLERS[args.command](args)[1]


@pytest.mark.parametrize("N", [0, 1, 200, 2000])
def test_cmatrix_results_equal_the_public_solve(N):
    from entwit import c_matrix, min_eigenvalue, vmax_from_lambda

    lam, vec = min_eigenvalue(c_matrix(N))
    assert handler_results("cmatrix", "--n", str(N)) == {
        "lambda_min": lam, "eigenvector_head": vec[:8].tolist(),
        "vmax": vmax_from_lambda(lam)}


def test_psi2_results_equal_the_public_scan():
    from entwit import psi2_scan

    assert handler_results("psi2", "--scan", "41") == {"scan": psi2_scan(41).to_json()}


def test_witness_builds_each_named_operator_once(capsys, tmp_path, monkeypatch):
    import entwit.operators

    built, blocks = [], []
    build, block = entwit.operators.builtin_operator, entwit.operators._block_spin

    def counting_build(name, dim):
        built.append((name, dim))
        return build(name, dim)

    def counting_block(dim, name):
        blocks.append(name)
        return block(dim, name)

    monkeypatch.setattr(entwit.operators, "builtin_operator", counting_build)
    monkeypatch.setattr(entwit.operators, "_block_spin", counting_block)
    state = write_json(tmp_path, "state.json",
                       {"family": "squeezed", "params": {"lambda": 0.5}})
    ops = write_json(tmp_path, "ops.json", {"A": "blockx", "Aprime": "blocky",
                                            "B": "blockx", "Bprime": "blocky"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "variance_product")
    dim = doc["meta"]["cutoffs"]["state"]
    assert code == 0 and built == [("blockx", dim), ("blocky", dim)]
    assert blocks == ["blockx", "blocky"]  # the block Z is never built


def test_block_spin_requests_hold_only_the_named_operators():
    import tracemalloc

    dim = 400
    cli._builtin_operators([("blockx", 2)])  # imports outside the trace
    tracemalloc.start()
    try:
        ops = cli._builtin_operators([("blockx", dim), ("blocky", dim)] * 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({id(op) for op in ops}) == 2 and ops[0] is ops[2]
    assert peak < 3 * 16 * dim * dim


def test_witness_resolves_the_squeezed_cutoff_once(capsys, tmp_path, monkeypatch):
    import entwit.states

    calls = []
    original = entwit.states.squeezed_cutoff

    def counting(lam):
        calls.append(lam)
        return original(lam)

    monkeypatch.setattr(entwit.states, "squeezed_cutoff", counting)
    state = write_json(tmp_path, "state.json",
                       {"family": "squeezed", "params": {"lambda": 0.5}})
    ops = write_json(tmp_path, "ops.json", {"A": "blockx", "Aprime": "blocky",
                                            "B": "blockx", "Bprime": "blocky"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "uffink")
    assert code == 0 and calls == [0.5]
    assert doc["meta"]["cutoffs"] == {"state": original(0.5)}


@pytest.mark.parametrize("preset,spec,ops,condition", [
    (["squeezed", "--lambda", "0.7"],
     {"family": "squeezed", "params": {"lambda": 0.7}},
     {"A": "blockx", "Aprime": "blocky", "B": "blockx", "Bprime": "blocky"},
     "variance_product"),
    (["mixture", "--p", "0.5", "--coeffs", "0.8,0.6"],
     {"family": "vacuum_mixture", "params": {"p": 0.5, "c": [0.8, 0.6]}},
     {"A": "x", "Aprime": "p", "B": "p", "Bprime": "x"},
     "variance_product"),
    (["bell", "--parties", "4", "--condition", "variance"],
     {"family": "bell", "params": {"parties": 4}},
     {"A": ["sx"] * 4, "Aprime": ["sy"] * 4},
     "multipartite"),
])
def test_presets_report_what_witness_reports(capsys, tmp_path, preset, spec, ops, condition):
    code, doc, _ = invoke(capsys, *preset)
    assert code == 0
    code, wdoc, _ = invoke(capsys, "witness",
                           "--state", write_json(tmp_path, "state.json", spec),
                           "--ops", write_json(tmp_path, "ops.json", ops),
                           "--condition", condition)
    assert code == 0
    assert doc["results"]["report"] == wdoc["results"]["report"]
    assert doc["meta"]["cutoffs"] == wdoc["meta"]["cutoffs"]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The ``entwit`` lines of the README's command block, continuations
    joined, as argument lists without the program name."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("entwit ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli._HANDLERS)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "state.json", {"family": "bell", "params": {"parties": 2}})
    write_json(tmp_path, "ops.json", {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"})
    for argv in commands:
        code, doc, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        assert doc["command"] == argv[0]
    # and every Python example runs, its assertions included
    blocks = [block.split("```", 1)[0]
              for block in README.read_text(encoding="utf-8").split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
