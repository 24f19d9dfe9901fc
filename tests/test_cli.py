"""Command-line interface: JSON reports, schema conformance, exit codes."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from entwit.cli import run

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
        ["bell", "--parties", "40", "--condition", "variance"],
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


def test_eval_error_reports_offset(capsys):
    assert run(["eval", "--expr-lhs", "a + q", "--expr-rhs", "a"]) == 1
    err = capsys.readouterr().err
    assert "unknown identifier 'q'" in err and "offset 4" in err


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


# --- import hygiene: each subcommand loads only what it runs -----------------


def loaded_after(code):
    """Run ``code`` in a fresh interpreter; return the numpy and entwit
    modules it left in ``sys.modules``."""
    report = ("\nimport json, sys\n"
              "json.dump(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('numpy', 'entwit')), sys.stderr)")
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


def test_cmatrix_loads_neither_polyid_nor_witnesses():
    loaded = loaded_after("from entwit.cli import run\n"
                          "assert run(['cmatrix', '--n', '50']) == 0")
    assert "entwit.optimize" in loaded
    assert not loaded & {"entwit.polyid", "entwit.witnesses"}


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
