"""Command-line interface: JSON reports, schema conformance, exit codes."""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import cli
from entwit.cli import run

from _support import round_floats

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
                 "assert run(['schmidt', '--alpha', '0.6,0', '--beta', '0.8,0']) == 0",
                 id="schmidt-run"),
    "import entwit.witnesses",
])
def test_numpy_runs_load_no_dataclasses(code):
    loaded = loaded_after(code)
    assert "numpy" in loaded and "dataclasses" not in loaded


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


def test_witness_builds_each_operator_group_once(capsys, tmp_path, monkeypatch):
    import entwit.operators

    calls = []
    original = entwit.operators.block_spin

    def counting(dim):
        calls.append(dim)
        return original(dim)

    monkeypatch.setattr(entwit.operators, "block_spin", counting)
    state = write_json(tmp_path, "state.json",
                       {"family": "squeezed", "params": {"lambda": 0.5}})
    ops = write_json(tmp_path, "ops.json", {"A": "blockx", "Aprime": "blocky",
                                            "B": "blockx", "Bprime": "blocky"})
    code, doc, _ = invoke(capsys, "witness", "--state", state, "--ops", ops,
                          "--condition", "variance_product")
    assert code == 0 and calls == [doc["meta"]["cutoffs"]["state"]]


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


def readme_commands() -> list[list[str]]:
    """The ``entwit`` lines of the README's command block, continuations
    joined, as argument lists without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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
