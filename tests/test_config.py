"""The fixed tolerance table and the parameter rules stated once in ``config``."""

from __future__ import annotations

import contextlib
import copy
import io
import pickle

import pytest

from entwit.cli import run
from entwit.config import DEFAULT, Tolerances
from entwit.optimize import vmax_from_lambda
from entwit.states import StateSpec, squeezed_cutoff, squeezed_vacuum, vacuum_mixture


def test_tolerance_table_is_fixed():
    with pytest.raises(TypeError):
        Tolerances(violation=1e-6)
    with pytest.raises(TypeError):
        Tolerances(1e-12)
    assert Tolerances() == DEFAULT and hash(Tolerances()) == hash(DEFAULT)
    with pytest.raises(AttributeError):
        DEFAULT.violation = 1e-6
    for copied in (copy.copy(DEFAULT), pickle.loads(pickle.dumps(DEFAULT))):
        assert copied == DEFAULT and copied.as_dict() == DEFAULT.as_dict()


def error_text(call):
    """What ``call`` reports: for an argv list, the stderr of ``run`` (which
    must exit 1 and print nothing to stdout); for a thunk, the ValueError
    message it raises, as ``run`` would print it."""
    if isinstance(call, list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(call) == 1
        assert out.getvalue() == ""
        return err.getvalue()
    with pytest.raises(ValueError) as info:
        call()
    return f"error: {info.value}\n"


@pytest.mark.parametrize("call,message", [
    (["cmatrix", "--n", "5", "--p", "1.5"], "mixing weight must lie in [0, 1], got 1.5"),
    (lambda: vmax_from_lambda(-0.01, 2), "mixing weight must lie in [0, 1], got 2.0"),
    (lambda: vacuum_mixture(1.5, [0.6, 0.8]), "mixture weight must lie in [0, 1], got 1.5"),
    (lambda: StateSpec("psi2", {"c0": 1.2}).build(),
     "psi2 coefficient c0 must lie in [0, 1], got 1.2"),
    (lambda: squeezed_vacuum(1.0), "squeezing parameter must satisfy |lambda| < 1, got 1.0"),
    (lambda: squeezed_vacuum(-1.0, cutoff=4),
     "squeezing parameter must satisfy |lambda| < 1, got -1.0"),
    (lambda: squeezed_cutoff(1.0), "squeezing parameter must satisfy |lambda| < 1, got 1.0"),
    (lambda: squeezed_cutoff(-1), "squeezing parameter must satisfy |lambda| < 1, got -1.0"),
], ids=["cmatrix-p", "vmax-p", "vacuum_mixture-p", "psi2-c0", "squeezed_vacuum",
        "squeezed_vacuum-cutoff", "squeezed_cutoff", "squeezed_cutoff-int"])
def test_each_shared_rule_keeps_its_message(call, message):
    assert error_text(call) == f"error: {message}\n"
