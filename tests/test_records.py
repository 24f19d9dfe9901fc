"""The immutable value classes: construction, immutability, equality, hashing
and output, checked against frozen dataclasses with the same fields."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random

import pytest

from entwit.cli import run
from entwit.config import DEFAULT, Tolerances
from entwit.hilbert import ComplexMatrix, QuantumState
from entwit.operators import QuadraturePair, quadratures
from entwit.optimize import ScanResult, TridiagonalMatrix
from entwit.polyid import IntLit, Neg, Polynomial, Pow, Product, Sum, Var, parse
from entwit.states import StateSpec
from entwit.witnesses import WitnessReport

_Q = quadratures(4)

# class, its fields in constructor order, and make(k): make(0) twice gives
# two equal objects, make(1) one that differs in a field
CASES = [
    (Tolerances, ("state_norm", "density_atol", "eigenvalue_floor", "hermitian",
                  "variance_clamp", "violation", "ratio_guard", "tail_mass"),
     lambda k: Tolerances(violation=(1e-9, 1e-6)[k])),
    (QuadraturePair, ("x", "p", "dim"), lambda k: QuadraturePair(_Q.x, _Q.p, 4 + k)),
    (StateSpec, ("family", "params", "cutoff"),
     lambda k: StateSpec("bell", {"parties": 2 + k})),
    (WitnessReport, ("name", "lhs", "rhs", "delta", "V", "violated", "details"),
     lambda k: WitnessReport("uffink", 1.0, 2.0, 1.0 + k, None, True, {"m_AB": 0.5})),
    (TridiagonalMatrix, ("diag", "offdiag"), lambda k: TridiagonalMatrix([1.0, 2.0 + k], [0.5])),
    (ScanResult, ("grid", "values", "argbest", "best"),
     lambda k: ScanResult([0.25, 0.75], [1.0, 2.0], 0.5, 2.0 + k)),
    (Var, ("name",), lambda k: Var("ab"[k])),
    (IntLit, ("value",), lambda k: IntLit(k)),
    (Neg, ("operand",), lambda k: Neg(Var("ab"[k]))),
    (Sum, ("terms", "signs"), lambda k: Sum((Var("a"), IntLit(k)), (1, 1))),
    (Sum, ("terms", "signs"), lambda k: Sum((Var("a"), IntLit(k)), (1, -1))),
    (Product, ("factors",), lambda k: Product((Var("a"), IntLit(k)))),
    (Pow, ("base", "exponent"), lambda k: Pow(Var("a"), 2 + k)),
]


def outcome(thunk):
    """What ``thunk()`` returns, or the type of what it raises."""
    try:
        return "returns", thunk()
    except Exception as exc:
        return "raises", type(exc)


def case_id(case):
    """The class name, with a sum that has a minus sign as a row of its own."""
    cls, _, make = case
    return cls.__name__ + ("-difference" if -1 in getattr(make(0), "signs", ()) else "")


@pytest.mark.parametrize("cls,fields,make", CASES, ids=map(case_id, CASES))
def test_record_contract(cls, fields, make):
    a, same, other = make(0), make(0), make(1)
    values = [getattr(a, name) for name in fields]
    assert cls.__match_args__ == fields

    # positional and keyword construction build the same object
    assert repr(cls(*values)) == repr(cls(**dict(zip(fields, values)))) == repr(a)

    # immutable, with no instance dict to add attributes to
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert not hasattr(a, "__dict__")

    # ==, != , hash and repr as a frozen dataclass with the same fields gives
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)

    def ref(obj):
        return reference(*(getattr(obj, name) for name in fields))

    for x, y in ((a, a), (a, same), (a, other)):
        rx, ry = ref(x), ref(y)
        assert outcome(lambda: x == y) == outcome(lambda: rx == ry)
        assert outcome(lambda: x != y) == outcome(lambda: rx != ry)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(rx))
        assert repr(x) == repr(rx)
    assert (a == object()) is False

    # copies rebuild through the constructor
    assert repr(copy.copy(a)) == repr(a)
    if cls is not QuadraturePair:  # a ComplexMatrix does not pickle
        assert repr(pickle.loads(pickle.dumps(a))) == repr(a)


@pytest.mark.parametrize("make", [
    lambda: ComplexMatrix([[1.0, 0.0], [0.0, -1.0]]),
    lambda: QuantumState.pure([1.0, 0.0], (2,)),
    lambda: Polynomial.variable("a"),
], ids=["ComplexMatrix", "QuantumState", "Polynomial"])
def test_value_classes_refuse_assignment_and_deletion(make):
    obj = make()
    message = f"{type(obj).__name__} is immutable"
    for name in type(obj).__slots__:
        value = getattr(obj, name)
        with pytest.raises(AttributeError, match=message):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=message):
            delattr(obj, name)
        assert getattr(obj, name) is value
    assert not hasattr(obj, "__dict__")


def test_expression_nodes_differ_by_type():
    x, y = Var("a"), Var("b")
    nodes = [Sum((x, y), (1, 1)), Sum((x, y), (1, -1)), Product((x, y)), Product((y, x))]
    for i, left in enumerate(nodes):
        for j, right in enumerate(nodes):
            assert (left == right) is (i == j)
    assert len({Sum((x, y), (1, 1)), Sum([Var("a"), Var("b")], [1, 1]), nodes[1]}) == 2
    assert Neg(x) != Pow(x, 1) and Var("a") != IntLit(0)


def test_keyword_construction_with_defaults():
    loose = Tolerances(violation=1e-6)
    assert loose.violation == 1e-6
    assert loose.as_dict() == {**DEFAULT.as_dict(), "violation": 1e-6}
    assert Tolerances() == DEFAULT and loose != DEFAULT

    spec = StateSpec(family="bell", params={"parties": 2})
    assert spec.cutoff is None and spec == StateSpec("bell", {"parties": 2}, None)
    assert StateSpec("bell").params == {}

    first = WitnessReport(name="v", lhs=0.0, rhs=1.0, delta=1.0, V=None, violated=True)
    second = WitnessReport("v", 0.0, 1.0, 1.0, None, True)
    assert first.details == {} and first == second
    assert first.details is not second.details


def test_tolerance_table_in_the_printed_order(capsys):
    names = ["state_norm", "density_atol", "eigenvalue_floor", "hermitian",
             "variance_clamp", "violation", "ratio_guard", "tail_mass"]
    assert list(DEFAULT.as_dict()) == names
    assert run(["identity", "--name", "complex_norm"]) == 0
    printed = json.loads(capsys.readouterr().out)["meta"]["tolerances"]
    assert list(printed.items()) == list(DEFAULT.as_dict().items())
    reference = dataclasses.make_dataclass("Tolerances", names, frozen=True)(
        *(getattr(DEFAULT, name) for name in names))
    assert json.dumps(DEFAULT.as_dict()) == json.dumps(dataclasses.asdict(reference))


def test_witness_report_json_copies_details():
    details = {"m_AB": 0.5, "m_ApBp": -0.25}
    report = WitnessReport("uffink", 1.0, 2.0, 1.0, 0.5, True, details)
    out = report.to_json()
    assert out == {"name": "uffink", "lhs": 1.0, "rhs": 2.0, "delta": 1.0, "V": 0.5,
                   "violated": True, "details": details}
    reference = dataclasses.make_dataclass("WitnessReport", report.__match_args__, frozen=True)
    assert json.dumps(out) == json.dumps(dataclasses.asdict(
        reference(*(getattr(report, name) for name in report.__match_args__))))
    assert out["details"] is not report.details and report.to_json() is not out
    out["details"]["m_AB"] = 9.0
    assert report.details["m_AB"] == 0.5


# --- trees of records: a flat sum or product is one node -------------------------

_REFERENCES = {cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
               for cls, fields, _ in CASES}


def nested_reference(obj):
    """``obj`` rebuilt as nested frozen dataclasses, whose ``==``, ``hash`` and
    ``repr`` recurse through tuples of the fields."""
    if isinstance(obj, tuple):
        return tuple(map(nested_reference, obj))
    if type(obj) not in _REFERENCES:
        return obj
    return _REFERENCES[type(obj)](*(nested_reference(getattr(obj, name))
                                    for name in obj.__match_args__))


def random_expression(gen: random.Random, depth: int) -> str:
    if depth == 0 or gen.random() < 0.3:
        return gen.choice(["a", "b", "a'", "b'", "2", "0", "13"])
    pick = gen.random()
    if pick < 0.5:
        return (random_expression(gen, depth - 1) + gen.choice([" + ", " - ", "*"])
                + random_expression(gen, depth - 1))
    if pick < 0.7:
        return f"({random_expression(gen, depth - 1)})"
    if pick < 0.85:
        return "-" + random_expression(gen, depth - 1)
    return f"({random_expression(gen, depth - 1)})^{gen.randint(0, 3)}"


def test_small_trees_compare_hash_and_print_as_nested_tuples():
    gen = random.Random(7)
    trees = [parse(random_expression(gen, 5)) for _ in range(120)]
    trees += [parse(text) for text in ("a", "a + b", "a + b", "b + a", "--a", "a*b + a")]
    trees += [Sum((1, 2), (1, 1)), Sum((1, 2), (1, 1)), Sum((Var("a"), 1.5), (1, -1)),
              Product((1, 2)), Neg(Neg(IntLit(1))), Neg(Neg("x"))]
    refs = [nested_reference(tree) for tree in trees]
    for tree, ref in zip(trees, refs):
        assert hash(tree) == hash(ref)
        assert repr(tree) == repr(ref)
    for x, rx in zip(trees, refs):
        for y, ry in zip(trees, refs):
            assert (x == y) is (rx == ry)
            assert (x != y) is (rx != ry)


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_a_long_chain_compares_hashes_and_prints_without_recursing(op):
    text = op.join(["a"] * 5000)
    e, same = parse(text), parse(text)
    assert len(e._values()[0]) == 5000
    assert e == same and not e != same
    assert hash(e) == hash(same)
    assert repr(e) == repr(same)
    assert repr(e).count("Var(name='a')") == 5000
    assert e != parse(text + op + "b") and e != parse("b" + text[1:])
    assert e != parse(text[:-1] + "b")
    assert len({e, same, parse(text[:-1] + "b")}) == 2
