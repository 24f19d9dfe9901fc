"""Exact polynomial layer: parser offsets, expansion, and identity checks."""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from entwit import (
    ParseError,
    Polynomial,
    builtin_identity,
    equal,
    eval_expr,
    expand,
    parse,
    pretty,
    verify,
)
from entwit import polyid
from entwit.polyid import Add, IntLit, Mul, Neg, Pow, Sub, Var, _tokenize

F = Fraction


# --- parsing -----------------------------------------------------------------


def test_parse_ast_structure():
    assert parse("a") == Var("a")
    assert parse("a'") == Var("a'")
    assert parse("12") == IntLit(12)
    assert parse("a*b - a'*b'") == Sub(
        Mul(Var("a"), Var("b")), Mul(Var("a'"), Var("b'"))
    )
    assert parse("-a + b") == Add(Neg(Var("a")), Var("b"))
    assert parse("(a + b)^2") == Pow(Add(Var("a"), Var("b")), 2)


def test_parse_precedence_and_associativity():
    # '*' binds tighter than '+', '^' tighter than unary '-'
    assert parse("a + b*a'") == Add(Var("a"), Mul(Var("b"), Var("a'")))
    assert parse("-a^2") == Neg(Pow(Var("a"), 2))
    # left-assoc chains
    assert parse("a - b - a'") == Sub(Sub(Var("a"), Var("b")), Var("a'"))


def test_parse_exponent_constant_folding():
    # exponents are folded at parse time, right-associatively
    assert parse("2^3^2") == Pow(IntLit(2), 9)
    assert expand(parse("2^3^2")).constant_value() == 512
    assert parse("a^(1+1)") == Pow(Var("a"), 2)
    assert expand(parse("a^0")) == Polynomial.constant(1)


@pytest.mark.parametrize(
    "text, offset, fragment",
    [
        ("a b", 2, "unexpected token 'b'"),
        ("c", 0, "unknown identifier 'c'"),
        ("a''", 0, 'unknown identifier "a\'\'"'),
        ("a^-1", 2, "unexpected token '-'"),
        ("a^(-1)", 2, "must fold to a non-negative integer"),
        ("a^b", 2, "must fold to a non-negative integer"),
        ("(a+b", 4, "expected ')'"),
        ("", 0, "unexpected token 'end of input'"),
        ("1/2", 1, "unexpected character '/'"),
        # INT is ASCII digits only: other numerals are no literal
        ("a^\u00b2", 2, "unknown identifier '\u00b2'"),
        ("\u0663*a", 0, "unexpected character '\u0663'"),
        ("a +\u00a0\u0663", 4, "unexpected character '\u0663'"),
    ],
)
def test_parse_errors_carry_offsets(text, offset, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert fragment in str(exc.value)
    assert f"at offset {offset}" in str(exc.value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() converts any number of digits here")
def test_integer_literal_beyond_the_digit_limit_is_a_parse_error():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError, match=f"literal of {len(digits)} digits is too long") as exc:
        parse("a^" + digits)
    assert exc.value.offset == 2


def test_tokens_and_offsets():
    # tabs, Unicode spaces and the control separators \x1c-\x1f separate tokens
    assert _tokenize("a'*\t(b'\u00a0+ 12)^2\x1c") == [
        ("VAR", "a'", 0), ("*", "*", 2), ("(", "(", 4), ("VAR", "b'", 5), ("+", "+", 8),
        ("INT", "12", 10), (")", ")", 12), ("^", "^", 13), ("INT", "2", 14), ("EOF", "", 16)]
    assert _tokenize(" \u3000") == [("EOF", "", 2)]


# --- expansion ---------------------------------------------------------------


def test_expand_binomial_square():
    p = expand(parse("(a + b)^2"))
    assert p.terms == {
        (2, 0, 0, 0): F(1),
        (1, 0, 1, 0): F(2),
        (0, 0, 2, 0): F(1),
    }


def test_expand_commutator_square():
    p = expand(parse("(a*b - a'*b')^2"))
    assert p.terms == {
        (2, 0, 2, 0): F(1),
        (1, 1, 1, 1): F(-2),
        (0, 2, 0, 2): F(1),
    }


def test_expand_cancellation_yields_zero():
    assert expand(parse("(a + b)*(a - b) - a^2 + b^2")).is_zero()


@pytest.mark.parametrize("operation", [
    lambda p: p + 1, lambda p: 1 + p, lambda p: p - 1, lambda p: 2 - p, lambda p: p * 1.5,
    lambda p: 1.5 * p, lambda p: p + "a", lambda p: p * F(1, 2),
    lambda p: p ** True, lambda p: p ** 2.0, lambda p: p ** "2", lambda p: p ** F(2),
    lambda p: p ** np.array(2),
], ids=["add-int", "radd-int", "sub-int", "rsub-int", "mul-float", "rmul-float", "add-str",
        "mul-fraction", "pow-bool", "pow-float", "pow-str", "pow-fraction", "pow-0d-array"])
def test_polynomial_operators_refuse_an_operand_of_another_type(operation):
    with pytest.raises(TypeError):
        operation(expand(parse("a + b")))


def test_polynomial_power_takes_python_and_numpy_integers():
    p = expand(parse("a + b"))
    square = expand(parse("(a + b)^2"))
    assert p ** 2 == p ** np.int64(2) == p ** np.uint8(2) == square
    assert p ** np.int64(0) == Polynomial.constant(1)
    with pytest.raises(ValueError, match="non-negative"):
        p ** -1
    with pytest.raises(ValueError, match="non-negative"):
        p ** np.int64(-1)


def _random_expr(gen: random.Random, depth: int):
    if depth == 0 or gen.random() < 0.3:
        if gen.random() < 0.5:
            return Var(gen.choice(("a", "a'", "b", "b'")))
        return IntLit(gen.randrange(0, 7))
    kind = gen.choice(("add", "sub", "mul", "neg", "pow"))
    if kind == "neg":
        return Neg(_random_expr(gen, depth - 1))
    if kind == "pow":
        return Pow(_random_expr(gen, depth - 1), gen.randrange(0, 4))
    left = _random_expr(gen, depth - 1)
    right = _random_expr(gen, depth - 1)
    return {"add": Add, "sub": Sub, "mul": Mul}[kind](left, right)


def test_expand_is_a_ring_homomorphism():
    # expanding then evaluating must agree with direct AST evaluation
    gen = random.Random(2024)
    for _ in range(60):
        e = _random_expr(gen, 4)
        point = tuple(F(gen.randint(-9, 9), gen.randint(1, 5)) for _ in range(4))
        assert expand(e).evaluate(point) == eval_expr(e, point)


def _node_kinds(e):
    yield type(e)
    for child in e._values():
        if isinstance(child, polyid.Expr):
            yield from _node_kinds(child)


def test_eval_expr_matches_python_on_the_printed_tree():
    # Python's own evaluator shares no code with the walk that expand and
    # eval_expr both use, so a dispatch fault in that walk shows here
    gen = random.Random(4242)
    kinds = set()
    for _ in range(200):
        e = _random_expr(gen, 4)
        kinds.update(_node_kinds(e))
        point = tuple(F(gen.randint(-9, 9), gen.randint(1, 5)) for _ in range(4))
        names = dict(zip(("a", "ap", "b", "bp"), point))
        text = pretty(e).replace("^", "**").replace("'", "p")
        assert eval(text, {"__builtins__": {}}, names) == eval_expr(e, point), text
    assert kinds == {Var, IntLit, Neg, Add, Sub, Mul, Pow}


def test_pretty_round_trips_exactly():
    gen = random.Random(77)
    for _ in range(80):
        e = _random_expr(gen, 4)
        assert parse(pretty(e)) == e
    for name, n in (("complex_norm", None), ("ramanujan", 2), ("ramanujan", 3)):
        lhs, rhs = builtin_identity(name, n)
        assert parse(pretty(lhs)) == lhs
        assert parse(pretty(rhs)) == rhs


# --- identities --------------------------------------------------------------


def test_complex_norm_identity_holds():
    lhs, rhs = builtin_identity("complex_norm")
    assert equal(expand(lhs), expand(rhs))
    assert verify("complex_norm") is True


@pytest.mark.parametrize("n, holds", [(1, False), (2, True), (3, False), (4, True)])
def test_power_sum_identity_holds_only_for_2_and_4(n, holds):
    lhs, rhs = builtin_identity("ramanujan", n)
    assert equal(expand(lhs), expand(rhs)) is holds
    assert verify("ramanujan", n) is holds


@pytest.mark.parametrize("name, n", [
    *(pytest.param("ramanujan", n, id=str(n)) for n in (1, 2, 3, 4)),
    pytest.param("complex_norm", 2, id="complex_norm-2"),
])
def test_power_sum_identity_is_built_from_the_config_rows(name, n):
    from entwit.config import _IDENTITY_ROWS

    assert set(_IDENTITY_ROWS) == {"ramanujan", "complex_norm"}  # every name is a case
    x = [Polynomial.variable(u) * Polynomial.variable(v)
         for u in ("a", "a'") for v in ("b", "b'")]

    def power_sum(rows):
        total = Polynomial.constant(0)
        for row in rows:
            form = Polynomial.constant(0)
            for c, xp in zip(row, x):
                form = form + Polynomial.constant(c) * xp
            total = total + form ** n
        return total

    lhs, rhs = builtin_identity(name, n)
    assert expand(lhs) == power_sum(_IDENTITY_ROWS[name][0])
    assert expand(rhs) == power_sum(_IDENTITY_ROWS[name][1])


@pytest.mark.parametrize("n", [1, 3, 4, True, 2.0])
def test_complex_norm_refuses_an_exponent_it_does_not_have(n):
    with pytest.raises(ValueError, match="'n'|n = "):
        builtin_identity("complex_norm", n)
    with pytest.raises(ValueError, match="'n'|n = "):
        verify("complex_norm", n)


def test_complex_norm_is_the_identity_at_n_2():
    assert builtin_identity("complex_norm", 2) == builtin_identity("complex_norm")
    assert verify("complex_norm", 2) is True


def test_power_sum_n1_difference_is_explicit():
    lhs, rhs = builtin_identity("ramanujan", 1)
    diff = expand(lhs) - expand(rhs)
    # lhs - rhs = 2*a'*b - 2*a'*b'
    assert diff.terms == {(0, 1, 1, 0): F(2), (0, 1, 0, 1): F(-2)}


def test_identity_registry_validation():
    with pytest.raises(ValueError, match="unknown identity"):
        builtin_identity("pythagoras")
    with pytest.raises(ValueError, match="n >= 1"):
        builtin_identity("ramanujan")
    with pytest.raises(ValueError, match="n >= 1"):
        builtin_identity("ramanujan", 0)
    with pytest.raises(ValueError):
        verify("ramanujan", -2)


@pytest.mark.parametrize("name,n,wrong,message", [
    ("complex_norm", None, False, "no numeric witness"),
    ("ramanujan", 3, True, "contradicted"),
])
def test_verify_refuses_a_verdict_the_sample_contradicts(monkeypatch, name, n, wrong, message):
    monkeypatch.setattr(polyid, "equal", lambda p, q: wrong)
    with pytest.raises(RuntimeError, match=message):
        verify(name, n)


@pytest.mark.parametrize("bad", [2.5, "4", True])
def test_identity_exponent_is_rejected_not_cast(bad):
    with pytest.raises(ValueError, match="'n' must be an integer"):
        verify("ramanujan", bad)


# --- Polynomial edge cases ---------------------------------------------------


@pytest.mark.parametrize("text", ["2^(10^12)", "(2*a)^(10^12)", "2^2^(10^12)",
                                  "(a + b)^(10^12)", "(a - b)^(10^5000)"])
def test_an_oversized_power_is_refused_before_it_allocates(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="a polynomial power of .* needs .* GiB"):
        expand(parse(text))
    assert time.perf_counter() - start < 1.0


def test_a_rational_power_counts_its_denominators():
    half = Polynomial({(1, 0, 0, 0): F(1, 2), (0, 1, 0, 0): F(-1, 2)})
    assert half._power_bytes(10**12) > 2**40
    with pytest.raises(ValueError, match="a polynomial power of 1000000000000"):
        half ** 10**12
    assert (half ** 3).terms[(3, 0, 0, 0)] == F(1, 8)


@pytest.mark.parametrize("text, terms", [
    ("a^(10^12)", {(10**12, 0, 0, 0): 1}),
    ("(-a*b)^(10^12 + 1)", {(10**12 + 1, 0, 10**12 + 1, 0): -1}),
    ("1^(10^12)", {(0, 0, 0, 0): 1}),
    ("0^(10^12)", {}),
    ("2^(10^4)", {(0, 0, 0, 0): 2**10**4}),
])
def test_a_power_of_one_term_still_expands(text, terms):
    assert expand(parse(text)).terms == terms


def test_polynomial_repr():
    assert repr(Polynomial()) == "Polynomial(0)"
    assert repr(expand(parse("3*a^2*b - 1"))) == "Polynomial(3*a^2*b + -1)"


def test_unknown_variables_are_refused():
    with pytest.raises(ValueError, match="unknown variable 'c'"):
        Polynomial.variable("c")
    with pytest.raises(ValueError, match="unknown variable 'c'"):
        Var("c")


@pytest.mark.parametrize("walk", [expand, pretty, lambda e: eval_expr(e, (0, 0, 0, 0))])
def test_tree_walks_refuse_a_non_node(walk):
    for bad in ("a", polyid.Expr()):
        with pytest.raises(TypeError, match="not an expression node"):
            walk(bad)


@pytest.mark.parametrize("walk", [expand, pretty, lambda e: eval_expr(e, (0, 0, 0, 0))])
def test_tree_walks_refuse_a_non_node_inside_a_chain(walk):
    for bad in (Add(Mul(polyid.Expr(), Var("a")), Var("b")),
                Sub(Add(Var("a"), Var("b")), "c")):
        with pytest.raises(TypeError, match="not an expression node"):
            walk(bad)


@pytest.mark.parametrize("op,value", [("+", 5000), ("-", -4998), ("*", 1)])
def test_a_long_flat_chain_walks_without_recursing(op, value):
    # the parser builds a flat chain left-deep; 5000 levels would exceed the
    # interpreter's recursion limit if each were a call
    text = op.join(["a"] * 5000)
    e = parse(text)
    assert eval_expr(e, (1, 0, 0, 0)) == value
    assert expand(e) == (Polynomial({(5000, 0, 0, 0): 1}) if op == "*"
                         else Polynomial({(1, 0, 0, 0): value}))
    assert pretty(e) == text.replace(op, f" {op} " if op != "*" else op)
    assert pretty(parse(pretty(e))) == pretty(e)


def test_a_chain_under_a_product_keeps_its_parentheses():
    e = parse("(a + b)*(a - b)*b' + a' + a")
    assert pretty(e) == "(a + b)*(a - b)*b' + a' + a"
    assert pretty(parse("((a + b)*a + b)*a")) == "((a + b)*a + b)*a"
    assert expand(parse("((a + b)*a + b)*a")) == expand(parse("a^3 + b*a^2 + b*a"))


@pytest.mark.parametrize("text,offset", [
    ("(" * 101 + "a" + ")" * 101, 100),
    ("(" * 500 + "a" + ")" * 500, 100),
    ("-" * 101 + "a", 100),
    ("a + (" * 101 + "a" + ")" * 101, 5 * 100 + 4),
    ("a" + "^1" * 101, 202),
    # a unary minus is a level too: 60 + 2 * 20 levels before the 21st "-"
    ("b - (a*" * 60 + "-(" * 41 + "a" + ")" * 101, 7 * 60 + 2 * 20),
])
def test_nesting_past_the_limit_is_a_parse_error_at_its_offset(text, offset):
    with pytest.raises(ParseError, match=f"nested deeper than 100 levels at offset {offset}$"):
        parse(text)


def test_nesting_at_the_limit_parses_and_walks():
    for text in ("(" * 100 + "a" + ")" * 100, "-" * 100 + "a",
                 "a + (" * 100 + "b" + ")" * 100, "a" + "^1" * 100,
                 "-(" * 50 + "a*b" + ")" * 50):
        e = parse(text)
        assert pretty(parse(pretty(e))) == pretty(e)
        assert expand(e).evaluate((2, 3, 5, 7)) == eval_expr(e, (2, 3, 5, 7))


def test_polynomial_constant_and_zero():
    assert Polynomial().is_zero()
    assert Polynomial().constant_value() == F(0)
    assert Polynomial.constant(F(3, 7)).constant_value() == F(3, 7)
    assert Polynomial.variable("b'").constant_value() is None


def test_polynomial_power_edges():
    p = Polynomial.variable("a") + Polynomial.constant(2)
    assert p**0 == Polynomial.constant(1)
    with pytest.raises(ValueError, match="non-negative"):
        p ** (-1)


def test_polynomial_construction_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial({(1, 0, 0): F(1)})
    with pytest.raises(ValueError):
        Polynomial({(1, 0, 0, -1): F(1)})


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_polynomial_exponent_is_rejected_not_cast(bad):
    with pytest.raises(ValueError, match="'exponent' must be an integer"):
        Polynomial({(bad, 0, 0, 0): 1})


@pytest.mark.parametrize("make,name", [
    (lambda: IntLit(True), "value"),
    (lambda: IntLit(2.5), "value"),
    (lambda: Pow(Var("a"), True), "exponent"),
    (lambda: Pow(Var("a"), 1.5), "exponent"),
])
def test_ast_integers_are_rejected_not_cast(make, name):
    with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
        make()


def test_ast_integers_accept_numpy_integers():
    assert Pow(Var("a"), np.int64(2)) == Pow(Var("a"), 2)
    assert IntLit(np.int32(7)) == IntLit(7)
    assert type(Pow(Var("a"), np.int64(2)).exponent) is int
    with pytest.raises(ValueError, match="unsigned"):
        IntLit(-1)
    with pytest.raises(ValueError, match="non-negative"):
        Pow(Var("a"), -1)


@pytest.mark.parametrize("bad", [5, None, b"a*b", ["a"]])
def test_parse_refuses_a_non_string(bad):
    with pytest.raises(ValueError, match="'text' must be a string"):
        parse(bad)


def test_polynomial_accepts_numpy_integer_exponents():
    p = Polynomial({(np.int64(2), 0, np.int32(1), 0): 3})
    assert p == expand(parse("3*a^2*b"))
    assert all(type(e) is int for exp in p.terms for e in exp)


def test_polynomial_drops_zero_coefficients():
    p = Polynomial({(1, 0, 0, 0): F(0), (0, 1, 0, 0): F(2)})
    assert p.terms == {(0, 1, 0, 0): F(2)}
    assert (p - p).is_zero()


def test_polynomial_is_immutable_and_hashable():
    p = Polynomial.variable("a")
    with pytest.raises(AttributeError):
        p._terms = {}
    q = Polynomial.variable("a")
    assert p == q and hash(p) == hash(q)
    assert (p == 5) is False


def test_polynomial_evaluate_needs_four_values():
    p = Polynomial.variable("a")
    with pytest.raises(ValueError, match="all 4 variables"):
        p.evaluate([F(1), F(2)])
    assert p.evaluate([F(5), F(0), F(0), F(0)]) == F(5)


# --- coefficient types -------------------------------------------------------


def test_expansion_coefficients_are_ints():
    for text in ("(a + a' + b + b')^6", "(a*b - a'*b')^2 - 3*(a - b')^3", "2^3^2"):
        coefficients = expand(parse(text)).terms.values()
        assert coefficients and all(type(c) is int for c in coefficients)


def test_integer_fraction_equals_int_coefficient():
    exp = (1, 0, 2, 0)
    p, q = Polynomial({exp: F(2)}), Polynomial({exp: 2})
    assert p == q and hash(p) == hash(q)
    assert type(p.terms[exp]) is int


def test_fraction_coefficient_survives_products_and_powers():
    half = Polynomial.constant(F(1, 2))
    cube = expand(parse("(a+b)^3"))
    assert (half * cube).terms == {
        (3, 0, 0, 0): F(1, 2), (2, 0, 1, 0): F(3, 2),
        (1, 0, 2, 0): F(3, 2), (0, 0, 3, 0): F(1, 2),
    }
    assert (half * expand(parse("a+b"))) ** 3 == Polynomial.constant(F(1, 8)) * cube
    assert ((half * expand(parse("a+b"))) ** 3).terms[(2, 0, 1, 0)] == F(3, 8)


def test_product_that_cancels_is_dropped():
    # the cross terms a*b and -a*b cancel inside the product
    p = expand(parse("a + b")) * expand(parse("a - b"))
    assert p.terms == {(2, 0, 0, 0): 1, (0, 0, 2, 0): -1}
    half_b = Polynomial.constant(F(1, 2)) * Polynomial.variable("b")
    a = Polynomial.variable("a")
    assert ((a + half_b) * (a - half_b)).terms == {(2, 0, 0, 0): 1, (0, 0, 2, 0): F(-1, 4)}
