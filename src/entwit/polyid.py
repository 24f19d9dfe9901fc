"""Exact polynomial identities in the four commuting scalars a, a', b, b'.

The separability conditions in :mod:`entwit.witnesses` rest on scalar
polynomial identities.  This module expands both sides exactly (Python
integer coefficients, a Fraction only where a caller supplies a rational
one; sparse exponent-vector representation) and decides equality term by
term -- no floating point anywhere.  One walk over the expression tree
serves both :func:`expand` and :func:`eval_expr`; they differ only in the
leaf map, which turns a variable or an integer into a ``Polynomial`` or a
``Fraction``.

Grammar for :func:`parse`::

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' power)?          # right-associative
    atom   := INT | VAR | '(' expr ')'
    INT    := [0-9]+                     # ASCII digits only
    VAR    := a | a' | b | b'

Precedence is ^ > unary minus > * > binary +/-, an explicit '*' is required
between factors, and power exponents must fold to non-negative integer
constants.  Every malformed input is a :class:`ParseError` at a character
offset: any other name (a run of word characters other than digits and '_',
then primes) is an unknown identifier, any other non-space character
(a non-ASCII digit such as '٣' included) is unexpected, and so are an
INT with more digits than ``int()`` converts and parentheses, unary minus
signs and powers nested more than 100 levels deep.  A run of ``+`` and
``-`` is one ``Sum`` node, with a sign per term, and a run of ``*`` one
``Product`` node, so a flat sum or product is not nesting: it may have any
length.
"""

from __future__ import annotations

import math
import numbers
import random
import re
import zlib
from fractions import Fraction
from typing import Mapping, Sequence

from .config import _IDENTITY_ROWS, _Frozen, _Record, _as_int, _refuse_oversize

__all__ = [
    "VARIABLES",
    "Polynomial",
    "ParseError",
    "Var", "IntLit", "Neg", "Sum", "Product", "Pow",
    "parse",
    "pretty",
    "expand",
    "eval_expr",
    "equal",
    "builtin_identity",
    "verify",
]

VARIABLES = ("a", "a'", "b", "b'")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

Exponent = tuple[int, int, int, int]
_ZERO_EXP: Exponent = (0, 0, 0, 0)
_TERM_BYTES = 200  # a term's exponent tuple, dict slot and int headers, digits aside


def _as_point(point: Sequence) -> tuple[Fraction, ...]:
    """The 4 coordinates of an evaluation point, as Fractions.  An int or a
    Fraction of any size passes, as does any other finite real; a bool, a
    string or a non-finite value is refused with a ValueError, not cast."""
    if len(point) != 4 or not all(
            not isinstance(v, bool) and (isinstance(v, numbers.Rational) or (
                isinstance(v, numbers.Real) and math.isfinite(v))) for v in point):
        raise ValueError(f"evaluation point must assign all 4 variables a finite real "
                         f"number, got {point!r}")
    return tuple(Fraction(v if isinstance(v, numbers.Rational) else float(v)) for v in point)


class Polynomial(_Frozen):
    """Sparse polynomial: map from length-4 exponent vectors to coefficients.

    An integer coefficient is a Python ``int``; a ``Fraction`` appears only
    where a caller supplies a coefficient that is not an integer (and in
    what arithmetic derives from it).  ``Fraction(k) == k`` and both hash
    alike, so equality and hashing do not depend on which type a
    coefficient has.  Instances are canonical (no zero coefficients stored)
    and immutable; arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponent, Fraction | int] | None = None):
        canonical: dict[Exponent, Fraction | int] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(e if type(e) is int else _as_int(e, "exponent") for e in exp)
            if len(exp) != 4 or any(e < 0 for e in exp):
                raise ValueError(f"exponent vector must be 4 non-negative integers, got {exp}")
            coeff = Fraction(coeff)
            if coeff.denominator == 1:
                coeff = coeff.numerator
            if coeff != 0:
                canonical[exp] = canonical.get(exp, 0) + coeff
                if canonical[exp] == 0:
                    del canonical[exp]
        object.__setattr__(self, "_terms", canonical)

    @classmethod
    def _nonzero(cls, terms: dict[Exponent, Fraction | int]) -> "Polynomial":
        """Wrap arithmetic output, already validated, dropping zero terms."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", {e: c for e, c in terms.items() if c})
        return poly

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls({_ZERO_EXP: value})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
        exp = [0, 0, 0, 0]
        exp[_VAR_INDEX[name]] = 1
        return cls({tuple(exp): 1})

    @property
    def terms(self) -> dict[Exponent, Fraction | int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self) -> Fraction | int | None:
        """The value if the polynomial is constant, else None."""
        if not self._terms:
            return 0
        if set(self._terms) == {_ZERO_EXP}:
            return self._terms[_ZERO_EXP]
        return None

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            out[exp] = out.get(exp, 0) + coeff
        return Polynomial._nonzero(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._nonzero({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other) if isinstance(other, Polynomial) else NotImplemented

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Exponent, Fraction | int] = {}
        get = out.get
        right = list(other._terms.items())
        for (a0, a1, a2, a3), c1 in self._terms.items():
            for (b0, b1, b2, b3), c2 in right:
                exp = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                out[exp] = get(exp, 0) + c1 * c2
        return Polynomial._nonzero(out)

    def _power_bytes(self, k: int) -> float:
        """An upper bound on the bytes of ``self ** k``, for ``self`` not 0.
        Its terms are at most the monomials of its degree and the multisets of
        k terms of ``self``.  With L the lcm of the denominators and S the sum
        of the absolute coefficients, each coefficient is an integer of at most
        (S L)^k over L^k: k log2(S L^2) bits, none for a power of 1 or -1."""
        coeffs = self._terms.values()
        scale = math.lcm(*(c.denominator for c in coeffs))
        # past 2^64, any power but that of a +-1 monomial needs over 2^61 bytes
        k, d, t = min(k, 2**64), max(map(sum, self._terms)), len(self._terms)
        terms = min(math.comb(k * d + 4, 4), math.comb(k + t - 1, t - 1), 2**64)
        bits = k * math.log2(int(sum(map(abs, coeffs)) * scale) * scale)
        return terms * (bits / 8 + _TERM_BYTES)

    def __pow__(self, k: int) -> "Polynomial":
        # a bool, float, Fraction or 0-d array is refused here, not cast, and not
        # handed to a reflected __rpow__ that would expand an integer-valued one;
        # Python and numpy integers pass
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise TypeError(f"polynomial power requires an integer exponent, got {k!r}")
        k = int(k)
        if k < 0:
            raise ValueError("polynomial power requires a non-negative exponent")
        if k > 1 and self._terms:  # refused before any term is formed
            _refuse_oversize(self._power_bytes(k),
                             f"a polynomial power of {k if k < 2**64 else 'over 2^64'}")
        result = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # the square past the top bit is never used
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        values = _as_point(point)
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            term = coeff
            for v, e in zip(values, exp):
                term *= v**e
            total += term
        return total

    def __repr__(self):
        if not self._terms:
            return "Polynomial(0)"
        bits = []
        for exp in sorted(self._terms, reverse=True):
            coeff = self._terms[exp]
            factors = [str(coeff)]
            for name, e in zip(VARIABLES, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            bits.append("*".join(factors))
        return "Polynomial(" + " + ".join(bits) + ")"


# --- AST ---------------------------------------------------------------


class Expr(_Record):
    __slots__ = ()


class Var(Expr):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        self._init(name)


class IntLit(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        value = _as_int(value, "value")
        if value < 0:
            raise ValueError("integer literals are unsigned; use Neg for negatives")
        self._init(value)


class Neg(Expr):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        self._init(operand)


class Sum(Expr):
    """``terms[0] ± terms[1] ± ...``, with one sign, 1 or -1, per term.  The
    first sign is 1: a leading minus is a ``Neg``.  A first term that is a
    ``Sum`` is merged into this one, as the parser's left association reads
    ``(a + b) + c``; any later term stays nested.  Each merge copies the
    first sum's tuples, so build a long sum from one collected term list:
    ``Sum(terms, signs)`` is linear, while ``e = Sum((e, x), (1, 1))`` in a
    loop is quadratic in the number of terms."""

    __slots__ = __match_args__ = ("terms", "signs")

    def __init__(self, terms: Sequence[Expr], signs: Sequence[int]):
        terms, signs = tuple(terms), tuple(signs)
        if (len(terms) < 2 or len(signs) != len(terms) or signs[0] != 1
                or any(type(s) is not int or s not in (1, -1) for s in signs)):
            raise ValueError(f"a sum needs two or more terms and one sign, 1 or -1, per term, "
                             f"the first 1; got {len(terms)} terms and the signs {signs}")
        if type(terms[0]) is Sum:
            terms, signs = terms[0].terms + terms[1:], terms[0].signs + signs[1:]
        self._init(terms, signs)


class Product(Expr):
    """``factors[0]*factors[1]*...``; a first factor that is a ``Product`` is
    merged into this one, as ``Sum`` merges a first term."""

    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: Sequence[Expr]):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError(f"a product needs two or more factors, got {len(factors)}")
        if type(factors[0]) is Product:
            factors = factors[0].factors + factors[1:]
        self._init(factors)


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        exponent = _as_int(exponent, "exponent")
        if exponent < 0:
            raise ValueError("power exponents must be non-negative integers")
        self._init(base, exponent)


class ParseError(ValueError):
    """Syntax or name error, carrying the character offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# One group per token class of the grammar; the bare \S catches any other
# non-space character.  ``re`` compiles the pattern on first use and caches it.
_TOKEN = r"(?P<INT>[0-9]+)|(?P<VAR>[^\W\d_]+'*)|(?P<SYM>[-+*^()])|\S"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in re.finditer(_TOKEN, text):
        kind, value, offset = match.lastgroup, match.group(), match.start()
        if kind is None:
            raise ParseError(f"unexpected character {value!r}", offset)
        if kind == "VAR" and value not in _VAR_INDEX:
            raise ParseError(f"unknown identifier {value!r}", offset)
        tokens.append((value if kind == "SYM" else kind, value, offset))
    tokens.append(("EOF", "", len(text)))
    return tokens


# Parentheses, unary minus signs and powers nested deeper than this are a
# ParseError: each level costs the parser up to six Python frames, the tree
# walks one or two, and the records' ==, hash and repr one or two, so the
# limit keeps them all well inside the interpreter's default recursion
# limit of 1000.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, parse, offset: int) -> Expr:
        """``parse()`` one level deeper, refused past ``_MAX_NESTING``."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"expression nested deeper than {_MAX_NESTING} levels", offset)
        self.depth += 1
        e = parse()
        self.depth -= 1
        return e

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} but found {tok[1] or 'end of input'!r}",
                             tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        terms, signs = [self.term()], [1]
        while self.peek()[0] in ("+", "-"):
            signs.append(1 if self.take()[0] == "+" else -1)
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else Sum(terms, signs)

    def term(self) -> Expr:
        factors = [self.unary()]
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.unary())
        return factors[0] if len(factors) == 1 else Product(factors)

    def unary(self) -> Expr:
        if self.peek()[0] == "-":
            return Neg(self.nested(self.unary, self.take()[2]))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.take()
        exp_offset = self.peek()[2]
        exponent_expr = self.nested(self.power, exp_offset)  # right-associative
        value = expand(exponent_expr).constant_value()
        if value is None or value.denominator != 1 or value < 0:
            raise ParseError("power exponent must fold to a non-negative integer",
                             exp_offset)
        return Pow(base, int(value))

    def atom(self) -> Expr:
        kind, text, offset = self.take()
        if kind == "INT":
            try:
                value = int(text)
            except ValueError:  # more digits than int() converts
                raise ParseError(f"integer literal of {len(text)} digits is too long",
                                 offset) from None
            return IntLit(value)
        if kind == "VAR":
            return Var(text)
        if kind == "(":
            e = self.nested(self.expr, offset)
            self.expect(")")
            return e
        raise ParseError(f"unexpected token {text or 'end of input'!r}", offset)


def parse(text: str) -> Expr:
    """Parse the string ``text`` into an AST; raises :class:`ParseError` with the offset."""
    if not isinstance(text, str):
        raise ValueError(f"'text' must be a string, got {text!r}")
    return _Parser(text).parse()


# How tightly each node type binds, for the parentheses pretty() adds.
_PRECEDENCE = {Var: 4, IntLit: 4, Pow: 3, Neg: 2, Product: 1, Sum: 0}


def _wrap(child: Expr, prec: int) -> str:
    """``pretty(child)``, in parentheses if it binds less tightly than ``prec``."""
    text = pretty(child)
    return f"({text})" if _PRECEDENCE[type(child)] < prec else text


def pretty(e: Expr) -> str:
    """Canonical text form; ``parse(pretty(e))`` reproduces ``e`` exactly."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Neg):
        return "-" + _wrap(e.operand, 2)
    if isinstance(e, Pow):
        return _wrap(e.base, 4) + f"^{e.exponent}"
    if isinstance(e, Sum):  # a later term that is a sum keeps its parentheses
        return _wrap(e.terms[0], 0) + "".join(
            (" + " if sign == 1 else " - ") + _wrap(term, 1)
            for sign, term in zip(e.signs[1:], e.terms[1:]))
    if isinstance(e, Product):
        return _wrap(e.factors[0], 1) + "".join("*" + _wrap(f, 2) for f in e.factors[1:])
    raise TypeError(f"not an expression node: {e!r}")


def _fold(e: Expr, leaf: dict):
    """Evaluate the tree bottom-up: each ``Var``/``IntLit`` through
    ``leaf[type(node)]``, then ``-``, ``** exponent``, ``+``, ``-`` and ``*``
    on whatever values the leaves give, left to right."""
    if isinstance(e, Sum):
        value = _fold(e.terms[0], leaf)
        for sign, term in zip(e.signs[1:], e.terms[1:]):
            value = value + _fold(term, leaf) if sign == 1 else value - _fold(term, leaf)
        return value
    if isinstance(e, Product):
        value = _fold(e.factors[0], leaf)
        for factor in e.factors[1:]:
            value = value * _fold(factor, leaf)
        return value
    if isinstance(e, Neg):
        return -_fold(e.operand, leaf)
    if isinstance(e, Pow):
        return _fold(e.base, leaf) ** e.exponent
    if type(e) in leaf:
        return leaf[type(e)](e)
    raise TypeError(f"not an expression node: {e!r}")


def expand(e: Expr) -> Polynomial:
    """Fully expanded canonical polynomial; its coefficients are exact ints."""
    return _fold(e, {Var: lambda v: Polynomial.variable(v.name),
                     IntLit: lambda c: Polynomial.constant(c.value)})


def eval_expr(e: Expr, point: Sequence[Fraction]) -> Fraction:
    """Evaluate the AST directly in ``Fraction`` arithmetic.

    The tree walk is :func:`expand`'s, but no polynomial arithmetic is done,
    so :func:`verify` still checks ``Polynomial``'s sparse arithmetic
    against ``Fraction``'s."""
    values = _as_point(point)
    return _fold(e, {Var: lambda v: values[_VAR_INDEX[v.name]],
                     IntLit: lambda c: Fraction(c.value)})


def equal(p: Polynomial, q: Polynomial) -> bool:
    """Exact term-by-term equality."""
    return p == q


_TRIALS = 20  # random rational points at which verify() cross-checks a verdict
_PRODUCTS = ("a*b", "a*b'", "a'*b", "a'*b'")  # the x of the power-sum rows


def _power_sum(rows: Sequence[Sequence[int]], n: int) -> Expr:
    """``sum_k (row_k . x)^n`` over ``x = (a*b, a*b', a'*b, a'*b')``."""
    forms = (" + ".join(f"{c}*{x}" for c, x in zip(row, _PRODUCTS) if c) for row in rows)
    return parse(" + ".join(f"({form})^{n}" for form in forms))


def builtin_identity(name: str, n: int | None = None) -> tuple[Expr, Expr]:
    """The two sides of a named identity, as ASTs, built from the rows of
    ``config._IDENTITY_ROWS`` that the witnesses evaluate.

    ``complex_norm`` is stated at n = 2 and refuses any other ``n`` (None
    means 2); ``ramanujan`` accepts any n >= 1 and leaves validity to
    :func:`verify` (it holds only for n = 2 and n = 4).
    """
    if name not in _IDENTITY_ROWS:
        raise ValueError(f"unknown identity {name!r}; expected one of {tuple(_IDENTITY_ROWS)}")
    n = None if n is None else _as_int(n, "n")
    if name == "complex_norm" and n not in (None, 2):
        raise ValueError(f"the complex-norm identity has the exponent n = 2 only, got n = {n}")
    n = 2 if name == "complex_norm" else n
    if n is None or n < 1:
        raise ValueError(f"the power-sum identity needs an exponent n >= 1, got {n!r}")
    return tuple(_power_sum(rows, n) for rows in _IDENTITY_ROWS[name])


def _sample_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    return tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(4))


def verify(name: str, n: int | None = None) -> bool:
    """Decide a builtin identity by exact expansion, cross-checked numerically.

    Both sides are evaluated at ``_TRIALS`` random rational points (seeded
    deterministically from the identity name and exponent); the sample must
    agree with the symbolic verdict, witnessing at least one disagreement
    when the verdict is false.
    """
    lhs, rhs = builtin_identity(name, n)
    verdict = equal(expand(lhs), expand(rhs))
    seed = zlib.crc32(f"{name}:{n}".encode())
    rng = random.Random(seed)
    witnessed = False
    for _ in range(_TRIALS):
        point = _sample_point(rng)
        agree = eval_expr(lhs, point) == eval_expr(rhs, point)
        if verdict and not agree:
            raise RuntimeError(f"symbolic equality of {name!r} contradicted at {point}")
        if not agree:
            witnessed = True
    if not verdict and not witnessed:
        raise RuntimeError(f"no numeric witness found for the inequality of {name!r}; "
                           f"symbolic expansion disagrees with sampling")
    return verdict
