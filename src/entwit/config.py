"""Shared tolerances, the input checks and the rows of the polynomial identities.

Every quantity handled by this package is O(1) to O(10^2), so absolute
tolerances are used throughout.  The table below is the only setting: no
function takes a per-call override, except the bisection tolerance ``tol``
of ``optimize.min_eigenvalue`` (``cmatrix --tol``).  The CLI echoes the
table under ``meta.tolerances``.

Every integer parameter of the library (a dimension, a cutoff, a truncation
order, a grid size, an exponent) goes through :func:`_as_int`, and every
real one through :func:`_as_real`, and :func:`_refuse_oversize` refuses a
request too large for memory; none of them imports numpy.

``_IDENTITY_ROWS`` is data, not a setting: each builtin identity
``sum_k (L_k . x)^n = sum_k (R_k . x)^n`` as its left and right rows, stated
once for the ``polyid`` proof and the ``witnesses`` evaluation.
"""

from __future__ import annotations

import math
import numbers
import os
from itertools import chain
from typing import Any

__all__ = ["Tolerances", "DEFAULT"]


class _Frozen:
    """Slots-only base that refuses to set or delete an attribute; a
    constructor sets its fields with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class _Hashed:
    """Stands in a tuple for a value whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


class _Record(_Frozen):
    """Immutable value whose fields are the names in ``__match_args__``, set
    once by :meth:`_init`.  ``==``, ``hash``, ``repr`` and pickling go by type
    and fields, as a frozen data class's do; the standard module for those is
    not imported, as with ``inspect`` and ``ast`` it would be the largest part
    of what ``import entwit.cli`` costs.

    A record whose first field is a record starts a chain, such as the
    left-deep tree of a flat sum; ``==``, ``hash`` and ``repr`` walk it in a
    loop, with the results of the recursion through nested tuples, so a long
    chain does not recurse once per level."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _init(self, *values: Any) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def _spine(self) -> list:
        """This record and the records below it through first fields, in order."""
        spine = [self]
        while spine[-1].__match_args__:
            first = getattr(spine[-1], spine[-1].__match_args__[0])
            if not isinstance(first, _Record):
                break
            spine.append(first)
        return spine

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # down the first fields, then the other fields from the bottom up
        rests = []
        left, right = self, other
        while (left is not right and left.__class__ is right.__class__
               and isinstance(left, _Record) and left.__match_args__):
            lv, rv = left._values(), right._values()
            rests.append((lv[1:], rv[1:]))
            left, right = lv[0], rv[0]
        if not (left is right or left == right):
            return False
        return all(lv == rv for lv, rv in reversed(rests))

    def __hash__(self):
        spine = self._spine()
        h = hash(spine[-1]._values())
        for record in reversed(spine[:-1]):
            h = hash((_Hashed(h),) + record._values()[1:])
        return h

    def _repr(self, texts) -> str:
        fields = ", ".join(f"{name}={text}" for name, text in zip(self.__match_args__, texts))
        return f"{type(self).__qualname__}({fields})"

    def __repr__(self) -> str:
        spine = self._spine()
        text = spine[-1]._repr(map(repr, spine[-1]._values()))
        for record in reversed(spine[:-1]):
            text = record._repr(chain((text,), map(repr, record._values()[1:])))
        return text

    def __reduce__(self):
        return type(self), self._values()


class Tolerances(_Record):
    __slots__ = __match_args__ = ("state_norm", "density_atol", "eigenvalue_floor", "hermitian",
                                  "variance_clamp", "violation", "ratio_guard", "tail_mass")

    def __init__(self,
                 state_norm: float = 1e-12,       # pure-state normalization
                 density_atol: float = 1e-12,     # density Hermiticity / trace deviation
                 eigenvalue_floor: float = 1e-10,  # most negative admissible density eigenvalue
                 hermitian: float = 1e-10,        # observable Hermiticity (max-abs deviation)
                 variance_clamp: float = 1e-6,    # variances below -this are an error
                 violation: float = 1e-9,         # witness violation threshold on delta
                 ratio_guard: float = 1e-12,      # smallest denominator for the V ratio
                 tail_mass: float = 1e-12):       # truncation tail bound for cutoff rules
        self._init(state_norm, density_atol, eigenvalue_floor, hermitian,
                   variance_clamp, violation, ratio_guard, tail_mass)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.__match_args__, self._values()))


DEFAULT = Tolerances()

# Rows (L, R) of sum_k (L_k . x)^n = sum_k (R_k . x)^n, x = (ab, ab', a'b, a'b'):
# |(a + ia')(b + ib')|^2 = (a^2 + a'^2)(b^2 + b'^2) at n = 2, and the power sums
# that hold at n = 2 and n = 4.
_IDENTITY_ROWS = {
    "complex_norm": (((1, 0, 0, -1), (0, 1, 1, 0)),
                     ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    "ramanujan": (((1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, -1)),
                  ((0, 1, -1, 0), (1, 0, 1, 1), (1, 1, 0, 1))),
}


def _as_int(value: Any, name: str) -> int:
    """``value`` as an int.  Only Python and numpy integers pass (numpy
    registers its integer types as :class:`numbers.Integral`); a bool, a
    float or a string is rejected with a ValueError naming ``name``, not cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def _as_real(value: Any, name: str) -> float:
    """``value`` as a finite float.  Only Python and numpy reals pass; a bool,
    a string or a non-finite value is rejected, not cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name!r} must be a real number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name!r} must be finite, got {value!r}")
    return out


# Arrays of the state's size held at once, the state included: two to build
# it; two partial products A_i v of a moment table and, for fourth moments,
# one more (the products themselves are formed a small block at a time).
_WORKING_COPIES = 4


def _refuse_oversize(nbytes: int, what: str) -> None:
    """Raise ValueError, before allocating, when a state of ``nbytes`` and its
    working copies would take more than half of the machine's physical
    memory.  Skipped where the platform does not report physical memory."""
    try:
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    except (AttributeError, ValueError, OSError):
        return
    need = _WORKING_COPIES * nbytes
    if need > budget:
        raise ValueError(f"{what} needs {need / 2**30:.3g} GiB with its working copies, "
                         f"more than half of this machine's physical memory "
                         f"({budget / 2**30:.3g} GiB)")
