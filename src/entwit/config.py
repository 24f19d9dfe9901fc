"""Shared tolerances, the input checks and the rows of the polynomial identities.

Every quantity handled by this package is O(1) to O(10^2), so absolute
tolerances are used throughout.  The table below is the only setting, and
it is fixed: ``Tolerances()`` takes no argument, every module reads the one
instance ``DEFAULT``, and nothing overrides it.  No function takes a
per-call tolerance, except the bisection tolerance ``tol`` of
``optimize.min_eigenvalue`` (``cmatrix --tol``).  The CLI echoes the table
under ``meta.tolerances``.

Every integer parameter of the library (a dimension, a cutoff, a truncation
order, a grid size, an exponent) goes through :func:`_as_int`, and every
real one through :func:`_as_real`; a weight in [0, 1] goes through
:func:`_as_unit` and a squeezing parameter through :func:`_as_squeezing`,
so each rule and its message are stated once.  :func:`_refuse_oversize`
refuses a request too large for memory; none of them imports numpy.

``_IDENTITY_ROWS`` is data, not a setting: each builtin identity
``sum_k (L_k . x)^n = sum_k (R_k . x)^n`` as its left and right rows, stated
once for the ``polyid`` proof and the ``witnesses`` evaluation.
"""

from __future__ import annotations

import math
import numbers
import os
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


class _Record(_Frozen):
    """Immutable value whose fields are the names in ``__match_args__``, set
    once by :meth:`_init`.  ``==``, ``hash``, ``repr`` and pickling go by type
    and the tuple of fields, as a frozen data class's do; the standard module
    for those is not imported, as with ``inspect`` and ``ast`` it would be the
    largest part of what ``import entwit.cli`` costs.  A field that holds a
    record recurses into it, a frame or two per level: the parser bounds the
    nesting of an expression tree, and a flat sum is one record."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _init(self, *values: Any) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Tolerances(_Record):
    __slots__ = __match_args__ = ("state_norm", "density_atol", "eigenvalue_floor", "hermitian",
                                  "variance_clamp", "violation", "ratio_guard", "tail_mass")

    def __init__(self) -> None:
        self._init(1e-12,   # pure-state normalization
                   1e-12,   # density Hermiticity / trace deviation
                   1e-10,   # most negative admissible density eigenvalue
                   1e-10,   # observable Hermiticity (max-abs deviation)
                   1e-6,    # variances below -this are an error
                   1e-9,    # witness violation threshold on delta
                   1e-12,   # smallest denominator for the V ratio
                   1e-12)   # truncation tail bound for cutoff rules

    def __reduce__(self):
        return type(self), ()

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


def _as_unit(value: Any, name: str, what: str) -> float:
    """``value`` as a real in [0, 1]; ``what`` names it in the message."""
    value = _as_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")
    return value


def _as_squeezing(value: Any) -> float:
    """``value`` as a squeezing parameter: a real with ``|lambda| < 1``."""
    value = _as_real(value, "lambda")
    if abs(value) >= 1.0:
        raise ValueError(f"squeezing parameter must satisfy |lambda| < 1, got {value}")
    return value


# Arrays of the state's size held at once, the state included: two to build
# it, and a moment table none beyond the state, as it forms the four
# products a block of the larger side at a time.  The fourth moments of the
# power-sum condition at n = 4 overrun the count: they hold one M v per
# right row, three, and under half a copy more in blocks of them, about
# 4.45 copies with the state.
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
