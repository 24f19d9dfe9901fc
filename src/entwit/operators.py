"""Observable factories: truncated bosonic mode operators and two-level spins.

The quadrature convention is hbar = 1 with x = (a + a†)/√2, so [x, p] = i
away from the truncation edge and the vacuum quadrature variance is 1/2.

:func:`builtin_operator` builds one operator of an op spec by name (``sx``,
``sy``, ``sz``, ``x``, ``p``, ``blockx``, ``blocky``) and nothing else: each
kind of operator has one construction helper, which :func:`spin_ops`,
:func:`quadratures` and :func:`block_spin` share with it.
"""

from __future__ import annotations

import numpy as np

from .config import _Record, _as_int
from .hilbert import ComplexMatrix

__all__ = [
    "annihilation",
    "QuadraturePair",
    "quadratures",
    "spin_ops",
    "block_spin",
    "builtin_operator",
]


def annihilation(dim: int) -> ComplexMatrix:
    """Truncated lowering operator: entries sqrt(n) at (n-1, n), n = 1..dim-1."""
    dim = _as_int(dim, "dim")
    if dim < 2:
        raise ValueError(f"annihilation needs dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return ComplexMatrix(a, _owned=True)


class QuadraturePair(_Record):
    """Hermitian quadratures of one truncated mode.

    The commutator [x, p] equals i*I on the top-left (dim-2)x(dim-2) block;
    the corner deviation is the unavoidable truncation edge.
    """

    __slots__ = __match_args__ = ("x", "p", "dim")

    def __init__(self, x: ComplexMatrix, p: ComplexMatrix, dim: int):
        self._init(x, p, dim)


def _quadrature(dim: int, name: str) -> ComplexMatrix:
    """``x = (a + a†)/√2`` or ``p = (a - a†)/(i√2)`` at ``dim``."""
    a = annihilation(dim).data
    if name == "x":
        return ComplexMatrix((a + a.conj().T) / np.sqrt(2.0), _owned=True)
    return ComplexMatrix((a - a.conj().T) / (1j * np.sqrt(2.0)), _owned=True)


def quadratures(dim: int) -> QuadraturePair:
    """Position/momentum pair x = (a + a†)/√2, p = (a - a†)/(i√2)."""
    return QuadraturePair(_quadrature(dim, "x"), _quadrature(dim, "p"), dim)


_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_S0 = np.eye(2, dtype=np.complex128)


def spin_ops() -> tuple[ComplexMatrix, ComplexMatrix, ComplexMatrix, ComplexMatrix]:
    """Two-level operators (s_x, s_y, s_z, s_0) in the {|0>, |1>} basis.

    They satisfy s_x² = s_y² = s_z² = s_0, pairwise anticommutation, and the
    cyclic commutators [s_x, s_y] = 2i s_z etc.
    """
    return (ComplexMatrix(_SX), ComplexMatrix(_SY), ComplexMatrix(_SZ), ComplexMatrix(_S0))


# The entries (ll, lh, hl, hh) that X, Y and Z of the block spins put at
# (|2n>, |2n>), (|2n>, |2n+1>), (|2n+1>, |2n>) and (|2n+1>, |2n+1>).
_PAIRED = {"blockx": (0.0, 1.0, 1.0, 0.0), "blocky": (0.0, -1.0j, 1.0j, 0.0),
           "blockz": (1.0, 0.0, 0.0, -1.0)}


def _block_spin(dim: int, name: str) -> ComplexMatrix:
    """One block spin of :func:`block_spin`, ``name`` a key of ``_PAIRED``."""
    dim = _as_int(dim, "dim")
    if dim < 2:
        raise ValueError(f"block_spin needs dim >= 2, got {dim}")
    if dim % 2:
        raise ValueError(f"block_spin needs an even dim, got {dim}")
    lo, hi = np.arange(0, dim, 2), np.arange(1, dim, 2)
    # one raw array, owned by the matrix without a copy
    M = np.zeros((dim, dim), dtype=np.complex128)
    M[lo, lo], M[lo, hi], M[hi, lo], M[hi, hi] = _PAIRED[name]
    return ComplexMatrix(M, _owned=True)


def block_spin(dim: int) -> tuple[ComplexMatrix, ComplexMatrix, ComplexMatrix]:
    """Spin-like operators acting inside each (|2n>, |2n+1>) level pair.

    Requires an even ``dim`` so every level is paired (an unpaired top level
    would break X² = I).  Returns (X, Y, Z) with X² = Y² = Z² = I and
    [X, Y] = 2iZ blockwise.
    """
    return tuple(_block_spin(dim, name) for name in _PAIRED)


_SPINS = {"sx": _SX, "sy": _SY, "sz": _SZ}
_BUILTIN_NAMES = (*_SPINS, "x", "p", "blockx", "blocky")


def builtin_operator(name: str, dim: int) -> ComplexMatrix:
    """The builtin operator an op spec names, on a factor of dimension ``dim``.

    ``sx``/``sy``/``sz`` are the two-level spins of :func:`spin_ops` (``dim``
    must be 2), ``x``/``p`` the quadratures of :func:`quadratures` and
    ``blockx``/``blocky`` the X and Y of :func:`block_spin`.  Only the named
    matrix is built.
    """
    if not isinstance(name, str):
        raise ValueError(f"operator names must be strings, got {name!r}")
    if name not in _BUILTIN_NAMES:
        raise ValueError(f"unknown builtin operator {name!r}; "
                         f"expected one of {', '.join(_BUILTIN_NAMES)}")
    if name in _SPINS:
        if _as_int(dim, "dim") != 2:
            raise ValueError(f"operator {name!r} needs a two-level factor, "
                             f"got dimension {dim}")
        return ComplexMatrix(_SPINS[name])
    if name in ("x", "p"):
        return _quadrature(dim, name)
    return _block_spin(dim, name)
