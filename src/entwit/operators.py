"""Observable factories: truncated bosonic mode operators and two-level spins.

The quadrature convention is hbar = 1 with x = (a + a†)/√2, so [x, p] = i
away from the truncation edge and the vacuum quadrature variance is 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import ComplexMatrix

__all__ = [
    "annihilation",
    "QuadraturePair",
    "quadratures",
    "spin_ops",
    "rotated_spin",
    "block_spin",
]


def annihilation(dim: int) -> ComplexMatrix:
    """Truncated lowering operator: entries sqrt(n) at (n-1, n), n = 1..dim-1."""
    if dim < 2:
        raise ValueError(f"annihilation needs dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return ComplexMatrix(a)


@dataclass(frozen=True)
class QuadraturePair:
    """Hermitian quadratures of one truncated mode.

    The commutator [x, p] equals i*I on the top-left (dim-2)x(dim-2) block;
    the corner deviation is the unavoidable truncation edge.
    """

    x: ComplexMatrix
    p: ComplexMatrix
    dim: int


def quadratures(dim: int) -> QuadraturePair:
    """Position/momentum pair x = (a + a†)/√2, p = (a - a†)/(i√2)."""
    a = annihilation(dim).data
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    return QuadraturePair(ComplexMatrix(x), ComplexMatrix(p), dim)


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


def rotated_spin(theta: float) -> ComplexMatrix:
    """In-plane spin s_x cos(theta) + s_y sin(theta); Hermitian with unit square."""
    return ComplexMatrix(_SX * np.cos(theta) + _SY * np.sin(theta))


def block_spin(dim: int) -> tuple[ComplexMatrix, ComplexMatrix, ComplexMatrix]:
    """Spin-like operators acting inside each (|2n>, |2n+1>) level pair.

    Requires an even ``dim`` so every level is paired (an unpaired top level
    would break X² = I).  Returns (X, Y, Z) with X² = Y² = Z² = I and
    [X, Y] = 2iZ blockwise.
    """
    if dim < 2:
        raise ValueError(f"block_spin needs dim >= 2, got {dim}")
    if dim % 2:
        raise ValueError(f"block_spin needs an even dim, got {dim}")
    lo = np.arange(0, dim, 2)
    hi = lo + 1

    def paired(ll, lh, hl, hh) -> ComplexMatrix:
        # one raw array at a time, freed once ComplexMatrix holds its copy
        M = np.zeros((dim, dim), dtype=np.complex128)
        M[lo, lo], M[lo, hi], M[hi, lo], M[hi, hi] = ll, lh, hl, hh
        return ComplexMatrix(M)

    return (paired(0.0, 1.0, 1.0, 0.0), paired(0.0, -1.0j, 1.0j, 0.0),
            paired(1.0, 0.0, 0.0, -1.0))
