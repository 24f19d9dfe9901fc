"""Operator constructors: ladder, quadratures, spins, paired-level spins."""

from __future__ import annotations

import math

import numpy as np
import pytest

from entwit import (
    ComplexMatrix,
    QuantumState,
    annihilation,
    block_spin,
    commutator,
    expectation,
    quadratures,
    spin_ops,
    variance,
)


def test_annihilation_entries():
    a = annihilation(5)
    expected = np.zeros((5, 5))
    for n in range(1, 5):
        expected[n - 1, n] = math.sqrt(n)
    assert np.allclose(a.data, expected)


def test_annihilation_needs_two_levels():
    with pytest.raises(ValueError):
        annihilation(1)


def test_number_operator_and_truncation_corner():
    D = 6
    a = annihilation(D)
    ad = ComplexMatrix(a.data.conj().T)
    num = ad @ a
    assert np.allclose(num.data, np.diag(np.arange(D, dtype=float)))
    # [a, a^dag] is the identity except for the truncation corner
    corner = (a @ ad - ad @ a).data
    assert np.allclose(corner, np.diag([1.0] * (D - 1) + [-(D - 1.0)]))


def test_quadratures_are_hermitian_and_vacuum_moments():
    quad = quadratures(6)
    assert quad.x.hermiticity_defect() < 1e-14
    assert quad.p.hermiticity_defect() < 1e-14
    vac = QuantumState.pure([1.0] + [0.0] * 5, (6,))
    assert abs(variance(quad.x, vac) - 0.5) < 1e-14
    assert abs(variance(quad.p, vac) - 0.5) < 1e-14
    assert abs(expectation(quad.x, vac)) < 1e-14
    assert abs(expectation(quad.p, vac)) < 1e-14


def test_xp_commutator_inner_block_is_i():
    quad = quadratures(9)
    C = commutator(quad.x, quad.p).data
    inner = C[:7, :7]
    assert np.allclose(inner, 1j * np.eye(7), atol=1e-13)


def test_spin_ops_exact_matrices():
    s_x, s_y, s_z, s_0 = spin_ops()
    assert np.array_equal(s_x.data, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(s_y.data, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(s_z.data, np.array([[1, 0], [0, -1]], dtype=complex))
    assert np.array_equal(s_0.data, np.eye(2, dtype=complex))


def test_spin_algebra():
    s_x, s_y, s_z, s_0 = spin_ops()
    assert np.allclose((s_x @ s_y).data, 1j * s_z.data)
    assert np.allclose((s_y @ s_z).data, 1j * s_x.data)
    assert np.allclose((s_z @ s_x).data, 1j * s_y.data)
    for s in (s_x, s_y, s_z):
        assert np.allclose((s @ s).data, s_0.data)
    # anticommutation
    assert np.allclose((s_x @ s_y + s_y @ s_x).data, 0.0)


def test_block_spin_rejects_odd_or_tiny_dims():
    with pytest.raises(ValueError):
        block_spin(5)
    with pytest.raises(ValueError):
        block_spin(0)


def test_operator_dims_are_rejected_not_cast():
    for build in (block_spin, annihilation, quadratures):
        with pytest.raises(ValueError, match="'dim' must be an integer, got 4.0"):
            build(4.0)
    assert quadratures(np.int64(4)).dim == 4
    assert block_spin(np.int64(4))[0].dims == (4,)


def test_block_spin_dim2_reduces_to_spins():
    X, Y, Z = block_spin(2)
    s_x, s_y, s_z, _ = spin_ops()
    assert np.array_equal(X.data, s_x.data)
    assert np.array_equal(Y.data, s_y.data)
    assert np.array_equal(Z.data, s_z.data)


def test_block_spin_algebra_and_structure():
    D = 6
    X, Y, Z = block_spin(D)
    eye = np.eye(D)
    for M in (X, Y, Z):
        assert M.hermiticity_defect() < 1e-15
        assert np.allclose((M @ M).data, eye)
    assert np.allclose(commutator(X, Y).data, 2j * Z.data)
    # X couples exactly the level pairs (2n, 2n+1)
    for n in range(D // 2):
        assert X.data[2 * n, 2 * n + 1] == 1.0
        assert X.data[2 * n + 1, 2 * n] == 1.0
    assert np.count_nonzero(X.data) == D
    # Z is diagonal +1/-1 on the pairs
    assert np.allclose(Z.data, np.diag([1.0, -1.0] * (D // 2)))


@pytest.mark.parametrize("dim", [2, 4, 10])
def test_block_spin_entries_are_exact(dim):
    want = np.zeros((3, dim, dim), dtype=np.complex128)
    for lo in range(0, dim, 2):
        hi = lo + 1
        want[0, lo, hi] = want[0, hi, lo] = 1.0
        want[1, lo, hi], want[1, hi, lo] = -1.0j, 1.0j
        want[2, lo, lo], want[2, hi, hi] = 1.0, -1.0
    for got, expected in zip(block_spin(dim), want):
        assert got.data.tobytes() == expected.tobytes()  # signed zeros included
