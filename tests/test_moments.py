"""The public moments against the dense oracle of ``_support``.

``expectation``, ``variance`` and ``hilbert._second_moment`` apply the
operator to the state's ensemble; the oracle reads the amplitude vector or
the dense density instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from entwit import ComplexMatrix, QuantumState, bell, expectation, kron, mix, spin_ops, variance
from entwit.hilbert import _second_moment

import _support as dense
from _support import random_hermitian, random_mixed, random_pure, random_unit_vector, rng

ORACLE_TOL = 1e-12
DIMS = [(2,), (3,), (2, 3), (2, 2, 2)]


def assert_matches(got, want):
    assert abs(got - want) <= ORACLE_TOL * max(1.0, abs(want)), (got, want)


def non_orthogonal_mixture(gen, dims):
    """Four random (so non-orthogonal) pure states and a mixed one, mixed."""
    parts = [random_pure(gen, dims) for _ in range(4)] + [random_mixed(gen, dims)]
    w = gen.uniform(0.1, 1.0, size=len(parts))
    return mix(parts, w / w.sum())


def negative_weight(gen, dims):
    """A rank-deficient mixed state whose ensemble keeps a -5e-11 weight."""
    side = math.prod(dims)
    U = np.linalg.qr(np.column_stack([random_unit_vector(gen, side) for _ in range(side)]))[0]
    spectrum = np.zeros(side)
    spectrum[:2] = [1.0 + 5e-11, -5e-11]
    rho = U @ np.diag(spectrum) @ U.conj().T
    s = QuantumState.mixed(0.5 * (rho + rho.conj().T), dims)
    assert s.weights.min() < -4e-11
    return s


STATES = {"pure": random_pure, "density": random_mixed,
          "non_orthogonal": non_orthogonal_mixture, "negative_weight": negative_weight}


@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_moments_match_dense_oracle(dims, kind, seed):
    gen = rng(seed)
    s = STATES[kind](gen, dims)
    A = ComplexMatrix(random_hermitian(gen, s.side, scale=3.0).data, dims)
    mean = expectation(A, s)
    want = dense.expectation(A, s)
    assert_matches(mean.real, want.real)
    assert_matches(mean.imag, want.imag)
    assert_matches(_second_moment(A, s), dense._second_moment(A, s))
    assert_matches(variance(A, s), dense.variance(A, s))


@pytest.mark.parametrize("kind", sorted(STATES))
def test_expectation_of_non_hermitian_operator_is_complex(kind):
    gen = rng(7)
    dims = (2, 3)
    s = STATES[kind](gen, dims)
    X = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
    A = ComplexMatrix(X, dims)
    got, want = expectation(A, s), dense.expectation(A, s)
    assert abs(want.imag) > 1e-3
    assert_matches(got.real, want.real)
    assert_matches(got.imag, want.imag)


def test_variance_rejects_lifted_hermiticity_defect():
    # each factor passes the 1e-10 check, but their product, about
    # 0.9e-10 * 20 off Hermitian, does not
    S_X, S_Y, _, _ = spin_ops()
    skew = np.zeros((2, 2), dtype=complex)
    skew[0, 1] = 0.9e-10
    A = ComplexMatrix(S_X.data + skew, (2,))
    assert A.hermiticity_defect() < 1e-10
    assert variance(A, QuantumState.pure([1.0, 0.0], (2,))) == pytest.approx(1.0)
    for _ in range(2):  # the second call reads the cached defect
        with pytest.raises(ValueError, match="operator A is not Hermitian"):
            variance(kron(A, S_X * 20.0), bell(2))
    assert variance(kron(S_X, S_Y * 20.0), bell(2)) == pytest.approx(400.0)


def test_variance_and_expectation_check_dims():
    S_X = spin_ops()[0]
    for fn in (expectation, variance):
        with pytest.raises(ValueError, match="do not match state dims"):
            fn(S_X, bell(2))
