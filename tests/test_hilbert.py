"""Matrix/state layer: constructors, moments, variances, mixing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    ComplexMatrix,
    QuantumState,
    commutator,
    expectation,
    kron,
    mix,
    variance,
)
from entwit.config import DEFAULT
from entwit.hilbert import _apply_factor, _clamped_variance, _second_moment
from entwit.operators import quadratures, spin_ops
from entwit.states import fock_pair_superposition

from _support import random_hermitian, random_mixed, random_pure, rng


# --- ComplexMatrix -------------------------------------------------------


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((2, 3)), (2,))


def test_matrix_dims_product_must_match_side():
    with pytest.raises(ValueError):
        ComplexMatrix(np.eye(4), (2, 3))
    # and a matching factorization is accepted
    ComplexMatrix(np.eye(6), (2, 3))


@pytest.mark.parametrize("bad", [2.7, "2", True])
def test_non_integer_dims_are_rejected_not_cast(bad):
    side = 2 * int(bad)  # what a cast would make of the pair (bad, 2)
    with pytest.raises(ValueError, match="'factor dimension' must be an integer"):
        ComplexMatrix(np.eye(side), (bad, 2))
    with pytest.raises(ValueError, match="'factor dimension' must be an integer"):
        QuantumState.pure([1.0] + [0.0] * (side - 1), (2, bad))


def test_numpy_integer_dims_are_accepted():
    two = np.int64(2)
    M = ComplexMatrix(np.eye(4), (two, two))
    s = QuantumState.pure([1.0, 0.0, 0.0, 0.0], [two, 2])
    assert M.dims == s.dims == (2, 2)
    assert all(type(d) is int for d in M.dims + s.dims)


def test_matrix_rejects_nonfinite_entries():
    bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        ComplexMatrix(bad, (2,))
    with pytest.raises(ValueError):
        ComplexMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), (2,))


@pytest.mark.parametrize("bad", [complex(0.0, np.nan), complex(1.0, np.inf),
                                 complex(1.0, -np.inf), complex(np.nan, np.inf)])
def test_nonfinite_imaginary_part_rejected(bad):
    data = np.eye(2, dtype=complex)
    data[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ComplexMatrix(data, (2,))
    with pytest.raises(ValueError, match="finite"):
        QuantumState.pure(np.array([1.0, bad]), (2,))


def test_hermiticity_defect_and_max_abs_are_kept():
    H = ComplexMatrix([[1.0, 2.0 - 1.0j], [2.0 + 1.5j, -3.0]], (2,))
    assert H.hermiticity_defect() == 0.5 == H.hermiticity_defect()
    assert H.max_abs() == 3.0 == H.max_abs()
    # the matrix stays immutable, so the kept values cannot go stale
    with pytest.raises(AttributeError):
        H._defect = 0.0


def test_matrix_is_immutable():
    M = ComplexMatrix(np.eye(2), (2,))
    with pytest.raises(AttributeError):
        M.dims = (4,)
    with pytest.raises(ValueError):
        M.data[0, 0] = 5.0


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                 complex(-np.inf, 0.0), complex(0.0, np.nan),
                                 complex(0.0, np.inf), complex(0.0, -np.inf)])
def test_nonfinite_entry_rejected_in_either_part(bad):
    data = np.eye(3, dtype=complex)
    data[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        ComplexMatrix(data, (3,))


def test_finite_entry_with_overflowing_modulus_is_accepted():
    # both parts are finite, so the entry is; only its modulus overflows
    M = ComplexMatrix([[1.5e308 + 1.5e308j]], (1,))
    assert M.max_abs() == math.inf
    with pytest.raises(ValueError, match="norm"):
        QuantumState.pure([1e200, 1e200j], (2,))


def test_matrix_holds_a_copy_of_the_callers_array():
    data = np.eye(2, dtype=complex)
    M = ComplexMatrix(data, (2,))
    data[0, 1] = 7.0
    assert M.data[0, 1] == 0.0 and M.max_abs() == 1.0
    assert data.flags.writeable


def test_operation_results_are_read_only():
    gen = rng(12)
    A, B = random_hermitian(gen, 2), random_hermitian(gen, 2)
    for M in (A @ B, A + B, A - B, 2.0 * A, kron(A, B), commutator(A, B)):
        with pytest.raises(ValueError, match="read-only"):
            M.data[0, 0] = 1.0
        assert M.max_abs() == np.abs(M.data).max()


def test_dagger_and_hermiticity_defect():
    gen = rng(11)
    G = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    M = ComplexMatrix(G, (3,))
    assert np.allclose(ComplexMatrix(M.data.conj().T).data, G.conj().T)
    H = ComplexMatrix(G + G.conj().T, (3,))
    assert H.hermiticity_defect() < 1e-14
    assert H.hermiticity_defect() <= DEFAULT.hermitian
    assert not M.hermiticity_defect() <= DEFAULT.hermitian


@pytest.mark.parametrize("side", [1, 2, 3, 63, 64, 65, 130, 1100])
def test_hermiticity_defect_equals_the_dense_formula(side):
    # the defect is taken a block of rows at a time; a max does not depend on
    # the order, so it is the same float as the dense formula's
    gen = rng(side)
    G = gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side))
    H = G + G.conj().T
    H[-1, 0] += 1e-9  # a defect in the last block of rows only
    for data in (G, G + G.conj().T, H):
        M = ComplexMatrix(data, (side,))
        assert M.hermiticity_defect() == float(np.abs(M.data - M.data.conj().T).max())


def test_hermiticity_defect_forms_no_temporary_of_the_matrix_size():
    import tracemalloc

    M = ComplexMatrix(rng(13).normal(size=(1024, 1024)), (1024,))
    tracemalloc.start()
    try:
        M.hermiticity_defect()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.data.nbytes / 4


def test_matrix_algebra_checks_dims():
    A = ComplexMatrix(np.eye(2), (2,))
    B = ComplexMatrix(np.eye(3), (3,))
    with pytest.raises(ValueError):
        A + B
    with pytest.raises(ValueError):
        A @ B


def test_matrix_algebra_refuses_a_scalar_operand():
    with pytest.raises(TypeError):
        ComplexMatrix(np.eye(2)) + 1


@pytest.mark.parametrize("scalar", ["2", "1+1j", True, np.bool_(False)])
def test_matrix_scaling_refuses_a_string_or_a_bool(scalar):
    M = ComplexMatrix(np.eye(2))
    with pytest.raises(TypeError):
        M * scalar
    with pytest.raises(TypeError):
        scalar * M


def test_matrix_operations_refuse_an_array_operand():
    # an ndarray operand is refused, not broadcast into an array of matrices
    M = ComplexMatrix(np.eye(2))
    for operation in (lambda: M * np.array([2.0, 3.0]), lambda: np.array([2.0, 3.0]) * M,
                      lambda: M + np.eye(2), lambda: np.eye(2) + M, lambda: np.eye(2) @ M):
        with pytest.raises(TypeError):
            operation()


@pytest.mark.parametrize("scalar", [2, np.float64(0.5), 1j, np.complex128(-1j), 0.25])
def test_matrix_scaling_by_a_number(scalar):
    data = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -3.0]])
    M = ComplexMatrix(data, (2,))
    for scaled in (M * scalar, scalar * M):
        assert scaled.dims == (2,)
        assert np.array_equal(scaled.data, data * complex(scalar))


def test_zero_factor_dimension_is_refused():
    with pytest.raises(ValueError, match="factor dimensions must be positive"):
        ComplexMatrix(np.zeros((0, 0)), (0,))
    with pytest.raises(ValueError, match="factor dimensions must be positive"):
        QuantumState.pure([1.0], (0,))


# --- kron / commutator ---------------------------------------------------


def test_kron_matches_index_formula():
    gen = rng(3)
    A = ComplexMatrix(gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)), (2,))
    B = ComplexMatrix(gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3)), (3,))
    K = kron(A, B)
    assert K.dims == (2, 3)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for ell in range(3):
                    want = A.data[i, j] * B.data[k, ell]
                    assert abs(K.data[i * 3 + k, j * 3 + ell] - want) < 1e-13


def test_kron_identity_block_pattern():
    s_x, _, _, s_0 = spin_ops()
    K = kron(s_x, s_0)
    expected = np.zeros((4, 4))
    expected[0:2, 2:4] = np.eye(2)
    expected[2:4, 0:2] = np.eye(2)
    assert np.allclose(K.data, expected)


def test_truncated_xp_commutator_is_i_with_corner():
    D = 8
    quad = quadratures(D)
    C = commutator(quad.x, quad.p)
    expected = 1j * np.diag([1.0] * (D - 1) + [-(D - 1.0)])
    assert np.allclose(C.data, expected, atol=1e-13)


def test_commutator_requires_equal_dims():
    A = ComplexMatrix(np.eye(2), (2,))
    B = ComplexMatrix(np.eye(3), (3,))
    with pytest.raises(ValueError):
        commutator(A, B)


# --- QuantumState --------------------------------------------------------


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        QuantumState.pure([1.0, 1.0], (2,))
    QuantumState.pure([1.0, 0.0], (2,))


def test_pure_state_length_must_match_dims():
    with pytest.raises(ValueError, match="amplitude vector has length 3"):
        QuantumState.pure([1.0, 0.0, 0.0], (2,))


def test_mixed_state_from_a_complex_matrix():
    rho = ComplexMatrix(np.diag([0.25] * 4), (2, 2))
    assert QuantumState.mixed(rho).dims == (2, 2)
    s = QuantumState.mixed(rho, (4,))
    assert s.dims == (4,)
    assert np.allclose(s.density.data, rho.data)


def test_mixed_state_validation():
    ok = np.diag([0.5, 0.5]).astype(complex)
    QuantumState.mixed(ok, (2,))
    with pytest.raises(ValueError):  # not Hermitian
        QuantumState.mixed(np.array([[0.5, 1.0], [0.0, 0.5]]), (2,))
    with pytest.raises(ValueError):  # trace != 1
        QuantumState.mixed(np.diag([0.7, 0.5]), (2,))
    with pytest.raises(ValueError):  # negative eigenvalue
        QuantumState.mixed(np.diag([1.5, -0.5]), (2,))


def test_density_matrix_promotes_pure_to_projector():
    amps = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    s = QuantumState.pure(amps, (2,))
    rho = s.density
    assert np.allclose(rho.data, np.outer(amps, amps.conj()))
    assert abs(np.trace(rho.data) - 1.0) < 1e-14


def test_expectation_pure_equals_density_route():
    gen = rng(21)
    s = random_pure(gen, (2, 3))
    A = random_hermitian(gen, 6)
    A = ComplexMatrix(A.data, (2, 3))
    direct = expectation(A, s)
    via_rho = np.trace(s.density.data @ A.data)
    assert abs(direct - via_rho) < 1e-12


def test_second_moment_equals_square_expectation():
    gen = rng(22)
    for s in (random_pure(gen, (4,)), random_mixed(gen, (4,))):
        A = random_hermitian(gen, 4)
        assert abs(_second_moment(A, s) - expectation(A @ A, s).real) < 1e-12


def test_variance_on_paired_family_matches_closed_form():
    # var(x (x) p) on c0|00> + c1|22> equals 1/4 + 6 c1^2 - c0 c1.
    c0, c1 = 0.8, 0.6
    s = fock_pair_superposition([c0, c1], 8)
    quad = quadratures(8)
    got = variance(kron(quad.x, quad.p), s)
    assert abs(got - (0.25 + 6.0 * c1**2 - c0 * c1)) < 1e-12
    assert abs(got - 1.93) < 1e-12


def test_variance_rejects_nonhermitian():
    gen = rng(5)
    G = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
    s = random_pure(gen, (3,))
    with pytest.raises(ValueError):
        variance(ComplexMatrix(G, (3,)), s)


def test_variance_round_off_is_clamped_and_larger_deficits_refused():
    clamp = DEFAULT.variance_clamp
    assert _clamped_variance(-0.5 * clamp, 0.0) == 0.0
    with pytest.raises(ValueError, match="negative beyond round-off"):
        _clamped_variance(-2.0 * clamp, 0.0)


def test_variance_zero_on_eigenstate():
    _, _, s_z, _ = spin_ops()
    s = QuantumState.pure([1.0, 0.0], (2,))
    assert variance(s_z, s) == 0.0


# --- mix ------------------------------------------------------------------


def test_mix_validates_weights_and_dims():
    a = QuantumState.pure([1.0, 0.0], (2,))
    b = QuantumState.pure([0.0, 1.0], (2,))
    c = QuantumState.pure([1.0, 0.0, 0.0], (3,))
    with pytest.raises(ValueError):
        mix([a, b], [0.6, 0.6])
    with pytest.raises(ValueError):
        mix([a, b], [-0.2, 1.2])
    with pytest.raises(ValueError):
        mix([a, b], [1.0])
    with pytest.raises(ValueError):
        mix([a, c], [0.5, 0.5])
    with pytest.raises(ValueError):
        mix([], [])


@pytest.mark.parametrize("weights", [[True, False], ["0.5", "0.5"], [0.5, None]])
def test_mix_refuses_non_real_weights(weights):
    a = QuantumState.pure([1.0, 0.0], (2,))
    with pytest.raises(ValueError, match="'weights' must be a real number"):
        mix([a, a], weights)


def test_mix_accepts_numpy_real_weights():
    a = QuantumState.pure([1.0, 0.0], (2,))
    b = QuantumState.pure([0.0, 1.0], (2,))
    want = mix([a, b], [0.25, 0.75]).weights
    assert mix([a, b], [np.float64(0.25), np.float32(0.75)]).weights.tolist() == want.tolist()
    assert mix([a, b], np.array([0.25, 0.75])).weights.tolist() == want.tolist()


def test_mix_half_half_orthogonal_spectrum():
    a = QuantumState.pure([1.0, 0.0], (2,))
    b = QuantumState.pure([0.0, 1.0], (2,))
    m = mix([a, b], [0.5, 0.5])
    eig = np.linalg.eigvalsh(m.density.data)
    assert np.allclose(sorted(eig), [0.5, 0.5])


# --- properties ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_expectation_is_linear(seed, a, b):
    gen = rng(seed)
    s = random_mixed(gen, (3,))
    A = random_hermitian(gen, 3)
    B = random_hermitian(gen, 3)
    combo = A * a + B * b
    lhs = expectation(combo, s)
    rhs = a * expectation(A, s) + b * expectation(B, s)
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), w=st.floats(0.05, 0.95))
def test_variance_is_concave_under_mixing(seed, w):
    gen = rng(seed)
    s1 = random_pure(gen, (3,))
    s2 = random_pure(gen, (3,))
    A = random_hermitian(gen, 3)
    mixed = mix([s1, s2], [w, 1.0 - w])
    assert variance(A, mixed) >= w * variance(A, s1) + (1 - w) * variance(A, s2) - 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kron_is_associative(seed):
    gen = rng(seed)
    A = random_hermitian(gen, 2)
    B = random_hermitian(gen, 3)
    C = random_hermitian(gen, 2)
    left = kron(kron(A, B), C)
    right = kron(A, kron(B, C))
    assert left.dims == right.dims == (2, 3, 2)
    assert np.allclose(left.data, right.data)


# --- the vec-trick primitive ---------------------------------------------------


@pytest.mark.parametrize("dims,k", [((2, 3, 2), 0), ((2, 3, 2), 1), ((2, 3, 2), 2),
                                    ((3, 4), 1), ((4,), 0)])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("block", [slice(None), slice(1, 3), slice(0, 1), slice(-1, None)])
def test_apply_factor_to_a_block_of_rows_matches_dense_kron(dims, k, kind, block):
    # F[block] applied to the state gives those output rows of
    # (I (x) F (x) I) v, in the 2-d form (left * rows, rest), or (left, rows)
    # when F is the last factor
    gen = rng(61)
    s = {"pure": random_pure, "mixed": random_mixed}[kind](gen, dims)
    d = dims[k]
    F = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    before, after = math.prod(dims[:k]), math.prod(dims[k + 1:])
    lifted = np.kron(np.kron(np.eye(before), F), np.eye(after))
    r = s.weights.size
    want = (s.vectors @ lifted.T).reshape(r, before, d, after)[:, :, block, :]
    rows = want.shape[2]
    got = _apply_factor(F[block], s.vectors.reshape(r * before, -1))
    assert got.shape == ((r * before, rows) if after == 1 else (r * before * rows, after))
    assert np.allclose(got.reshape(want.shape), want, atol=1e-12)

