"""Entanglement conditions: frozen examples, closed forms, and properties.

The frozen numbers below were derived independently (by hand and with a
plain dense-eigensolver script) before this module was written; the tests
assert the library reproduces them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwit import (
    ComplexMatrix,
    QuantumState,
    bell,
    commutator,
    four_variance,
    fock_pair_superposition,
    heisenberg_floor,
    kron,
    mix,
    multipartite,
    quadratic_form,
    quadratures,
    ramanujan_witness,
    schmidt_optimal_witness,
    schmidt_pair,
    spin_ops,
    uffink,
    vacuum_mixture,
    variance_product,
    variance_sum,
)

from _support import (
    _second_moment,
    expectation,
    random_hermitian,
    random_mixed,
    random_pure,
    random_separable_mixture,
    random_unit_vector,
    rng,
    variance,
)

S_X, S_Y, S_Z, S_0 = spin_ops()
TOL = 1e-12


def product_state(amps_a, amps_b):
    a = np.asarray(amps_a, dtype=complex)
    b = np.asarray(amps_b, dtype=complex)
    return QuantumState.pure(np.kron(a, b), (a.size, b.size))


# --- variance_product / variance_sum ---------------------------------------


def test_variance_product_on_bell_pair():
    rep = variance_product(S_X, S_Y, S_X, S_Y, bell(2))
    assert rep.name == "variance_product"
    assert abs(rep.lhs - 0.0) < TOL
    assert abs(rep.rhs - 1.0) < TOL
    assert abs(rep.delta - 1.0) < TOL
    assert rep.violated
    assert rep.V is None  # lhs below the ratio guard


def test_variance_product_on_product_state():
    rep = variance_product(S_X, S_Y, S_X, S_Y, product_state([1, 0], [1, 0]))
    assert abs(rep.lhs - 1.0) < TOL
    assert abs(rep.rhs - 1.0) < TOL
    assert not rep.violated
    assert abs(rep.V - 1.0) < TOL


def test_variance_sum_on_bell_pair():
    rep = variance_sum(S_X, S_Y, S_X, S_Y, bell(2))
    assert abs(rep.lhs - 0.0) < TOL
    assert abs(rep.rhs - 2.0) < TOL
    assert rep.violated
    assert rep.V is None  # never reported for the sum form


def test_variance_product_details_recompute():
    gen = rng(31)
    s = random_mixed(gen, (2, 2))
    rep = variance_product(S_X, S_Y, S_Z, S_X, s)
    d = rep.details
    assert abs(d["var_AB"] - (d["s_AB"] - d["m_AB"] ** 2)) < 1e-10
    assert abs(d["var_ApBp"] - (d["s_ApBp"] - d["m_ApBp"] ** 2)) < 1e-10
    assert abs(rep.lhs - math.sqrt(d["var_AB"]) * math.sqrt(d["var_ApBp"])) < 1e-10
    assert abs(rep.rhs - 0.25 * abs(d["m_comm"])) < 1e-12
    assert abs(rep.delta - (rep.rhs - rep.lhs)) < 1e-12


def test_violation_ratio_is_scale_invariant():
    gen = rng(32)
    s = random_mixed(gen, (2, 2))
    base = variance_product(S_X, S_Y, S_X, S_Z, s)
    for t in (3.7, 0.04):
        scaled = variance_product(S_X * t, S_Y * t, S_X, S_Z, s)
        assert abs(scaled.V - base.V) < 1e-9
        both = variance_product(S_X * t, S_Y * t, S_X * (1 / t), S_Z * (1 / t), s)
        assert abs(both.V - base.V) < 1e-9


def test_quadruple_validation():
    s = bell(2)
    with pytest.raises(ValueError):  # A/A' dims differ
        variance_product(S_X, ComplexMatrix(np.eye(3), (3,)), S_X, S_Y, s)
    with pytest.raises(ValueError):  # operators do not cover the state
        variance_product(S_X, S_Y, ComplexMatrix(np.eye(3), (3,)),
                         ComplexMatrix(np.eye(3), (3,)), s)
    q = quadratures(2)
    nonherm = q.x @ q.p  # product of two Hermitians is not Hermitian
    with pytest.raises(ValueError):
        variance_product(nonherm, S_Y, S_X, S_Y, s)


def test_quadruple_validation_refuses_b_pair_of_different_dims():
    s = bell(2)
    with pytest.raises(ValueError, match="B and B' must share dims"):
        variance_product(S_X, S_Y, S_X, ComplexMatrix(np.eye(3), (3,)), s)


# --- multipartite -----------------------------------------------------------


def test_multipartite_reduces_to_variance_product():
    gen = rng(33)
    s = random_mixed(gen, (2, 2))
    A, Ap = random_hermitian(gen, 2), random_hermitian(gen, 2)
    B, Bp = random_hermitian(gen, 2), random_hermitian(gen, 2)
    two = variance_product(A, Ap, B, Bp, s)
    many = multipartite([A, B], [Ap, Bp], s)
    assert abs(two.lhs - many.lhs) < 1e-12
    assert abs(two.rhs - many.rhs) < 1e-12
    assert two.violated == many.violated
    assert abs(two.delta - many.delta) < 1e-12
    assert abs(two.V - many.V) < 1e-12
    # both products are eigen-operators of the Bell pair: lhs is zero up to
    # round-off, below the ratio guard, so neither report has a ratio
    s = bell(2)
    two = variance_product(S_X, S_Y, S_X, S_Y, s)
    many = multipartite([S_X, S_X], [S_Y, S_Y], s)
    for rep in (two, many):
        assert abs(rep.lhs) < 1e-12
        assert rep.V is None
        assert rep.violated
    assert abs(two.rhs - many.rhs) < 1e-12
    assert abs(two.delta - many.delta) < 1e-12


def test_multipartite_bell_even_parties():
    for n in (2, 4, 6):
        rep = multipartite([S_X] * n, [S_Y] * n, bell(n))
        assert rep.name == "multipartite"
        assert abs(rep.lhs) < 1e-9
        assert abs(rep.rhs - 1.0) < 1e-9
        assert rep.violated
        assert rep.details["n_parties"] == n


def test_multipartite_bell_three_parties_degenerate():
    # odd party count: <Z...Z> = 0 kills the bound, nothing is certified
    rep = multipartite([S_X] * 3, [S_Y] * 3, bell(3))
    # lhs = sqrt(var(XXX)) * sqrt(var(YYY)): the first variance is zero up
    # to round-off, and the square root amplifies that to ~1e-8
    assert abs(rep.lhs) < 1e-6
    assert abs(rep.rhs) < 1e-12
    assert not rep.violated


def test_multipartite_validation():
    s = bell(3)
    with pytest.raises(ValueError):
        multipartite([S_X], [S_Y], QuantumState.pure([1, 0], (2,)))
    with pytest.raises(ValueError):
        multipartite([S_X] * 3, [S_Y] * 2, s)
    with pytest.raises(ValueError):
        multipartite([S_X] * 2, [S_Y] * 2, s)  # state has 3 factors
    with pytest.raises(ValueError):
        multipartite([S_X, ComplexMatrix(np.eye(3), (3,)), S_X], [S_Y] * 3, s)


# --- ramanujan --------------------------------------------------------------


def test_ramanujan_bell_frozen_values():
    s = bell(2)
    rep2 = ramanujan_witness(S_X, S_Y, S_X, S_Y, s, 2)
    assert rep2.name == "ramanujan_2"
    assert abs(rep2.lhs - 6.0) < 1e-9
    assert abs(rep2.rhs - 2.0) < 1e-9
    assert rep2.violated
    rep4 = ramanujan_witness(S_X, S_Y, S_X, S_Y, s, 4)
    assert rep4.name == "ramanujan_4"
    assert abs(rep4.lhs - 18.0) < 1e-9
    assert abs(rep4.rhs - 2.0) < 1e-9
    assert rep4.violated


def test_ramanujan_rhs_matches_spin_closed_forms():
    # For the (s_x, s_y, s_x, s_y) quadruple the right side collapses to
    # 8 - 6<zz> (n=2) and 34 - 32<zz> (n=4) on any two-qubit state.
    gen = rng(34)
    zz = kron(S_Z, S_Z)
    states = [bell(2), product_state([1, 0], [1, 0]),
              schmidt_pair(0.28, math.sqrt(1 - 0.28**2) * 1j),
              random_mixed(gen, (2, 2))]
    for s in states:
        z = expectation(zz, s).real
        rep2 = ramanujan_witness(S_X, S_Y, S_X, S_Y, s, 2)
        rep4 = ramanujan_witness(S_X, S_Y, S_X, S_Y, s, 4)
        assert abs(rep2.rhs - (8.0 - 6.0 * z)) < 1e-9
        assert abs(rep4.rhs - (34.0 - 32.0 * z)) < 1e-9


def test_ramanujan_passes_on_product_state():
    rep = ramanujan_witness(S_X, S_Y, S_X, S_Y, product_state([1, 0], [1, 0]), 2)
    assert abs(rep.lhs) < TOL
    assert abs(rep.rhs - 2.0) < TOL
    assert not rep.violated


def test_ramanujan_identity_operators_touch_equality():
    for n in (2, 4):
        rep = ramanujan_witness(S_0, S_0, S_0, S_0, bell(2), n)
        assert abs(rep.lhs - 2.0 * 3.0**n) < 1e-9
        assert abs(rep.rhs - 2.0 * 3.0**n) < 1e-9
        assert not rep.violated


def test_ramanujan_rejects_other_powers():
    for n in (1, 3, 5, 0, -2):
        with pytest.raises(ValueError):
            ramanujan_witness(S_X, S_Y, S_X, S_Y, bell(2), n)


@pytest.mark.parametrize("bad", [2.0, np.float64(4), "2", True])
def test_ramanujan_rejects_non_integer_powers(bad):
    with pytest.raises(ValueError, match="'n' must be an integer"):
        ramanujan_witness(S_X, S_Y, S_X, S_Y, bell(2), bad)


def test_ramanujan_accepts_numpy_integer_powers():
    for n in (2, 4):
        want = ramanujan_witness(S_X, S_Y, S_X, S_Y, bell(2), n)
        assert ramanujan_witness(S_X, S_Y, S_X, S_Y, bell(2), np.int64(n)) == want


# --- uffink / four_variance --------------------------------------------------


def test_uffink_bell_touches_bound():
    rep = uffink(S_X, S_Y, S_X, S_Y, bell(2))
    assert rep.name == "uffink"
    assert abs(rep.lhs - 4.0) < 1e-12
    assert abs(rep.rhs - 4.0) < 1e-12
    assert not rep.violated


def test_uffink_spin_rhs_is_constant_four():
    # s_x^2 + s_y^2 = 2I on each side, so the bound is exactly 4.
    gen = rng(35)
    for s in (random_mixed(gen, (2, 2)), random_pure(gen, (2, 2))):
        rep = uffink(S_X, S_Y, S_X, S_Y, s)
        assert abs(rep.rhs - 4.0) < 1e-12
        assert rep.details["m_square_product"] == rep.rhs


def test_four_variance_bell_violates():
    rep = four_variance(S_X, S_Y, S_X, S_Y, bell(2))
    assert rep.name == "four_variance"
    assert abs(rep.lhs - 2.0) < 1e-12   # variances (0, 1, 1, 0)
    assert abs(rep.rhs - 4.0) < 1e-12
    assert rep.violated
    d = rep.details
    assert abs(d["var_AB"]) < TOL and abs(d["var_ApBp"]) < TOL
    assert abs(d["var_ABp"] - 1.0) < TOL and abs(d["var_ApB"] - 1.0) < TOL


def test_four_variance_product_state_touches_equality():
    rep = four_variance(S_X, S_Y, S_X, S_Y, product_state([1, 0], [1, 0]))
    assert abs(rep.lhs - 4.0) < TOL
    assert abs(rep.rhs - 4.0) < TOL
    assert not rep.violated


# --- heisenberg floor ---------------------------------------------------------


def test_heisenberg_floor_vanishes_on_paired_family():
    s = fock_pair_superposition([0.8, 0.6], 8)
    q = quadratures(8)
    assert heisenberg_floor(q.x, q.p, q.p, q.x, s) < 1e-12


def test_heisenberg_floor_bounds_all_states():
    # The floor is a plain uncertainty bound, entangled states included.
    gen = rng(36)
    for _ in range(50):
        s = random_mixed(gen, (2, 2)) if gen.uniform() < 0.5 else random_pure(gen, (2, 2))
        A, Ap = random_hermitian(gen, 2), random_hermitian(gen, 2)
        B, Bp = random_hermitian(gen, 2), random_hermitian(gen, 2)
        floor = heisenberg_floor(A, Ap, B, Bp, s)
        sigma = math.sqrt(variance(kron(A, B), s)) * math.sqrt(variance(kron(Ap, Bp), s))
        assert sigma >= floor - 1e-9


# --- schmidt witness -----------------------------------------------------------


def test_schmidt_witness_closed_form():
    gen = rng(37)
    for _ in range(20):
        phase_a, phase_b = gen.uniform(0, 2 * math.pi, size=2)
        r = gen.uniform(0.05, 0.95)
        alpha = math.sqrt(r) * np.exp(1j * phase_a)
        beta = math.sqrt(1 - r) * np.exp(1j * phase_b)
        A, Ap, B, Bp, rep = schmidt_optimal_witness(alpha, beta)
        want = 1.0 - 4.0 * abs(alpha * beta) ** 2
        assert abs(rep.lhs - want) < 1e-9
        assert abs(rep.rhs - 1.0) < 1e-9
        assert rep.violated
        for op in (A, Ap, B, Bp):
            assert op.hermiticity_defect() < 1e-12


def test_schmidt_witness_empty_schmidt_rank():
    _, _, _, _, rep = schmidt_optimal_witness(1.0, 0.0)
    assert not rep.violated
    assert abs(rep.lhs - 1.0) < TOL and abs(rep.rhs - 1.0) < TOL
    _, _, _, _, rep = schmidt_optimal_witness(0.0, 1.0)
    assert not rep.violated


def test_schmidt_witness_accepts_pairs_as_schmidt_pair_does():
    # [re, im] pairs give the witness of the complex amplitudes they name
    for pairs, numbers in [(([0.6, 0], [0, 0.8]), (0.6, 0.8j)),
                           (([0.36, 0.48], (-0.64, 0.48)), (0.36 + 0.48j, -0.64 + 0.48j))]:
        got, want = schmidt_optimal_witness(*pairs), schmidt_optimal_witness(*numbers)
        assert got[4] == want[4]
        for op, ref in zip(got[:4], want[:4]):
            assert np.array_equal(op.data, ref.data)


def test_schmidt_witness_maximal_entanglement_omits_ratio():
    inv = 1.0 / math.sqrt(2.0)
    *_, rep = schmidt_optimal_witness(inv, inv)
    assert abs(rep.lhs) < 1e-12
    assert rep.V is None
    assert rep.violated


# --- cross-condition properties -------------------------------------------------


def test_sum_violation_implies_product_violation():
    # AM-GM: sigma*sigma' <= (sigma^2 + sigma'^2)/2, so the sum condition is
    # the weaker one; whenever it clearly fails, the product must fail too.
    gen = rng(38)
    found = 0
    for _ in range(120):
        if gen.uniform() < 0.5:
            # entangled Schmidt state with a (possibly perturbed) spin
            # quadruple: guaranteed to trip the sum condition
            theta = gen.uniform(0.2, math.pi / 2 - 0.2)
            s = schmidt_pair(math.cos(theta), math.sin(theta))
            eps = 0.05
            A = ComplexMatrix(S_X.data + eps * random_hermitian(gen, 2).data, (2,))
            Ap = ComplexMatrix(S_Y.data + eps * random_hermitian(gen, 2).data, (2,))
            B = ComplexMatrix(S_X.data + eps * random_hermitian(gen, 2).data, (2,))
            Bp = ComplexMatrix(S_Y.data + eps * random_hermitian(gen, 2).data, (2,))
        else:
            s = random_mixed(gen, (2, 2))
            A, Ap = random_hermitian(gen, 2), random_hermitian(gen, 2)
            B, Bp = random_hermitian(gen, 2), random_hermitian(gen, 2)
        s_rep = variance_sum(A, Ap, B, Bp, s)
        if s_rep.delta > 1e-6:
            found += 1
            p_rep = variance_product(A, Ap, B, Bp, s)
            assert p_rep.violated
    assert found > 10  # the sweep actually exercised the implication


def test_four_variance_violation_implies_a_product_violation():
    # the four-variance bound is the product bound applied to the (B, B')
    # and (B', B) pairings plus AM-GM, so its failure forces at least one
    # of those two product instances to fail
    gen = rng(41)
    found = 0
    for _ in range(120):
        if gen.uniform() < 0.5:
            theta = gen.uniform(0.2, math.pi / 2 - 0.2)
            s = schmidt_pair(math.cos(theta), math.sin(theta))
            eps = 0.05
            A = ComplexMatrix(S_X.data + eps * random_hermitian(gen, 2).data, (2,))
            Ap = ComplexMatrix(S_Y.data + eps * random_hermitian(gen, 2).data, (2,))
            B = ComplexMatrix(S_X.data + eps * random_hermitian(gen, 2).data, (2,))
            Bp = ComplexMatrix(S_Y.data + eps * random_hermitian(gen, 2).data, (2,))
        else:
            s = random_mixed(gen, (2, 2))
            A, Ap = random_hermitian(gen, 2), random_hermitian(gen, 2)
            B, Bp = random_hermitian(gen, 2), random_hermitian(gen, 2)
        f_rep = four_variance(A, Ap, B, Bp, s)
        if f_rep.delta > 1e-6:
            found += 1
            direct = variance_product(A, Ap, B, Bp, s)
            swapped = variance_product(A, Ap, Bp, B, s)
            assert direct.violated or swapped.violated
    assert found > 10


def test_separable_states_pass_everything_spot_check():
    gen = rng(39)
    for _ in range(25):
        s = random_separable_mixture(gen, (2, 2))
        A, Ap = random_hermitian(gen, 2), random_hermitian(gen, 2)
        B, Bp = random_hermitian(gen, 2), random_hermitian(gen, 2)
        assert not variance_product(A, Ap, B, Bp, s).violated
        assert not variance_sum(A, Ap, B, Bp, s).violated
        assert not four_variance(A, Ap, B, Bp, s).violated
        assert not uffink(A, Ap, B, Bp, s).violated
        assert not ramanujan_witness(A, Ap, B, Bp, s, 2).violated
        assert not ramanujan_witness(A, Ap, B, Bp, s, 4).violated
        assert not multipartite([A, B], [Ap, Bp], s).violated


# --- dense Kronecker oracle ------------------------------------------------------
#
# The conditions apply lifted products factor by factor on the state.  The
# reference below builds every lifted operator densely with ``kron`` and
# takes its moments with ``expectation``, ``variance`` and ``_second_moment``.

ORACLE_TOL = 1e-12


def assert_matches(got, want):
    assert abs(got - want) <= ORACLE_TOL * max(1.0, abs(want)), (got, want)


def dense_multipartite(As, Aps, s):
    prod, prod_p, comm = As[0], Aps[0], commutator(As[0], Aps[0])
    for Ak, Apk in zip(As[1:], Aps[1:]):
        prod, prod_p = kron(prod, Ak), kron(prod_p, Apk)
        comm = kron(comm, commutator(Ak, Apk))
    var, var_p = variance(prod, s), variance(prod_p, s)
    m_comm = expectation(comm, s).real
    details = {"m_A1..An": expectation(prod, s).real, "m_Ap1..Apn": expectation(prod_p, s).real,
               "var_A1..An": var, "var_Ap1..Apn": var_p,
               "m_comm": m_comm, "n_parties": float(len(As))}
    return math.sqrt(var) * math.sqrt(var_p), abs(m_comm) / 2.0 ** len(As), details


def dense_bipartite(A, Ap, B, Bp, s):
    """{report name: (lhs, rhs, details)} for every bipartite condition, plus
    the Heisenberg floor under "floor"."""
    AB, ABp, ApB, ApBp = kron(A, B), kron(A, Bp), kron(Ap, B), kron(Ap, Bp)
    m = {"m_AB": expectation(AB, s).real, "m_ABp": expectation(ABp, s).real,
         "m_ApB": expectation(ApB, s).real, "m_ApBp": expectation(ApBp, s).real}
    var = {"var_AB": variance(AB, s), "var_ABp": variance(ABp, s),
           "var_ApB": variance(ApB, s), "var_ApBp": variance(ApBp, s)}
    m_comm = expectation(kron(commutator(A, Ap), commutator(B, Bp)), s).real
    m_sq = expectation(kron(A @ A + Ap @ Ap, B @ B + Bp @ Bp), s).real
    pair = {"m_AB": m["m_AB"], "m_ApBp": m["m_ApBp"]}
    pair_var = {"var_AB": var["var_AB"], "var_ApBp": var["var_ApBp"]}
    out = {
        "variance_product": (
            math.sqrt(var["var_AB"]) * math.sqrt(var["var_ApBp"]), 0.25 * abs(m_comm),
            {**pair, "s_AB": _second_moment(AB, s), "s_ApBp": _second_moment(ApBp, s),
             **pair_var, "m_comm": m_comm}),
        "variance_sum": (var["var_AB"] + var["var_ApBp"], 0.5 * abs(m_comm),
                         {**pair, **pair_var, "m_comm": m_comm}),
        "four_variance": (sum(var.values()), abs(m_comm), {**m, **var, "m_comm": m_comm}),
        "uffink": ((m["m_AB"] - m["m_ApBp"]) ** 2 + (m["m_ABp"] + m["m_ApB"]) ** 2,
                   m_sq, {**m, "m_square_product": m_sq}),
        "floor": 0.5 * abs(expectation(commutator(AB, ApBp), s)),
    }
    a, b, c, d = m.values()
    for n in (2, 4):
        def power(M):
            return _second_moment(M if n == 2 else M @ M, s)
        pows = {f"pow{n}_ABp_minus_ApB": power(ABp - ApB),
                f"pow{n}_ApB_plus_ApBp_plus_AB": power(ApB + ApBp + AB),
                f"pow{n}_ApBp_plus_AB_plus_ABp": power(ApBp + AB + ABp)}
        lhs = (a + b + c) ** n + (b + c + d) ** n + (a - d) ** n
        out[f"ramanujan_{n}"] = (lhs, sum(pows.values()), {**m, **pows})
    return out


def assert_report_matches(rep, want):
    lhs, rhs, details = want
    assert_matches(rep.lhs, lhs)
    assert_matches(rep.rhs, rhs)
    assert rep.details.keys() == details.keys()
    for key, value in details.items():
        assert_matches(rep.details[key], value)


def hermitian_on(gen, dims):
    """Random Hermitian acting on the block of state factors ``dims``."""
    return ComplexMatrix(random_hermitian(gen, math.prod(dims)).data, dims)


# (A's factors, B's factors): a side may span several state factors.
BIPARTITIONS = [((2,), (2,)), ((2,), (3,)), ((3,), (3,)),
                ((2, 2), (2,)), ((2, 2), (3,)), ((2,), (2, 3))]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), split=st.sampled_from(BIPARTITIONS), pure=st.booleans())
def test_conditions_match_dense_kron_oracle(seed, split, pure):
    gen = rng(seed)
    dims_a, dims_b = split
    dims = dims_a + dims_b
    s = random_pure(gen, dims) if pure else random_mixed(gen, dims)
    A, Ap = hermitian_on(gen, dims_a), hermitian_on(gen, dims_a)
    B, Bp = hermitian_on(gen, dims_b), hermitian_on(gen, dims_b)
    want = dense_bipartite(A, Ap, B, Bp, s)
    for rep in (variance_product(A, Ap, B, Bp, s), variance_sum(A, Ap, B, Bp, s),
                ramanujan_witness(A, Ap, B, Bp, s, 2), ramanujan_witness(A, Ap, B, Bp, s, 4),
                uffink(A, Ap, B, Bp, s), four_variance(A, Ap, B, Bp, s)):
        assert_report_matches(rep, want[rep.name])
    if len(dims) == 2:
        assert_report_matches(multipartite([A, B], [Ap, Bp], s),
                              dense_multipartite([A, B], [Ap, Bp], s))
    assert_matches(heisenberg_floor(A, Ap, B, Bp, s), want["floor"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dims=st.sampled_from([(2, 3, 2), (3, 2, 2), (2, 2, 3)]),
       pure=st.booleans())
def test_multipartite_matches_dense_kron_oracle_three_parties(seed, dims, pure):
    gen = rng(seed)
    s = random_pure(gen, dims) if pure else random_mixed(gen, dims)
    As = [random_hermitian(gen, d) for d in dims]
    Aps = [random_hermitian(gen, d) for d in dims]
    assert_report_matches(multipartite(As, Aps, s), dense_multipartite(As, Aps, s))


def test_lifted_hermiticity_defect_is_rejected():
    # each factor passes the 1e-10 check, but the lifted product's defect,
    # about 0.9e-10 * 20, does not
    skew = np.zeros((2, 2), dtype=complex)
    skew[0, 1] = 0.9e-10
    A = ComplexMatrix(S_X.data + skew, (2,))
    B = S_X * 20.0
    assert A.hermiticity_defect() < 1e-10
    with pytest.raises(ValueError, match="Hermitian"):
        variance(kron(A, B), bell(2))
    for condition in (variance_product, variance_sum, four_variance):
        with pytest.raises(ValueError, match="Hermitian"):
            condition(A, S_Y, B, S_Y, bell(2))
    with pytest.raises(ValueError, match="Hermitian"):
        multipartite([A, B], [S_Y, S_Y], bell(2))


# --- ensembles against the dense oracle --------------------------------------
#
# A mixed state is an ensemble of weighted vectors; the dense oracle reads the
# density it stands for.


def assert_all_conditions_match_oracle(gen, s, dims_a, dims_b):
    A, Ap = hermitian_on(gen, dims_a), hermitian_on(gen, dims_a)
    B, Bp = hermitian_on(gen, dims_b), hermitian_on(gen, dims_b)
    want = dense_bipartite(A, Ap, B, Bp, s)
    for rep in (variance_product(A, Ap, B, Bp, s), variance_sum(A, Ap, B, Bp, s),
                ramanujan_witness(A, Ap, B, Bp, s, 2), ramanujan_witness(A, Ap, B, Bp, s, 4),
                uffink(A, Ap, B, Bp, s), four_variance(A, Ap, B, Bp, s)):
        assert_report_matches(rep, want[rep.name])
    assert_report_matches(multipartite([A, B], [Ap, Bp], s),
                          dense_multipartite([A, B], [Ap, Bp], s))
    assert_matches(heisenberg_floor(A, Ap, B, Bp, s), want["floor"])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_mixture_of_non_orthogonal_pure_states_matches_oracle(seed, dims):
    gen = rng(seed)
    parts = [random_pure(gen, dims) for _ in range(3)]
    w = gen.uniform(0.1, 1.0, size=3)
    s = mix(parts, w / w.sum())
    assert s.weights.shape == (3,) and s.vectors.shape == (3, math.prod(dims))
    overlaps = [abs(np.vdot(a.amplitudes, b.amplitudes)) for a, b in zip(parts, parts[1:])]
    assert min(overlaps) > 1e-6
    assert_all_conditions_match_oracle(gen, s, dims[:1], dims[1:])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]))
def test_mixture_with_mixed_components_matches_oracle(seed, dims):
    gen = rng(seed)
    inner = mix([random_pure(gen, dims), random_mixed(gen, dims)], [0.4, 0.6])
    s = mix([random_mixed(gen, dims), inner, random_pure(gen, dims)], [0.3, 0.5, 0.2])
    side = math.prod(dims)
    assert s.weights.size == side + (1 + side) + 1
    assert abs(s.weights.sum() - 1.0) < 1e-12
    assert_all_conditions_match_oracle(gen, s, dims[:1], dims[1:])


def test_rank_deficient_density_with_negative_round_off_matches_oracle():
    gen = rng(31)
    side = 6
    U = np.linalg.qr(np.column_stack([random_unit_vector(gen, side) for _ in range(side)]))[0]
    spectrum = np.array([0.5, 0.3, 0.2 + 5e-11, -5e-11, 0.0, 0.0])
    rho = U @ np.diag(spectrum) @ U.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    s = QuantumState.mixed(rho, (2, 3))
    # the negative eigenvalue is kept as a weight, not clamped
    assert s.weights.min() < -4e-11
    assert np.abs(s.density.data - rho).max() < 1e-14
    assert_all_conditions_match_oracle(gen, s, (2,), (3,))


def test_mix_and_vacuum_mixture_call_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigen-solver was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    gen = rng(41)
    parts = [random_pure(gen, (2, 3)) for _ in range(3)]
    m = mix([mix(parts, [0.2, 0.3, 0.5]), parts[0]], [0.5, 0.5])
    assert m.kind == "mixed" and m.weights.size == 4
    s = vacuum_mixture(0.5, [0.8, 0.6])
    quad = quadratures(s.dims[0])
    report = variance_product(quad.x, quad.p, quad.p, quad.x, s)
    assert abs(report.lhs - (0.25 + 0.5 * quadratic_form([0.8, 0.6]))) < 1e-12


# --- exact rational oracle ---------------------------------------------------
#
# States with rational amplitudes (up to a common norm) and the spin
# operators, whose entries are 0, ±1 and ±i.  Every moment is then a Gaussian
# rational; the reference below carries each matrix as a pair of Fraction
# matrices (real part, imaginary part) and rounds only at the comparison.

EXACT_TOL = 1e-14


def _mm(X, Y):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def _lin(X, Y, sign=1):
    return [[a + sign * b for a, b in zip(rx, ry)] for rx, ry in zip(X, Y)]


def _kr(X, Y):
    return [[a * b for a in rx for b in ry] for rx in X for ry in Y]


def exact(op):
    """(real part, imaginary part) of a ComplexMatrix, as Fraction matrices."""
    return tuple([[Fraction(v) for v in row] for row in part.tolist()]
                 for part in (op.data.real, op.data.imag))


def c_mul(X, Y):
    return (_lin(_mm(X[0], Y[0]), _mm(X[1], Y[1]), -1),
            _lin(_mm(X[0], Y[1]), _mm(X[1], Y[0])))


def c_kron(X, Y):
    return (_lin(_kr(X[0], Y[0]), _kr(X[1], Y[1]), -1),
            _lin(_kr(X[0], Y[1]), _kr(X[1], Y[0])))


def c_add(X, Y, sign=1):
    return _lin(X[0], Y[0], sign), _lin(X[1], Y[1], sign)


def c_mean(X, amps):
    """<u|X|u>/<u|u> for a real vector u; the imaginary part of a Hermitian
    X is antisymmetric and drops out."""
    return (sum(u * x * w for u, row in zip(amps, X[0]) for x, w in zip(row, amps))
            / sum(u * u for u in amps))


def exact_conditions(A, Ap, B, Bp, amps):
    """{name: (lhs, rhs)} as Fractions; variance_product's lhs comes squared."""
    def mean(X):
        return c_mean(X, amps)

    AB, ApBp = c_kron(A, B), c_kron(Ap, Bp)
    var_ab = mean(c_mul(AB, AB)) - mean(AB) ** 2
    var_apbp = mean(c_mul(ApBp, ApBp)) - mean(ApBp) ** 2
    m_comm = mean(c_kron(c_add(c_mul(A, Ap), c_mul(Ap, A), -1),
                         c_add(c_mul(B, Bp), c_mul(Bp, B), -1)))
    m_ab, m_abp, m_apb, m_apbp = (mean(c_kron(X, Y))
                                  for X, Y in ((A, B), (A, Bp), (Ap, B), (Ap, Bp)))
    m_sq = mean(c_kron(c_add(c_mul(A, A), c_mul(Ap, Ap)), c_add(c_mul(B, B), c_mul(Bp, Bp))))
    return {"variance_product": (var_ab * var_apbp, abs(m_comm) / 4),
            "uffink": ((m_ab - m_apbp) ** 2 + (m_abp + m_apb) ** 2, m_sq)}


def assert_exact(got, want):
    assert abs(got - want) <= EXACT_TOL * max(1.0, abs(want)), (got, want)


EXACT_STATES = {
    "bell": (lambda: bell(2), (1, 0, 0, 1)),
    "schmidt_3_4": (lambda: schmidt_pair(0.6, 0.8), (Fraction(3, 5), 0, 0, Fraction(4, 5))),
}


@pytest.mark.parametrize("state_name", sorted(EXACT_STATES))
@pytest.mark.parametrize("quadruple", [(0, 1, 0, 1), (0, 2, 1, 0), (2, 0, 2, 1)])
def test_conditions_match_exact_rational_oracle(state_name, quadruple):
    build, amps = EXACT_STATES[state_name]
    spins = spin_ops()
    A, Ap, B, Bp = (spins[k] for k in quadruple)
    want = exact_conditions(*(exact(op) for op in (A, Ap, B, Bp)), amps)
    s = build()

    # lhs = sqrt(var_AB) * sqrt(var_ApBp) turns a round-off variance of 2e-16
    # into 1.5e-8 (bell with s_z (x) s_z), so the product of the variances is
    # what is compared
    lhs_sq, rhs = want["variance_product"]
    report = variance_product(A, Ap, B, Bp, s)
    assert_exact(report.lhs ** 2, float(lhs_sq))
    assert_exact(report.rhs, float(rhs))

    lhs, rhs = want["uffink"]
    report = uffink(A, Ap, B, Bp, s)
    assert_exact(report.lhs, float(lhs))
    assert_exact(report.rhs, float(rhs))


def test_exact_oracle_schmidt_closed_form():
    # alpha|00> + beta|11> with (s_x, s_y, s_x, s_y): <s_x s_x> = 2 alpha beta
    # = 24/25 and <s_y s_y> = -24/25, so each variance is 49/625
    s_x, s_y, _, _ = (exact(op) for op in spin_ops())
    want = exact_conditions(s_x, s_y, s_x, s_y, EXACT_STATES["schmidt_3_4"][1])
    assert want == {"variance_product": (Fraction(49, 625) ** 2, Fraction(1)),
                    "uffink": (Fraction(48, 25) ** 2, Fraction(4))}


# --- the moment table --------------------------------------------------------
#
# Every bipartite condition is arithmetic on one table: the means of the four
# lifted products P_p = A_i (x) B_j, their Gram matrix G[p, q] = <P_p P_q> and,
# for the power-sum condition at n = 4, <M^4> of three sums M of them.  Each
# entry is checked against dense kron matrices and the state's density.

def mixed_with_negative_weight(gen, dims):
    """A rank-deficient mixed state whose ensemble keeps a -5e-11 weight."""
    side = math.prod(dims)
    U = np.linalg.qr(np.column_stack([random_unit_vector(gen, side) for _ in range(side)]))[0]
    spectrum = np.zeros(side)
    spectrum[:3] = [0.6, 0.4 + 5e-11, -5e-11]
    rho = U @ np.diag(spectrum) @ U.conj().T
    s = QuantumState.mixed(0.5 * (rho + rho.conj().T), dims)
    assert s.weights.min() < -4e-11
    return s


@pytest.mark.parametrize("split", [((2,), (2,)), ((2,), (3,)), ((2, 2), (2,)), ((3,), (2, 2))])
@pytest.mark.parametrize("kind", ["pure", "mixed", "negative_weight"])
@pytest.mark.parametrize("seed", [1, 2])
def test_moment_table_matches_dense_kron(split, kind, seed):
    from entwit.config import _IDENTITY_ROWS
    from entwit.witnesses import _fourth_moments, _moment_table

    gen = rng(seed)
    dims_a, dims_b = split
    dims = dims_a + dims_b
    s = {"pure": random_pure, "mixed": random_mixed,
         "negative_weight": mixed_with_negative_weight}[kind](gen, dims)
    A, Ap = hermitian_on(gen, dims_a), hermitian_on(gen, dims_a)
    B, Bp = hermitian_on(gen, dims_b), hermitian_on(gen, dims_b)
    rho = s.density.data
    P = [kron(X, Y).data for X in (A, Ap) for Y in (B, Bp)]
    means, second, G = _moment_table(A, Ap, B, Bp, s)
    for p in range(4):
        assert_matches(means[p], np.trace(rho @ P[p]).real)
        assert_matches(second[p], np.trace(rho @ P[p] @ P[p]).real)
        for q in range(4):
            want = np.trace(rho @ P[p] @ P[q])
            assert_matches(G[p, q].real, want.real)
            assert_matches(G[p, q].imag, want.imag)
    power_sums = _IDENTITY_ROWS["ramanujan"][1]
    for got, c in zip(_fourth_moments(power_sums, A, Ap, B, Bp, s), power_sums):
        M = sum(cp * Pp for cp, Pp in zip(c, P))
        assert_matches(got, np.trace(rho @ np.linalg.matrix_power(M, 4)).real)


# Sums M over the four products with coefficients in {-1, 0, 1}: a zero pair,
# negated units, B - B', -B - B' and a zero sum, none of them in the identity.
OTHER_POWER_SUMS = ((1, -1, 0, 0), (0, 0, -1, 1), (-1, -1, 1, 0), (0, 1, 1, -1),
                    (-1, 0, 0, -1), (0, 0, 0, 0))


@pytest.mark.parametrize("split", [((2,), (2,)), ((2,), (3,)), ((3,), (2, 2))])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_fourth_moments_follow_any_rows(split, kind):
    from entwit.witnesses import _fourth_moments

    gen = rng(31)
    dims_a, dims_b = split
    s = {"pure": random_pure, "mixed": random_mixed}[kind](gen, dims_a + dims_b)
    A, Ap = hermitian_on(gen, dims_a), hermitian_on(gen, dims_a)
    B, Bp = hermitian_on(gen, dims_b), hermitian_on(gen, dims_b)
    rho = s.density.data
    P = [kron(X, Y).data for X in (A, Ap) for Y in (B, Bp)]
    got = _fourth_moments(OTHER_POWER_SUMS, A, Ap, B, Bp, s)
    assert len(got) == len(OTHER_POWER_SUMS)
    for value, c in zip(got, OTHER_POWER_SUMS):
        M = sum(cp * Pp for cp, Pp in zip(c, P))
        assert_matches(value, np.trace(rho @ np.linalg.matrix_power(M, 4)).real)


def test_every_factor_product_goes_through_apply_factor(monkeypatch):
    # with the vec-trick primitive doubling its output, a product of k factors
    # on the state doubles k times: a mean (A then B) reads x4, the Gram
    # matrix x16, and <M^4> = ||M^2 v||^2 (four factors in M^2 v) x256
    import entwit.hilbert as hilbert
    import entwit.witnesses as witnesses
    from entwit.config import _IDENTITY_ROWS

    gen = rng(23)
    s = random_mixed(gen, (2, 3))
    quad = (hermitian_on(gen, (2,)), hermitian_on(gen, (2,)),
            hermitian_on(gen, (3,)), hermitian_on(gen, (3,)))
    rows = _IDENTITY_ROWS["ramanujan"][1]
    means, _, G = witnesses._moment_table(*quad, s)
    fourth = witnesses._fourth_moments(rows, *quad, s)

    apply_factor = hilbert._apply_factor

    def doubled(*args):
        return 2 * apply_factor(*args)

    monkeypatch.setattr(hilbert, "_apply_factor", doubled)
    monkeypatch.setattr(witnesses, "_apply_factor", doubled)
    means_2, _, G_2 = witnesses._moment_table(*quad, s)
    np.testing.assert_allclose(means_2, 4 * np.array(means), rtol=1e-12)
    np.testing.assert_allclose(G_2, 16 * G, rtol=1e-12)
    np.testing.assert_allclose(witnesses._fourth_moments(rows, *quad, s),
                               256 * np.array(fourth), rtol=1e-12)


@pytest.mark.parametrize("dims", [(2, 1), (1, 2), (3, 1), (1, 1)])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_conditions_with_a_factor_of_side_one_match_oracle(dims, kind):
    # a side-1 factor makes the last product ambiguous in shape, (left, d) or
    # (left * d, 1); both sides of the table must still read the same numbers
    gen = rng(41)
    s = {"pure": random_pure, "mixed": random_mixed}[kind](gen, dims)
    assert_all_conditions_match_oracle(gen, s, dims[:1], dims[1:])


def test_fourth_moments_in_columns_of_one_match_dense_kron():
    # 72 ensemble vectors of a (24, 3) density give 1728 rows of M v, so the
    # columns of B's side are taken one at a time
    from entwit.witnesses import _blocks, _fourth_moments

    gen = rng(43)
    dims = (24, 3)
    s = random_mixed(gen, dims)
    assert _blocks(3, s.weights.size * dims[0])[0] == slice(0, 1)
    A, Ap = hermitian_on(gen, dims[:1]), hermitian_on(gen, dims[:1])
    B, Bp = hermitian_on(gen, dims[1:]), hermitian_on(gen, dims[1:])
    rho = s.density.data
    P = [kron(X, Y).data for X in (A, Ap) for Y in (B, Bp)]
    for value, c in zip(_fourth_moments(OTHER_POWER_SUMS, A, Ap, B, Bp, s), OTHER_POWER_SUMS):
        M = sum(cp * Pp for cp, Pp in zip(c, P))
        assert_matches(value, np.trace(rho @ np.linalg.matrix_power(M, 4)).real)


def test_power_sum_tables_are_the_identity_rows(monkeypatch):
    """``uffink`` and ``ramanujan_witness`` read their rows from
    ``config._IDENTITY_ROWS``: patched left rows move lhs as the dense
    oracle says, and rhs is ``<(c . P)^n>`` over the table's right rows."""
    from entwit import config

    gen = rng(43)
    s = random_mixed(gen, (2, 3))
    A, Ap = hermitian_on(gen, (2,)), hermitian_on(gen, (2,))
    B, Bp = hermitian_on(gen, (3,)), hermitian_on(gen, (3,))
    rho = s.density.data
    P = [kron(X, Y).data for X in (A, Ap) for Y in (B, Bp)]
    means = [np.trace(rho @ Pp).real for Pp in P]
    patched = ((1, -1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1))
    for name, n, condition in (("complex_norm", 2, uffink),
                               ("ramanujan", 2, lambda *q: ramanujan_witness(*q, 2)),
                               ("ramanujan", 4, lambda *q: ramanujan_witness(*q, 4))):
        right = config._IDENTITY_ROWS[name][1]
        monkeypatch.setitem(config._IDENTITY_ROWS, name, (patched, right))
        report = condition(A, Ap, B, Bp, s)
        assert_matches(report.lhs, sum(np.dot(row, means) ** n for row in patched))
        want = sum(np.trace(rho @ np.linalg.matrix_power(sum(cp * Pp for cp, Pp in zip(c, P)),
                                                         n)).real for c in right)
        assert_matches(report.rhs, want)


def non_hermitian(op, defect=1e-3):
    skew = np.zeros(op.data.shape, dtype=complex)
    skew[0, -1] = defect
    return ComplexMatrix(op.data + skew, op.dims)


BIPARTITE = [variance_product, variance_sum, uffink, four_variance,
             lambda *q: ramanujan_witness(*q, 2), lambda *q: ramanujan_witness(*q, 4),
             heisenberg_floor]


@pytest.mark.parametrize("position,label", [(0, "A"), (1, "A'"), (2, "B"), (3, "B'")])
def test_non_hermitian_operator_rejected_with_cached_defect(position, label):
    quad = [S_X, S_Y, S_X, S_Y]
    quad[position] = non_hermitian(quad[position])
    for condition in BIPARTITE:
        for _ in range(2):  # the second call reads the cached defect
            with pytest.raises(ValueError, match=f"operator {label} is not Hermitian"):
                condition(*quad, bell(2))


# --- working memory ----------------------------------------------------------
#
# The size refusal counts hilbert._WORKING_COPIES arrays of the state's size,
# the state included.  The arrays a condition allocates must fit in the rest,
# apart from operator-sized temporaries (sums of B and B'), bounded by the
# operators' own size.

def memory_states():
    from entwit import squeezed_vacuum

    gen = rng(5)
    D = 256
    parts = [QuantumState.pure(random_unit_vector(gen, D * D), (D, D)) for _ in range(4)]
    return [squeezed_vacuum(0.9, cutoff=D), mix(parts, [0.4, 0.3, 0.2, 0.1])]


@pytest.mark.parametrize("state_index", [0, 1])
def test_conditions_stay_within_working_copies(state_index):
    import tracemalloc

    from entwit import block_spin
    from entwit.hilbert import _WORKING_COPIES

    s = memory_states()[state_index]
    assert s.vectors.nbytes >= 2**20
    X, Y, _ = block_spin(s.dims[0])
    budget = (_WORKING_COPIES - 1) * s.vectors.nbytes + 4 * X.data.nbytes
    for condition in BIPARTITE:
        tracemalloc.start()
        try:
            condition(X, Y, X, Y, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (condition, peak / s.vectors.nbytes)


def traced_peak(call) -> int:
    """The most memory ``call()`` held at once, as tracemalloc reads it."""
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lopsided_cases():
    """States whose B side is too small to block, 2 and 1, as mixtures of a
    vector per dimension, so each is 4 MB next to 1 and 4 MB operators on A,
    with block spins on A and a random Hermitian pair on B."""
    from entwit import block_spin

    gen = rng(7)
    cases = []
    for a, b in ((256, 2), (512, 1)):
        parts = [QuantumState.pure(random_unit_vector(gen, a * b), (a, b)) for _ in range(a * b)]
        X, Y, _ = block_spin(a)
        quad = (X, Y, hermitian_on(gen, (b,)), hermitian_on(gen, (b,)))
        cases.append((mix(parts, [1.0 / (a * b)] * (a * b)), quad))
    return cases


def traced_case(index):
    """Case ``index``: the two ``memory_states`` with block spins on both
    sides, then the two :func:`lopsided_cases`."""
    from entwit import block_spin

    if index >= 2:
        return lopsided_cases()[index - 2]
    s = memory_states()[index]
    X, Y, _ = block_spin(s.dims[0])
    return s, (X, Y, X, Y)


def test_conditions_on_a_small_b_side_stay_within_working_copies():
    # the budget of test_conditions_stay_within_working_copies on the (256, 2)
    # case, whose grid is blocked over A's rows; its operators' share of the
    # budget is one state copy (the (512, 1) case's operators are as large
    # as its state, so a budget there would leave four copies of room)
    from entwit.hilbert import _WORKING_COPIES

    s, quad = lopsided_cases()[0]
    assert s.vectors.nbytes >= 4 * quad[0].data.nbytes
    budget = (_WORKING_COPIES - 1) * s.vectors.nbytes + 4 * quad[0].data.nbytes
    for condition in BIPARTITE:
        peak = traced_peak(lambda: condition(*quad, s))
        assert peak <= budget, (condition, peak / s.vectors.nbytes)


@pytest.mark.parametrize("case", [0, 1, 2, 3])
def test_moment_table_forms_no_array_of_the_states_size(case):
    # the four products are formed a block of the larger side at a time; a
    # table that formed A v and A' v in full would hold two copies more, and
    # one blocked over a B side of 1 or 2 about seven
    from entwit.witnesses import _moment_table

    s, quad = traced_case(case)
    peak = traced_peak(lambda: _moment_table(*quad, s))
    assert peak < s.vectors.nbytes, peak / s.vectors.nbytes


@pytest.mark.parametrize("case", [0, 1, 2, 3])
def test_fourth_moments_hold_one_state_sized_array_per_row(case):
    # the three M v of the power-sum rows, and under half a copy for the
    # blocks the kernel forms of them; A v and A' v held in full as well
    # would pass the bound
    from entwit.config import _IDENTITY_ROWS
    from entwit.witnesses import _fourth_moments

    s, quad = traced_case(case)
    rows = _IDENTITY_ROWS["ramanujan"][1]
    peak = traced_peak(lambda: _fourth_moments(rows, *quad, s))
    assert peak < (len(rows) + 0.5) * s.vectors.nbytes, peak / s.vectors.nbytes


@pytest.mark.parametrize("dims,block", [((12, 12), (slice(None), slice(0, 1))),
                                        ((12, 11), (slice(0, 1), slice(None)))])
def test_products_in_blocks_of_one_match_dense_kron(dims, block):
    # a full-rank density on about 12 x 12 holds over 1024 entries per index
    # of the larger side (B's on a tie), so that side is taken one index at
    # a time
    from entwit.witnesses import _fourth_moments, _grid_blocks, _moment_table

    gen = rng(47)
    s = random_mixed(gen, dims)
    A, Ap = hermitian_on(gen, dims[:1]), hermitian_on(gen, dims[:1])
    B, Bp = hermitian_on(gen, dims[1:]), hermitian_on(gen, dims[1:])
    assert _grid_blocks(A, B, s.weights.size)[0] == block
    rho = s.density.data
    P = [kron(X, Y).data for X in (A, Ap) for Y in (B, Bp)]
    means, _, G = _moment_table(A, Ap, B, Bp, s)
    for p in range(4):
        assert_matches(means[p], np.trace(rho @ P[p]).real)
        for q in range(4):
            assert_matches(abs(G[p, q] - np.trace(rho @ P[p] @ P[q])), 0.0)
    for value, c in zip(_fourth_moments(OTHER_POWER_SUMS, A, Ap, B, Bp, s), OTHER_POWER_SUMS):
        M = sum(cp * Pp for cp, Pp in zip(c, P))
        assert_matches(value, np.trace(rho @ np.linalg.matrix_power(M, 4)).real)


# --- the moment table shared across conditions -------------------------------
#
# The registry ``witnesses._TABLES`` keeps, for each live state, the table of
# the last quadruple evaluated on it, keyed by the identity of the four
# operators; the quadruple is validated in full when its table is built, and
# a read of the table checks nothing.


@pytest.fixture
def table_count(monkeypatch):
    """The number of moment tables computed since the fixture was set up."""
    import entwit.witnesses as witnesses

    compute, calls = witnesses._moment_table, []

    def counted(*args, **kwargs):
        calls.append(args[:4])
        return compute(*args, **kwargs)

    monkeypatch.setattr(witnesses, "_moment_table", counted)
    return calls


def shared_table_case(seed, dims=(2, 3)):
    gen = rng(seed)
    s = mix([random_mixed(gen, dims), random_pure(gen, dims)], [0.7, 0.3])
    quad = (hermitian_on(gen, dims[:1]), hermitian_on(gen, dims[:1]),
            hermitian_on(gen, dims[1:]), hermitian_on(gen, dims[1:]))
    return s, quad


def stored_table(s):
    """The registry's ``(A, A', B, B', means, second, G)`` for ``s``, or None."""
    from entwit.witnesses import _TABLES

    return _TABLES.get(s)


def same_state(s):
    """An equal-valued but distinct state object, with nothing cached."""
    return mix([s], [1.0])


def test_bipartite_conditions_build_one_table_per_quadruple_and_state(table_count):
    s, quad = shared_table_case(61)
    shared = [condition(*quad, s) for condition in BIPARTITE]
    assert len(table_count) == 1
    fresh = [condition(*quad, same_state(s)) for condition in BIPARTITE]
    assert len(table_count) == 1 + len(BIPARTITE)
    assert shared == fresh
    # another pass on the same pair reads the same table again
    assert [condition(*quad, s) for condition in BIPARTITE] == shared
    assert len(table_count) == 1 + len(BIPARTITE)


def test_uncertainty_conditions_report_the_same_table_values():
    s, quad = shared_table_case(66)
    reports = [condition(*quad, s) for condition in (variance_product, variance_sum,
                                                     four_variance)]
    for key in ("m_AB", "m_ApBp", "var_AB", "var_ApBp", "m_comm"):
        first, *rest = (rep.details[key] for rep in reports)
        assert type(first) is float
        assert all(value == first for value in rest), key


def test_equal_but_distinct_operator_recomputes_the_table(table_count):
    s, (A, Ap, B, Bp) = shared_table_case(62)
    first = uffink(A, Ap, B, Bp, s)
    A_copy = ComplexMatrix(A.data, A.dims)
    assert uffink(A_copy, Ap, B, Bp, s) == first
    assert len(table_count) == 2
    assert stored_table(s)[0] is A_copy


def test_next_quadruple_replaces_the_cached_table(table_count):
    s, quad = shared_table_case(63)
    _, other = shared_table_case(64)
    want = [variance_sum(*q, same_state(s)) for q in (quad, other)]
    assert len(table_count) == 2
    for q, report in zip((quad, other, quad), want + want[:1]):
        assert variance_sum(*q, s) == report
        assert all(x is y for x, y in zip(stored_table(s), q))
    assert len(table_count) == 5


def test_cached_table_holds_no_state_sized_array():
    gen = rng(65)
    dims = (6, 6)
    s = mix([random_mixed(gen, dims), random_pure(gen, dims)], [0.5, 0.5])
    quad = tuple(hermitian_on(gen, (d,)) for d in (6, 6, 6, 6))
    for condition in BIPARTITE:  # the power-sum condition at n = 4 forms A_i v too
        condition(*quad, s)
    entry = stored_table(s)
    assert len(entry) == 7 and all(x is y for x, y in zip(entry, quad))
    for value in entry[4:]:
        arr = np.asarray(value)
        assert arr.size < s.side, arr.shape
        assert arr.base is None or arr.base.size < s.side


def lifted_defect_quadruple(position):
    """Every factor passes the 1e-10 check, and so does every lifted product
    but P_position = A_i (x) B_j, whose defect bound is 0.9e-10 * 20."""
    skew = np.zeros((2, 2), dtype=complex)
    skew[0, 1] = 0.9e-10
    i, j = divmod(position, 2)
    As, Bs = [S_Y, S_Y], [S_Y, S_Y]
    As[i], Bs[j] = ComplexMatrix(S_X.data + skew, (2,)), S_X * 20.0
    return (*As, *Bs)


@pytest.mark.parametrize("position,label", [(0, "A (x) B"), (1, "A (x) B'"),
                                            (2, "A' (x) B"), (3, "A' (x) B'")])
def test_lifted_hermiticity_rejected_by_every_condition(position, label):
    # every condition reads all four products from the table, so every one
    # refuses each product, whether or not the state holds another table
    quad, fresh, held = lifted_defect_quadruple(position), bell(2), bell(2)
    uffink(S_X, S_Y, S_X, S_Y, held)
    entry = stored_table(held)
    for s in (fresh, held):
        for condition in BIPARTITE:
            for _ in range(2):  # the second call reads the cached defects
                with pytest.raises(ValueError,
                                   match=re.escape(f"operator {label} is not Hermitian")):
                    condition(*quad, s)
    assert stored_table(fresh) is None and stored_table(held) is entry


def test_table_hit_runs_no_hermiticity_check(monkeypatch):
    import entwit.witnesses as witnesses

    check, calls = witnesses._require_hermitian, []

    def counted(factors, label):
        calls.append(label)
        return check(factors, label)

    monkeypatch.setattr(witnesses, "_require_hermitian", counted)
    s, quad = shared_table_case(72)
    for condition in BIPARTITE:
        condition(*quad, s)
    # the four operators and the four lifted products, once, on the miss
    assert calls == ["A", "A'", "B", "B'", "A (x) B", "A (x) B'", "A' (x) B", "A' (x) B'"]
    calls.clear()
    for condition in BIPARTITE:
        condition(*quad, s)
    assert calls == []


def test_rejected_quadruple_stores_no_table(table_count):
    s, quad = shared_table_case(66)
    before = uffink(*quad, s)
    entry = stored_table(s)
    for position in range(4):
        bad = list(quad)
        bad[position] = non_hermitian(bad[position])
        with pytest.raises(ValueError, match="is not Hermitian"):
            variance_sum(*bad, s)
        assert stored_table(s) is entry
    fresh = bell(2)
    with pytest.raises(ValueError, match="is not Hermitian"):
        four_variance(*lifted_defect_quadruple(1), fresh)
    assert stored_table(fresh) is None
    assert uffink(*quad, s) == before and len(table_count) == 1 + 4 + 1


def test_threads_sharing_a_state_read_consistent_tables():
    import sys
    import threading

    s, quad = shared_table_case(67)
    _, other = shared_table_case(68)
    quads = (quad, other)
    want = [[condition(*q, same_state(s)) for condition in BIPARTITE] for q in quads]
    failures = []

    def work(k):
        try:
            for i in range(30):
                q = (i + k) % 2
                assert [condition(*quads[q], s) for condition in BIPARTITE] == want[q]
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_quadruple_checked_in_full_only_on_a_table_miss(monkeypatch):
    import entwit.witnesses as witnesses

    check, calls = witnesses._check_quadruple, []

    def counted(*args):
        calls.append(args[4])
        return check(*args)

    monkeypatch.setattr(witnesses, "_check_quadruple", counted)
    s, quad = shared_table_case(70)
    for condition in BIPARTITE:
        condition(*quad, s)
    assert calls == [s]
    fresh = [same_state(s) for _ in BIPARTITE]
    for condition, state in zip(BIPARTITE, fresh):
        condition(*quad, state)
    assert calls == [s, *fresh]


def test_multipartite_builds_no_matrix(monkeypatch):
    gen = rng(71)
    dims = (2, 3, 2)
    As = [hermitian_on(gen, (d,)) for d in dims]
    Aps = [hermitian_on(gen, (d,)) for d in dims]
    cases = [(As, Aps, random_pure(gen, dims)), (As, Aps, random_mixed(gen, dims)),
             ([S_X] * 3, [S_Y] * 3, bell(3))]
    init, built = ComplexMatrix.__init__, []

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComplexMatrix, "__init__", counted)
    for ops, primed, s in cases:
        multipartite(ops, primed, s)
    assert built == []


def test_shared_table_values_are_read_only():
    s, quad = shared_table_case(69)
    variance_product(*quad, s)
    means, second, G = stored_table(s)[4:]
    assert isinstance(means, tuple) and isinstance(second, tuple)
    with pytest.raises(ValueError, match="read-only"):
        G[0, 0] = 0.0


# --- the exact oracle for every bipartite condition --------------------------


def c_mean_imag(X, amps):
    """Im <u|X|u>/<u|u> for a real vector u."""
    return (sum(u * x * w for u, row in zip(amps, X[1]) for x, w in zip(row, amps))
            / sum(u * u for u in amps))


def exact_remaining_conditions(A, Ap, B, Bp, amps):
    """{name: (lhs, rhs)} as Fractions for the conditions exact_conditions
    leaves out, and the Heisenberg floor under "floor"."""
    def mean(X):
        return c_mean(X, amps)

    def variance_of(X):
        return mean(c_mul(X, X)) - mean(X) ** 2

    AB, ABp, ApB, ApBp = (c_kron(X, Y) for X, Y in ((A, B), (A, Bp), (Ap, B), (Ap, Bp)))
    m_ab, m_abp, m_apb, m_apbp = map(mean, (AB, ABp, ApB, ApBp))
    var = [variance_of(X) for X in (AB, ABp, ApB, ApBp)]
    m_comm = mean(c_kron(c_add(c_mul(A, Ap), c_mul(Ap, A), -1),
                         c_add(c_mul(B, Bp), c_mul(Bp, B), -1)))
    sums = (c_add(ABp, ApB, -1), c_add(c_add(ApB, ApBp), AB), c_add(c_add(ApBp, AB), ABp))
    out = {"variance_sum": (var[0] + var[3], abs(m_comm) / 2),
           "four_variance": (sum(var), abs(m_comm))}
    for n in (2, 4):
        lhs = (m_ab + m_abp + m_apb) ** n + (m_abp + m_apb + m_apbp) ** n + (m_ab - m_apbp) ** n
        powers = [c_mul(M, M) for M in sums]
        if n == 4:
            powers = [c_mul(M2, M2) for M2 in powers]
        out[f"ramanujan_{n}"] = (lhs, sum(map(mean, powers)))
    lifted_comm = c_add(c_mul(AB, ApBp), c_mul(ApBp, AB), -1)
    out["floor"] = abs(c_mean_imag(lifted_comm, amps)) / 2
    return out


def test_exact_oracle_bell_closed_forms():
    # bell(2) with (s_x, s_y, s_x, s_y): <XX> = 1, <YY> = -1, <XY> = <YX> = 0,
    # so var_AB = var_ApBp = 0 and var_ABp = var_ApB = 1; [X, Y] (x) [X, Y]
    # = -4 Z (x) Z gives m_comm = -4; XX and YY commute, so the floor is 0
    s_x, s_y, _, _ = (exact(op) for op in spin_ops())
    want = exact_remaining_conditions(s_x, s_y, s_x, s_y, EXACT_STATES["bell"][1])
    assert want["variance_sum"] == (0, 2)
    assert want["four_variance"] == (2, 4)
    assert want["floor"] == 0
    assert want["ramanujan_2"][0] == 6


@pytest.mark.parametrize("state_name", sorted(EXACT_STATES))
@pytest.mark.parametrize("quadruple", [(0, 1, 0, 1), (0, 2, 1, 0), (2, 0, 2, 1)])
def test_all_conditions_on_one_state_match_exact_oracle(table_count, state_name, quadruple):
    build, amps = EXACT_STATES[state_name]
    spins = spin_ops()
    A, Ap, B, Bp = (spins[k] for k in quadruple)
    exact_ops = [exact(op) for op in (A, Ap, B, Bp)]
    want = {**exact_conditions(*exact_ops, amps), **exact_remaining_conditions(*exact_ops, amps)}
    s = build()  # one state: every condition after the first reads the cached table

    lhs_sq, rhs = want["variance_product"]
    report = variance_product(A, Ap, B, Bp, s)
    assert_exact(report.lhs ** 2, float(lhs_sq))
    assert_exact(report.rhs, float(rhs))
    for report in (variance_sum(A, Ap, B, Bp, s), four_variance(A, Ap, B, Bp, s),
                   ramanujan_witness(A, Ap, B, Bp, s, 2), ramanujan_witness(A, Ap, B, Bp, s, 4),
                   uffink(A, Ap, B, Bp, s)):
        lhs, rhs = want[report.name]
        assert_exact(report.lhs, float(lhs))
        assert_exact(report.rhs, float(rhs))
    assert_exact(heisenberg_floor(A, Ap, B, Bp, s), float(want["floor"]))
    assert len(table_count) == 1


def test_conditions_leave_every_state_slot_unchanged():
    s, quad = shared_table_case(73)
    multi = bell(3)
    states = (s, multi)
    # __weakref__ is the interpreter's list of weak references, not state data
    held = [{name: getattr(state, name) for name in type(state).__slots__
             if name != "__weakref__"} for state in states]
    for condition in BIPARTITE:  # heisenberg_floor among them
        condition(*quad, s)
    multipartite([S_X] * 3, [S_Y] * 3, multi)
    for state, before in zip(states, held):
        for name, value in before.items():
            assert getattr(state, name) is value, name


def test_registry_keeps_one_entry_per_live_state_and_drops_it_with_the_state():
    import gc
    import weakref

    from entwit.witnesses import _TABLES

    s, quad = shared_table_case(74)
    other = same_state(s)
    for state in (s, other):
        uffink(*quad, state)
    entry = stored_table(other)
    assert stored_table(s) is not entry
    dead = weakref.ref(s)
    gc.collect()
    entries = len(_TABLES)
    del s
    gc.collect()
    assert dead() is None
    assert len(_TABLES) == entries - 1
    assert all(ref() is not None for ref in _TABLES.keyrefs())
    assert stored_table(other) is entry
