"""The sparse spin families (``entwit.pauli``) against the dense path.

The dense ensemble and ``kron`` are the oracle: on Bell states up to ten
parties and on Schmidt pairs with complex amplitudes, every spin quadruple
gives the same moment table and the same report under every condition.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from entwit import (ComplexMatrix, QuantumState, StateSpec, bell, builtin_operator,
                    four_variance, kron, multipartite, ramanujan_witness, schmidt_optimal_witness,
                    schmidt_pair, uffink, variance_product, variance_sum)
from entwit import pauli
from entwit.config import _IDENTITY_ROWS
from entwit.witnesses import _fourth_moments, _moment_table

from _support import rng

TOL = 1e-12
SPINS = ("sx", "sy", "sz")
QUADRUPLES = list(itertools.product(SPINS, repeat=4))
SCHMIDT = [(0.6, 0.8), (0.6j, 0.8), (complex(0.6, 0.0), complex(0.48, -0.64)),
           (complex(-0.36, 0.48), complex(0.4, 0.4 * math.sqrt(3.0))), (1.0, 0.0), (0.0, 1j)]
BIPARTITE = {"variance_product": variance_product, "variance_sum": variance_sum,
             "uffink": uffink, "four_variance": four_variance,
             "ramanujan_2": lambda *q: ramanujan_witness(*q, 2),
             "ramanujan_4": lambda *q: ramanujan_witness(*q, 4)}
SPARSE = {"variance_product": pauli.variance_product, "variance_sum": pauli.variance_sum,
          "uffink": pauli.uffink, "four_variance": pauli.four_variance,
          "ramanujan_2": lambda *q: pauli.ramanujan_witness(*q, 2),
          "ramanujan_4": lambda *q: pauli.ramanujan_witness(*q, 4)}


def spin_pair(spec):
    """The dense state of a spin-family spec and its sparse twin."""
    return spec.build(), pauli.spin_state(spec)


def close(got, want):
    return abs(got - want) <= TOL * max(1.0, abs(want))


def assert_reports_match(sparse, dense):
    """Field by field within 1e-12.  A product condition's lhs is
    ``sqrt(var) * sqrt(var')``, which turns a round-off variance of 2e-16 in
    the dense path into 1.5e-8; its variances and their product are compared
    instead, and its delta, ratio and verdict, which follow from that lhs,
    are left out."""
    assert sparse.name == dense.name
    assert sparse.details.keys() == dense.details.keys()
    for key, value in dense.details.items():
        assert close(sparse.details[key], value), (sparse.name, key, sparse.details[key], value)
    assert close(sparse.rhs, dense.rhs)
    if sparse.name in ("variance_product", "multipartite"):
        assert close(sparse.lhs ** 2, dense.lhs ** 2)
    else:
        assert close(sparse.lhs, dense.lhs) and close(sparse.delta, dense.delta)
        assert sparse.violated == dense.violated and sparse.V == dense.V


def assert_tables_match(names, dense_state, sparse_state):
    dense_ops = [builtin_operator(name, 2) for name in names]
    sparse_ops = [pauli.SPINS[name] for name in names]
    means, second, G = _moment_table(*dense_ops, dense_state)
    s_means, s_second, s_G = pauli.moment_table(*sparse_ops, sparse_state)
    assert all(map(close, s_means, means)) and all(map(close, s_second, second))
    assert all(abs(s_G[p][q] - G[p, q]) <= TOL for p in range(4) for q in range(4))
    rows = _IDENTITY_ROWS["ramanujan"][1]
    assert all(map(close, pauli._fourth_moments(rows, *sparse_ops, sparse_state),
                   _fourth_moments(rows, *dense_ops, dense_state)))


SPECS = ([StateSpec("bell", {"parties": 2})]
         + [StateSpec("schmidt", {"alpha": [a.real, a.imag], "beta": [b.real, b.imag]})
            for a, b in map(lambda pair: map(complex, pair), SCHMIDT)])


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: repr(spec.params))
def test_two_party_tables_and_reports_match_dense(spec):
    dense_state, sparse_state = spin_pair(spec)
    for names in QUADRUPLES:
        assert_tables_match(names, dense_state, sparse_state)
        dense_ops = [builtin_operator(name, 2) for name in names]
        sparse_ops = [pauli.SPINS[name] for name in names]
        for condition, evaluate in BIPARTITE.items():
            assert_reports_match(SPARSE[condition](*sparse_ops, sparse_state),
                                 evaluate(*dense_ops, dense_state))
        assert_reports_match(
            pauli.multipartite(sparse_ops[0::2], sparse_ops[1::2], sparse_state),
            multipartite(dense_ops[0::2], dense_ops[1::2], dense_state))


@pytest.mark.parametrize("n", range(2, 11))
def test_multipartite_on_bell_states_matches_dense(n):
    # each quadruple (a, a', b, b') as a on the first n - 1 parties and b on
    # the last, primed alike
    dense_state, sparse_state = spin_pair(StateSpec("bell", {"parties": n}))
    for a, ap, b, bp in QUADRUPLES:
        names, primed = [a] * (n - 1) + [b], [ap] * (n - 1) + [bp]
        assert_reports_match(
            pauli.multipartite([pauli.SPINS[x] for x in names],
                               [pauli.SPINS[x] for x in primed], sparse_state),
            multipartite([builtin_operator(x, 2) for x in names],
                         [builtin_operator(x, 2) for x in primed], dense_state))


@pytest.mark.parametrize("alpha,beta", SCHMIDT)
def test_schmidt_witness_matches_dense(alpha, beta):
    *sparse_ops, sparse = pauli.schmidt_optimal_witness(alpha, beta)
    *dense_ops, dense = schmidt_optimal_witness(alpha, beta)
    assert_reports_match(sparse, dense)
    assert close(sparse.lhs, 1.0 - 4.0 * abs(alpha * beta) ** 2) and close(sparse.rhs, 1.0)
    for terms, op in zip(sparse_ops, dense_ops):  # cos(t) X + sin(t) Y
        (c, _, _), (s, _, _) = terms
        assert np.allclose(c * np.array([[0, 1], [1, 0]]) + s * np.array([[0, -1j], [1j, 0]]),
                           op.data, rtol=0.0, atol=TOL)


def random_terms(gen):
    """A Hermitian one-qubit factor: a real sum of the identity and the three Paulis."""
    return tuple((float(c), x, z) for c, (x, z) in zip(gen.normal(size=4),
                                                        ((0, 0), (1, 0), (1, 1), (0, 1))))


def dense_factor(terms):
    paulis = {(0, 0): np.eye(2), (1, 0): np.array([[0, 1], [1, 0]]),
              (1, 1): np.array([[0, -1j], [1j, 0]]), (0, 1): np.array([[1, 0], [0, -1]])}
    return ComplexMatrix(sum(c * paulis[x, z] for c, x, z in terms), (2,))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sums_of_pauli_terms_on_a_random_two_qubit_state_match_kron(seed):
    # several terms per factor, the identity among them, on every amplitude
    gen = rng(seed)
    amps = gen.normal(size=4) + 1j * gen.normal(size=4)
    amps /= np.linalg.norm(amps)
    dense_state = QuantumState.pure(amps, (2, 2))
    sparse_state = pauli.SpinState(2, dict(enumerate(complex(a) for a in amps)))
    quad = [random_terms(gen) for _ in range(4)]
    dense_ops = [dense_factor(terms) for terms in quad]
    means, second, G = pauli.moment_table(*quad, sparse_state)
    P = [kron(X, Y).data for X in dense_ops[:2] for Y in dense_ops[2:]]
    rho = np.outer(amps, amps.conj())
    for p in range(4):
        assert close(means[p], np.trace(rho @ P[p]).real)
        for q in range(4):
            assert abs(G[p][q] - np.trace(rho @ P[p] @ P[q])) <= 1e-11
    for condition, evaluate in BIPARTITE.items():
        assert_reports_match(SPARSE[condition](*quad, sparse_state),
                             evaluate(*dense_ops, dense_state))
    assert_reports_match(pauli.multipartite(quad[0::2], quad[1::2], sparse_state),
                         multipartite(dense_ops[0::2], dense_ops[1::2], dense_state))


@pytest.mark.parametrize("seed", [4, 5])
def test_commutator_of_pauli_sums_matches_dense(seed):
    gen = rng(seed)
    F, G = random_terms(gen), random_terms(gen)
    want = dense_factor(F).data @ dense_factor(G).data - dense_factor(G).data @ dense_factor(F).data
    got = sum(c * dense_factor(((1.0, x, z),)).data for c, x, z in pauli._commutator(F, G))
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_ghz_moments_are_exact_at_ten_thousand_parties():
    n = 10_000
    s = pauli.spin_state(StateSpec("bell", {"parties": n}))
    assert len(s.amplitudes) == 2 and s.dims == (2,) * n
    X, Y, Z = (pauli.SPINS[name] for name in SPINS)
    assert pauli._moments(pauli._strings([X] * n), s) == (1.0, 1.0)
    assert pauli._moments(pauli._strings([Y] * n), s) == (1.0, 1.0)  # i^n = 1 at n = 4k
    assert pauli._moments(pauli._strings([Z] * n), s) == (1.0, 1.0)
    assert pauli._moments(pauli._strings([Z] + [X] * (n - 1)), s)[0] == 0.0


def test_bell_moments_are_exact_where_the_dense_path_rounds():
    # (|00..0> + |11..1>)/sqrt(2) holds 1/sqrt(2) twice, whose squares sum to
    # 1 - 2^-52 in floating point; the dense variance of X^n reads 2^-52,
    # the sparse one 0
    for n in (3, 12):
        X = builtin_operator("sx", 2)
        dense = multipartite([X] * n, [builtin_operator("sy", 2)] * n, bell(n))
        sparse = pauli.multipartite([pauli.SPINS["sx"]] * n, [pauli.SPINS["sy"]] * n,
                                    pauli.spin_state(StateSpec("bell", {"parties": n})))
        assert dense.details["var_A1..An"] == 2.0 ** -52
        assert sparse.details["var_A1..An"] == 0.0 and sparse.lhs == 0.0


def test_sparse_states_check_their_parameters_as_the_dense_ones_do():
    for params, family in (({"parties": 1}, "bell"), ({"parties": 2.0}, "bell"),
                           ({"alpha": 0.6, "beta": 0.7}, "schmidt"),
                           ({"alpha": "x", "beta": 0.8}, "schmidt")):
        spec = StateSpec(family, params)
        with pytest.raises(ValueError) as dense:
            spec.build()
        with pytest.raises(ValueError) as sparse:
            pauli.spin_state(spec)
        assert str(sparse.value) == str(dense.value)
    assert schmidt_pair(0.6, 0.8).dims == pauli.spin_state(
        StateSpec("schmidt", {"alpha": 0.6, "beta": 0.8})).dims
