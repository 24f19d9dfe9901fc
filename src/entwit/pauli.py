"""The spin families on sparse amplitudes, with Pauli-string operators.

A state of the ``bell`` (GHZ) or ``schmidt`` family is held as its nonzero
amplitudes keyed by basis index, party 0 the most significant bit: two
entries for GHZ at any number of parties, and for the Schmidt pair.  An
operator factor is a sum of one-qubit Pauli terms ``(coef, x, z)``, the term
``coef * i^(x z) X^x Z^z``, so ``(1, 1, 1)`` is ``Y = iXZ``; a Hermitian
factor has real coefficients (``sx``, ``sy``, ``sz`` and the Schmidt
witness's ``cos(t) X + sin(t) Y``), and a commutator imaginary ones.  A
lifted product ``F_0 (x) ... (x) F_{n-1}`` expands into Pauli strings
``(coef, x, z)`` whose masks hold party k's bits at position ``n - 1 - k``
(:func:`_strings`), and a string maps the basis state ``|b>`` to ``coef *
i^|x & z| (-1)^|z & b| |b ^ x>`` (:func:`_apply`): integer bit operations on
a handful of entries, with no ``2^n`` vector and no numpy.  Every moment is
taken relative to the state's norm, ``<v|P|v> / <v|v>``, so the Pauli means
on GHZ are exactly 0 or 1 in modulus and a variance that is 0 reads 0.

:func:`moment_table` gives the table of ``conditions`` that the dense kernel
(``witnesses._moment_table``) gives: the four means, the four second
moments and the 4x4 Gram matrix of the lifted products ``A_i (x) B_j``;
:func:`_fourth_moments` gives the ``<M^4>`` rows, and :func:`multipartite`
the product moments and the commutator mean.  The conditions below are
"table, then the function of ``conditions``", with the signatures of their
namesakes in ``witnesses``.  The command line evaluates here when its state
is a spin family and every operator it names is ``sx``, ``sy`` or ``sz``
(``bell``, ``schmidt``, and ``witness`` on those families), after it has
checked the op spec; the library API stays dense, and the tests compare the
two.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import conditions
from .conditions import WitnessReport
from .config import _Frozen
from .families import StateSpec, _as_parties, _as_schmidt, _schmidt_angles

__all__ = ["SPINS", "SpinState", "spin_state", "spin_operators", "moment_table",
           "variance_product", "variance_sum", "four_variance", "uffink", "ramanujan_witness",
           "multipartite", "schmidt_optimal_witness"]

Terms = tuple  # ((coef, x, z), ...): one factor, a sum of one-qubit Pauli terms

# the builtin spins an op spec names, as one-qubit Pauli terms
SPINS = {"sx": ((1.0, 1, 0),), "sy": ((1.0, 1, 1),), "sz": ((1.0, 0, 1),)}
_PHASES = (1, 1j, -1, -1j)  # i^k


class SpinState(_Frozen):
    """A pure state of ``n`` two-level parties (``dims`` is ``(2,) * n``), held
    as its nonzero ``amplitudes`` by basis index, party 0 the most
    significant bit, and their squared ``norm``."""

    __slots__ = ("dims", "amplitudes", "norm")

    def __init__(self, n: int, amplitudes: dict[int, complex]):
        amps = {index: a for index, a in amplitudes.items() if a}
        object.__setattr__(self, "dims", (2,) * n)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm", _inner(amps, amps).real)


def spin_state(spec: StateSpec) -> SpinState:
    """The state of a ``bell`` or ``schmidt`` spec, whose parameter names the
    caller has checked (``families._check_spec``), with the dense family's
    checks of their values."""
    if spec.family == "bell":
        n = _as_parties(spec.params["parties"])
        amp = 1.0 / math.sqrt(2.0)
        return SpinState(n, {0: amp, (1 << n) - 1: amp})
    alpha, beta = _as_schmidt(spec.params["alpha"], spec.params["beta"])
    return SpinState(2, {0: alpha, 3: beta})


def spin_operators(requests: Sequence[tuple[str, int]]) -> list[Terms]:
    """The Pauli terms of each ``(name, dim)``, a name of ``SPINS`` on a
    two-level factor, as the command line's route has checked."""
    return [SPINS[name] for name, _ in requests]


def _inner(u: dict, v: dict) -> complex:
    """``<u|v>`` of two sparse vectors."""
    total = 0
    for index, a in u.items():
        b = v.get(index)
        if b is not None:
            total += a.conjugate() * b
    return total


def _strings(factors: Sequence[Terms]) -> list[tuple[complex, int, int]]:
    """The Pauli strings ``(coef, x, z)`` of ``factors[0] (x) ... (x)
    factors[n-1]``, one per choice of a term of each factor, party k's bits
    at position ``n - 1 - k``; the masks are read from bit strings, in time
    linear in ``n``."""
    out = []
    for terms in itertools.product(*factors):
        coef = 1
        for c, _, _ in terms:
            coef *= c
        out.append((coef, int(bytes([48 + t[1] for t in terms]), 2),
                    int(bytes([48 + t[2] for t in terms]), 2)))
    return out


def _apply(strings: Sequence[tuple[complex, int, int]], amps: dict) -> dict:
    """``sum_s s |v>`` over the Pauli strings ``s``: the string ``(coef, x, z)``
    sends ``|b>`` to ``coef i^|x & z| (-1)^|z & b| |b ^ x>``."""
    out: dict = {}
    for coef, x, z in strings:
        c = coef * _PHASES[(x & z).bit_count() & 3]
        for b, a in amps.items():
            term = -c * a if (z & b).bit_count() & 1 else c * a
            key = b ^ x
            out[key] = out[key] + term if key in out else term
    return out


def _commutator(F: Terms, G: Terms) -> Terms:
    """``[F, G]`` as Pauli terms: a pair of terms that anticommutes gives
    ``2 F_t G_u``, with ``i^(x1 z1 + x2 z2 + 2 z1 x2 - x z)`` the phase of
    the product's Pauli ``(x, z) = (x1 ^ x2, z1 ^ z2)``; a commuting pair
    gives nothing."""
    terms: dict = {}
    for c1, x1, z1 in F:
        for c2, x2, z2 in G:
            if (x1 & z2) ^ (z1 & x2):
                x, z = x1 ^ x2, z1 ^ z2
                phase = _PHASES[(x1 * z1 + x2 * z2 + 2 * z1 * x2 - x * z) & 3]
                terms[x, z] = terms.get((x, z), 0) + 2 * c1 * c2 * phase
    return tuple((c, x, z) for (x, z), c in terms.items() if c)


def _products(A: Terms, Ap: Terms, B: Terms, Bp: Terms) -> list[list]:
    """The Pauli strings of the lifted products ``P_p = A_i (x) B_j``, ``p = 2i + j``."""
    return [_strings((Ai, Bj)) for Ai in (A, Ap) for Bj in (B, Bp)]


def moment_table(A: Terms, Ap: Terms, B: Terms, Bp: Terms, s: SpinState) -> tuple:
    """The table ``(means, second, G)`` of ``conditions`` for the quadruple on
    the two-party state ``s``."""
    v, norm = s.amplitudes, s.norm
    vectors = [_apply(strings, v) for strings in _products(A, Ap, B, Bp)]
    G = tuple(tuple(_inner(u, w) / norm for w in vectors) for u in vectors)
    means = tuple(_inner(u, v).real / norm for u in vectors)
    return means, tuple(G[p][p].real for p in range(4)), G


def _fourth_moments(rows: Sequence[Sequence[float]], A: Terms, Ap: Terms, B: Terms,
                    Bp: Terms, s: SpinState) -> list[float]:
    """``<M^4> = ||M^2 v||^2 / <v|v>`` for each sum ``M = sum_p c_p P_p`` with
    coefficients ``c`` in ``rows``."""
    products, out = _products(A, Ap, B, Bp), []
    for row in rows:
        M = [(c * coef, x, z) for c, strings in zip(row, products) if c
             for coef, x, z in strings]
        w = _apply(M, _apply(M, s.amplitudes))
        out.append(_inner(w, w).real / s.norm)
    return out


def _moments(strings: Sequence[tuple[complex, int, int]], s: SpinState) -> tuple[complex, float]:
    """``<P>`` and ``<P^2> = ||P v||^2 / <v|v>`` of the sum ``P`` of ``strings``."""
    u = _apply(strings, s.amplitudes)
    return _inner(s.amplitudes, u) / s.norm, _inner(u, u).real / s.norm


def variance_product(A: Terms, Ap: Terms, B: Terms, Bp: Terms, s: SpinState) -> WitnessReport:
    """``conditions.variance_product`` on the sparse table."""
    return conditions.variance_product(moment_table(A, Ap, B, Bp, s))


def variance_sum(A: Terms, Ap: Terms, B: Terms, Bp: Terms, s: SpinState) -> WitnessReport:
    """``conditions.variance_sum`` on the sparse table."""
    return conditions.variance_sum(moment_table(A, Ap, B, Bp, s))


def four_variance(A: Terms, Ap: Terms, B: Terms, Bp: Terms, s: SpinState) -> WitnessReport:
    """``conditions.four_variance`` on the sparse table."""
    return conditions.four_variance(moment_table(A, Ap, B, Bp, s))


def uffink(A: Terms, Ap: Terms, B: Terms, Bp: Terms, s: SpinState) -> WitnessReport:
    """``conditions.uffink`` on the sparse table."""
    return conditions.uffink(moment_table(A, Ap, B, Bp, s))


def ramanujan_witness(A: Terms, Ap: Terms, B: Terms, Bp: Terms, s: SpinState,
                      n: int) -> WitnessReport:
    """``conditions.ramanujan`` on the sparse table and fourth moments."""
    n = conditions._exponent(n)
    return conditions.ramanujan(moment_table(A, Ap, B, Bp, s), n,
                                lambda rows: _fourth_moments(rows, A, Ap, B, Bp, s))


def multipartite(As: Sequence[Terms], Aps: Sequence[Terms], s: SpinState) -> WitnessReport:
    """``conditions.multipartite`` from the moments of ``A_1 (x) ... (x) A_n``,
    of the primed product and of ``[A_1, A'_1] (x) ... (x) [A_n, A'_n]``, one
    factor per party of ``s``."""
    m_prod, second = _moments(_strings(As), s)
    m_prod_p, second_p = _moments(_strings(Aps), s)
    m_comm = _moments(_strings([_commutator(F, G) for F, G in zip(As, Aps)]), s)[0]
    return conditions.multipartite(
        len(As), m_prod.real, conditions._clamped_variance(second, m_prod.real),
        m_prod_p.real, conditions._clamped_variance(second_p, m_prod_p.real), m_comm.real)


def schmidt_optimal_witness(alpha: complex, beta: complex
                            ) -> tuple[Terms, Terms, Terms, Terms, WitnessReport]:
    """``witnesses.schmidt_optimal_witness`` on sparse amplitudes: the
    in-plane spins ``cos(t) X + sin(t) Y`` at the angles of
    ``families._schmidt_angles`` and their ``variance_product`` report."""
    alpha, beta = _as_schmidt(alpha, beta)
    A, Ap, B, Bp = (((math.cos(t), 1, 0), (math.sin(t), 1, 1))
                    for t in _schmidt_angles(alpha, beta))
    return A, Ap, B, Bp, variance_product(A, Ap, B, Bp, SpinState(2, {0: alpha, 3: beta}))
