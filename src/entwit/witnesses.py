"""Entanglement conditions on dense states: the moment table, then the arithmetic.

Every public condition here is "table, then that function": the moments of
the quadruple on the state, formed by the dense kernel below, and the
function of the same name in ``conditions`` (numpy-free, and shared with the
sparse spin families of ``pauli``), which turns them into a
:class:`~entwit.conditions.WitnessReport` (see ``conditions`` for the
``delta`` convention and the two families of conditions).

The table of a bipartite condition holds the means of the four lifted
products ``A_i (x) B_j`` and their Gram matrix, from four products on the
state.  One kernel, :func:`_products`, applies the four products a block of
the larger side at a time (:func:`_grid_blocks`), for the table and for the
fourth moments alike, so the table forms no array of the state's size,
whatever the two sides are.  Every product of an operator factor with the
state, or with an array derived from it, goes through
``hilbert._apply_factor``, here as in ``expectation``, ``variance`` and
:func:`multipartite`.  This module keeps, for each live state, the table of
the last quadruple evaluated on it (``_TABLES``, keyed weakly by the state,
so an entry goes with its state), and every condition on the same quadruple
and state reads that one table.  It holds the four operators, the four
means and second moments and the 4x4 Gram matrix as rows of Python complex
numbers, and no array of the state's size.  The table assumes all four
lifted products Hermitian, so a quadruple's four operators and four
products are checked once, when its table is built; a later call that finds
the table, on the same immutable operators, checks nothing.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from . import conditions
from .conditions import WitnessReport
from .families import _schmidt_angles
from .hilbert import (
    ComplexMatrix,
    QuantumState,
    _apply_factor,
    _blocks,
    _lifted_moments,
    _lifted_variance,
    _require_hermitian,
)
from .operators import _SX, _SY
from .states import schmidt_pair

__all__ = [
    "WitnessReport",
    "variance_product",
    "variance_sum",
    "multipartite",
    "ramanujan_witness",
    "uffink",
    "four_variance",
    "heisenberg_floor",
    "schmidt_optimal_witness",
]


_LABELS = ("A", "A'", "B", "B'")


def _check_quadruple(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix,
                     Bp: ComplexMatrix, s: QuantumState) -> None:
    """Validate the quadruple against the state: the dims, and the Hermiticity
    of the four operators and of the four lifted products ``A_i (x) B_j``."""
    if A.dims != Ap.dims:
        raise ValueError(f"A and A' must share dims, got {A.dims} vs {Ap.dims}")
    if B.dims != Bp.dims:
        raise ValueError(f"B and B' must share dims, got {B.dims} vs {Bp.dims}")
    if A.dims + B.dims != s.dims:
        raise ValueError(f"operator factors {A.dims} + {B.dims} do not cover "
                         f"state dims {s.dims}")
    for op, label in zip((A, Ap, B, Bp), _LABELS):
        _require_hermitian((op,), label)
    for Ai, a in zip((A, Ap), _LABELS):
        for Bj, b in zip((B, Bp), _LABELS[2:]):
            _require_hermitian((Ai, Bj), f"{a} (x) {b}")


def _grid_blocks(A: ComplexMatrix, B: ComplexMatrix, r: int) -> list[tuple[slice, slice]]:
    """The blocks ``(rows, cols)`` of the ``(A.side, B.side)`` grid of ``r``
    vectors that :func:`_products` forms at a time: blocks of the larger
    side's indices (:func:`hilbert._blocks`), the B side's on a tie, so a
    block is a small part of the state whatever the two sides are."""
    if B.side >= A.side:
        return [(slice(None), cols) for cols in _blocks(B.side, r * A.side)]
    return [(rows, slice(None)) for rows in _blocks(A.side, r * B.side)]


def _products(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix, Bp: ComplexMatrix,
              X: np.ndarray, block: tuple[slice, slice]) -> np.ndarray:
    """The block ``(rows, cols)`` of :func:`_grid_blocks` of ``P_p x`` for
    every vector ``x`` along the last axis of ``X``, ``(..., A.side *
    B.side)``: the four lifted products ``P_p = A_i (x) B_j``, ``p = 2i + j``
    (``A_0 = A``, ``A_1 = A'``, ``B_0 = B``, ``B_1 = B'``), as ``(4, ...,
    height, width)``.  The stacked rows of the blocked side, ``[B[cols];
    B'[cols]]`` as the last factor or ``[A[rows]; A'[rows]]`` as the first,
    apply first, and the other side's two operators each to that small
    output, all through ``hilbert._apply_factor``, so no array of the
    state's size is formed."""
    (rows, cols), n = block, X.size // X.shape[-1]
    if B.side >= A.side:  # A_i Y is (n * a, 2 * width): the products 2i, 2i + 1
        BB = np.concatenate((B.data[cols], Bp.data[cols]))
        Y = _apply_factor(BB, X.reshape(-1, B.side)).reshape(n, -1)
        out = np.empty((2, 2, n, A.side, len(BB) // 2), dtype=complex)
        for i, Ai in enumerate((A, Ap)):
            out[i] = _apply_factor(Ai.data, Y).reshape(n, A.side, 2, -1).transpose(2, 0, 1, 3)
    else:  # Y B_j^T is (n * 2 * height, b): the products j, 2 + j
        AA = np.concatenate((A.data[rows], Ap.data[rows]))
        Y = _apply_factor(AA, X.reshape(n, -1)).reshape(-1, B.side)
        out = np.empty((2, 2, n, len(AA) // 2, B.side), dtype=complex)
        for j, Bj in enumerate((B, Bp)):
            out[:, j] = _apply_factor(Bj.data, Y).reshape(n, 2, -1, B.side).transpose(1, 0, 2, 3)
    return out.reshape(4, *X.shape[:-1], *out.shape[3:])


def _moment_table(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix, Bp: ComplexMatrix,
                  s: QuantumState) -> tuple:
    """Moment table of the lifted products ``P_p`` of :func:`_products`,
    applied to the state a block of :func:`_grid_blocks` at a time.

    Validates the quadruple (:func:`_check_quadruple`).  Returns the means
    and the second moments as tuples and the Gram matrix ``G[p, q] =
    sum_r w_r <P_p v_r|P_q v_r>`` as an array.  As every factor is
    Hermitian, ``<P_p P_q> = G[p, q]``; ``conditions._uncertainty`` reads
    ``<[A,A'] (x) [B,B']>`` off it that way.
    """
    _check_quadruple(A, Ap, B, Bp, s)
    V, w, H = s.vectors.reshape(-1, A.side, B.side), s.weights[:, None, None], 0.0
    # the Gram matrix of the four products and v holds G and the means
    for block in _grid_blocks(A, B, len(V)):
        Y = np.concatenate((_products(A, Ap, B, Bp, s.vectors, block), V[None][(..., *block)]))
        H = H + (Y.conj() * w).reshape(5, -1) @ Y.reshape(5, -1).T
    G = H[:4, :4]
    return tuple(H[:4, 4].real.tolist()), tuple(G.diagonal().real.tolist()), G


# {state: (A, A', B, B', means, second, G)} of the last quadruple evaluated on
# each live state; one tuple is stored at once, so a race only recomputes it
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shared_table(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix, Bp: ComplexMatrix,
                  s: QuantumState) -> tuple:
    """The table ``(means, second, G)`` of ``conditions`` from
    :func:`_moment_table`, with ``G`` as rows of Python complex numbers,
    computed once per quadruple and state: ``_TABLES`` keeps each live
    state's last table, keyed by the identity of the four operators (an equal
    but distinct operator recomputes).  A miss validates the quadruple in
    full (:func:`_check_quadruple`) before storing its table.  A hit finds the
    same immutable operators and state that passed then, and checks nothing."""
    entry = _TABLES.get(s)
    if (entry is not None and entry[0] is A and entry[1] is Ap and entry[2] is B
            and entry[3] is Bp):
        return entry[4:]
    means, second, G = _moment_table(A, Ap, B, Bp, s)
    G = tuple(map(tuple, G.tolist()))  # a stored table is shared with every later caller
    _TABLES[s] = (A, Ap, B, Bp, means, second, G)
    return means, second, G


def variance_product(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Product condition: sigma_AB * sigma_A'B' >= (1/4)|<[A,A'] (x) [B,B']>|."""
    return conditions.variance_product(_shared_table(A, Ap, B, Bp, s))


def variance_sum(A: ComplexMatrix, Ap: ComplexMatrix,
                 B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Sum condition: sigma²_AB + sigma²_A'B' >= (1/2)|<[A,A'] (x) [B,B']>|."""
    return conditions.variance_sum(_shared_table(A, Ap, B, Bp, s))


def multipartite(As: Sequence[ComplexMatrix], Aps: Sequence[ComplexMatrix],
                 s: QuantumState) -> WitnessReport:
    """n-party product condition with the commutator bound scaled by 1/2^n.

    Operator k of each list acts on factor k of the state; reduces to
    :func:`variance_product` at n = 2.  A count of parties whose ``2^n``
    overflows a float is refused (``conditions.multipartite``).
    """
    n = len(As)
    if n < 2:
        raise ValueError(f"multipartite needs at least 2 parties, got {n}")
    if len(Aps) != n:
        raise ValueError(f"operator lists differ in length: {n} vs {len(Aps)}")
    if len(s.dims) != n:
        raise ValueError(f"state has {len(s.dims)} factors but {n} operators were given")
    for k, (Ak, Apk) in enumerate(zip(As, Aps)):
        if Ak.dims != (s.dims[k],) or Apk.dims != (s.dims[k],):
            raise ValueError(f"party {k} operators must act on a factor of "
                             f"dimension {s.dims[k]}")
        _require_hermitian((Ak,), f"A_{k}")
        _require_hermitian((Apk,), f"A'_{k}")
    m_prod, var_prod = _lifted_variance(As, s, f"A_0 (x) ... (x) A_{n - 1}")
    m_prod_p, var_prod_p = _lifted_variance(Aps, s, f"A'_0 (x) ... (x) A'_{n - 1}")
    m_comm = _lifted_moments([Ak.data @ Apk.data - Apk.data @ Ak.data
                              for Ak, Apk in zip(As, Aps)], s)[0].real
    return conditions.multipartite(n, m_prod, var_prod, m_prod_p, var_prod_p, m_comm)


def _fourth_moments(rows: Sequence[Sequence[float]], A: ComplexMatrix, Ap: ComplexMatrix,
                    B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> list[float]:
    """``<M^4> = sum_r w_r ||M^2 v_r||^2`` for each sum ``M = sum_p c_p P_p``
    with coefficients ``c`` in ``rows``: one pass of :func:`_products` over
    the state forms every ``M v``, and a second pass over those ``M v``
    gives ``M^2 v``, both a block of :func:`_grid_blocks` at a time.  The
    ``M v`` are the only arrays of the state's size, one per row."""
    C, V, w = np.asarray(rows, dtype=float), s.vectors, s.weights[:, None, None]
    m, r, blocks = len(C), len(V), _grid_blocks(A, B, len(V))
    Mv = np.empty((m, r, A.side, B.side), dtype=complex)
    for block in blocks:  # each row k applied to every v
        Mv[(..., *block)] = np.einsum("kp,p...->k...", C, _products(A, Ap, B, Bp, V, block))
    X, total = Mv.reshape(m, r, -1), np.zeros(m)
    for block in blocks:  # each row k applied to its own M_k v
        U = np.einsum("kp,pk...->k...", C, _products(A, Ap, B, Bp, X, block))
        total += (U.conj() * (w * U)).real.reshape(m, -1).sum(axis=1)
    return total.tolist()


def ramanujan_witness(A: ComplexMatrix, Ap: ComplexMatrix,
                      B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                      n: int) -> WitnessReport:
    """Power-sum condition (n in {2, 4}), violated when lhs > rhs:

    <AB + AB' + A'B>^n + <AB' + A'B + A'B'>^n + <AB - A'B'>^n
        <= <(AB' - A'B)^n> + <(AB + A'B + A'B')^n> + <(AB + AB' + A'B')^n>

    with all products tensor-lifted: ``conditions.ramanujan``, whose
    fourth moments at n = 4 come from :func:`_fourth_moments`.
    """
    n = conditions._exponent(n)
    return conditions.ramanujan(_shared_table(A, Ap, B, Bp, s), n,
                                lambda rows: _fourth_moments(rows, A, Ap, B, Bp, s))


def uffink(A: ComplexMatrix, Ap: ComplexMatrix,
           B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Quadratic condition <AB - A'B'>² + <AB' + A'B>² <= <(A² + A'²)(x)(B² + B'²)>:
    the rows ``config._IDENTITY_ROWS["complex_norm"]`` at n = 2, whose right
    side sums ``<P_p²>`` over the four products."""
    return conditions.uffink(_shared_table(A, Ap, B, Bp, s))


def four_variance(A: ComplexMatrix, Ap: ComplexMatrix,
                  B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Four-term condition: sum of the four product variances bounds the commutator.

    sigma²_AB + sigma²_AB' + sigma²_A'B + sigma²_A'B' >= |<[A,A'] (x) [B,B']>|.
    """
    return conditions.four_variance(_shared_table(A, Ap, B, Bp, s))


def heisenberg_floor(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> float:
    """Uncertainty floor (1/2)|<[A(x)B, A'(x)B']>| on sigma_AB * sigma_A'B'.

    This bound holds for *all* states (it is the plain uncertainty relation
    for the two lifted products), so it pre-screens where the separability
    conditions can possibly be violated.  No pruning decision is made here;
    callers compare it with the commutator bound themselves.
    """
    return conditions.heisenberg_floor(_shared_table(A, Ap, B, Bp, s))


def schmidt_optimal_witness(alpha: complex, beta: complex
                            ) -> tuple[ComplexMatrix, ComplexMatrix,
                                       ComplexMatrix, ComplexMatrix, WitnessReport]:
    """Variance-product witness tuned to the state ``schmidt_pair(alpha, beta)``.

    Builds the in-plane spin operators at the angles of
    ``families._schmidt_angles``, theta = -arg(alpha) and eta = arg(beta) with
    primed partners a quarter turn ahead, which makes <A(x)B> = 2|alpha*beta|
    and the bound rhs = 1.  The condition then reads 1 - 4|alpha*beta|² >= 1
    and fails exactly when alpha*beta != 0.
    """
    state = schmidt_pair(alpha, beta)
    angles = np.array(_schmidt_angles(state.amplitudes[0], state.amplitudes[3]))[:, None, None]
    # s_x cos(angle) + s_y sin(angle) at the four angles, from one cos and one sin
    spins = _SX * np.cos(angles) + _SY * np.sin(angles)
    A, Ap, B, Bp = (ComplexMatrix(spin, _owned=True) for spin in spins)
    report = variance_product(A, Ap, B, Bp, state)
    return (A, Ap, B, Bp, report)
