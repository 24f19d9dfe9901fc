"""Entanglement conditions built from variances of tensor-lifted products.

Every condition here is an inequality satisfied by all separable states;
its violation certifies entanglement.  Reports normalize both inequality
orientations into a single ``delta`` with the convention that positive
``delta`` means violation:

* conditions of the form ``lhs >= rhs`` use ``delta = rhs - lhs``;
* conditions of the form ``lhs <= rhs`` use ``delta = lhs - rhs``.

The ratio ``V = rhs / lhs`` is reported only for the variance-product
condition and its multipartite generalization, and is omitted when the
variance product underflows the ratio guard (the ``lhs = 0 < rhs`` case is
still flagged violated).

Each bipartite condition is scalar arithmetic on one moment table: the means
of the four lifted products ``A_i (x) B_j`` and their Gram matrix, from four
products on the state.  One kernel, :func:`_products`, applies the four
products a block of the larger side at a time (:func:`_grid_blocks`), for
the table and for the fourth moments alike, so the table forms no array of
the state's size, whatever the two sides are.  Every product of an operator
factor with the state, or with an array derived from it, goes through
``hilbert._apply_factor``, here as in ``expectation``, ``variance`` and
:func:`multipartite`.  This
module keeps, for each live state, the table of the last quadruple evaluated
on it (``_TABLES``, keyed weakly by the state, so an entry goes with its
state), and every condition on the same quadruple and state reads that one
table.  It holds the four operators, the four means and second moments and
the 4x4 Gram matrix, and no array of the state's size.  The table assumes
all four lifted products Hermitian, so a quadruple's four operators and four
products are checked once, when its table is built; a later call that finds
the table, on the same immutable operators, checks nothing.

The bipartite conditions come in two families, and each reads the table
through one private reader: the uncertainty conditions (``variance_product``,
``variance_sum``, ``four_variance``) through :func:`_uncertainty`, which
returns the products' means and clamped variances and the mean of
``[A,A'] (x) [B,B']``, and the power-sum conditions (``ramanujan_witness``,
``uffink``) through :func:`_identity_terms`.  The bound ``sigma * sigma' >=
rhs`` that ``variance_product`` and :func:`multipartite` share, with its
ratio guard, is :func:`_product_report`.
"""

from __future__ import annotations

import math
import weakref
from typing import Any, Sequence

import numpy as np

from .config import _IDENTITY_ROWS, DEFAULT, _Record, _as_int
from .hilbert import (
    ComplexMatrix,
    QuantumState,
    _apply_factor,
    _blocks,
    _clamped_variance,
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


class WitnessReport(_Record):
    """Evaluation record of one condition.

    ``details`` holds every single-product expectation (and second moment)
    that entered the evaluation, so lhs/rhs can be recomputed independently.
    """

    __slots__ = __match_args__ = ("name", "lhs", "rhs", "delta", "V", "violated", "details")

    def __init__(self, name: str, lhs: float, rhs: float, delta: float, V: float | None,
                 violated: bool, details: dict[str, float] | None = None):
        self._init(name, lhs, rhs, delta, V, violated, {} if details is None else details)

    def to_json(self) -> dict[str, Any]:
        """The fields by name, ``details`` as a copy."""
        out = dict(zip(self.__match_args__, self._values()))
        out["details"] = dict(self.details)
        return out


def _make_report(name: str, lhs: float, rhs: float, *, leq: bool,
                 V: float | None, details: dict[str, float]) -> WitnessReport:
    delta = (lhs - rhs) if leq else (rhs - lhs)
    return WitnessReport(name=name, lhs=float(lhs), rhs=float(rhs), delta=float(delta),
                         V=V, violated=bool(delta > DEFAULT.violation), details=details)


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
    and the second moments as tuples and the read-only Gram matrix
    ``G[p, q] = sum_r w_r <P_p v_r|P_q v_r>``.  As every
    factor is Hermitian, ``<P_p P_q> = G[p, q]``; :func:`_uncertainty`
    reads ``<[A,A'] (x) [B,B']>`` off it that way.
    """
    _check_quadruple(A, Ap, B, Bp, s)
    V, w, H = s.vectors.reshape(-1, A.side, B.side), s.weights[:, None, None], 0.0
    # the Gram matrix of the four products and v holds G and the means
    for block in _grid_blocks(A, B, len(V)):
        Y = np.concatenate((_products(A, Ap, B, Bp, s.vectors, block), V[None][(..., *block)]))
        H = H + (Y.conj() * w).reshape(5, -1) @ Y.reshape(5, -1).T
    G = H[:4, :4]
    G.setflags(write=False)  # a stored table is shared with every later caller
    return tuple(H[:4, 4].real.tolist()), tuple(G.diagonal().real.tolist()), G


# {state: (A, A', B, B', means, second, G)} of the last quadruple evaluated on
# each live state; one tuple is stored at once, so a race only recomputes it
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _shared_table(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix, Bp: ComplexMatrix,
                  s: QuantumState) -> tuple:
    """The means, second moments and Gram matrix of :func:`_moment_table`,
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
    _TABLES[s] = (A, Ap, B, Bp, means, second, G)
    return means, second, G


_PRODUCTS = ("AB", "ABp", "ApB", "ApBp")  # the labels of P_0 .. P_3


def _uncertainty(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix, Bp: ComplexMatrix,
                 s: QuantumState, products: Sequence[int]) -> tuple[dict, dict, dict, float]:
    """The uncertainty family's reading of the shared table: the means, the
    second moments and the clamped variances of the lifted products
    ``P_p``, ``p`` in ``products`` (clamped in that order), keyed ``m_``,
    ``s_`` and ``var_`` plus the label in ``_PRODUCTS``, and ``<[A,A'] (x)
    [B,B']>``, whose four terms ``P_0 P_3 - P_1 P_2 - P_2 P_1 + P_3 P_0``
    pair into conjugate entries of ``G``."""
    means, second, G = _shared_table(A, Ap, B, Bp, s)
    m, sq, var = {}, {}, {}
    for p in products:  # a loop, as each comprehension would be one more call
        label = _PRODUCTS[p]
        m["m_" + label], sq["s_" + label] = means[p], second[p]
        var["var_" + label] = _clamped_variance(second[p], means[p])
    return m, sq, var, float(2.0 * (G[0, 3] - G[1, 2]).real)


def _product_report(name: str, var: float, var_p: float, rhs: float,
                    details: dict[str, float]) -> WitnessReport:
    """The report of ``sigma * sigma' >= rhs`` from the two variances, with
    ``V = rhs / lhs`` unless ``lhs`` is below the ratio guard."""
    lhs = math.sqrt(var) * math.sqrt(var_p)
    V = None if lhs < DEFAULT.ratio_guard else rhs / lhs
    return _make_report(name, lhs, rhs, leq=False, V=V, details=details)


def variance_product(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Product condition: sigma_AB * sigma_A'B' >= (1/4)|<[A,A'] (x) [B,B']>|."""
    m, sq, var, m_comm = _uncertainty(A, Ap, B, Bp, s, (0, 3))
    return _product_report("variance_product", *var.values(), 0.25 * abs(m_comm),
                           {**m, **sq, **var, "m_comm": m_comm})


def variance_sum(A: ComplexMatrix, Ap: ComplexMatrix,
                 B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Sum condition: sigma²_AB + sigma²_A'B' >= (1/2)|<[A,A'] (x) [B,B']>|."""
    m, _, var, m_comm = _uncertainty(A, Ap, B, Bp, s, (0, 3))
    var_ab, var_apbp = var.values()
    return _make_report("variance_sum", var_ab + var_apbp, 0.5 * abs(m_comm), leq=False,
                        V=None, details={**m, **var, "m_comm": m_comm})


def multipartite(As: Sequence[ComplexMatrix], Aps: Sequence[ComplexMatrix],
                 s: QuantumState) -> WitnessReport:
    """n-party product condition with the commutator bound scaled by 1/2^n.

    Operator k of each list acts on factor k of the state; reduces to
    :func:`variance_product` at n = 2.
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
    details = {"m_A1..An": m_prod, "m_Ap1..Apn": m_prod_p,
               "var_A1..An": var_prod, "var_Ap1..Apn": var_prod_p,
               "m_comm": m_comm, "n_parties": float(n)}
    return _product_report("multipartite", var_prod, var_prod_p, abs(m_comm) / 2.0**n, details)


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


# The right rows of each identity as coefficients c_p of P_p, for c^T G c.
_RIGHT_COEFFS = {name: np.array(rows[1], dtype=float) for name, rows in _IDENTITY_ROWS.items()}


def _identity_terms(name: str, n: int, A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix,
                    Bp: ComplexMatrix, s: QuantumState) -> tuple[dict, float, list[float]]:
    """The identity ``config._IDENTITY_ROWS[name]`` on the lifted products
    ``P``: the four means as ``details``, ``sum_k <L_k . P>^n`` over the left
    rows, and ``<(R_k . P)^n>`` for each right row (``c^T G c`` at n = 2,
    :func:`_fourth_moments` at n = 4)."""
    means, _, G = _shared_table(A, Ap, B, Bp, s)
    left, right = _IDENTITY_ROWS[name][0], _RIGHT_COEFFS[name]
    lhs = 0.0
    for row in left:  # each form summed left to right, as displayed
        form = 0.0
        for c, m in zip(row, means):
            form += c * m
        lhs += form ** n
    if n == 2:  # <M^2> = ||M psi||^2 = c^T G c
        powers = ((right @ G) * right).sum(axis=1).real.tolist()
    else:
        powers = _fourth_moments(right, A, Ap, B, Bp, s)
    return {f"m_{label}": m for label, m in zip(_PRODUCTS, means)}, lhs, powers


def ramanujan_witness(A: ComplexMatrix, Ap: ComplexMatrix,
                      B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                      n: int) -> WitnessReport:
    """Power-sum condition (n in {2, 4}), violated when lhs > rhs:

    <AB + AB' + A'B>^n + <AB' + A'B + A'B'>^n + <AB - A'B'>^n
        <= <(AB' - A'B)^n> + <(AB + A'B + A'B')^n> + <(AB + AB' + A'B')^n>

    with all products tensor-lifted: the rows ``config._IDENTITY_ROWS
    ["ramanujan"]``, whose scalar identity ``polyid`` proves exact for these
    two exponents.
    """
    n = _as_int(n, "n")
    if n not in (2, 4):
        raise ValueError(f"power-sum condition is only available for n in {{2, 4}}, got {n}")
    details, lhs, (pow1, pow2, pow3) = _identity_terms("ramanujan", n, A, Ap, B, Bp, s)
    details.update({f"pow{n}_ABp_minus_ApB": pow1, f"pow{n}_ApB_plus_ApBp_plus_AB": pow2,
                    f"pow{n}_ApBp_plus_AB_plus_ABp": pow3})
    return _make_report(f"ramanujan_{n}", lhs, pow1 + pow2 + pow3, leq=True, V=None,
                        details=details)


def uffink(A: ComplexMatrix, Ap: ComplexMatrix,
           B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Quadratic condition <AB - A'B'>² + <AB' + A'B>² <= <(A² + A'²)(x)(B² + B'²)>:
    the rows ``config._IDENTITY_ROWS["complex_norm"]`` at n = 2, whose right
    side sums ``<P_p²>`` over the four products."""
    details, lhs, powers = _identity_terms("complex_norm", 2, A, Ap, B, Bp, s)
    details["m_square_product"] = m_sq = sum(powers)
    return _make_report("uffink", lhs, m_sq, leq=True, V=None, details=details)


def four_variance(A: ComplexMatrix, Ap: ComplexMatrix,
                  B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Four-term condition: sum of the four product variances bounds the commutator.

    sigma²_AB + sigma²_AB' + sigma²_A'B + sigma²_A'B' >= |<[A,A'] (x) [B,B']>|.
    """
    m, _, var, m_comm = _uncertainty(A, Ap, B, Bp, s, range(4))
    return _make_report("four_variance", sum(var.values()), abs(m_comm), leq=False, V=None,
                        details={**m, **var, "m_comm": m_comm})


def heisenberg_floor(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> float:
    """Uncertainty floor (1/2)|<[A(x)B, A'(x)B']>| on sigma_AB * sigma_A'B'.

    This bound holds for *all* states (it is the plain uncertainty relation
    for the two lifted products), so it pre-screens where the separability
    conditions can possibly be violated.  No pruning decision is made here;
    callers compare it with the commutator bound themselves.
    """
    G = _shared_table(A, Ap, B, Bp, s)[2]
    # <[A(x)B, A'(x)B']> = G[0, 3] - G[3, 0] = 2i Im G[0, 3]
    return float(abs(G[0, 3].imag))


def schmidt_optimal_witness(alpha: complex, beta: complex
                            ) -> tuple[ComplexMatrix, ComplexMatrix,
                                       ComplexMatrix, ComplexMatrix, WitnessReport]:
    """Variance-product witness tuned to the state ``schmidt_pair(alpha, beta)``.

    Builds the in-plane spin operators at angles theta = -arg(alpha),
    eta = arg(beta) with primed partners a quarter turn ahead, which makes
    <A(x)B> = 2|alpha*beta| and the bound rhs = 1.  The condition then reads
    1 - 4|alpha*beta|² >= 1 and fails exactly when alpha*beta != 0.
    """
    state = schmidt_pair(alpha, beta)
    theta = -np.angle(state.amplitudes[0])
    eta = np.angle(state.amplitudes[3])
    # s_x cos(angle) + s_y sin(angle) at the four angles, from one cos and one sin
    angles = np.array([theta, theta + np.pi / 2.0, eta, eta + np.pi / 2.0])[:, None, None]
    spins = _SX * np.cos(angles) + _SY * np.sin(angles)
    A, Ap, B, Bp = (ComplexMatrix(spin, _owned=True) for spin in spins)
    report = variance_product(A, Ap, B, Bp, state)
    return (A, Ap, B, Bp, report)
