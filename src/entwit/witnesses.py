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
products on the state and one validation per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .config import DEFAULT
from .hilbert import (
    Array,
    ComplexMatrix,
    QuantumState,
    _apply_factor,
    _clamped_variance,
    _lifted_moments,
    _lifted_variance,
    _require_hermitian,
    commutator,
)
from .operators import rotated_spin
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


@dataclass(frozen=True)
class WitnessReport:
    """Evaluation record of one condition.

    ``details`` holds every single-product expectation (and second moment)
    that entered the evaluation, so lhs/rhs can be recomputed independently.
    """

    name: str
    lhs: float
    rhs: float
    delta: float
    V: float | None
    violated: bool
    details: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
            "V": self.V,
            "violated": self.violated,
            "details": dict(self.details),
        }


def _make_report(name: str, lhs: float, rhs: float, *, leq: bool,
                 V: float | None, details: dict[str, float]) -> WitnessReport:
    delta = (lhs - rhs) if leq else (rhs - lhs)
    return WitnessReport(name=name, lhs=float(lhs), rhs=float(rhs), delta=float(delta),
                         V=V, violated=bool(delta > DEFAULT.violation), details=details)


_LABELS = ("A", "A'", "B", "B'")


def _blocks(n: int, width: int) -> list[slice]:
    """Slices of ``range(n)`` of 1/64 of it, or of 1024 entries of ``width``
    if more: the temporaries of a block stay small next to the state."""
    step = max(1, n // 64, 2**10 // width)
    return [slice(k, k + step) for k in range(0, n, step)]


def _moment_table(A: ComplexMatrix, Ap: ComplexMatrix, B: ComplexMatrix, Bp: ComplexMatrix,
                  s: QuantumState, checked: Sequence[int] = ()) -> tuple:
    """Moment table of the lifted products ``P_p = A_i (x) B_j``, ``p = 2i + j``
    (``A_0 = A``, ``A_1 = A'``, ``B_0 = B``, ``B_1 = B'``), applied to the
    state as ``P_p v = Z_i B_j^T`` from ``Z_i = A_i v``: six factor products.

    Validates the quadruple once, and the lifted Hermiticity of the products
    in ``checked``.  Returns the means, the second moments, the Gram matrix
    ``G[p, q] = sum_r w_r <P_p v_r|P_q v_r>`` and ``[Z_0, Z_1]``.  As every
    factor is Hermitian, ``<P_p P_q> = G[p, q]``; for instance
    ``<[A,A'] (x) [B,B']> = 2 Re(G[0, 3] - G[1, 2])``.
    """
    if A.dims != Ap.dims:
        raise ValueError(f"A and A' must share dims, got {A.dims} vs {Ap.dims}")
    if B.dims != Bp.dims:
        raise ValueError(f"B and B' must share dims, got {B.dims} vs {Bp.dims}")
    if A.dims + B.dims != s.dims:
        raise ValueError(f"operator factors {A.dims} + {B.dims} do not cover "
                         f"state dims {s.dims}")
    for op, label in zip((A, Ap, B, Bp), _LABELS):
        _require_hermitian((op,), label)
    for p in checked:
        _require_hermitian(((A, Ap)[p // 2], (B, Bp)[p % 2]), "{} (x) {}",
                           _LABELS[p // 2], _LABELS[2 + p % 2])
    V, r = s.vectors, s.weights.size
    left, b = r * A.side, B.side
    Zs = [_apply_factor(Ai.data, V, r).reshape(left, b) for Ai in (A, Ap)]
    # a block of rows at a time; the Gram matrix of its products and v holds G and the means
    w, Vr, H = np.repeat(s.weights, A.side)[:, None], V.reshape(left, b), 0.0
    for rows in _blocks(left, b):
        Y = np.array([Z[rows] @ Bj.data.T for Z in Zs for Bj in (B, Bp)] + [Vr[rows]])
        H = H + (Y.conj() * w[rows]).reshape(5, -1) @ Y.reshape(5, -1).T
    G = H[:4, :4]
    return H[:4, 4].real.tolist(), G.diagonal().real.tolist(), G, Zs


def _guarded_ratio(lhs: float, rhs: float) -> float | None:
    if lhs < DEFAULT.ratio_guard:
        return None
    return rhs / lhs


def variance_product(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Product condition: sigma_AB * sigma_A'B' >= (1/4)|<[A,A'] (x) [B,B']>|."""
    means, second, G, _ = _moment_table(A, Ap, B, Bp, s, (0, 3))
    (m_ab, m_apbp), (s_ab, s_apbp) = means[::3], second[::3]
    var_ab, var_apbp = _clamped_variance(s_ab, m_ab), _clamped_variance(s_apbp, m_apbp)
    m_comm = float(2.0 * (G[0, 3] - G[1, 2]).real)
    lhs = math.sqrt(var_ab) * math.sqrt(var_apbp)
    rhs = 0.25 * abs(m_comm)
    details = {"m_AB": m_ab, "m_ApBp": m_apbp, "s_AB": s_ab, "s_ApBp": s_apbp,
               "var_AB": var_ab, "var_ApBp": var_apbp, "m_comm": m_comm}
    return _make_report("variance_product", lhs, rhs, leq=False,
                        V=_guarded_ratio(lhs, rhs), details=details)


def variance_sum(A: ComplexMatrix, Ap: ComplexMatrix,
                 B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Sum condition: sigma²_AB + sigma²_A'B' >= (1/2)|<[A,A'] (x) [B,B']>|."""
    means, second, G, _ = _moment_table(A, Ap, B, Bp, s, (0, 3))
    m_ab, m_apbp = means[::3]
    var_ab, var_apbp = map(_clamped_variance, second[::3], means[::3])
    m_comm = float(2.0 * (G[0, 3] - G[1, 2]).real)
    lhs = var_ab + var_apbp
    rhs = 0.5 * abs(m_comm)
    details = {"m_AB": m_ab, "m_ApBp": m_apbp,
               "var_AB": var_ab, "var_ApBp": var_apbp, "m_comm": m_comm}
    return _make_report("variance_sum", lhs, rhs, leq=False, V=None, details=details)


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
        _require_hermitian((Ak,), "A_{}", k)
        _require_hermitian((Apk,), "A'_{}", k)
    m_prod, var_prod = _lifted_variance(As, s, "A_0 (x) ... (x) A_{}", n - 1)
    m_prod_p, var_prod_p = _lifted_variance(Aps, s, "A'_0 (x) ... (x) A'_{}", n - 1)
    m_comm = _lifted_moments([commutator(Ak, Apk) for Ak, Apk in zip(As, Aps)], s)[0].real
    lhs = math.sqrt(var_prod) * math.sqrt(var_prod_p)
    rhs = abs(m_comm) / 2.0**n
    details = {"m_A1..An": m_prod, "m_Ap1..Apn": m_prod_p,
               "var_A1..An": var_prod, "var_Ap1..Apn": var_prod_p,
               "m_comm": m_comm, "n_parties": float(n)}
    return _make_report("multipartite", lhs, rhs, leq=False,
                        V=_guarded_ratio(lhs, rhs), details=details)


# The three sums M of the power-sum condition, as coefficients c_p of P_p.
_POWER_SUMS = ((0, 1, -1, 0), (1, 0, 1, 1), (1, 1, 0, 1))


def _fourth_moments(Zs: list[Array], A: ComplexMatrix, Ap: ComplexMatrix,
                    B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> list[float]:
    """``<M^4> = sum_r w_r ||M^2 v_r||^2`` for the three power sums, from the
    table's ``Z_i = A_i v``: with ``C_i = c_2i B + c_2i+1 B'``, ``M v = Z_0 C_0^T
    + Z_1 C_1^T`` by blocks of rows, then ``M^2 v = A (M v) C_0^T + A' (M v) C_1^T``
    by blocks of columns, so ``M v`` is the only new array of the state's size."""
    (left, b), r = Zs[0].shape, s.weights.size
    Mv, out = np.empty_like(Zs[0]), []
    for c in _POWER_SUMS:
        Cs = [c[0] * B.data, c[2] * B.data]
        Cs[0] += c[1] * Bp.data
        Cs[1] += c[3] * Bp.data
        for rows in _blocks(left, b):
            np.matmul(Zs[0][rows], Cs[0].T, out=Mv[rows])
            Mv[rows] += Zs[1][rows] @ Cs[1].T
        total = 0.0
        for cols in _blocks(b, left):
            U0, U1 = (np.matmul(Ai.data, (Mv @ C.T[:, cols]).reshape(r, A.side, -1))
                      for Ai, C in zip((A, Ap), Cs))
            U0 += U1
            total += float(s.weights @ np.einsum("rac,rac->r", U0.conj(), U0).real)
        out.append(total)
        del Cs  # before the next sum's operators are built
    return out


def ramanujan_witness(A: ComplexMatrix, Ap: ComplexMatrix,
                      B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                      n: int) -> WitnessReport:
    """Power-sum condition (n in {2, 4}), violated when lhs > rhs:

    <AB + AB' + A'B>^n + <AB' + A'B + A'B'>^n + <AB - A'B'>^n
        <= <(AB' - A'B)^n> + <(A'B + A'B' + AB)^n> + <(A'B' + AB + AB')^n>

    with all products tensor-lifted.  The scalar identity behind it holds
    exactly for these two exponents (see the polyid module).
    """
    if n not in (2, 4):
        raise ValueError(f"power-sum condition is only available for n in {{2, 4}}, got {n}")
    means, _, G, Zs = _moment_table(A, Ap, B, Bp, s)
    m_ab, m_abp, m_apb, m_apbp = means
    lhs = ((m_ab + m_abp + m_apb) ** n
           + (m_abp + m_apb + m_apbp) ** n
           + (m_ab - m_apbp) ** n)
    if n == 2:  # <M^2> = ||M psi||^2 = c^T G c
        pow1, pow2, pow3 = (float((np.array(c) @ G @ c).real) for c in _POWER_SUMS)
    else:
        pow1, pow2, pow3 = _fourth_moments(Zs, A, Ap, B, Bp, s)
    rhs = pow1 + pow2 + pow3
    details = {"m_AB": m_ab, "m_ABp": m_abp, "m_ApB": m_apb, "m_ApBp": m_apbp,
               f"pow{n}_ABp_minus_ApB": pow1,
               f"pow{n}_ApB_plus_ApBp_plus_AB": pow2,
               f"pow{n}_ApBp_plus_AB_plus_ABp": pow3}
    return _make_report(f"ramanujan_{n}", lhs, rhs, leq=True, V=None, details=details)


def uffink(A: ComplexMatrix, Ap: ComplexMatrix,
           B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Quadratic condition <AB - A'B'>² + <AB' + A'B>² <= <(A² + A'²)(x)(B² + B'²)>."""
    means, second, _, _ = _moment_table(A, Ap, B, Bp, s)
    m_ab, m_abp, m_apb, m_apbp = means
    lhs = (m_ab - m_apbp) ** 2 + (m_abp + m_apb) ** 2
    m_sq = sum(second)  # <(A² + A'²) (x) (B² + B'²)> = sum_p <P_p²>
    details = {"m_AB": m_ab, "m_ABp": m_abp, "m_ApB": m_apb, "m_ApBp": m_apbp,
               "m_square_product": m_sq}
    return _make_report("uffink", lhs, m_sq, leq=True, V=None, details=details)


def four_variance(A: ComplexMatrix, Ap: ComplexMatrix,
                  B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> WitnessReport:
    """Four-term condition: sum of the four product variances bounds the commutator.

    sigma²_AB + sigma²_AB' + sigma²_A'B + sigma²_A'B' >= |<[A,A'] (x) [B,B']>|.
    """
    means, second, G, _ = _moment_table(A, Ap, B, Bp, s, range(4))
    labels = ("AB", "ABp", "ApB", "ApBp")
    variances = list(map(_clamped_variance, second, means))
    m_comm = float(2.0 * (G[0, 3] - G[1, 2]).real)
    lhs = sum(variances)
    rhs = abs(m_comm)
    details = {**{f"m_{label}": m for label, m in zip(labels, means)},
               **{f"var_{label}": v for label, v in zip(labels, variances)}, "m_comm": m_comm}
    return _make_report("four_variance", lhs, rhs, leq=False, V=None, details=details)


def heisenberg_floor(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> float:
    """Uncertainty floor (1/2)|<[A(x)B, A'(x)B']>| on sigma_AB * sigma_A'B'.

    This bound holds for *all* states (it is the plain uncertainty relation
    for the two lifted products), so it pre-screens where the separability
    conditions can possibly be violated.  No pruning decision is made here;
    callers compare it with the commutator bound themselves.
    """
    G = _moment_table(A, Ap, B, Bp, s)[2]
    # <[A(x)B, A'(x)B']> = G[0, 3] - G[3, 0] = 2i Im G[0, 3]
    return float(abs(G[0, 3].imag))


def schmidt_optimal_witness(alpha: complex, beta: complex
                            ) -> tuple[ComplexMatrix, ComplexMatrix,
                                       ComplexMatrix, ComplexMatrix, WitnessReport]:
    """Variance-product witness tuned to the state alpha|00> + beta|11>.

    Builds the in-plane spin operators at angles theta = -arg(alpha),
    eta = arg(beta) with primed partners a quarter turn ahead, which makes
    <A(x)B> = 2|alpha*beta| and the bound rhs = 1.  The condition then reads
    1 - 4|alpha*beta|² >= 1 and fails exactly when alpha*beta != 0.
    """
    state = schmidt_pair(alpha, beta)
    theta = -np.angle(complex(alpha))
    eta = np.angle(complex(beta))
    A = rotated_spin(theta)
    Ap = rotated_spin(theta + np.pi / 2.0)
    B = rotated_spin(eta)
    Bp = rotated_spin(eta + np.pi / 2.0)
    report = variance_product(A, Ap, B, Bp, state)
    return (A, Ap, B, Bp, report)
