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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .config import DEFAULT
from .hilbert import (
    ComplexMatrix,
    QuantumState,
    _clamped_variance,
    _lifted_moments,
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
                 V: float | None, details: dict[str, float], tol: float) -> WitnessReport:
    delta = (lhs - rhs) if leq else (rhs - lhs)
    return WitnessReport(name=name, lhs=float(lhs), rhs=float(rhs), delta=float(delta),
                         V=V, violated=bool(delta > tol), details=details)


def _check_quadruple(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> None:
    if A.dims != Ap.dims:
        raise ValueError(f"A and A' must share dims, got {A.dims} vs {Ap.dims}")
    if B.dims != Bp.dims:
        raise ValueError(f"B and B' must share dims, got {B.dims} vs {Bp.dims}")
    if A.dims + B.dims != s.dims:
        raise ValueError(f"operator factors {A.dims} + {B.dims} do not cover "
                         f"state dims {s.dims}")
    for label, op in (("A", A), ("A'", Ap), ("B", B), ("B'", Bp)):
        defect = op.hermiticity_defect()
        if defect > DEFAULT.hermitian:
            raise ValueError(f"operator {label} is not Hermitian "
                             f"(max deviation {defect:.3e})")


def _mean(terms: Sequence[tuple[complex, Sequence[ComplexMatrix]]], s: QuantumState) -> float:
    return _lifted_moments(terms, s, 1)[0].real


def _product_moments(factors: Sequence[ComplexMatrix],
                     s: QuantumState) -> tuple[float, float, float]:
    """Mean, second moment and variance of the lifted product of ``factors``.

    The lifted matrix is never built, so its Hermiticity is checked through
    the factors: the max-abs entry of ``F_1 (x) ... (x) F_n`` minus its
    adjoint is at most ``sum_k delta_k * prod_{j != k} max|F_j|``, with
    ``delta_k`` the defect of factor k.  The product is rejected when that
    bound exceeds the tolerance ``hilbert.variance`` applies to the lifted
    matrix, and round-off below zero is clamped as there.
    """
    sizes = [float(np.abs(F.data).max()) for F in factors]
    bound = sum(F.hermiticity_defect() * math.prod(sizes[:k] + sizes[k + 1:])
                for k, F in enumerate(factors))
    _require_hermitian(bound, what="max deviation bound")
    mean, second = _lifted_moments([(1, factors)], s)
    mean = mean.real
    return mean, second, _clamped_variance(second, mean)


def _comm_mean(A: ComplexMatrix, Ap: ComplexMatrix,
               B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> float:
    # [A,A'] and [B,B'] are anti-Hermitian, so their tensor product is
    # Hermitian and the expectation is real up to round-off.
    return _mean([(1, (commutator(A, Ap), commutator(B, Bp)))], s)


def _guarded_ratio(lhs: float, rhs: float) -> float | None:
    if lhs < DEFAULT.ratio_guard:
        return None
    return rhs / lhs


def variance_product(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                     *, tol: float = DEFAULT.violation) -> WitnessReport:
    """Product condition: sigma_AB * sigma_A'B' >= (1/4)|<[A,A'] (x) [B,B']>|."""
    _check_quadruple(A, Ap, B, Bp, s)
    m_ab, s_ab, var_ab = _product_moments((A, B), s)
    m_apbp, s_apbp, var_apbp = _product_moments((Ap, Bp), s)
    m_comm = _comm_mean(A, Ap, B, Bp, s)
    lhs = math.sqrt(var_ab) * math.sqrt(var_apbp)
    rhs = 0.25 * abs(m_comm)
    details = {"m_AB": m_ab, "m_ApBp": m_apbp, "s_AB": s_ab, "s_ApBp": s_apbp,
               "var_AB": var_ab, "var_ApBp": var_apbp, "m_comm": m_comm}
    return _make_report("variance_product", lhs, rhs, leq=False,
                        V=_guarded_ratio(lhs, rhs), details=details, tol=tol)


def variance_sum(A: ComplexMatrix, Ap: ComplexMatrix,
                 B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                 *, tol: float = DEFAULT.violation) -> WitnessReport:
    """Sum condition: sigma²_AB + sigma²_A'B' >= (1/2)|<[A,A'] (x) [B,B']>|."""
    _check_quadruple(A, Ap, B, Bp, s)
    m_ab, _, var_ab = _product_moments((A, B), s)
    m_apbp, _, var_apbp = _product_moments((Ap, Bp), s)
    m_comm = _comm_mean(A, Ap, B, Bp, s)
    lhs = var_ab + var_apbp
    rhs = 0.5 * abs(m_comm)
    details = {"m_AB": m_ab, "m_ApBp": m_apbp,
               "var_AB": var_ab, "var_ApBp": var_apbp, "m_comm": m_comm}
    return _make_report("variance_sum", lhs, rhs, leq=False,
                        V=None, details=details, tol=tol)


def multipartite(As: Sequence[ComplexMatrix], Aps: Sequence[ComplexMatrix],
                 s: QuantumState, *, tol: float = DEFAULT.violation) -> WitnessReport:
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
        for label, op in ((f"A_{k}", Ak), (f"A'_{k}", Apk)):
            defect = op.hermiticity_defect()
            if defect > DEFAULT.hermitian:
                raise ValueError(f"operator {label} is not Hermitian "
                                 f"(max deviation {defect:.3e})")
    m_prod, _, var_prod = _product_moments(As, s)
    m_prod_p, _, var_prod_p = _product_moments(Aps, s)
    m_comm = _mean([(1, [commutator(Ak, Apk) for Ak, Apk in zip(As, Aps)])], s)
    lhs = math.sqrt(var_prod) * math.sqrt(var_prod_p)
    rhs = abs(m_comm) / 2.0**n
    details = {"m_A1..An": m_prod, "m_Ap1..Apn": m_prod_p,
               "var_A1..An": var_prod, "var_Ap1..Apn": var_prod_p,
               "m_comm": m_comm, "n_parties": float(n)}
    return _make_report("multipartite", lhs, rhs, leq=False,
                        V=_guarded_ratio(lhs, rhs), details=details, tol=tol)


def ramanujan_witness(A: ComplexMatrix, Ap: ComplexMatrix,
                      B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                      n: int, *, tol: float = DEFAULT.violation) -> WitnessReport:
    """Power-sum condition (n in {2, 4}), violated when lhs > rhs:

    <AB + AB' + A'B>^n + <AB' + A'B + A'B'>^n + <AB - A'B'>^n
        <= <(AB' - A'B)^n> + <(A'B + A'B' + AB)^n> + <(A'B' + AB + AB')^n>

    with all products tensor-lifted.  The scalar identity behind it holds
    exactly for these two exponents (see the polyid module).
    """
    if n not in (2, 4):
        raise ValueError(f"power-sum condition is only available for n in {{2, 4}}, got {n}")
    _check_quadruple(A, Ap, B, Bp, s)
    AB, ABp, ApB, ApBp = (A, B), (A, Bp), (Ap, B), (Ap, Bp)
    m_ab, m_abp = _mean([(1, AB)], s), _mean([(1, ABp)], s)
    m_apb, m_apbp = _mean([(1, ApB)], s), _mean([(1, ApBp)], s)
    lhs = ((m_ab + m_abp + m_apb) ** n
           + (m_abp + m_apb + m_apbp) ** n
           + (m_ab - m_apbp) ** n)
    pow1 = _lifted_moments([(1, ABp), (-1, ApB)], s, n)[1]
    pow2 = _lifted_moments([(1, ApB), (1, ApBp), (1, AB)], s, n)[1]
    pow3 = _lifted_moments([(1, ApBp), (1, AB), (1, ABp)], s, n)[1]
    rhs = pow1 + pow2 + pow3
    details = {"m_AB": m_ab, "m_ABp": m_abp, "m_ApB": m_apb, "m_ApBp": m_apbp,
               f"pow{n}_ABp_minus_ApB": pow1,
               f"pow{n}_ApB_plus_ApBp_plus_AB": pow2,
               f"pow{n}_ApBp_plus_AB_plus_ABp": pow3}
    return _make_report(f"ramanujan_{n}", lhs, rhs, leq=True,
                        V=None, details=details, tol=tol)


def uffink(A: ComplexMatrix, Ap: ComplexMatrix,
           B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
           *, tol: float = DEFAULT.violation) -> WitnessReport:
    """Quadratic condition <AB - A'B'>² + <AB' + A'B>² <= <(A² + A'²)(x)(B² + B'²)>."""
    _check_quadruple(A, Ap, B, Bp, s)
    m_ab, m_abp = _mean([(1, (A, B))], s), _mean([(1, (A, Bp))], s)
    m_apb, m_apbp = _mean([(1, (Ap, B))], s), _mean([(1, (Ap, Bp))], s)
    lhs = (m_ab - m_apbp) ** 2 + (m_abp + m_apb) ** 2
    m_sq = _mean([(1, (A @ A + Ap @ Ap, B @ B + Bp @ Bp))], s)
    details = {"m_AB": m_ab, "m_ABp": m_abp, "m_ApB": m_apb, "m_ApBp": m_apbp,
               "m_square_product": m_sq}
    return _make_report("uffink", lhs, m_sq, leq=True,
                        V=None, details=details, tol=tol)


def four_variance(A: ComplexMatrix, Ap: ComplexMatrix,
                  B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState,
                  *, tol: float = DEFAULT.violation) -> WitnessReport:
    """Four-term condition: sum of the four product variances bounds the commutator.

    sigma²_AB + sigma²_AB' + sigma²_A'B + sigma²_A'B' >= |<[A,A'] (x) [B,B']>|.
    """
    _check_quadruple(A, Ap, B, Bp, s)
    means, variances = {}, {}
    for label, factors in (("AB", (A, B)), ("ABp", (A, Bp)),
                           ("ApB", (Ap, B)), ("ApBp", (Ap, Bp))):
        means[f"m_{label}"], _, variances[f"var_{label}"] = _product_moments(factors, s)
    m_comm = _comm_mean(A, Ap, B, Bp, s)
    lhs = sum(variances.values())
    rhs = abs(m_comm)
    details = {**means, **variances, "m_comm": m_comm}
    return _make_report("four_variance", lhs, rhs, leq=False,
                        V=None, details=details, tol=tol)


def heisenberg_floor(A: ComplexMatrix, Ap: ComplexMatrix,
                     B: ComplexMatrix, Bp: ComplexMatrix, s: QuantumState) -> float:
    """Uncertainty floor (1/2)|<[A(x)B, A'(x)B']>| on sigma_AB * sigma_A'B'.

    This bound holds for *all* states (it is the plain uncertainty relation
    for the two lifted products), so it pre-screens where the separability
    conditions can possibly be violated.  No pruning decision is made here;
    callers compare it with the commutator bound themselves.
    """
    _check_quadruple(A, Ap, B, Bp, s)
    # [A(x)B, A'(x)B'] = AA'(x)BB' - A'A(x)B'B
    terms = [(1, (A @ Ap, B @ Bp)), (-1, (Ap @ A, Bp @ B))]
    return 0.5 * abs(_lifted_moments(terms, s, 1)[0])


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
