"""The arithmetic of the entanglement conditions, on a table of moments.

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

A bipartite condition is a function of one table ``(means, second, G)``:
the means and the second moments of the four lifted products ``P_p = A_i
(x) B_j``, ``p = 2i + j`` (``A_0 = A``, ``A_1 = A'``, ``B_0 = B``, ``B_1 =
B'``), as tuples of floats, and their Gram matrix ``G[p][q] = <P_p v|P_q v>``
as rows of Python complex numbers.  As every factor is Hermitian, ``G[p][q]
= <P_p P_q>``.  Two representations form the table: the dense ensemble
(``witnesses``) and the sparse spin families (``pauli``); both feed the
functions below, and :func:`ramanujan` at n = 4 also takes the
representation's ``<M^4>`` of the identity's right rows.

The bipartite conditions come in two families, and each reads the table
through one private reader: the uncertainty conditions
(:func:`variance_product`, :func:`variance_sum`, :func:`four_variance`)
through :func:`_uncertainty`, which returns the products' means and clamped
variances and the mean of ``[A,A'] (x) [B,B']``, and the power-sum
conditions (:func:`ramanujan`, :func:`uffink`) through
:func:`_identity_terms`.  The bound ``sigma * sigma' >= rhs`` that
:func:`variance_product` and :func:`multipartite` share, with its ratio
guard, is :func:`_product_report`.  Nothing here imports numpy.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Sequence

from .config import _IDENTITY_ROWS, DEFAULT, _Record, _as_int

__all__ = ["WitnessReport", "variance_product", "variance_sum", "four_variance", "multipartite",
           "ramanujan", "uffink", "heisenberg_floor"]
Table = tuple  # (means, second, G), as the module docstring describes
Fourth = Callable[[Sequence[Sequence[float]]], list]  # rows -> <(c . P)^4> per row


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


def _clamped_variance(second: float, mean: float) -> float:
    """``second - mean**2``, with round-off below zero (above
    ``-DEFAULT.variance_clamp``) clamped to zero and anything lower rejected."""
    var = second - mean * mean
    if var < 0.0:
        if var < -DEFAULT.variance_clamp:
            raise ValueError(f"variance {var:.3e} is negative beyond round-off")
        var = 0.0
    return var


_PRODUCTS = ("AB", "ABp", "ApB", "ApBp")  # the labels of P_0 .. P_3
_MEAN_KEYS = tuple("m_" + label for label in _PRODUCTS)


def _uncertainty(table: Table, products: Sequence[int]) -> tuple[dict, dict, dict, float]:
    """The uncertainty family's reading of the table: the means, the second
    moments and the clamped variances of the lifted products ``P_p``, ``p`` in
    ``products`` (clamped in that order), keyed ``m_``, ``s_`` and ``var_``
    plus the label in ``_PRODUCTS``, and ``<[A,A'] (x) [B,B']>``, whose four
    terms ``P_0 P_3 - P_1 P_2 - P_2 P_1 + P_3 P_0`` pair into conjugate
    entries of ``G``."""
    means, second, G = table
    m, sq, var = {}, {}, {}
    for p in products:  # a loop, as each comprehension would be one more call
        label = _PRODUCTS[p]
        m["m_" + label], sq["s_" + label] = means[p], second[p]
        var["var_" + label] = _clamped_variance(second[p], means[p])
    return m, sq, var, 2.0 * (G[0][3] - G[1][2]).real


def _product_report(name: str, var: float, var_p: float, rhs: float,
                    details: dict[str, float]) -> WitnessReport:
    """The report of ``sigma * sigma' >= rhs`` from the two variances, with
    ``V = rhs / lhs`` unless ``lhs`` is below the ratio guard."""
    lhs = math.sqrt(var) * math.sqrt(var_p)
    V = None if lhs < DEFAULT.ratio_guard else rhs / lhs
    return _make_report(name, lhs, rhs, leq=False, V=V, details=details)


def variance_product(table: Table) -> WitnessReport:
    """Product condition: sigma_AB * sigma_A'B' >= (1/4)|<[A,A'] (x) [B,B']>|."""
    m, sq, var, m_comm = _uncertainty(table, (0, 3))
    return _product_report("variance_product", *var.values(), 0.25 * abs(m_comm),
                           {**m, **sq, **var, "m_comm": m_comm})


def variance_sum(table: Table) -> WitnessReport:
    """Sum condition: sigma²_AB + sigma²_A'B' >= (1/2)|<[A,A'] (x) [B,B']>|."""
    m, _, var, m_comm = _uncertainty(table, (0, 3))
    var_ab, var_apbp = var.values()
    return _make_report("variance_sum", var_ab + var_apbp, 0.5 * abs(m_comm), leq=False,
                        V=None, details={**m, **var, "m_comm": m_comm})


def four_variance(table: Table) -> WitnessReport:
    """Four-term condition: sum of the four product variances bounds the commutator.

    sigma²_AB + sigma²_AB' + sigma²_A'B + sigma²_A'B' >= |<[A,A'] (x) [B,B']>|.
    """
    m, _, var, m_comm = _uncertainty(table, range(4))
    return _make_report("four_variance", sum(var.values()), abs(m_comm), leq=False, V=None,
                        details={**m, **var, "m_comm": m_comm})


def _bound_divisor(n: int) -> float:
    """``2.0**n``, the divisor of the ``n``-party bound; an ``n`` whose power
    overflows a float is refused."""
    if n >= sys.float_info.max_exp:
        raise ValueError(f"the multipartite bound divides by 2^{n}, beyond the float range; "
                         f"at most {sys.float_info.max_exp - 1} parties")
    return 2.0**n


def multipartite(n: int, m_prod: float, var_prod: float, m_prod_p: float, var_prod_p: float,
                 m_comm: float) -> WitnessReport:
    """n-party product condition with the commutator bound scaled by 1/2^n
    (:func:`_bound_divisor`), from the means and clamped variances of ``A_1
    (x) ... (x) A_n`` and of the primed product, and the mean of ``[A_1,
    A'_1] (x) ... (x) [A_n, A'_n]``."""
    divisor = _bound_divisor(n)
    details = {"m_A1..An": m_prod, "m_Ap1..Apn": m_prod_p,
               "var_A1..An": var_prod, "var_Ap1..Apn": var_prod_p,
               "m_comm": m_comm, "n_parties": float(n)}
    return _product_report("multipartite", var_prod, var_prod_p, abs(m_comm) / divisor, details)


# For each identity, the nonzero terms (p, q, c_p c_q) of c^T G c for each
# right row c: a unit row is one diagonal entry.
_RIGHT_TERMS = {name: tuple(tuple((p, q, cp * cq) for p, cp in enumerate(row) if cp
                                  for q, cq in enumerate(row) if cq)
                            for row in rows[1])
                for name, rows in _IDENTITY_ROWS.items()}


def _identity_terms(name: str, n: int, table: Table,
                    fourth: Fourth | None) -> tuple[dict, float, list[float]]:
    """The identity ``config._IDENTITY_ROWS[name]`` on the lifted products
    ``P``: the four means as ``details``, ``sum_k <L_k . P>^n`` over the left
    rows, and ``<(R_k . P)^n>`` for each right row (``c^T G c`` over the
    row's nonzero coefficients at n = 2, ``fourth`` of the right rows at
    n = 4)."""
    means, _, G = table
    lhs = 0.0
    for row in _IDENTITY_ROWS[name][0]:  # each form summed left to right, as displayed
        form = 0.0
        for c, m in zip(row, means):
            form += c * m
        lhs += form ** n
    if n == 2:  # <M^2> = ||M psi||^2 = c^T G c, real as G is Hermitian
        powers = []
        for terms in _RIGHT_TERMS[name]:
            power = 0.0
            for p, q, c in terms:
                power += c * G[p][q].real
            powers.append(power)
    else:
        powers = fourth(_IDENTITY_ROWS[name][1])
    return dict(zip(_MEAN_KEYS, means)), lhs, powers


def _exponent(n: Any) -> int:
    """``n`` as the exponent of the power-sum condition, 2 or 4."""
    n = _as_int(n, "n")
    if n not in (2, 4):
        raise ValueError(f"power-sum condition is only available for n in {{2, 4}}, got {n}")
    return n


def ramanujan(table: Table, n: int, fourth: Fourth) -> WitnessReport:
    """Power-sum condition at a checked ``n`` (:func:`_exponent`), violated when lhs > rhs:

    <AB + AB' + A'B>^n + <AB' + A'B + A'B'>^n + <AB - A'B'>^n
        <= <(AB' - A'B)^n> + <(AB + A'B + A'B')^n> + <(AB + AB' + A'B')^n>

    with all products tensor-lifted: the rows ``config._IDENTITY_ROWS
    ["ramanujan"]``, whose scalar identity ``polyid`` proves exact for these
    two exponents.
    """
    details, lhs, (pow1, pow2, pow3) = _identity_terms("ramanujan", n, table, fourth)
    details.update({f"pow{n}_ABp_minus_ApB": pow1, f"pow{n}_ApB_plus_ApBp_plus_AB": pow2,
                    f"pow{n}_ApBp_plus_AB_plus_ABp": pow3})
    return _make_report(f"ramanujan_{n}", lhs, pow1 + pow2 + pow3, leq=True, V=None,
                        details=details)


def uffink(table: Table) -> WitnessReport:
    """Quadratic condition <AB - A'B'>² + <AB' + A'B>² <= <(A² + A'²)(x)(B² + B'²)>:
    the rows ``config._IDENTITY_ROWS["complex_norm"]`` at n = 2, whose right
    side sums ``<P_p²>`` over the four products."""
    details, lhs, powers = _identity_terms("complex_norm", 2, table, None)
    details["m_square_product"] = m_sq = sum(powers)
    return _make_report("uffink", lhs, m_sq, leq=True, V=None, details=details)


def heisenberg_floor(table: Table) -> float:
    """``(1/2)|<[A(x)B, A'(x)B']>| = |Im G[0][3]|``, as ``<[A(x)B, A'(x)B']> =
    G[0][3] - G[3][0] = 2i Im G[0][3]``."""
    return abs(table[2][0][3].imag)
