"""Quadratic-form minimization over the paired-level state family.

The variance product on the family with real coefficients c_n is
1/4 + Q(c) with the quadratic form

    Q(c) = sum_n  2n(2n+1) c_n^2  -  (n+1)(2n+1) c_n c_{n+1},

so the strongest violation at truncation N comes from the minimal
eigenvalue of the symmetric tridiagonal matrix C_N that represents Q.
Eigenvalues are located by bisection on the Sturm sequence (sign-change
count of the shifted LDL^T recurrence; Barth, Martin and Wilkinson, Numer.
Math. 9, 1967) -- robust for symmetric tridiagonal input and free of any
general eigensolver dependency.  One recurrence gives every count, stopped
once it reaches a given number: a bisection step only asks whether any
eigenvalue lies below the midpoint, so it stops at one; the two
certificates take full counts.  Every count also stops where the rest of
the matrix is provably positive: at a pivot no smaller than the next
off-diagonal, once every later row's Gershgorin lower edge lies above the
shift.  C_N's tail is diagonally dominant (row n's edge is 2n^2 + n - 1/2),
so below 2.5 its counts end within the first rows.
Inverse iteration factors the shifted matrix once and reuses the factors
for every iterate, on the leading rows only: the same floors bound each
ratio of consecutive entries of the eigenvector, and past the row where
their product falls under the smallest subnormal every entry lies below
what a double holds, so the vector is padded with zeros.  On C_N (bounds
tending to 1/3) the block ends near row 675 for every larger N; a matrix
without a dominant tail keeps all its rows.  The certificates still count
over the whole matrix.  The kernels (C_N, the solve, the psi2 scan), which
``cmatrix`` and ``psi2`` call, run on Python floats in ``array('d')``
buffers with ``math.fsum``/``math.hypot`` reductions and no numpy; the
public names wrap them in ndarrays.  Requests whose arrays would not fit
in memory are refused before anything is allocated.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from bisect import bisect_right
from itertools import chain, islice, repeat
from operator import add, mul, neg, sub, truediv
from typing import TYPE_CHECKING, Any, Sequence

from .config import _Record, _as_int, _as_real, _refuse_oversize

if TYPE_CHECKING:
    from numpy import ndarray as Array

# Floats per entry of C_N charged to c_matrix and min_eigenvalue.  Each entry
# holds the matrix, off2, the Sturm tail floors with the Gershgorin
# temporaries they are built from, and the zero-padded eigenvector (about 7
# floats); the factor buffers, the iteration vectors and the tuples handed to
# math.hypot cover only the leading block, under 700 rows of C_N.  A matrix
# without a dominant tail holds those over every row (10 floats an entry, and
# 4 more for math.hypot).  Counted with the four working copies, 12 give 384
# bytes an entry, and `cmatrix --n 1000000` peaks at 69 MB.
_SOLVE_ARRAYS = 12
# Floats per grid point of psi2_scan, a conservative bound: the grid and
# the values (2) and the lists of a JSON report (8); 384 bytes a point with
# the working copies, where `psi2 --scan 1000000` uses 92.
_SCAN_FLOATS = 12

__all__ = [
    "TridiagonalMatrix",
    "ScanResult",
    "c_matrix",
    "quadratic_form",
    "min_eigenvalue",
    "vmax_from_lambda",
    "psi2_scan",
]


class TridiagonalMatrix(_Record):
    """Real symmetric tridiagonal matrix, stored as diagonal and off-diagonal.

    The entries must be finite reals: a string, a bool or a complex is
    refused with ValueError, not cast."""

    __slots__ = __match_args__ = ("diag", "offdiag")

    def __init__(self, diag: Array, offdiag: Array):
        import numpy as np
        from .hilbert import _as_reals

        if np.ndim(diag) != 1 or np.ndim(offdiag) != 1 or np.size(diag) < 1:
            raise ValueError("diag/offdiag must be one-dimensional, diag non-empty")
        diag, off = _as_reals(diag, "diag"), _as_reals(offdiag, "offdiag")
        if off.size != diag.size - 1:
            raise ValueError(f"offdiag length {off.size} must be diag length - 1 "
                             f"({diag.size - 1})")
        diag.setflags(write=False)
        off.setflags(write=False)
        self._init(diag, off)

    @property
    def size(self) -> int:
        return int(self.diag.size)

    def dense(self) -> Array:
        import numpy as np

        M = np.diag(self.diag)
        if self.offdiag.size:
            M += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return M

    def matvec(self, v: Array) -> Array:
        import numpy as np
        from .hilbert import _as_reals

        v = _as_reals(v, "v")
        if v.size != self.size:
            raise ValueError(f"vector length {v.size} must be the matrix size {self.size}")
        return np.asarray(_tridiag_product(memoryview(self.diag), memoryview(self.offdiag),
                                           memoryview(v)))


def _c_entries(N: Any) -> tuple[array, array]:
    """The diagonal and off-diagonal of C_N, checked as by :func:`c_matrix`."""
    N = _as_int(N, "N")
    if N < 0:
        raise ValueError(f"truncation order must be non-negative, got {N}")
    _refuse_oversize(8 * _SOLVE_ARRAYS * (N + 1), f"C_N at N = {N}")
    diag = array("d", [2.0 * n * (2.0 * n + 1.0) for n in range(N + 1)])
    off = array("d", [-(m + 1.0) * (2.0 * m + 1.0) / 2.0 for m in range(N)])
    return diag, off


def c_matrix(N: int) -> TridiagonalMatrix:
    """Matrix of Q at truncation N: diag 2n(2n+1), off-diagonal -(n+1)(2n+1)/2.

    The off-diagonal carries the minus sign of Q's cross term; flipping the
    signs of off-diagonal entries is a diagonal similarity, so the spectrum
    would be unchanged either way.  An N whose arrays (counted for
    :func:`min_eigenvalue` too) would not fit in memory is refused with
    ValueError before allocation.
    """
    return TridiagonalMatrix(*_c_entries(N))


def quadratic_form(c: Sequence[float]) -> float:
    """Q(c) as the displayed sum, cross terms entirely on the (n, n+1) pairs.

    Identical in value to ``c @ c_matrix(N).dense() @ c``, which splits each
    cross term symmetrically.
    """
    from .hilbert import _as_reals

    coeffs = _as_reals(c, "c")
    if coeffs.size < 1:
        raise ValueError("need at least one coefficient")
    total = 0.0
    for n, cn in enumerate(coeffs):
        total += 2.0 * n * (2.0 * n + 1.0) * cn * cn
        if n + 1 < coeffs.size:
            total -= (n + 1.0) * (2.0 * n + 1.0) * cn * coeffs[n + 1]
    return total


def _count_below(diag, off2, x: float, pivmin: float, most: float = math.inf,
                 tail: tuple | None = None) -> int:
    """Number of eigenvalues strictly below x (Sturm sign-change count),
    or ``most`` once the count reaches it.

    The loop runs over memoryviews of the buffers, which yield Python floats
    and copy nothing.  A pivot q with |q| < pivmin is replaced by -pivmin,
    so every q below pivmin counts as negative.  ``tail``, the off-diagonal
    and :func:`_gershgorin`'s floors, stops the count at the first pivot
    ``q_k >= |o_k|`` whose floor ``floors[k]`` exceeds x: every later pivot
    then stays above its own off-diagonal, so none counts, and the result is
    the full recurrence's.
    """
    neg_pivmin = -pivmin
    q = float(diag[0]) - x
    count = 0
    if q < pivmin:
        count = 1
        if count >= most:
            return count
        if q > neg_pivmin:
            q = neg_pivmin
    # q >= NaN never holds: no row may stop before the floors exceed x
    limits = repeat(math.nan)
    if tail is not None:
        off, floors = tail
        start = bisect_right(floors, x)
        limits = chain(repeat(math.nan, start), map(abs, memoryview(off)[start:]))
    for d, e2, limit in zip(memoryview(diag)[1:], memoryview(off2), limits):
        if q >= limit:
            return count
        q = (d - x) - e2 / q
        if q < pivmin:
            count += 1
            if count >= most:
                return count
            if q > neg_pivmin:
                q = neg_pivmin
    return count


def _gershgorin(diag, off, pivmin: float) -> tuple[float, float, float, array]:
    """The Gershgorin bracket ``lo, hi`` of the spectrum, the slack ``1e-12 *
    max(|lo|, |hi|)``, and the floors of :func:`_count_below`'s tail.

    ``floors[k]`` is the least lower edge ``d_m - |o_{m-1}| - |o_m|`` of the
    rows m > k, less a margin of the slack, ``pivmin`` and 2^-51.  If a
    pivot ``q_k >= max(|o_k|, pivmin)`` and ``floors[k] > x``, then
    ``o_k^2 / q_k <= |o_k|`` and the next pivot is at least ``|o_{k+1}|``
    plus the margin less its round-off (at most about 7 * 2^-53 of the
    largest entry, and 2^-53 where a square underflows), so by induction no
    later pivot counts.  The floors are nondecreasing in k; for C_N the
    edge of row n < N is ``2n^2 + n - 1/2``.
    """
    absoff = array("d", map(abs, off))
    radius = array("d", map(add, chain(absoff, (0.0,)), chain((0.0,), absoff)))
    del absoff
    hi = max(map(add, diag, radius))
    edges = array("d", map(sub, diag, radius))
    del radius
    lo = min(edges)
    slack = 1e-12 * max(abs(lo), abs(hi))
    margin = slack + pivmin + 2.0 ** -51
    floors, least = array("d"), math.inf
    for edge in reversed(memoryview(edges)[1:]):  # rows n-1 down to 1
        if edge < least:
            least = edge
        floors.append(least - margin)
    floors.reverse()
    return lo, hi, slack, floors


def _block_rows(off, floors, top: float) -> int:
    """The number ``m`` of leading rows past which every entry of a unit
    eigenvector of an eigenvalue below ``top`` is under 2^-1074.

    Where ``floors[k] > top``, row k+1 of the eigen-equation gives
    ``t_k = v_{k+1}/v_k = -o_k / (d_{k+1} - lambda + o_{k+1} t_{k+1})``, and by
    backward induction from the last row ``|t_k| <= |o_k| / (|o_k| +
    floors[k] - top) < 1``.  The product of these bounds from the first
    such row bounds ``|v_{k+1}|``; ``m`` is the first k+1 where it falls
    under 2^-1074, the smallest subnormal, or ``n`` where it never does.
    The product is kept scaled by 2^1000, in the normal range, where its
    rounding is relative.
    """
    start = bisect_right(floors, top)
    scaled = 2.0 ** 1000
    for k, (o, floor) in enumerate(zip(map(abs, memoryview(off)[start:]),
                                       memoryview(floors)[start:]), start):
        scaled *= o / (o + (floor - top))
        if scaled < 2.0 ** -74:
            return k + 1
    return len(floors) + 1


def _tridiag_factor(diag, off, sigma: float) -> tuple:
    """Factor T - sigma*I by elimination with partial pivoting.

    Pivoting keeps the solve stable at the nearly singular shifts used by
    inverse iteration; the factored upper triangle gains a second
    superdiagonal, nothing more.  Returns memoryviews (indexed faster than
    the arrays) of float buffers of the pivots, first and second
    superdiagonal and elimination factors, and a bytearray marking the
    swapped row pairs; a zero pivot is stored as the smallest normal float.
    """
    n = len(diag)
    tiny = sys.float_info.min
    off = memoryview(off)
    d, u1, u2, factors = map(memoryview, (
        array("d", map(sub, memoryview(diag), repeat(sigma))),  # diagonal, then pivots
        array("d", chain(off, (0.0,))),          # first superdiagonal
        array("d", [0.0]) * n,                   # second superdiagonal (pivot fill-in)
        array("d", [0.0]) * (n - 1)))
    swaps = bytearray(n - 1)
    for i, below in enumerate(off):              # subdiagonal entries, in order
        if abs(below) > abs(d[i]):
            # swap rows i and i+1
            d[i], below = below, d[i]
            u1[i], d[i + 1] = d[i + 1], u1[i]
            u2[i], u1[i + 1] = u1[i + 1], 0.0
            swaps[i] = 1
        if d[i] == 0.0:
            d[i] = tiny
        factor = factors[i] = below / d[i]
        d[i + 1] -= factor * u1[i]
        u1[i + 1] -= factor * u2[i]
    if d[n - 1] == 0.0:
        d[n - 1] = tiny
    return d, u1, u2, factors, swaps


def _tridiag_apply(factored: tuple, rhs) -> array:
    """Solve with the factorization from :func:`_tridiag_factor`: the row
    swaps and eliminations on ``rhs``, then back substitution."""
    d, u1, u2, factors, swaps = factored
    n = len(d)
    b = memoryview(array("d", memoryview(rhs)))
    carry = b[0]                                 # b[i], already eliminated
    for i, swap, factor in zip(range(n - 1), swaps, factors):
        below = b[i + 1]
        if swap:
            carry, below = below, carry
        b[i] = carry
        carry = below - factor * carry
    b[n - 1] = carry
    solution = array("d", [0.0]) * n
    v = memoryview(solution)
    x1 = v[n - 1] = b[n - 1] / d[n - 1]         # x1, x2: v[i + 1], v[i + 2]
    if n > 1:
        x2, x1 = x1, (b[n - 2] - u1[n - 2] * x1) / d[n - 2]
        v[n - 2] = x1
    head = slice(None, n - 2)                    # rows n-3 down to 0, reversed below
    for i, bi, e1, e2, di in zip(range(n - 3, -1, -1), b[head][::-1], u1[head][::-1],
                                 u2[head][::-1], d[head][::-1]):
        x2, x1 = x1, ((bi - e1 * x1) - e2 * x2) / di
        v[i] = x1
    return solution


def _tridiag_solve(diag, off, sigma: float, rhs) -> array:
    """Solve (T - sigma*I) v = rhs by elimination with partial pivoting."""
    return _tridiag_apply(_tridiag_factor(diag, off, sigma), rhs)


def _tridiag_product(diag, off, v) -> array:
    """``T v``, row i summed as ``(diag[i] v[i] + off[i] v[i+1]) + off[i-1] v[i-1]``."""
    rows = chain(map(add, map(mul, diag, v), map(mul, off, v[1:])), (diag[-1] * v[-1],))
    out = array("d", islice(rows, 1))
    out.extend(map(add, rows, map(mul, off, v)))
    return out


def _eigenpair(diag, off, tol: float) -> tuple[float, array]:
    """:func:`min_eigenvalue` on float buffers, the vector an ``array('d')``."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
        raise ValueError(f"'tol' must be a real number, got {tol!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    n = len(diag)
    if n == 1:
        return float(diag[0]), array("d", [1.0])
    off2 = array("d", map(mul, off, off))
    pivmin = sys.float_info.min * max(1.0, max(off2))
    lo, hi, slack, floors = _gershgorin(diag, off, pivmin)
    tail = (off, floors)
    # lambda_min <= min(diag), so the count above this point is at least 1
    count_known_above = min(diag) + slack
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid > count_known_above or _count_below(diag, off2, mid, pivmin, 1, tail):
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    m = _block_rows(off, floors, hi + slack)
    head, head_off = memoryview(diag)[:m], memoryview(off)[:m - 1]
    v = array("d", [1.0 / math.sqrt(n)]) * m
    factored = _tridiag_factor(head, head_off, lam + 1e-12)
    for _ in range(3):
        w = _tridiag_apply(factored, v)
        norm = math.hypot(*w)
        if norm == 0.0 or not math.isfinite(norm):  # pathological shift; nudge and retry
            w = _tridiag_solve(head, head_off, lam + 1e-10, v)
            norm = math.hypot(*w)
        v = array("d", map(truediv, w, repeat(norm)))
    del factored
    if max(v, key=abs) < 0.0:
        v = array("d", map(neg, v))
    v += array("d", [0.0]) * (n - m)
    # C v vanishes past row m, so rows 0..m give the quotient and the residual
    rows = min(m + 1, n)
    Cv = _tridiag_product(memoryview(diag)[:rows], memoryview(off)[:rows - 1],
                          memoryview(v)[:rows])
    rayleigh = math.fsum(map(mul, v, Cv))
    # Some eigenvalue lies within the residual of the Rayleigh quotient;
    # it is the smallest only if the Sturm count finds none further below.
    residual = math.hypot(*map(sub, Cv, map(mul, repeat(rayleigh), v)))
    floor = rayleigh - residual - slack
    below = _count_below(diag, off2, floor, pivmin, math.inf, tail)
    if below:
        raise ValueError(f"eigenvalue {rayleigh:.6g} is not the smallest: {below} "
                         f"eigenvalue(s) lie below {floor:.6g}; tolerance {tol} "
                         f"is too loose")
    ceiling = rayleigh + residual + slack
    if _count_below(diag, off2, ceiling, pivmin, math.inf, tail) < 1:
        raise ValueError(f"eigenvalue {rayleigh:.6g} is not certified: no eigenvalue "
                         f"lies below {ceiling:.6g}")
    return rayleigh, v


def min_eigenvalue(M: TridiagonalMatrix, tol: float = 1e-10) -> tuple[float, Array]:
    """Smallest eigenvalue (within ``tol``) and a unit eigenvector.

    Bisection on the Sturm sequence brackets the eigenvalue; it stops at
    ``tol`` or when the midpoint no longer lies strictly inside the bracket
    (the bracket is one ulp wide).  Each diagonal entry is a Rayleigh
    quotient, so no Sturm count is needed while the midpoint lies above the
    smallest diagonal entry (plus a 1e-12 relative slack): the count there is
    at least one.  Below it a step needs only to know whether the count is
    at least one, so its recurrence stops at the first pivot below the
    Sturm floor; every count also stops where the Gershgorin edges of the
    remaining rows prove that no later pivot counts.  The vector comes from
    inverse iteration at the converged value shifted by 1e-12: the shifted
    matrix is factored once, and the three solves reuse the factors.  They
    run on the leading rows only: where the Gershgorin floors of the later
    rows clear ``top``, the bisection's upper end plus the slack, each ratio
    ``|v_{k+1}/v_k|`` of the exact eigenvector is at most ``|o_k| / (|o_k| +
    floor_k - top)`` < 1, and past the row where the product of these bounds
    falls under 2^-1074 the vector is zero.  On C_N that leaves under 700
    rows at any N; without a dominant tail every row is kept.  The vector
    has length n either way.  A final Rayleigh quotient squeezes the
    eigenvalue to round-off so nested truncations stay monotone well below
    the bisection tolerance; it and the residual are formed from the rows
    where ``C v`` can be nonzero, one past the block.  Two full Sturm counts
    over the whole matrix then certify it against
    its residual ``r = ||Cv - lambda v||`` and ``eps`` = 1e-12 of the
    Gershgorin bound: none below ``lambda - r - eps`` and at least one below
    ``lambda + r + eps``; otherwise, as when ``tol`` is so loose that
    bisection stopped away from the bottom of the spectrum, ValueError is
    raised.
    """
    import numpy as np

    lam, v = _eigenpair(memoryview(M.diag), memoryview(M.offdiag), tol)
    return lam, np.asarray(v)


def _mixing_weight(p: Any) -> float:
    """``p`` as a mixing weight: a real in [0, 1]."""
    p = _as_real(p, "p")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    return p


def vmax_from_lambda(lambda_min: float, p: float = 1.0) -> float:
    """Peak violation measure (1/4) / (1/4 + p*lambda_min) of the mixture family."""
    p = _mixing_weight(p)
    denominator = 0.25 + p * _as_real(lambda_min, "lambda_min")
    if denominator <= 0.0:
        raise ValueError(f"1/4 + p*lambda_min = {denominator!r} is not positive; "
                         f"the ratio form does not apply")
    return 0.25 / denominator


class ScanResult(_Record):
    """Grid scan outcome plus the refined optimum; grid and values are
    checked as the entries of :class:`TridiagonalMatrix` are."""

    __slots__ = __match_args__ = ("grid", "values", "argbest", "best")

    def __init__(self, grid: Array, values: Array, argbest: float, best: float):
        import numpy as np
        from .hilbert import _as_reals

        if np.ndim(grid) != 1 or np.shape(grid) != np.shape(values):
            raise ValueError("grid and values must be 1-d arrays of equal length")
        grid, values = _as_reals(grid, "grid"), _as_reals(values, "values")
        grid.setflags(write=False)
        values.setflags(write=False)
        self._init(grid, values, argbest, best)

    def to_json(self) -> dict[str, Any]:
        return _scan_json(*self._values())


def _scan_json(grid, values, argbest: float, best: float) -> dict[str, Any]:
    """The scan document, from ndarrays or ``array('d')`` buffers alike."""
    return {"grid": grid.tolist(), "values": values.tolist(), "argbest": argbest, "best": best}


def _psi2_objective(c0: float) -> float:
    """``vmax_from_lambda(quadratic_form([c0, c1]))`` at c1 = sqrt(max(0, 1 -
    c0^2)): the same floating-point operations, without the checks."""
    c1 = math.sqrt(max(0.0, 1.0 - c0 * c0))
    denominator = 0.25 + ((0.0 - c0 * c1) + 6.0 * c1 * c1)
    if not denominator > 0.0:
        raise ValueError(f"1/4 + Q = {denominator!r} is not positive at c0 = {c0!r}; "
                         f"the ratio form does not apply")
    return 0.25 / denominator


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, xtol: float) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def psi2_scan(grid_size: int) -> ScanResult:
    """Scan c0 in (0, 1) for the two-coefficient family and refine the peak.

    The objective is V(c0) = (1/4)/(1/4 + Q(c0, sqrt(1 - c0^2))).  A single
    golden-section pass around the best grid point sharpens the argmax to
    1e-6 parameter resolution.  A grid too large for memory is refused with
    ValueError before allocation.
    """
    return ScanResult(*_scan(grid_size))


def _scan(grid_size: Any) -> tuple[array, array, float, float]:
    """:func:`psi2_scan`'s fields, with the grid and values in ``array('d')`` buffers."""
    grid_size = _as_int(grid_size, "grid_size")
    if grid_size < 3:
        raise ValueError(f"grid size must be at least 3, got {grid_size}")
    _refuse_oversize(8 * _SCAN_FLOATS * grid_size, f"a scan of {grid_size} points")
    step = 1.0 / (grid_size + 1)
    grid = array("d", (i * step + 0.0 for i in range(1, grid_size + 1)))
    values = array("d", map(_psi2_objective, grid))
    i = max(range(grid_size), key=values.__getitem__)
    lo = grid[i - 1] if i > 0 else 0.0
    hi = grid[i + 1] if i + 1 < grid_size else 1.0
    argbest = _golden_max(_psi2_objective, lo, hi, 1e-6)
    return grid, values, argbest, _psi2_objective(argbest)
