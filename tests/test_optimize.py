"""Tridiagonal eigenproblem, the coefficient-form matrix, and the c0 scan.

Frozen eigenvalues were computed beforehand with an independent dense
solver (and, for the 2 x 2 case, by the quadratic formula: 3 - sqrt(9.25)).
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from itertools import chain

import numpy as np
import pytest

from entwit import optimize
from entwit import (
    ScanResult,
    TridiagonalMatrix,
    c_matrix,
    min_eigenvalue,
    psi2_scan,
    quadratic_form,
    vmax_from_lambda,
)

from _support import fake_sysconf, rng

LAMBDA_1 = 3.0 - math.sqrt(9.25)          # exact smallest eigenvalue at N = 1
LAMBDA_200 = -0.04495375427909592         # frozen from a dense solve
BEST_V = 1.198358336218877                # 0.25 / (0.25 + LAMBDA_1)
BEST_C0 = 0.9965926760297167              # normalized eigenvector head at N = 1
# min_eigenvalue(c_matrix(2000)): the Rayleigh quotient summed by math.fsum,
# the double nearest -0.04495375427909590774455218, the smallest eigenvalue
# by a 50-digit Sturm bisection (a BLAS dot product gave the next double up,
# -0.04495375427909591, 3.85e-18 off against 3.09e-18)
LAMBDA_2000 = -0.044953754279095905
HEAD_2000 = [0.9958748877354319, 0.08953662999196164, 0.014435781249230322,
             0.002767290342910153, 0.0005773025087923641, 0.00012665189988591275,
             2.873018236389888e-05, 6.674445760252407e-06]


# --- the matrix itself -------------------------------------------------------


def test_c_matrix_entries():
    M = c_matrix(4)
    assert M.size == 5
    np.testing.assert_allclose(M.diag, [0.0, 6.0, 20.0, 42.0, 72.0], atol=0)
    np.testing.assert_allclose(M.offdiag, [-0.5, -3.0, -7.5, -14.0], atol=0)


def test_c_matrix_smallest_truncation():
    M = c_matrix(0)
    assert M.size == 1
    lam, v = min_eigenvalue(M)
    assert lam == 0.0
    np.testing.assert_allclose(v, [1.0])


def test_c_matrix_rejects_negative_order():
    with pytest.raises(ValueError, match="non-negative"):
        c_matrix(-1)


def test_integer_parameters_are_rejected_not_cast():
    with pytest.raises(ValueError, match="'N' must be an integer, got 2.7"):
        c_matrix(2.7)
    with pytest.raises(ValueError, match="'grid_size' must be an integer, got 3.9"):
        psi2_scan(3.9)
    assert c_matrix(np.int64(2)).size == c_matrix(2).size == 3
    assert psi2_scan(np.int64(5)).grid.size == 5


def test_tridiagonal_validation():
    with pytest.raises(ValueError):
        TridiagonalMatrix(np.zeros((2, 2)), np.zeros(1))
    with pytest.raises(ValueError, match="length"):
        TridiagonalMatrix(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        TridiagonalMatrix(np.array([0.0, np.inf]), np.array([1.0]))
    M = c_matrix(2)
    with pytest.raises(AttributeError):
        M.diag = np.zeros(3)
    with pytest.raises(ValueError):
        M.diag[0] = 5.0


def test_dense_and_matvec_agree_with_numpy():
    gen = rng(11)
    for size in (1, 2, 3, 9):
        diag = gen.normal(size=size)
        off = gen.normal(size=size - 1)
        M = TridiagonalMatrix(diag, off)
        D = M.dense()
        assert D.shape == (size, size)
        np.testing.assert_allclose(np.diag(D), diag)
        v = gen.normal(size=size)
        np.testing.assert_allclose(M.matvec(v), D @ v, atol=1e-13)


# --- the quadratic form ------------------------------------------------------


def test_quadratic_form_examples():
    assert quadratic_form([1.0]) == 0.0
    assert abs(quadratic_form([0.8, 0.6]) - 1.68) < 1e-15


def test_quadratic_form_matches_matrix_form():
    gen = rng(12)
    for _ in range(25):
        n = int(gen.integers(1, 7))
        c = gen.normal(size=n)
        M = c_matrix(n - 1).dense()
        assert abs(quadratic_form(c) - c @ M @ c) < 1e-10


def test_quadratic_form_validation():
    with pytest.raises(ValueError, match="at least one"):
        quadratic_form([])
    with pytest.raises(ValueError, match="finite"):
        quadratic_form([1.0, np.nan])


@pytest.mark.parametrize("bad", [["0.6", "0.8"], [True, False], [0.8, None], "0.8"])
def test_quadratic_form_refuses_non_real_coefficients(bad):
    with pytest.raises(ValueError, match="'c' must be"):
        quadratic_form(bad)


def test_quadratic_form_accepts_numpy_reals():
    want = quadratic_form([0.8, 0.6])
    assert quadratic_form([np.float64(0.8), np.float64(0.6)]) == want
    assert quadratic_form(np.array([[0.8, 0.6]])) == want
    assert quadratic_form(np.array([0.5, 0.25], dtype=np.float32)) == quadratic_form([0.5, 0.25])


# --- smallest eigenvalue -----------------------------------------------------


def test_min_eigenvalue_two_by_two_closed_form():
    lam, v = min_eigenvalue(c_matrix(1))
    assert abs(lam - LAMBDA_1) < 1e-10
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    # (0 - lam) c0 = 0.5 c1  =>  c1/c0 = -2 lam
    assert abs(v[1] / v[0] - (-2.0 * lam)) < 1e-8
    assert abs(v[0] - BEST_C0) < 1e-8


def test_min_eigenvalue_matches_dense_solver():
    gen = rng(13)
    for _ in range(30):
        size = int(gen.integers(2, 31))
        M = TridiagonalMatrix(gen.normal(size=size) * 5.0,
                              gen.normal(size=size - 1) * 5.0)
        lam, v = min_eigenvalue(M)
        want = float(np.linalg.eigvalsh(M.dense()).min())
        assert abs(lam - want) < 1e-8
        assert abs(np.linalg.norm(v) - 1.0) < 1e-10
        residual = np.max(np.abs(M.matvec(v) - lam * v))
        assert residual < 1e-8
        assert v[np.argmax(np.abs(v))] > 0.0


def test_min_eigenvalue_large_truncation_frozen():
    lam, _ = min_eigenvalue(c_matrix(200))
    assert abs(lam - LAMBDA_200) < 1e-9


def test_min_eigenvalue_pivot_floor_does_not_grow_with_n():
    # max(off²) grows as N⁴; a pivot floor proportional to it reached about
    # 16 at N = 200000 and counted small positive pivots as negative
    lam, _ = min_eigenvalue(c_matrix(200000))
    assert abs(lam - (-0.04495)) < 5e-4


def test_offdiagonal_sign_is_a_similarity():
    M = c_matrix(40)
    flipped = TridiagonalMatrix(M.diag, -M.offdiag)
    lam, _ = min_eigenvalue(M)
    lam_f, _ = min_eigenvalue(flipped)
    assert abs(lam - lam_f) < 1e-12


def test_min_eigenvalue_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="positive"):
        min_eigenvalue(c_matrix(3), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_min_eigenvalue_rejects_non_finite_tolerance(tol):
    # a NaN tolerance fails every comparison, so it would skip the bisection
    with pytest.raises(ValueError, match="finite"):
        min_eigenvalue(c_matrix(200), tol=tol)


def test_min_eigenvalue_refuses_tolerance_that_misses_the_bottom():
    # bisection to 1e3 stops near 455, where inverse iteration finds an
    # interior eigenvalue; the Sturm count puts eleven eigenvalues below it
    with pytest.raises(ValueError, match="not the smallest"):
        min_eigenvalue(c_matrix(200), tol=1e3)


@pytest.mark.parametrize("N", [200, 2000])
@pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-2, 1.0])
def test_min_eigenvalue_certified_across_tolerances(N, tol):
    lam, _ = min_eigenvalue(c_matrix(N), tol)
    assert abs(lam - LAMBDA_200) < 1e-9


def test_convergence_study_is_monotone():
    lams = [min_eigenvalue(c_matrix(N))[0] for N in (1, 2, 5, 10, 50, 200)]
    assert abs(lams[0] - LAMBDA_1) < 1e-10
    for earlier, later in zip(lams, lams[1:]):
        assert later <= earlier + 1e-12  # widening the space can only lower it
    lam200, lam400 = (min_eigenvalue(c_matrix(N))[0] for N in (200, 400))
    assert abs(lam400 - lam200) < 1e-6  # truncation essentially converged


# --- violation measure and the c0 scan ---------------------------------------


def test_vmax_examples():
    assert vmax_from_lambda(0.0) == 1.0
    assert vmax_from_lambda(-0.2, p=0.0) == 1.0
    assert abs(vmax_from_lambda(LAMBDA_1) - BEST_V) < 1e-12
    assert abs(vmax_from_lambda(LAMBDA_200) - 1.2192371487761064) < 1e-12


def test_vmax_validation():
    with pytest.raises(ValueError, match="mixing weight"):
        vmax_from_lambda(-0.01, p=1.5)
    with pytest.raises(ValueError, match="not positive"):
        vmax_from_lambda(-0.25)
    with pytest.raises(ValueError, match="not positive"):
        vmax_from_lambda(-0.3, p=1.0)


@pytest.mark.parametrize("lambda_min, p, name", [(-0.1, "0.5", "p"), (-0.1, True, "p"),
                                                 ("-0.1", 0.5, "lambda_min"),
                                                 (False, 0.5, "lambda_min")])
def test_vmax_refuses_strings_and_bools(lambda_min, p, name):
    with pytest.raises(ValueError, match=f"'{name}' must be a real number"):
        vmax_from_lambda(lambda_min, p)


def test_vmax_accepts_numpy_reals():
    assert vmax_from_lambda(np.float64(-0.1), np.float32(0.5)) == vmax_from_lambda(-0.1, 0.5)
    assert vmax_from_lambda(-0.1, 1) == vmax_from_lambda(-0.1, 1.0)


def test_vmax_grows_with_mixing_weight():
    values = [vmax_from_lambda(LAMBDA_1, p=p) for p in np.linspace(0.0, 1.0, 11)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == 1.0


def test_psi2_scan_finds_the_peak():
    result = psi2_scan(41)
    assert result.grid.shape == (41,)
    assert np.all(result.grid > 0.0) and np.all(result.grid < 1.0)
    assert result.values.shape == (41,)
    assert abs(result.best - BEST_V) < 1e-8
    assert abs(result.argbest - BEST_C0) < 1e-4
    assert result.best >= result.values.max() - 1e-12


def test_psi2_scan_json_round_trip():
    result = psi2_scan(5)
    doc = result.to_json()
    assert set(doc) == {"grid", "values", "argbest", "best"}
    assert doc["grid"] == list(result.grid)
    assert doc["best"] == result.best


def test_psi2_scan_validation():
    with pytest.raises(ValueError, match="at least 3"):
        psi2_scan(2)


def test_scan_result_validation_and_immutability():
    with pytest.raises(ValueError, match="equal length"):
        ScanResult(grid=np.zeros(3), values=np.zeros(4), argbest=0.0, best=0.0)
    result = psi2_scan(5)
    with pytest.raises(AttributeError):
        result.best = 2.0
    with pytest.raises(ValueError):
        result.grid[0] = 0.5


@pytest.mark.parametrize("diag,off", [
    (["1", "2"], ["0.5"]),
    ([True, False], [True]),
    ([1.0, 2.0], [0.5 + 0j]),
    ([1.0, True], [0.5]),
    (np.array([True, False]), np.array([True])),
    (np.array([1.0, 2.0]), np.array([0.5j])),
])
def test_tridiagonal_refuses_non_real_entries(diag, off):
    with pytest.raises(ValueError, match="must be a real number"):
        TridiagonalMatrix(diag, off)


@pytest.mark.parametrize("grid,values", [
    (["0.25", "0.75"], [1.0, 2.0]),
    ([0.25, 0.75], [True, False]),
    (np.array([0.25, 0.75]), np.array([1.0, 2.0 + 1j])),
])
def test_scan_result_refuses_non_real_entries(grid, values):
    with pytest.raises(ValueError, match="must be a real number"):
        ScanResult(grid, values, 0.5, 2.0)


def test_float_arrays_are_checked_whole(monkeypatch):
    import entwit.hilbert

    want, want_int = quadratic_form([0.8, 0.6]), quadratic_form([4.0, 3.0])

    def per_entry(value, name):
        raise AssertionError("a float array was checked entry by entry")

    monkeypatch.setattr(entwit.hilbert, "_as_real", per_entry)
    M = c_matrix(200)
    assert np.array_equal(TridiagonalMatrix(M.diag, M.offdiag).dense(), M.dense())
    assert quadratic_form(np.array([0.8, 0.6])) == want
    assert quadratic_form(np.array([4, 3])) == want_int
    with pytest.raises(ValueError, match="'c' must be finite, got nan"):
        quadratic_form(np.array([1.0, np.nan]))


# --- the scalar kernels against the numpy-indexing loops they replaced --------


def reference_count_below(diag, off2, x, pivmin):
    count = 0
    q = diag[0] - x
    if abs(q) < pivmin:
        q = -pivmin
    if q < 0.0:
        count += 1
    for i in range(1, diag.size):
        q = (diag[i] - x) - off2[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def reference_tridiag_solve(diag, off, sigma, rhs):
    n = diag.size
    d = diag.astype(float) - sigma
    u1 = np.append(off.astype(float), 0.0)
    u2 = np.zeros(n)
    low = off.astype(float)
    b = rhs.astype(float).copy()
    for i in range(n - 1):
        sub = low[i]
        if abs(sub) > abs(d[i]):
            d[i], sub = sub, d[i]
            u1[i], d[i + 1] = d[i + 1], u1[i]
            u2[i], u1[i + 1] = u1[i + 1], 0.0
            b[i], b[i + 1] = b[i + 1], b[i]
        pivot = d[i]
        if pivot == 0.0:
            pivot = np.finfo(float).tiny
        factor = sub / pivot
        d[i + 1] -= factor * u1[i]
        u1[i + 1] -= factor * u2[i]
        b[i + 1] -= factor * b[i]
    v = np.zeros(n)
    for i in range(n - 1, -1, -1):
        acc = b[i]
        if i + 1 < n:
            acc -= u1[i] * v[i + 1]
        if i + 2 < n:
            acc -= u2[i] * v[i + 2]
        pivot = d[i]
        if pivot == 0.0:
            pivot = np.finfo(float).tiny
        v[i] = acc / pivot
    return v


def random_tridiagonals(seed):
    """Real-valued tridiagonals, and small-integer ones whose shifts at
    diagonal entries hit exact zero pivots."""
    gen = rng(seed)
    for _ in range(40):
        size = int(gen.integers(1, 40))
        if gen.uniform() < 0.5:
            yield gen.normal(size=size) * 5.0, gen.normal(size=size - 1) * 5.0
        else:
            yield (gen.integers(-2, 3, size=size).astype(float),
                   gen.integers(-1, 2, size=size - 1).astype(float))


def test_count_below_matches_reference_loop():
    zero_pivots = 0
    for diag, off in random_tridiagonals(21):
        off2 = off * off
        pivmin = 1e-20 * max(1.0, float(off2.max(initial=0.0)))
        shifts = list(diag) + [-30.0, -0.5, 0.0, 0.25, 30.0]
        for x in shifts:
            want = reference_count_below(diag, off2, x, pivmin)
            assert optimize._count_below(diag, off2, x, pivmin) == want
            zero_pivots += diag[0] - x == 0.0
        want = int(np.sum(np.linalg.eigvalsh(TridiagonalMatrix(diag, off).dense())
                          < -30.0))
        assert optimize._count_below(diag, off2, -30.0, pivmin) == want
    assert zero_pivots > 40  # the pivmin branch was taken


def test_count_below_stops_once_the_count_reaches_most():
    zero_pivots = 0
    for diag, off in random_tridiagonals(24):
        off2 = off * off
        pivmin = 1e-20 * max(1.0, float(off2.max(initial=0.0)))
        for x in list(diag) + [-30.0, -0.5, 0.0, 0.25, 30.0]:
            full = optimize._count_below(diag, off2, x, pivmin)
            for most in (1, 2, 3):
                assert optimize._count_below(diag, off2, x, pivmin, most=most) == min(most, full)
            zero_pivots += diag[0] - x == 0.0
    assert zero_pivots > 40  # the pivmin branch was taken


def sturm_inputs(diag, off):
    """off2, pivmin and the count's tail as the solve builds them, and the
    Gershgorin bracket."""
    off2 = off * off
    pivmin = sys.float_info.min * max(1.0, float(off2.max(initial=0.0)))
    lo, hi, slack, floors = optimize._gershgorin(diag, off, pivmin)
    return off2, pivmin, (off, floors), lo, hi, slack


def dominant_tridiagonals(seed):
    """Tridiagonals whose rows grow diagonally dominant, as C_N's do, so the
    tail stops counts, with zero off-diagonals mixed in."""
    gen = rng(seed)
    for _ in range(40):
        size = int(gen.integers(2, 60))
        n = np.arange(size, dtype=float)
        off = -(n[1:] ** 2) * gen.uniform(0.0, 1.2)
        off[gen.uniform(size=size - 1) < 0.2] = 0.0
        yield 4.0 * n * n + gen.normal(size=size), off


def test_count_below_with_the_tail_equals_the_full_count():
    zero_pivots = 0
    for diag, off in chain(random_tridiagonals(26), dominant_tridiagonals(27)):
        off2, pivmin, tail, lo, hi, _ = sturm_inputs(diag, off)
        floors = tail[1]
        assert all(a <= b for a, b in zip(floors, floors[1:]))
        shifts = list(diag) + list(np.linspace(lo - 1.0, hi + 1.0, 9)) + [-30.0, 0.0, 30.0]
        for x in shifts:
            full = optimize._count_below(diag, off2, x, pivmin)
            assert optimize._count_below(diag, off2, x, pivmin, tail=tail) == full
            for most in (1, 2, 3):
                assert optimize._count_below(diag, off2, x, pivmin, most, tail) == min(most, full)
            zero_pivots += diag[0] - x == 0.0
    assert zero_pivots > 40  # the pivmin branch was taken


def test_count_below_keeps_its_margin_at_a_floor_within_round_off():
    # [[2, 1], [1, 2]] at x = 1 - 2^-53: q_0 rounds to 1 = |o_0| and q_1 to 0,
    # so the full recurrence counts one; row 1's edge, 1, lies just above x,
    # and only the margin keeps the tail from stopping the count at q_0
    diag, off = np.array([2.0, 2.0]), np.array([1.0])
    off2, pivmin, tail, *_ = sturm_inputs(diag, off)
    x = 1.0 - 2.0 ** -53
    assert optimize._count_below(diag, off2, x, pivmin) == 1
    assert optimize._count_below(diag, off2, x, pivmin, tail=tail) == 1


@pytest.mark.parametrize("N", [1, 2, 5, 200, 2000])
def test_count_below_on_c_n_stops_within_its_first_rows(N):
    diag, off = (np.asarray(a) for a in optimize._c_entries(N))
    off2, pivmin, tail, lo, hi, slack = sturm_inputs(diag, off)
    # row n's Gershgorin lower edge is 2n^2 + n - 1/2; the last row's lacks |o_N|
    edges = [2.0 * n * n + n - 0.5 for n in range(1, N)] + [3.0 * N * N + 2.5 * N]
    floors = [min(edges[k:]) for k in range(N)]
    assert np.allclose(tail[1], floors, rtol=0.0, atol=2.0 * slack)
    # rows past the 40th are never read: poisoning them changes the full count only
    poisoned = off2.copy()
    poisoned[40:] = np.inf
    for x in (lo, -1.0, LAMBDA_200 - 1e-9, LAMBDA_200 + 1e-9, 0.0, 2.0, 2.4):
        full = optimize._count_below(diag, off2, x, pivmin)
        assert optimize._count_below(diag, off2, x, pivmin, tail=tail) == full
        assert optimize._count_below(diag, poisoned, x, pivmin, tail=tail) == full
        if N > 40:
            assert optimize._count_below(diag, poisoned, x, pivmin) != full
    for x in (3.0, 100.0, hi):
        full = optimize._count_below(diag, off2, x, pivmin)
        assert optimize._count_below(diag, off2, x, pivmin, tail=tail) == full


def test_min_eigenvalue_factors_once_and_counts_only_to_certify(monkeypatch):
    # a bisection step passes `most`; only the two certificates count in full
    calls = {"factor": 0, "count": 0}
    factor, count_below = optimize._tridiag_factor, optimize._count_below

    def counting_factor(*args):
        calls["factor"] += 1
        return factor(*args)

    def counting_below(diag, off2, x, pivmin, most=math.inf, tail=None):
        calls["count"] += most == math.inf
        return count_below(diag, off2, x, pivmin, most, tail)

    monkeypatch.setattr(optimize, "_tridiag_factor", counting_factor)
    monkeypatch.setattr(optimize, "_count_below", counting_below)
    lam, _ = min_eigenvalue(c_matrix(2000))
    assert lam == LAMBDA_2000
    assert calls == {"factor": 1, "count": 2}


def test_matvec_matches_the_numpy_expression_bit_for_bit():
    # the array expression matvec used before it ran the solver's kernel
    gen = rng(25)
    for diag, off in random_tridiagonals(26):
        v = gen.normal(size=diag.size)
        want = diag * v
        want[:-1] += off * v[1:]
        want[1:] += off * v[:-1]
        assert np.array_equal(TridiagonalMatrix(diag, off).matvec(v), want)


def test_tridiag_solve_matches_reference_loop():
    gen = rng(22)
    for diag, off in random_tridiagonals(23):
        rhs = gen.normal(size=diag.size)
        for sigma in (0.0, float(diag[0]), 0.3):
            got = optimize._tridiag_solve(diag, off, sigma, rhs)
            want = reference_tridiag_solve(diag, off, sigma, rhs)
            assert np.array_equal(got, want, equal_nan=True)


def test_min_eigenvalue_frozen_bit_for_bit():
    lam, v = min_eigenvalue(c_matrix(2000))
    assert lam == LAMBDA_2000
    assert [float(x) for x in v[:8]] == HEAD_2000


@pytest.mark.parametrize("grid_size", [41, 20000])
def test_psi2_grid_values_equal_scalar_objective(grid_size):
    result = psi2_scan(grid_size)
    want = [optimize._psi2_objective(c0) for c0 in result.grid]
    assert np.array_equal(result.values, want)


@pytest.mark.parametrize("grid_size", [3, 41, 200, 20000, 99991])
def test_psi2_grid_is_numpys_linspace_bit_for_bit(grid_size):
    want = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    assert np.array_equal(psi2_scan(grid_size).grid, want)


@pytest.mark.parametrize("grid_size", [41, 20000])
def test_psi2_objective_is_the_public_composition(grid_size):
    for c0 in psi2_scan(grid_size).grid.tolist():
        c1 = math.sqrt(max(0.0, 1.0 - c0 * c0))
        assert optimize._psi2_objective(c0) == vmax_from_lambda(quadratic_form([c0, c1]))


def test_public_types_are_numpy_arrays():
    M = c_matrix(3)
    lam, v = min_eigenvalue(M)
    result = psi2_scan(5)
    for arr in (M.diag, M.offdiag, result.grid, result.values):
        assert type(arr) is np.ndarray and arr.dtype == float
        assert not arr.flags.writeable
    assert type(lam) is float and type(v) is np.ndarray and v.dtype == float
    assert type(M.matvec(v)) is np.ndarray


@pytest.mark.parametrize("call,match", [
    (lambda: c_matrix(True), "'N' must be an integer"),
    (lambda: c_matrix("3"), "'N' must be an integer"),
    (lambda: c_matrix(math.nan), "'N' must be an integer"),
    (lambda: psi2_scan(False), "'grid_size' must be an integer"),
    (lambda: psi2_scan("41"), "'grid_size' must be an integer"),
    (lambda: psi2_scan(math.inf), "'grid_size' must be an integer"),
    (lambda: quadratic_form(0.8), "'c' must be a list of real numbers"),
    (lambda: quadratic_form([0.8, math.inf]), "'c' must be finite"),
    (lambda: TridiagonalMatrix(5.0, [1.0]), "one-dimensional"),
    (lambda: TridiagonalMatrix([1.0, 2.0], [math.nan]), "'offdiag' must be finite"),
    (lambda: ScanResult(0.5, 0.5, 0.5, 1.0), "1-d arrays"),
    (lambda: ScanResult([0.5], [math.inf], 0.5, 1.0), "'values' must be finite"),
    (lambda: min_eigenvalue(c_matrix(3), math.inf), "finite and positive"),
    (lambda: min_eigenvalue(c_matrix(3), True), "'tol' must be a real number"),
    (lambda: min_eigenvalue(c_matrix(3), "1e-3"), "'tol' must be a real number"),
])
def test_public_wrappers_refuse_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("v,match", [
    ([1.0, True], "'v' must be a real number"),
    (np.array([1.0, 1j]), "'v' must be a real number"),
    ([1.0, math.nan], "'v' must be finite"),
    ([1.0], "vector length 1 must be the matrix size 2"),
])
def test_matvec_refuses_non_real_or_misfit_vectors(v, match):
    # matvec runs the solver's product kernel, which takes real vectors only
    with pytest.raises(ValueError, match=match):
        c_matrix(1).matvec(v)


# --- termination, certificates and size refusal --------------------------------


def test_min_eigenvalue_upper_certificate(monkeypatch):
    # a count that never finds an eigenvalue leaves none below lambda + r
    monkeypatch.setattr(optimize, "_count_below", lambda *args: 0)
    with pytest.raises(ValueError, match="not certified"):
        min_eigenvalue(c_matrix(20))


def test_inverse_iteration_retries_a_non_finite_solve(monkeypatch):
    # the first solve at the bisection shift returns NaNs; the step is
    # solved again at a shift nudged by 1e-10, and the result is unchanged
    lam, vec = min_eigenvalue(c_matrix(200))
    original, shifts = optimize._tridiag_apply, []

    def first_fails(factored, rhs):
        monkeypatch.setattr(optimize, "_tridiag_apply", original)
        return array("d", [math.nan]) * len(rhs)

    def solve(diag, off, sigma, rhs):
        shifts.append(sigma)
        return original(optimize._tridiag_factor(diag, off, sigma), rhs)

    monkeypatch.setattr(optimize, "_tridiag_apply", first_fails)
    monkeypatch.setattr(optimize, "_tridiag_solve", solve)
    retried, retried_vec = min_eigenvalue(c_matrix(200))
    assert len(shifts) == 1
    assert abs(retried - lam) < 1e-12
    assert np.allclose(retried_vec, vec, atol=1e-9)


def test_solve_and_scan_refused_before_allocation(monkeypatch):
    # a 1 MiB budget; both hold 96 bytes per entry, 384 with the working copies
    monkeypatch.setattr(os, "sysconf", fake_sysconf(4096, 512))
    assert c_matrix(2729).size == 2730
    with pytest.raises(ValueError, match="physical memory"):
        c_matrix(2730)
    assert psi2_scan(2730).values.size == 2730
    with pytest.raises(ValueError, match="physical memory"):
        psi2_scan(2731)


# --- inverse iteration on the leading block ------------------------------------


def full_length_eigenpair(diag, off, tol=1e-10):
    """The eigenvalue and vector as the solve formed them over all n rows,
    before it kept only the leading block: the same bisection, three solves
    of length n and the Rayleigh quotient over every row (no certificates)."""
    n = len(diag)
    if n == 1:
        return float(diag[0]), array("d", [1.0])
    off2 = array("d", [o * o for o in off])
    pivmin = sys.float_info.min * max(1.0, max(off2))
    lo, hi, slack, floors = optimize._gershgorin(diag, off, pivmin)
    count_known_above = min(diag) + slack
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid > count_known_above or optimize._count_below(diag, off2, mid, pivmin, 1,
                                                            (off, floors)):
            hi = mid
        else:
            lo = mid
    lam = 0.5 * (lo + hi)
    v = array("d", [1.0 / math.sqrt(n)]) * n
    factored = optimize._tridiag_factor(diag, off, lam + 1e-12)
    for _ in range(3):
        w = optimize._tridiag_apply(factored, v)
        norm = math.hypot(*w)
        v = array("d", [x / norm for x in w])
    if max(v, key=abs) < 0.0:
        v = array("d", [-x for x in v])
    Cv = optimize._tridiag_product(diag, off, v)
    return math.fsum(a * b for a, b in zip(v, Cv)), v


@pytest.mark.parametrize("Ns", [range(0, 100), range(100, 400), [2000], [20000], [200000]],
                         ids=["0-99", "100-399", "2000", "20000", "200000"])
def test_block_solve_equals_the_full_length_iteration_bit_for_bit(Ns):
    for N in Ns:
        diag, off = optimize._c_entries(N)
        lam, v = optimize._eigenpair(diag, off, 1e-10)
        want_lam, want_v = full_length_eigenpair(diag, off)
        assert lam == want_lam
        assert v[:8] == want_v[:8]
        assert len(v) == N + 1


def recorded_factor_sizes(monkeypatch):
    sizes, factor = [], optimize._tridiag_factor

    def recording(diag, off, sigma):
        sizes.append(len(diag))
        return factor(diag, off, sigma)

    monkeypatch.setattr(optimize, "_tridiag_factor", recording)
    return sizes


def test_block_ends_where_the_ratio_bounds_pass_the_smallest_subnormal():
    # rows (1, 4, 1): every floor is 2 less its margin, so at top = 0 each
    # bound is 1/3 and 3^-678 < 2^-1074 < 3^-677
    diag, off = np.full(2000, 4.0), np.ones(1999)
    _, _, (_, floors), *_ = sturm_inputs(diag, off)
    assert optimize._block_rows(off, floors, 0.0) == 678
    # no floor above top: no bound, every row
    assert optimize._block_rows(off, floors, 2.5) == 2000
    # a zero off-diagonal bounds the next entry by zero
    off[10] = 0.0
    assert optimize._block_rows(off, floors, 0.0) == 11


def test_block_solve_factors_only_the_leading_rows_of_c_n(monkeypatch):
    sizes = recorded_factor_sizes(monkeypatch)
    products, product = [], optimize._tridiag_product

    def recording_product(diag, off, v):
        products.append(len(diag))
        return product(diag, off, v)

    monkeypatch.setattr(optimize, "_tridiag_product", recording_product)
    lam, v = min_eigenvalue(c_matrix(20000))
    assert len(sizes) == 1 and sizes[0] < 1100
    # C v is nonzero on the block and one row past it
    assert products == [sizes[0] + 1]
    assert type(v) is np.ndarray and v.shape == (20001,)
    assert not v[sizes[0]:].any()
    assert lam == LAMBDA_2000


def test_block_solve_keeps_every_row_without_a_dominant_tail(monkeypatch):
    sizes = recorded_factor_sizes(monkeypatch)
    checked = 0
    for diag, off in chain(random_tridiagonals(28), random_tridiagonals(30)):
        if diag.size < 2 or not off.all():
            continue
        del sizes[:]
        lam, v = min_eigenvalue(TridiagonalMatrix(diag, off))
        assert sizes and set(sizes) == {diag.size}
        assert v.shape == diag.shape
        checked += 1
    assert checked > 20


def assert_matches_dense(M, lam, v):
    dense = M.dense()
    values, vectors = np.linalg.eigh(dense)
    scale = max(1.0, float(np.abs(dense).max()))
    assert type(v) is np.ndarray and v.shape == (M.size,)
    assert abs(lam - values[0]) <= 1e-12 * scale
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.max(np.abs(dense @ v - lam * v)) < 1e-8 * scale
    if M.size > 1 and values[1] - values[0] > 1e-6 * scale:
        assert abs(abs(v @ vectors[:, 0]) - 1.0) < 1e-9


def test_block_solve_matches_dense_on_dominant_tridiagonals(monkeypatch):
    sizes = recorded_factor_sizes(monkeypatch)
    short = 0
    for diag, off in dominant_tridiagonals(29):
        del sizes[:]
        M = TridiagonalMatrix(diag, off)
        lam, v = min_eigenvalue(M)
        assert_matches_dense(M, lam, v)
        assert not v[sizes[0]:].any()
        short += sizes[0] < diag.size
    assert short > 5  # zero off-diagonals cut the block short


def test_block_solve_matches_dense_across_a_zero_offdiagonal(monkeypatch):
    sizes = recorded_factor_sizes(monkeypatch)
    # C_50 decoupled after row 30: the block ends there
    diag, off = (np.asarray(a) for a in optimize._c_entries(50))
    off = off.copy()
    off[30] = 0.0
    M = TridiagonalMatrix(diag, off)
    assert_matches_dense(M, *min_eigenvalue(M))
    assert sizes == [31]
    # row 0 alone holds the smallest eigenvalue: a block of one row
    del sizes[:]
    M = TridiagonalMatrix([-1.0, 5.0, 6.0, 7.0], [0.0, 1.0, 1.0])
    lam, v = min_eigenvalue(M)
    assert sizes == [1] and lam == -1.0 and v.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert_matches_dense(M, lam, v)
    # the smallest eigenvalue below the zero: the tail is not dominant
    del sizes[:]
    M = TridiagonalMatrix([5.0, 6.0, -1.0], [1.0, 0.0])
    lam, v = min_eigenvalue(M)
    assert sizes == [3]
    assert_matches_dense(M, lam, v)
