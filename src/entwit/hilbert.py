"""Complex linear algebra over composite (tensor-product) Hilbert spaces.

Conventions
-----------
* Every matrix carries a factor signature ``dims``; the matrix side equals
  ``prod(dims)`` and factors are ordered left to right.  ``kron``
  concatenates signatures.
* Pure states are unit amplitude vectors; mixed states are density
  matrices.  Pure states are never auto-promoted to densities except
  inside :func:`mix` -- moments are computed on the vector directly, which
  keeps truncated bosonic spaces cheap.
* The conditions never build a lifted operator.  They apply a sum of
  products ``sum_t c_t F_t1 (x) ... (x) F_tk`` to the state one factor at a
  time (:func:`_lifted_moments`), so memory stays at the size of the state.
  ``kron`` builds the dense lifted matrix and serves as the reference the
  tests compare against.
* State constructors refuse, before allocating, any state that would take,
  with the working copies a condition makes of it, more than half of the
  machine's physical memory.
* All values are immutable after construction and all operations are pure,
  so everything here is safe for concurrent read access.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT

Array = np.ndarray

__all__ = [
    "ComplexMatrix",
    "QuantumState",
    "kron",
    "commutator",
    "expectation",
    "variance",
    "mix",
]


def _as_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValueError(f"factor dimensions must be positive integers, got {dims!r}")
    return out


def _freeze(arr: Array) -> Array:
    arr = np.array(arr, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


class ComplexMatrix:
    """Square complex matrix on a composite Hilbert space.

    Parameters
    ----------
    data : array_like
        Square matrix of complex entries; all entries must be finite.
    dims : iterable of int, optional
        Local factor dimensions whose product equals the matrix side.
        Defaults to the single factor ``(side,)``.
    """

    __slots__ = ("data", "dims")

    def __init__(self, data, dims: Iterable[int] | None = None):
        arr = _freeze(data)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        resolved = (arr.shape[0],) if dims is None else _as_dims(dims)
        if math.prod(resolved) != arr.shape[0]:
            raise ValueError(
                f"dims {resolved} have product {math.prod(resolved)}, "
                f"but the matrix side is {arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", resolved)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexMatrix is immutable")

    @property
    def side(self) -> int:
        return self.data.shape[0]

    @classmethod
    def identity(cls, dims: Iterable[int] | int) -> "ComplexMatrix":
        resolved = _as_dims([dims] if isinstance(dims, int) else dims)
        return cls(np.eye(math.prod(resolved)), resolved)

    def dagger(self) -> "ComplexMatrix":
        return ComplexMatrix(self.data.conj().T, self.dims)

    def hermiticity_defect(self) -> float:
        """Max-abs deviation of ``A - A†`` (scale-free for O(1) norms)."""
        return float(np.abs(self.data - self.data.conj().T).max())

    def is_hermitian(self, atol: float = DEFAULT.hermitian) -> bool:
        return self.hermiticity_defect() <= atol

    def _binary(self, other, op) -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"factor signature mismatch: {self.dims} vs {other.dims}")
        return ComplexMatrix(op(self.data, other.data), self.dims)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __matmul__(self, other):
        return self._binary(other, np.matmul)

    def __mul__(self, scalar):
        return ComplexMatrix(self.data * complex(scalar), self.dims)

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexMatrix(-self.data, self.dims)

    def mpow(self, k: int) -> "ComplexMatrix":
        """Matrix power with a non-negative integer exponent."""
        if k < 0:
            raise ValueError("matrix power requires a non-negative exponent")
        return ComplexMatrix(np.linalg.matrix_power(self.data, k), self.dims)

    def __repr__(self):
        return f"ComplexMatrix(side={self.side}, dims={self.dims})"


class QuantumState:
    """Pure or mixed state on a composite Hilbert space.

    Use the :meth:`pure` / :meth:`mixed` constructors.  Invariants enforced
    at construction: pure amplitudes have unit norm within 1e-12; densities
    are Hermitian within 1e-12, have unit trace within 1e-12, and have no
    eigenvalue below -1e-10.
    """

    __slots__ = ("kind", "dims", "amplitudes", "density")

    def __init__(self, kind, dims, amplitudes, density):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "density", density)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumState is immutable")

    @classmethod
    def pure(cls, amplitudes, dims: Iterable[int]) -> "QuantumState":
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        resolved = _as_dims(dims)
        if math.prod(resolved) != amps.size:
            raise ValueError(
                f"dims {resolved} have product {math.prod(resolved)}, "
                f"but the amplitude vector has length {amps.size}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > DEFAULT.state_norm:
            raise ValueError(f"pure state norm is {norm!r}, not 1 within {DEFAULT.state_norm}")
        amps = amps.copy()
        amps.setflags(write=False)
        return cls("pure", resolved, amps, None)

    @classmethod
    def mixed(cls, density, dims: Iterable[int] | None = None) -> "QuantumState":
        if isinstance(density, ComplexMatrix):
            rho = density if dims is None else ComplexMatrix(density.data, dims)
        else:
            rho = ComplexMatrix(density, dims)
        defect = rho.hermiticity_defect()
        if defect > DEFAULT.density_atol:
            raise ValueError(f"density is not Hermitian (max deviation {defect:.3e})")
        tr = complex(np.trace(rho.data))
        if abs(tr - 1.0) > DEFAULT.density_atol:
            raise ValueError(f"density trace is {tr!r}, not 1 within {DEFAULT.density_atol}")
        lo = float(np.linalg.eigvalsh(rho.data).min())
        if lo < -DEFAULT.eigenvalue_floor:
            raise ValueError(f"density has eigenvalue {lo:.3e} below the floor "
                             f"-{DEFAULT.eigenvalue_floor}")
        return cls("mixed", rho.dims, None, rho)

    @property
    def side(self) -> int:
        return math.prod(self.dims)

    def density_matrix(self) -> ComplexMatrix:
        """Density-matrix view (projector for pure states)."""
        if self.kind == "mixed":
            return self.density
        return ComplexMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def __repr__(self):
        return f"QuantumState(kind={self.kind!r}, dims={self.dims})"


def _check_state_dims(A: ComplexMatrix, s: QuantumState, what: str) -> None:
    if A.dims != s.dims:
        raise ValueError(f"{what}: operator dims {A.dims} do not match state dims {s.dims}")


def kron(A: ComplexMatrix, B: ComplexMatrix) -> ComplexMatrix:
    """Tensor product; the factor signature is the concatenation of both."""
    return ComplexMatrix(np.kron(A.data, B.data), A.dims + B.dims)


def commutator(A: ComplexMatrix, B: ComplexMatrix) -> ComplexMatrix:
    """``AB - BA`` for operators on the same space."""
    if A.dims != B.dims:
        raise ValueError(f"commutator needs equal dims, got {A.dims} vs {B.dims}")
    return ComplexMatrix(A.data @ B.data - B.data @ A.data, A.dims)


def expectation(A: ComplexMatrix, s: QuantumState) -> complex:
    """``<psi|A|psi>`` for pure states, ``trace(rho A)`` for mixed ones.

    The result is complex in general; for a Hermitian ``A`` the imaginary
    part is round-off only (|Im| <= 1e-10 for the magnitudes handled here).
    """
    _check_state_dims(A, s, "expectation")
    if s.kind == "pure":
        return complex(np.vdot(s.amplitudes, A.data @ s.amplitudes))
    return complex(np.einsum("ij,ji->", s.density.data, A.data))


def _second_moment(A: ComplexMatrix, s: QuantumState) -> float:
    """``<A^2>`` for Hermitian A, without forming the matrix square."""
    if s.kind == "pure":
        v = A.data @ s.amplitudes
        return float(np.real(np.vdot(v, v)))
    B = A.data @ s.density.data
    # trace(rho A^2) = trace((A rho) A) by cyclicity
    return float(np.real(np.sum(B.T * A.data)))


def variance(A: ComplexMatrix, s: QuantumState, *,
             hermitian_atol: float = DEFAULT.hermitian,
             clamp: float = DEFAULT.variance_clamp) -> float:
    """``<A^2> - <A>^2`` for a Hermitian observable.

    Tiny negative round-off (above ``-clamp``) is clamped to zero; a value
    below ``-clamp`` signals misuse and raises.
    """
    _check_state_dims(A, s, "variance")
    _require_hermitian(A.hermiticity_defect(), hermitian_atol)
    mean = expectation(A, s).real
    return _clamped_variance(_second_moment(A, s), mean, clamp)


def _require_hermitian(defect: float, atol: float = DEFAULT.hermitian,
                       what: str = "max deviation") -> None:
    """Reject an observable whose Hermiticity ``defect`` exceeds ``atol``."""
    if defect > atol:
        raise ValueError(f"variance requires a Hermitian observable "
                         f"({what} {defect:.3e} > {atol})")


def _clamped_variance(second: float, mean: float,
                      clamp: float = DEFAULT.variance_clamp) -> float:
    """``second - mean**2``, with round-off below zero (above ``-clamp``)
    clamped to zero and anything lower rejected."""
    var = second - mean * mean
    if var < 0.0:
        if var < -clamp:
            raise ValueError(f"variance {var:.3e} is negative beyond round-off")
        var = 0.0
    return var


def _lifted_moments(terms: Sequence[tuple[complex, Sequence[ComplexMatrix]]],
                    s: QuantumState, power: int = 2) -> tuple[complex, float]:
    """Mean and ``power``-th moment of ``M = sum_t c_t F_t1 (x) ... (x) F_tk``.

    ``terms`` lists ``(c_t, (F_t1, ..., F_tk))``; the factors act on
    consecutive blocks of state factors, left to right, and a factor may
    span several of them (``F.dims`` is a run of ``s.dims``).  M is never
    formed: each factor multiplies the amplitude vector, or the row index of
    the density, viewed as ``(left, F.side, right)``
    (the vec trick, Van Loan 2000), so the cost is that of a few matrix
    products on the state.  ``power`` is 1 (the mean alone), 2 or 4, and the
    moments assume M Hermitian.  The mean is returned complex, which also
    covers anti-Hermitian sums such as a lifted commutator.
    """
    def apply(X: Array) -> Array:
        out = None
        for c, factors in terms:
            Y, left = X, 1
            for F in factors:
                Y = np.matmul(F.data, Y.reshape(left, F.side, -1))
                left *= F.side
            Y = Y.reshape(X.shape)
            if c != 1:
                Y = c * Y
            out = Y if out is None else out + Y
        return out

    if s.kind == "pure":
        Y = apply(s.amplitudes)
        mean = complex(np.vdot(s.amplitudes, Y))
        if power == 1:
            return mean, mean.real
        if power == 4:
            Y = apply(Y)
        return mean, float(np.vdot(Y, Y).real)
    # Mixed: <M^k> = trace(M^k rho), applying M to the rows of rho k times.
    Y = apply(s.density.data)
    mean = complex(np.trace(Y))
    for _ in range(power - 1):
        Y = apply(Y)
    return mean, float(np.trace(Y).real)


# Building a state and evaluating a condition on it hold several arrays of
# the state's size at once: the constructor's buffer and its frozen copy,
# then the products and sums inside _lifted_moments.
_WORKING_COPIES = 4


def _refuse_oversize(nbytes: int, what: str) -> None:
    """Raise ValueError, before allocating, when a state of ``nbytes`` and its
    working copies would take more than half of the machine's physical
    memory.  Skipped where the platform does not report physical memory."""
    try:
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    except (AttributeError, ValueError, OSError):
        return
    need = _WORKING_COPIES * nbytes
    if need > budget:
        raise ValueError(f"{what} needs {need / 2**30:.3g} GiB with its working copies, "
                         f"more than half of this machine's physical memory "
                         f"({budget / 2**30:.3g} GiB)")


def mix(states: Sequence[QuantumState], weights: Sequence[float]) -> QuantumState:
    """Convex mixture ``sum_n p_n rho_n``; pure inputs become projectors."""
    if len(states) != len(weights):
        raise ValueError(f"{len(states)} states but {len(weights)} weights")
    if not states:
        raise ValueError("mix requires at least one state")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("mixture weights must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > DEFAULT.state_norm:
        raise ValueError(f"mixture weights sum to {total!r}, not 1 within {DEFAULT.state_norm}")
    dims = states[0].dims
    for s in states:
        if s.dims != dims:
            raise ValueError(f"all mixture components need dims {dims}, got {s.dims}")
    side = math.prod(dims)
    _refuse_oversize(16 * side * side, f"a density of side {side}")
    rho = np.zeros((side, side), dtype=np.complex128)
    for weight, s in zip(w, states):
        if weight == 0.0:
            continue
        rho += weight * s.density_matrix().data
    return QuantumState.mixed(ComplexMatrix(rho, dims))
