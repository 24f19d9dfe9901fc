"""Complex linear algebra over composite (tensor-product) Hilbert spaces.

Conventions
-----------
* Every matrix carries a factor signature ``dims``; the matrix side equals
  ``prod(dims)`` and factors are ordered left to right.  ``kron``
  concatenates signatures.
* Every state is an ensemble ``rho = sum_i w_i |v_i><v_i|`` of ``r``
  vectors; a pure state is the case ``r = 1``.  :func:`mix` concatenates
  ensembles and :meth:`QuantumState.mixed` keeps the eigenpairs of a given
  density, so a mixture costs ``r`` vectors, never a dense density.  The
  density is built only on request (:attr:`QuantumState.density`), for
  tests and callers.
* Moments have one path: :func:`expectation`, :func:`variance` and the
  conditions apply a product ``F_1 (x) ... (x) F_k`` to the state one factor
  at a time (:func:`_apply_factor`, the vec trick), never reading the
  density or building a lifted operator, so a condition holds at most
  ``_WORKING_COPIES`` arrays of the state's size.  ``kron`` builds the dense
  lifted matrix and serves as the reference the tests compare against.
* State constructors refuse, before allocating, any state that would take,
  with the working copies a condition makes of it, more than half of the
  machine's physical memory.
* All values are immutable after construction and all operations are pure,
  so everything here is safe for concurrent read access.  A matrix computes
  its Hermiticity defect and its largest entry once, on first use.
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

    __slots__ = ("data", "dims", "_defect", "_max_abs")

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
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", resolved)
        object.__setattr__(self, "_defect", None)
        object.__setattr__(self, "_max_abs", None)

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
        if self._defect is None:
            defect = float(np.abs(self.data - self.data.conj().T).max())
            object.__setattr__(self, "_defect", defect)
        return self._defect

    def max_abs(self) -> float:
        """Largest entry modulus."""
        if self._max_abs is None:
            object.__setattr__(self, "_max_abs", float(np.abs(self.data).max()))
        return self._max_abs

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() <= DEFAULT.hermitian

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
    """Pure or mixed state on a composite Hilbert space, held as an ensemble.

    The state is ``rho = sum_i w_i |v_i><v_i|``: ``weights`` has shape
    ``(r,)`` and ``vectors`` has shape ``(r, side)``, both read-only.  A pure
    state is the case ``r = 1`` with weight 1; its vector is
    :attr:`amplitudes`.  The dense density is never stored; :attr:`density`
    builds it on demand for tests and callers.

    Use the :meth:`pure` / :meth:`mixed` constructors or :func:`mix`.
    Invariants enforced at construction: pure amplitudes have unit norm
    within 1e-12; a density given to :meth:`mixed` is Hermitian within
    1e-12, has unit trace within 1e-12, and has no eigenvalue below -1e-10.
    """

    __slots__ = ("kind", "dims", "weights", "vectors")

    def __init__(self, kind, dims, weights, vectors):
        weights.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

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
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > DEFAULT.state_norm:
            raise ValueError(f"pure state norm is {norm!r}, not 1 within {DEFAULT.state_norm}")
        return cls("pure", resolved, np.ones(1), amps.reshape(1, -1).copy())

    @classmethod
    def mixed(cls, density, dims: Iterable[int] | None = None) -> "QuantumState":
        """The ensemble of the eigenpairs of ``density``.

        Every eigenpair with a nonzero eigenvalue is kept, tiny negative ones
        (down to the floor) included, so moments equal ``trace(M^k rho)`` up
        to round-off.
        """
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
        evals, evecs = np.linalg.eigh(rho.data)
        if evals[0] < -DEFAULT.eigenvalue_floor:
            raise ValueError(f"density has eigenvalue {evals[0]:.3e} below the floor "
                             f"-{DEFAULT.eigenvalue_floor}")
        keep = evals != 0.0
        return cls("mixed", rho.dims, evals[keep], np.ascontiguousarray(evecs[:, keep].T))

    @property
    def side(self) -> int:
        return math.prod(self.dims)

    @property
    def amplitudes(self) -> Array | None:
        """The amplitude vector of a pure state; None for a mixed one."""
        return self.vectors[0] if self.kind == "pure" else None

    @property
    def density(self) -> ComplexMatrix:
        """The dense ``sum_i w_i |v_i><v_i|`` (a projector for a pure state),
        built on each access and refused, like a state, when too large."""
        side = self.side
        _refuse_oversize(16 * side * side, f"a density of side {side}")
        V = self.vectors
        return ComplexMatrix((self.weights[:, None] * V).T @ V.conj(), self.dims)

    def density_matrix(self) -> ComplexMatrix:
        """Same as :attr:`density`."""
        return self.density

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
    """``sum_i w_i <v_i|A|v_i>``, that is ``trace(rho A)``.

    The result is complex in general; for a Hermitian ``A`` the imaginary
    part is round-off only (|Im| <= 1e-10 for the magnitudes handled here).
    """
    _check_state_dims(A, s, "expectation")
    return _lifted_moments((A,), s)[0]


def _second_moment(A: ComplexMatrix, s: QuantumState) -> float:
    """``<A^2>`` for Hermitian A, without forming the matrix square."""
    # Kept by name: bench/tracer.py wraps hilbert._second_moment, and the
    # traced benchmark runs (bench/run.py --trace 1) need it to install.
    return _lifted_moments((A,), s)[1]


def variance(A: ComplexMatrix, s: QuantumState) -> float:
    """``<A^2> - <A>^2`` for a Hermitian observable.

    Tiny negative round-off (above ``-DEFAULT.variance_clamp``) is clamped
    to zero; a lower value signals misuse and raises.
    """
    _check_state_dims(A, s, "variance")
    return _lifted_variance((A,), s, "A")[1]


def _require_hermitian(factors: Sequence[ComplexMatrix], label: str, *args) -> None:
    """Reject the product ``F_1 (x) ... (x) F_k`` of ``factors`` (one factor:
    the operator itself), never built, when the bound
    ``sum_k delta_k prod_{j != k} max|F_j|`` (``delta_k`` the defect of factor
    k) on its Hermiticity defect exceeds ``DEFAULT.hermitian``.  The message names it
    ``label.format(*args)``, formatted only then."""
    if len(factors) == 1:
        bound, what = factors[0].hermiticity_defect(), "max deviation"
    else:
        sizes = [F.max_abs() for F in factors]
        bound = sum(F.hermiticity_defect() * math.prod(sizes[:k] + sizes[k + 1:])
                    for k, F in enumerate(factors))
        what = "max deviation bound"
    if bound > DEFAULT.hermitian:
        raise ValueError(f"operator {label.format(*args)} is not Hermitian "
                         f"({what} {bound:.3e})")


def _clamped_variance(second: float, mean: float) -> float:
    """``second - mean**2``, with round-off below zero (above
    ``-DEFAULT.variance_clamp``) clamped to zero and anything lower rejected."""
    var = second - mean * mean
    if var < 0.0:
        if var < -DEFAULT.variance_clamp:
            raise ValueError(f"variance {var:.3e} is negative beyond round-off")
        var = 0.0
    return var


def _lifted_variance(factors: Sequence[ComplexMatrix], s: QuantumState,
                     label: str, *args) -> tuple[float, float]:
    """Mean and clamped variance of the Hermitian product of ``factors``:
    the product is checked (:func:`_require_hermitian`), applied to the
    state once (:func:`_lifted_moments`), and its variance clamped."""
    _require_hermitian(factors, label, *args)
    mean, second = _lifted_moments(factors, s)
    return mean.real, _clamped_variance(second, mean.real)


def _apply_factor(F: Array, X: Array, left: int) -> Array:
    """``(I_left (x) F (x) I_rest) x`` for every ``x`` in ``X`` without the
    lifted matrix (the vec trick, Van Loan 2000): ``X`` is viewed as
    ``(left, F.side, rest)``, ``left`` being the ensemble size times the sides
    of the factors before ``F``.  A last factor is the product ``X F^T``."""
    d = F.shape[0]
    if X.size == left * d:
        return np.matmul(X.reshape(left, d), F.T)
    return np.matmul(F, X.reshape(left, d, -1))


def _lifted_moments(factors: Sequence[ComplexMatrix], s: QuantumState) -> tuple[complex, float]:
    """Mean and second moment of ``M = F_1 (x) ... (x) F_k``, the factors
    acting on consecutive runs of ``s.dims``; M is never formed.  The second
    moment assumes M Hermitian; the mean is complex, which also covers an
    anti-Hermitian product such as a lifted commutator."""
    Y, left = s.vectors, s.weights.size
    for F in factors:
        Y = _apply_factor(F.data, Y, left)
        left *= F.side
    Y, w = Y.reshape(s.vectors.shape), s.weights[:, None]
    return complex(np.vdot(w * s.vectors, Y)), float(np.vdot(w * Y, Y).real)


# Arrays of the state's size held at once, the state included: two to build
# it; two partial products A_i v of a moment table and, for fourth moments,
# one more (the products themselves are formed a small block at a time).
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
    """Convex mixture ``sum_n p_n rho_n``: the components' ensembles, each
    with its weight multiplied in.  A convex sum of valid states is a valid
    state, so nothing is re-checked and no density is formed."""
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
    parts = [(weight, s) for weight, s in zip(w, states) if weight != 0.0]
    rank, side = sum(s.weights.size for _, s in parts), math.prod(dims)
    _refuse_oversize(16 * rank * side, f"a mixture of {rank} vectors of side {side}")
    return QuantumState("mixed", dims,
                        np.concatenate([weight * s.weights for weight, s in parts]),
                        np.concatenate([s.vectors for _, s in parts]))
