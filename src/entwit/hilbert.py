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
  at a time, never reading the density or building a lifted operator.  A
  bipartite condition applies a block of the rows of its larger factor
  first, the last factor's or the first's, and the other factor to that
  block's output, so its moment table forms no array of the state's size;
  ``config._WORKING_COPIES`` counts what each path holds.
  :func:`_apply_factor` (the vec trick) is the only code that multiplies
  an operator factor into vectors derived from a state.  It takes and
  returns 2-d arrays, ``(left, d * rest)`` in and ``(left * F.shape[0],
  rest)`` out, with ``d = F.shape[1]`` the factor's input side, so one
  factor's output is the next one's input, and a block of a factor's rows
  applies the same way as the whole factor.  ``kron`` builds the dense
  lifted matrix and serves as the reference the tests compare against.
* State constructors refuse, before allocating, any state that would take,
  with the working copies a condition makes of it, more than half of the
  machine's physical memory.
* All values are immutable after construction and all operations are pure,
  so everything here is safe for concurrent read access.  A matrix copies
  an array its caller hands in, but owns without a copy the fresh array of
  an operation (``+ - @ *``, :func:`kron`, :func:`commutator`,
  :attr:`QuantumState.density`) or of an operator factory.  It
  computes its largest entry at construction, which doubles as the
  finiteness check, and its Hermiticity defect once, on first use.  A state
  holds only its own data and is never written after construction; it
  takes weak references, so a cache may key on it without keeping it alive.
"""

from __future__ import annotations

import math
import numbers
from array import array
from typing import Any, Iterable, Sequence

import numpy as np

from .config import DEFAULT, _Frozen, _as_int, _as_real, _refuse_oversize

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
    if type(dims) is tuple and dims and all(type(d) is int and d >= 1 for d in dims):
        return dims  # already a signature, as every operation passes one
    out = tuple(_as_int(d, "factor dimension") for d in dims)
    if not out or any(d < 1 for d in out):
        raise ValueError(f"factor dimensions must be positive integers, got {dims!r}")
    return out


def _blocks(n: int, width: int) -> list[slice]:
    """Slices of ``range(n)`` of 1/64 of it, or of 1024 entries of ``width``
    if more: the temporaries of a block stay small next to the whole."""
    step = max(1, n // 64, 2**10 // width)
    return [slice(k, k + step) for k in range(0, n, step)]


class ComplexMatrix(_Frozen):
    """Square complex matrix on a composite Hilbert space.

    Parameters
    ----------
    data : array_like
        Square matrix of complex entries; all entries must be finite.  The
        matrix holds a read-only copy.
    dims : iterable of int, optional
        Local factor dimensions whose product equals the matrix side.
        Defaults to the single factor ``(side,)``.
    """

    __slots__ = ("data", "dims", "_defect", "_max_abs")
    # numpy hands a binary operation with a matrix back to the matrix, so an
    # operand it refuses raises TypeError instead of making an object array
    __array_ufunc__ = None

    def __init__(self, data, dims: Iterable[int] | None = None, *, _owned: bool = False):
        # _owned: ``data`` is a complex128 array no caller can write (the
        # result of an operation or a factory), taken over without a copy
        arr = data if _owned else np.array(data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        resolved = (arr.shape[0],) if dims is None else _as_dims(dims)
        if math.prod(resolved) != arr.shape[0]:
            raise ValueError(
                f"dims {resolved} have product {math.prod(resolved)}, "
                f"but the matrix side is {arr.shape[0]}"
            )
        # a NaN or an infinity carries through the max; a finite entry whose
        # modulus overflows (1.5e308+1.5e308j) does not fail the check below
        peak = float(np.abs(arr).max())
        if not math.isfinite(peak) and not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dims", resolved)
        object.__setattr__(self, "_defect", None)
        object.__setattr__(self, "_max_abs", peak)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    def hermiticity_defect(self) -> float:
        """Max-abs deviation of ``A - A†`` (scale-free for O(1) norms), taken
        a block of rows at a time, so no temporary of the matrix's size is formed."""
        if self._defect is None:
            defect = max(float(np.abs(self.data[rows] - self.data[:, rows].conj().T).max())
                         for rows in _blocks(self.side, self.side))
            object.__setattr__(self, "_defect", defect)
        return self._defect

    def max_abs(self) -> float:
        """Largest entry modulus."""
        return self._max_abs

    def _binary(self, other, op) -> "ComplexMatrix":
        if not isinstance(other, ComplexMatrix):
            return NotImplemented
        if self.dims != other.dims:
            raise ValueError(f"factor signature mismatch: {self.dims} vs {other.dims}")
        return ComplexMatrix(op(self.data, other.data), self.dims, _owned=True)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __matmul__(self, other):
        return self._binary(other, np.matmul)

    def __mul__(self, scalar):
        # a bool or a string is refused, not cast; Python and numpy numbers pass
        if isinstance(scalar, bool) or not isinstance(scalar, numbers.Number):
            return NotImplemented
        return ComplexMatrix(self.data * complex(scalar), self.dims, _owned=True)

    __rmul__ = __mul__

    def __repr__(self):
        return f"ComplexMatrix(side={self.side}, dims={self.dims})"


class QuantumState(_Frozen):
    """Pure or mixed state on a composite Hilbert space, held as an ensemble.

    The state is ``rho = sum_i w_i |v_i><v_i|``: ``weights`` has shape
    ``(r,)`` and ``vectors`` has shape ``(r, side)``, both read-only.  A pure
    state is the case ``r = 1`` with weight 1; its vector is
    :attr:`amplitudes`.  The dense density is never stored; :attr:`density`
    builds it on demand for tests and callers.

    Caller-supplied data goes through :meth:`pure` (unit norm within 1e-12)
    or :meth:`mixed` (a density Hermitian and of unit trace within 1e-12,
    with no eigenvalue below -1e-10); :func:`mix` and the ``states``
    families check their own inputs and call the bare constructor.
    """

    __slots__ = ("kind", "dims", "weights", "vectors", "__weakref__")

    def __init__(self, kind, dims, weights, vectors):
        weights.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def pure(cls, amplitudes, dims: Iterable[int]) -> "QuantumState":
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        resolved = _as_dims(dims)
        if math.prod(resolved) != amps.size:
            raise ValueError(
                f"dims {resolved} have product {math.prod(resolved)}, "
                f"but the amplitude vector has length {amps.size}"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)  # not finite if an entry is not
        if not math.isfinite(norm) and not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
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
        return ComplexMatrix((self.weights[:, None] * V).T @ V.conj(), self.dims, _owned=True)

    def __repr__(self):
        return f"QuantumState(kind={self.kind!r}, dims={self.dims})"


def _check_state_dims(A: ComplexMatrix, s: QuantumState, what: str) -> None:
    if A.dims != s.dims:
        raise ValueError(f"{what}: operator dims {A.dims} do not match state dims {s.dims}")


def kron(A: ComplexMatrix, B: ComplexMatrix) -> ComplexMatrix:
    """Tensor product; the factor signature is the concatenation of both."""
    return ComplexMatrix(np.kron(A.data, B.data), A.dims + B.dims, _owned=True)


def commutator(A: ComplexMatrix, B: ComplexMatrix) -> ComplexMatrix:
    """``AB - BA`` for operators on the same space."""
    if A.dims != B.dims:
        raise ValueError(f"commutator needs equal dims, got {A.dims} vs {B.dims}")
    return ComplexMatrix(A.data @ B.data - B.data @ A.data, A.dims, _owned=True)


def expectation(A: ComplexMatrix, s: QuantumState) -> complex:
    """``sum_i w_i <v_i|A|v_i>``, that is ``trace(rho A)``.

    The result is complex in general; for a Hermitian ``A`` the imaginary
    part is round-off only (|Im| <= 1e-10 for the magnitudes handled here).
    """
    _check_state_dims(A, s, "expectation")
    return _lifted_moments((A.data,), s)[0]


def _second_moment(A: ComplexMatrix, s: QuantumState) -> float:
    """``<A^2>`` for Hermitian A, without forming the matrix square."""
    # Kept by name: bench/tracer.py wraps hilbert._second_moment, and the
    # traced benchmark runs (bench/run.py --trace 1) need it to install.
    return _lifted_moments((A.data,), s)[1]


def variance(A: ComplexMatrix, s: QuantumState) -> float:
    """``<A^2> - <A>^2`` for a Hermitian observable.

    Tiny negative round-off (above ``-DEFAULT.variance_clamp``) is clamped
    to zero; a lower value signals misuse and raises.
    """
    _check_state_dims(A, s, "variance")
    return _lifted_variance((A,), s, "A")[1]


def _require_hermitian(factors: Sequence[ComplexMatrix], label: str) -> None:
    """Reject the product ``F_1 (x) ... (x) F_k`` of ``factors`` (one factor:
    the operator itself), never built, when the bound
    ``sum_k delta_k prod_{j != k} max|F_j|`` (``delta_k`` the defect of factor
    k) on its Hermiticity defect exceeds ``DEFAULT.hermitian``; the message
    names it ``label``.  Conditions call it only where they build moments."""
    first, *rest = factors
    # the bound on the product of the factors so far, grown by the product rule
    bound, size = first.hermiticity_defect(), first._max_abs
    for F in rest:
        bound, size = bound * F._max_abs + size * F.hermiticity_defect(), size * F._max_abs
    what = "max deviation bound" if rest else "max deviation"
    if bound > DEFAULT.hermitian:
        raise ValueError(f"operator {label} is not Hermitian "
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
                     label: str) -> tuple[float, float]:
    """Mean and clamped variance of the Hermitian product of ``factors``:
    the product is checked (:func:`_require_hermitian`), applied to the
    state once (:func:`_lifted_moments`), and its variance clamped."""
    _require_hermitian(factors, label)
    mean, second = _lifted_moments([F.data for F in factors], s)
    return mean.real, _clamped_variance(second, mean.real)


def _apply_factor(F: Array, X: Array) -> Array:
    """``(I_left (x) F (x) I_rest) x`` for every ``x`` in ``X`` without the
    lifted matrix (the vec trick, Van Loan 2000).  ``X`` is 2-d,
    ``(left, d * rest)``: a row per ensemble vector and index of the factors
    before ``F``, ``d = F.shape[1]`` the input side of ``F``.  The result is
    ``(left * F.shape[0], rest)``, the input form of the next factor; for a
    last factor (``rest = 1``) it is the product ``X F^T``, ``(left,
    F.shape[0])``, which holds the same entries in the same order, so a
    caller that needs one of the two shapes reshapes.  A block of a
    factor's rows ``F[k0:k1]`` applies the same way and gives those output
    rows, so a block of either factor's rows can be applied first and the
    other factor then to its small output.  Every product of an operator
    factor with vectors derived from a state goes through here."""
    left, d = X.shape[0], F.shape[1]
    if X.shape[1] == d:
        return X @ F.T
    return np.matmul(F, X.reshape(left, d, -1)).reshape(left * F.shape[0], -1)


def _lifted_moments(factors: Sequence[Array], s: QuantumState) -> tuple[complex, float]:
    """Mean and second moment of ``M = F_1 (x) ... (x) F_k``, the factors
    (square arrays) acting on consecutive runs of ``s.dims``; M is never
    formed.  The second moment assumes M Hermitian; the mean is complex, which
    also covers an anti-Hermitian product such as a lifted commutator."""
    Y = s.vectors
    for F in factors:
        Y = _apply_factor(F, Y)
    Y = Y.reshape(s.vectors.shape)
    wY = s.weights[:, None] * Y
    return complex(np.vdot(s.vectors, wY)), float(np.vdot(Y, wY).real)


def _as_reals(values: Any, name: str) -> Array:
    """A list or array of reals as a 1-d float array, each checked by :func:`_as_real`.
    An integer or float ndarray or ``array.array`` is checked whole, not entry by entry."""
    if isinstance(values, (np.ndarray, array)):
        values = np.asarray(values)
        if values.dtype.kind in "iuf":
            out = np.array(values, dtype=float).reshape(-1)
            finite = np.isfinite(out)
            if not finite.all():
                raise ValueError(f"{name!r} must be finite, got {float(out[finite.argmin()])!r}")
            return out
        values = values.reshape(-1).tolist()
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name!r} must be a list of real numbers, got {values!r}")
    return np.array([_as_real(v, name) for v in values], dtype=float)


def mix(states: Sequence[QuantumState], weights: Sequence[float]) -> QuantumState:
    """Convex mixture ``sum_n p_n rho_n``: the components' ensembles, each
    with its weight multiplied in.  A convex sum of valid states is a valid
    state, so nothing is re-checked and no density is formed."""
    if len(states) != len(weights):
        raise ValueError(f"{len(states)} states but {len(weights)} weights")
    if not states:
        raise ValueError("mix requires at least one state")
    w = _as_reals(weights, "weights")
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
